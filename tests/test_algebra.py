"""Bound quiver presentations and the degreewise basis engine: zigzag
algebras, covers, Borels, quadratic duals, and the closed-form basis
oracles that cross-check the engine.  A reference elimination over
every path checks the engine's basis and normal forms."""

import hashlib
import weakref
from fractions import Fraction

import pytest

from zzqh import (NonTerminationError, closed_form_cover_basis,
                  compute_basis, presentation_borel, presentation_cover,
                  presentation_dual_conjectured, presentation_shifted_dual,
                  presentation_zigzag, quadratic_dual,
                  shifted_dual_membership, zigzag_hom_oracle)
from zzqh import algebra
from zzqh.algebra import (Arrow, Element, Path, Presentation, label_key,
                          quadratic_blocks, scope)
from zzqh.koszul import (brauer_line_presentation,
                         counterexample_presentation, loop_presentation)

from helpers import concat

GRID = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))


# ---------------------------------------------------------------------------
# reference: elimination of the relation span over every path


def _reference_insert(rows, vec):
    """Reduce ``vec`` against the rows (pivot -> row, pivot largest and
    normalised to 1) until it meets no pivot; keep what is left."""
    while True:
        hits = [p for p in vec if p in rows]
        if not hits:
            break
        pivot = max(hits, key=Path.sort_key)
        c = vec[pivot]
        for q, v in rows[pivot].items():
            vec[q] = vec.get(q, 0) - c * v
            if not vec[q]:
                del vec[q]
    if vec:
        pivot = max(vec, key=Path.sort_key)
        inv = 1 / Fraction(vec[pivot])
        rows[pivot] = {q: v * inv for q, v in vec.items()}


def _reference_basis(pres, max_len):
    """Eliminate the relation span over every path of each length, with
    no use of the engine's candidates.  In length d the span is
    A_1 I_{d-1} + I_{d-1} A_1 plus the relations of length d.  Returns
    the basis by length, the fully reduced pivot rows, and whether an
    empty length was reached within ``max_len``."""
    rel_by_len = {}
    for r in pres.relations:
        rel_by_len.setdefault(next(iter(r.terms)).length, []).append(r)
    levels = [[Path(v) for v in pres.vertices]]
    paths, prev_rows, all_rows = levels[0], [], {}
    for d in range(1, max_len + 1):
        paths = [Path(p.source, p.arrows + (a,))
                 for p in paths for a in pres.arrows_from(p.target)]
        rows = {}
        for row in prev_rows:
            some = next(iter(row))
            for a in pres.arrows_from(some.target):
                _reference_insert(rows, {Path(p.source, p.arrows + (a,)): c
                                         for p, c in row.items()})
            for a in pres.arrows:
                if a.target == some.source:
                    _reference_insert(rows, {Path(a.source, (a,) + p.arrows): c
                                             for p, c in row.items()})
        for r in rel_by_len.get(d, ()):
            _reference_insert(rows, dict(r.terms))
        for pivot in sorted(rows, key=Path.sort_key):  # back-substitute
            row = rows[pivot]
            for q in [q for q in row if q != pivot and q in rows]:
                c = row[q]
                for t, v in rows[q].items():
                    row[t] = row.get(t, 0) - c * v
                    if not row[t]:
                        del row[t]
        all_rows.update(rows)
        levels.append(sorted((p for p in paths if p not in rows),
                             key=Path.sort_key))
        if not levels[-1]:
            return levels, all_rows, True
        prev_rows = list(rows.values())
    return levels, all_rows, False


def _assert_engine_matches_reference(pres, max_len=12):
    levels, rows, finished = _reference_basis(pres, max_len)
    if not finished:
        with pytest.raises(NonTerminationError) as exc:
            compute_basis(pres, max_len)
        assert exc.value.dims == [len(level) for level in levels]
        return
    inst = compute_basis(pres, max_len)
    assert [list(level) for level in inst.basis_by_length] == levels
    paths = list(levels[0])
    for d in range(inst.top_length + 2):
        for p in paths:
            if p.length > inst.top_length:
                want = {}
            elif p in rows:
                want = {q: -c for q, c in rows[p].items() if q != p}
            else:
                want = {p: 1}
            assert inst.reduce_path(p).terms == want, p
        paths = [Path(p.source, p.arrows + (a,))
                 for p in paths for a in pres.arrows_from(p.target)]


KINDS = {"cover": presentation_cover, "zigzag": presentation_zigzag,
         "borel": presentation_borel,
         "qdual": lambda n, s: quadratic_dual(presentation_cover(n, s)),
         "shifted-dual": presentation_shifted_dual,
         "dual-conjectured": presentation_dual_conjectured}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("n,s", GRID)
def test_basis_matches_reference_on_the_grid(kind, n, s):
    _assert_engine_matches_reference(KINDS[kind](n, s))


@pytest.mark.parametrize("pres", [counterexample_presentation(),
                                  loop_presentation(),
                                  brauer_line_presentation(2)],
                         ids=lambda pres: pres.kind)
def test_basis_matches_reference_on_the_fixtures(pres):
    _assert_engine_matches_reference(pres)


def test_pivot_rows_are_reduced_at_later_pivots():
    """x3y3 = x2y2 = x1y1 in one block: the row of the first pivot x3y3
    meets the second pivot x2y2, so a forward echelon form without
    back-substitution would leave x2y2, not a basis path, in the normal
    form of x3y3."""
    arrows = ([Arrow("u", f"v{i}", f"x{i}", (1, 0)) for i in (1, 2, 3)]
              + [Arrow(f"v{i}", "w", f"y{i}", (1, 0)) for i in (1, 2, 3)])
    free = Presentation(["u", "v1", "v2", "v3", "w"], arrows, ())
    p = {i: free.path("u", (f"x{i}", f"y{i}")) for i in (1, 2, 3)}
    pres = Presentation(free.vertices, arrows,
                        [Element({p[3]: 1, p[2]: -1}),
                         Element({p[2]: 1, p[1]: -1})])
    _assert_engine_matches_reference(pres)
    assert compute_basis(pres).reduce_path(p[3]).terms == {p[1]: 1}


def test_basis_matches_reference_on_random_presentations():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def presentations(draw):
        nv = draw(st.integers(1, 3))
        ends = draw(st.lists(st.tuples(st.integers(0, nv - 1),
                                       st.integers(0, nv - 1)),
                             min_size=1, max_size=4))
        arrows = [Arrow(source=u, target=v, label=f"a{i}", bidegree=(1, 0))
                  for i, (u, v) in enumerate(ends)]
        free = Presentation(range(nv), arrows, ())
        by_ends = {}
        for length in (2, 3):
            paths = [Path(v) for v in range(nv)]
            for _ in range(length):
                paths = [Path(p.source, p.arrows + (a,)) for p in paths
                         for a in free.arrows_from(p.target)]
            for p in paths:
                by_ends.setdefault((length, p.source, p.target), []).append(p)
        rels = []
        for key in sorted(by_ends, key=repr):
            block = by_ends[key]
            for _ in range(draw(st.integers(0, 2 if key[0] == 2 else 1))):
                coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(block),
                                       max_size=len(block)))
                rel = Element(dict(zip(block, coeffs)))
                if not rel.is_zero():
                    rels.append(rel)
        return Presentation(range(nv), arrows, rels)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(presentations())
    def check(pres):
        _assert_engine_matches_reference(pres, max_len=4)

    check()


# ---------------------------------------------------------------------------
# zigzag algebras


def test_zigzag_dim_and_cartan():
    inst = compute_basis(presentation_zigzag(2, 3))
    assert inst.dim() == 30
    verts = inst.presentation.vertices
    oracle = zigzag_hom_oracle(2, 3)
    assert [[inst.dim_block(x, y) for y in verts] for x in verts] \
        == oracle.data


def test_zigzag_hom_oracle_small_cases():
    # the oracle also covers the parameters where the quadratic
    # presentation degenerates (single directed cycle, see below)
    for n, s in ((2, 2), (2, 3), (3, 2)):
        m = zigzag_hom_oracle(n, s)
        for i in range(m.nrows):
            for j in range(m.ncols):
                assert m.data[i][j] == 2 if i == j else m.data[i][j] <= 1
    assert sum(sum(r) for r in zigzag_hom_oracle(2, 3).data) == 30


def test_zigzag_weight_one_presentations_do_not_terminate():
    # on a weight-1 quiver the quadratic relations never fire, so the
    # engine reports non-termination instead of a basis
    for n in (1, 2):
        with pytest.raises(NonTerminationError) as exc:
            compute_basis(presentation_zigzag(n, 2), 10)
        assert exc.value.max_len == 10
        assert all(d == n + 1 for d in exc.value.dims)
        levels, _, finished = _reference_basis(presentation_zigzag(n, 2), 10)
        assert not finished
        assert exc.value.dims == [len(level) for level in levels]


def test_zigzag_socle_is_full_cycle():
    inst = compute_basis(presentation_zigzag(2, 3))
    for x in inst.presentation.vertices:
        assert inst.dim_block(x, x) == 2
        cycles = [p for p in inst.basis()
                  if p.source == x and p.target == x and p.length]
        assert len(cycles) == 1 and cycles[0].length == 3


# ---------------------------------------------------------------------------
# covers and Borels


def test_cover_dims_small():
    inst = compute_basis(presentation_cover(1, 2))
    # the trailing zero is the certified empty top level
    assert inst.dims_by_length() == [3, 4, 2, 0]
    assert inst.dim() == 9
    verts = inst.presentation.vertices
    assert verts == ((0, 2), (1, 1), (2, 0))
    assert [sum(inst.dim_block(x, y) for y in verts) for x in verts] \
        == [2, 4, 3]


def test_cover_cartan_small():
    inst = compute_basis(presentation_cover(1, 2))
    verts = inst.presentation.vertices
    assert [[inst.dim_block(x, y) for y in verts] for x in verts] \
        == [[1, 1, 0], [1, 2, 1], [0, 1, 2]]


def test_cover_matches_closed_form_basis(covers):
    for (n, s), inst in covers.items():
        closed = closed_form_cover_basis(n, s)
        assert inst.dim() == len(closed)
        engine = {}
        for p in inst.basis():
            key = (p.length, p.source, p.target)
            engine[key] = engine.get(key, 0) + 1
        oracle = {}
        for p in closed:
            key = (p.length, p.source, p.target)
            oracle[key] = oracle.get(key, 0) + 1
        assert engine == oracle


def test_cover_k_vertices_kill_return_paths():
    inst = compute_basis(presentation_cover(2, 3))
    assert inst.dim() == 49
    # at a vertex with first coordinate zero the 0-then-1 composite dies
    z = (0, 1, 2)
    pres = inst.presentation
    assert inst.reduce_path(pres.path(z, (0, 1))).is_zero()
    # away from those vertices it survives
    y = (1, 1, 1)
    assert not inst.reduce_path(pres.path(y, (0, 1))).is_zero()


def test_borel_is_directed_subalgebra():
    borel = compute_basis(presentation_borel(2, 3))
    assert borel.dim() == 28
    assert all(a.label != 0 for a in borel.presentation.arrows)
    cover = compute_basis(presentation_cover(2, 3))
    for x in borel.presentation.vertices:
        for y in borel.presentation.vertices:
            nonzero = sum(1 for p in cover.basis()
                          if p.source == x and p.target == y
                          and all(a.label != 0 for a in p.arrows))
            assert borel.dim_block(x, y) == nonzero


# ---------------------------------------------------------------------------
# quadratic and shifted duals


def test_quadratic_dual_is_involutive_on_dims():
    pres = presentation_cover(1, 2)
    once = compute_basis(quadratic_dual(pres))
    twice = compute_basis(quadratic_dual(quadratic_dual(pres)))
    base = compute_basis(pres)
    assert twice.dims_by_length() == base.dims_by_length()
    assert once.dim() == 14


@pytest.mark.parametrize("n, s", GRID)
@pytest.mark.parametrize("build", [
    presentation_cover, presentation_zigzag, presentation_borel,
    presentation_shifted_dual, presentation_dual_conjectured])
def test_quadratic_dual_is_an_involution_on_relation_blocks(build, n, s):
    pres = build(n, s)
    blocks = quadratic_blocks(pres)
    assert quadratic_blocks(quadratic_dual(quadratic_dual(pres))) == blocks
    # the dual's rows span the annihilator of the block's rows
    for key, (paths, rows) in quadratic_blocks(quadratic_dual(pres)).items():
        assert len(rows) + len(blocks[key][1]) == len(paths)
        assert all(sum(a * b for a, b in zip(r, d)) == 0
                   for r in rows for d in blocks[key][1])


def test_quadratic_blocks_scale_arrows_and_need_quadratic_relations():
    """With arrow k scaled by k + 2, each reduced row is the old one with
    each entry scaled by its path's weight, renormalized at the pivot."""
    pres = presentation_cover(2, 2)
    eps = {(a.source, a.label): Fraction(k + 2)
           for k, a in enumerate(pres.arrows)}
    blocks, scaled = quadratic_blocks(pres), quadratic_blocks(pres, eps)
    assert scaled != blocks
    for key, (paths, rows) in blocks.items():
        weight = [eps[(a.source, a.label)] * eps[(b.source, b.label)]
                  for a, b in (p.arrows for p in paths)]
        want = []
        for row in rows:
            piv = next(c for c, v in enumerate(row) if v)
            want.append(tuple(v * weight[c] / weight[piv]
                              for c, v in enumerate(row)))
        assert scaled[key] == (paths, want)
    loop = loop_presentation()
    cube = Presentation(loop.vertices, loop.arrows,
                        [Element.of_path(loop.path(1, ("loop",) * 3))])
    with pytest.raises(ValueError, match="quadratic relations"):
        quadratic_blocks(cube)


def test_shifted_dual_dims():
    for (n, s), want in (((1, 2), 14), ((1, 3), 30), ((2, 2), 27),
                         ((2, 3), 77), ((3, 2), 44)):
        assert compute_basis(presentation_shifted_dual(n, s)).dim() == want


def test_shifted_dual_matches_quadratic_dual_blocks():
    for n, s in ((1, 2), (2, 2)):
        b = compute_basis(presentation_shifted_dual(n, s))
        dq = compute_basis(quadratic_dual(presentation_cover(n, s)))
        for x in b.presentation.vertices:
            for y in b.presentation.vertices:
                assert b.dim_block(x, y) == dq.dim_block(x, y)


def test_shifted_dual_membership_small_cases():
    assert shifted_dual_membership((0, 2), (1, 1))
    assert shifted_dual_membership((2, 0), (0, 2))
    assert shifted_dual_membership((1, 1), (1, 1))
    assert not shifted_dual_membership((2, 0), (1, 0))
    assert shifted_dual_membership((0, 1, 2), (1, 0, 1))
    assert not shifted_dual_membership((0, 1, 2), (0, 0, 2))
    with pytest.raises(ValueError):
        shifted_dual_membership((1, 1), (1, -1))


def test_dual_conjectured_dim_small():
    assert compute_basis(presentation_dual_conjectured(1, 2)).dim() == 9


# ---------------------------------------------------------------------------
# presentation plumbing


def test_presentation_rejects_duplicate_arrows():
    a = Arrow(source=(0,), target=(0,), label=1, bidegree=(1, 0))
    with pytest.raises(ValueError):
        Presentation([(0,)], [a, a], [])


def test_presentation_rejects_inhomogeneous_relations():
    a = Arrow(source=(0,), target=(0,), label=1, bidegree=(1, 0))
    p1 = Path((0,), (a,))
    p2 = Path((0,), (a, a))
    with pytest.raises(ValueError):
        Presentation([(0,)], [a], [Element({p1: 1, p2: 1})])


def test_reduce_path_fixes_basis_paths():
    inst = compute_basis(presentation_cover(1, 2))
    for p in inst.basis():
        red = inst.reduce_path(p)
        assert red.terms == {p: 1}
        assert inst.is_basis_path(p)
    assert inst._forms and not any(map(inst.is_basis_path, inst._forms))


def test_reduce_path_rejects_a_path_off_the_presentation():
    """A path over an arrow the presentation lacks, also one met after a
    zero prefix, and the idempotent of a vertex it lacks raise
    ValueError: folded alone, the stray idempotent would be itself."""
    inst = compute_basis(presentation_cover(1, 2))
    pres = inst.presentation
    z = (0, 2)
    stray = Arrow(source=z, target=z, label="stray", bidegree=(1, 0))
    twin = Arrow(source=z, target=(2, 0), label=0, bidegree=(0, 1))
    dead = pres.path(z, (0, 1))
    assert inst.reduce_path(dead).is_zero()
    for p in (Path(z, (stray,)), Path(z, (twin,)),
              Path(z, dead.arrows + (stray,)), Path((9, 9))):
        with pytest.raises(ValueError, match="not a path of"):
            inst.reduce_path(p)


@pytest.mark.parametrize("point", GRID)
def test_cached_path_keys_match_a_recomputation(covers, point):
    """Every basis path of the cover, of its opposite and of its
    quadratic dual has the bidegree and sort key that the arrows give
    afresh, on the first read and on the memoized second one; so does
    each path one arrow longer, concatenated after those reads."""
    cover = covers[point]
    for inst in (cover, cover.opposite(),
                 compute_basis(quadratic_dual(cover.presentation))):
        for p in inst.basis():
            bidegree = (sum(a.bidegree[0] for a in p.arrows),
                        sum(a.bidegree[1] for a in p.arrows))
            source = p.source if isinstance(p.source, tuple) else (p.source,)
            key = (len(p.arrows), tuple(label_key(a.label) for a in p.arrows),
                   source)
            assert p.bidegree == bidegree and p.bidegree == bidegree, p
            assert p.sort_key() == key, p
            for arr in inst.presentation.arrows_from(p.target):
                longer = concat(p, Path(arr.source, (arr,)))
                assert longer.bidegree == (bidegree[0] + arr.bidegree[0],
                                           bidegree[1] + arr.bidegree[1])
                assert longer.sort_key() == (key[0] + 1,
                                             key[1] + (label_key(arr.label),),
                                             source)


def test_an_arrow_hashes_and_compares_like_a_fresh_copy(covers):
    """An arrow's stored hash and label key are those of a copy built
    afresh, and of its four fields; a change of any field is another
    arrow, and the repr shows the four fields alone."""
    cover = covers[(2, 3)]
    for a in cover.presentation.arrows + cover.opposite().presentation.arrows:
        b = Arrow(source=a.source, target=a.target, label=a.label,
                  bidegree=a.bidegree)
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1, a
        assert hash(a) == hash((a.source, a.target, a.label, a.bidegree))
        assert a.label_key == b.label_key == label_key(a.label)
        assert repr(a) == (f"Arrow(source={a.source!r}, target={a.target!r}, "
                           f"label={a.label!r}, bidegree={a.bidegree!r})")
        other = Arrow(source=a.source, target=a.target, label=a.label,
                      bidegree=(a.bidegree[1] + 1, a.bidegree[0]))
        assert other != a and other not in {a}


# ---------------------------------------------------------------------------
# scopes: what the instances made inside derive is released on exit


def test_scopes_nest_and_release_only_the_instances_made_inside():
    """Each scope releases the instances made inside it and not in an
    inner one; an opposite goes with its algebra, wherever it is made;
    an instance made outside every scope keeps its memo.  A scope holds
    its instances weakly, and the registry of open scopes is empty once
    they close."""
    outside = compute_basis(presentation_cover(1, 2))
    before = outside.memo("key", object)
    with scope() as outer:
        a = compute_basis(presentation_cover(1, 2))
        a_key = a.memo("key", object)
        with scope() as inner:
            b = compute_basis(presentation_cover(1, 2))
            b_key = b.memo("key", object)
            a_op, out_op = a.opposite(), outside.opposite()
            assert set(inner) == {b} and set(outer) == {a, a_op}
            dropped = weakref.ref(compute_basis(presentation_cover(1, 2)))
            assert dropped() is None and set(inner) == {b}
            assert algebra._scopes == [outer, inner]
        assert b.memo("key", object) is not b_key
        assert a.memo("key", object) is a_key and a.opposite() is a_op
    assert a.memo("key", object) is not a_key
    assert a_op.memo("opposite", lambda: None) is None
    assert a.opposite() is not a_op
    assert outside.memo("key", object) is before
    assert outside.opposite() is out_op and out_op.opposite() is outside
    assert algebra._scopes == []


# ---------------------------------------------------------------------------
# frozen bases and normal forms: every instance that the benchmark's calls
# build keeps its basis and stored forms, term for term and type for type


def _at(n, s):
    return ["--n", str(n), "--s", str(s)]


# `check all`, then the calls of one `large` pass of bench/run.py; a
# `resolve` builds only its cover, whichever simple it resolves
BENCH_CALLS = (
    [["check", "all"]]
    + [call for n, s in ((2, 4), (3, 3), (4, 2)) for call in (
        ["check", "koszul"] + _at(n, s), ["check", "qh"] + _at(n, s),
        ["resolve"] + _at(n, s) + ["--module", f"simple:{s}" + ",0" * n])]
    + [call for n, s in ((2, 5), (3, 3), (4, 2)) for call in (
        ["check", "dual"] + _at(n, s), ["dual"] + _at(n, s) + ["--emit", "json"])]
    + [["check", "socle-lemmas"] + _at(n, s) for n, s in ((2, 4), (3, 3))])

FROZEN_BASES = "e170cf8aa15ee4d9652930aaa1fdaeef2408463be58cf4b0a297ced88625561f"


def _instance_digest(inst):
    """The kind, parameters, ordered basis and stored forms of ``inst``,
    each coefficient by its repr, so an int turned Fraction shows."""
    key = Path.sort_key
    forms = [(repr(p), [(repr(q), repr(c)) for q, c in sorted(
        form.items(), key=lambda t: key(t[0]))])
        for p, form in sorted(inst._forms.items(), key=lambda t: key(t[0]))]
    return repr((inst.presentation.kind, sorted(inst.presentation.params.items()),
                 [[repr(p) for p in level] for level in inst.basis_by_length],
                 forms))


def test_bench_instances_keep_their_bases_and_forms(capsys, monkeypatch):
    """Every instance one `check all` and one `large` pass build, 81 of
    them from the cover and its opposite to the Borel, the line and the
    duals, hashes to the digest frozen before the basis engine last
    changed."""
    from zzqh.cli import run_cli
    made, init = [], algebra.AlgebraInstance.__init__

    def record(self, *args):
        init(self, *args)
        made.append(_instance_digest(self))

    monkeypatch.setattr(algebra.AlgebraInstance, "__init__", record)
    for call in BENCH_CALLS:
        assert run_cli(call) == 0, call
    capsys.readouterr()
    kinds = {d.split("'")[1] for d in made}
    assert len(made) == 81 and kinds == {
        "cover", "cover-op", "dual-built", "dual-conjectured", "shifted-dual",
        "cover!", "borel", "borel-op", "line"}
    digest = hashlib.sha256("\n".join(sorted(made)).encode()).hexdigest()
    assert digest == FROZEN_BASES


# ---------------------------------------------------------------------------
# the fold of compute_basis: a table lookup per arrow, nothing skipped


def test_the_fold_raises_on_a_missing_step_and_reads_an_empty_form_as_zero():
    """``_fold`` multiplies a basis path by a relation through the
    (path id, arrow id) table alone: a missing entry raises rather than
    being skipped, a candidate with no stored form stands for itself,
    and one whose stored form is empty is zero, not itself."""
    x, y, x2 = 0, 1, 2  # arrow ids
    e, px, pxy, px2 = 0, 1, 2, 3  # the idempotent, then candidate ids
    r = [((x, y), Fraction(3, 2)), ((x, y), -1)]
    step = {(e, x): px}
    with pytest.raises(KeyError):
        algebra._fold(e, r, step, {})
    step[px, y] = pxy
    assert algebra._fold(e, r, step, {}) == {pxy: Fraction(1, 2)}
    assert algebra._fold(e, [((x, y), 1)], step, {px: {}}) == {}
    # x2 reduces to x, so the halves meet at x y and sum to the int 1
    step[e, x2] = px2
    halves = [((x, y), Fraction(1, 2)), ((x2, y), Fraction(1, 2))]
    out = algebra._fold(e, halves, step, {px2: {px: 1}})
    assert out == {pxy: 1} and type(out[pxy]) is int


def test_compute_basis_builds_a_path_for_each_basis_path_alone(monkeypatch):
    """The rewriting runs on ids: one ``compute_basis`` of cover(2, 5),
    281 candidates of which 181 are pivots, builds 121 paths, by
    ``Path()`` or by extending a basis path, one per basis path and none
    per pivot, and its tables hold ints alone."""
    pres, made = presentation_cover(2, 5), []
    init, extend = Path.__init__, Path._extend

    def counted_init(self, *args):
        made.append(self)
        init(self, *args)

    def counted_extend(self, arrow):
        made.append(extend(self, arrow))
        return made[-1]

    monkeypatch.setattr(Path, "__init__", counted_init)
    monkeypatch.setattr(Path, "_extend", counted_extend)
    inst = compute_basis(pres)
    monkeypatch.undo()
    assert len(made) == inst.dim() == 121
    assert len(inst.step) == 302 - len(pres.vertices) and len(inst.forms) == 181
    assert all(type(i) is int for key in inst.step for i in key)
    assert all(type(i) is int for i in inst.step.values())
    assert all(type(i) is int for form in inst.forms.values()
               for i in (form.keys() | inst.forms.keys()))


@pytest.mark.parametrize("point", GRID)
def test_ascending_ids_list_the_basis_in_order(point):
    """Ids 0..V-1 are the idempotents in vertex order, and the ids of
    the basis paths from each vertex, merged, list ``basis()`` in order,
    for the cover and its opposite."""
    cover = compute_basis(presentation_cover(*point))
    for a in (cover, cover.opposite()):
        pairs = sorted((i, p) for x in a.presentation.vertices
                       for i, p in zip(a.ids_from(x), a.paths_from(x)))
        assert [p for _, p in pairs] == list(a.basis())
        assert [i for i, _ in pairs][:len(a.presentation.vertices)] == list(
            range(len(a.presentation.vertices)))
