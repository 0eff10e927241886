"""Graded right modules over the computed algebras: canonical modules,
socles, Hom spaces, minimal resolutions and Ext."""

import gc
import random
import weakref
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest

import zzqh.modules
from zzqh import (compute_basis, presentation_borel, presentation_cover,
                  presentation_shifted_dual, presentation_zigzag)
from zzqh.algebra import AlgebraInstance, Element, Path, scope
from zzqh.extdual import build_dual_from_ext, ext_table
from zzqh.koszul import _flat_degree_zero_part, check_delta_koszul
from zzqh.linalg import Echelon, Matrix
from zzqh.modules import (FreeModule, RightModule, _block_kernel, _block_key,
                          algebra_order, canonical_module,
                          costandard_module, delta_filtration, direct_sum,
                          dualize, ext_bigraded_reps, free_images,
                          free_module, free_row_image, generated_submodule,
                          gldim, injective_module, is_linear,
                          left_mult_map, minimal_resolution,
                          projective_module,
                          quotient_module, restrict_to, simple_module,
                          socle_isomorphic, socle_rows, standard_module,
                          top_generators)
from zzqh.qh import _copresentation, check_borel, check_quasi_hereditary
from zzqh.quiver import OrderData, build_quiver, order_data

from helpers import concat, full, lift_reference, rows, shift_module, sparse
from hom_reference import hom_space

GRID = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))
VERTS = ((0, 2), (1, 1), (2, 0))
KINDS = ("simple", "projective", "injective", "standard", "costandard")


@pytest.fixture(scope="module")
def cover12():
    return compute_basis(presentation_cover(1, 2))


def test_canonical_module_dims(cover12):
    dims = {"projective": (2, 4, 3), "injective": (2, 4, 3),
            "standard": (2, 2, 1), "costandard": (2, 2, 1),
            "simple": (1, 1, 1)}
    for kind, want in dims.items():
        got = tuple(canonical_module(cover12, kind, x).dim for x in VERTS)
        assert got == want, kind


def test_simple_socle_and_top(cover12):
    for x in VERTS:
        proj = projective_module(cover12, x)
        (v, d, _), = top_generators(proj)
        assert (v, d) == (x, (0, 0))
        assert len(socle_rows(proj)) == 1


def test_standard_is_quotient_costandard_is_sub(cover12):
    for x in VERTS:
        delta = standard_module(cover12, x)
        nabla = costandard_module(cover12, x)
        assert delta.dim <= projective_module(cover12, x).dim
        assert nabla.dim <= injective_module(cover12, x).dim
        (v, d, _), = top_generators(delta)
        assert (v, d) == (x, (0, 0))
        row, = socle_rows(nabla)
        assert {nabla.vertices[i] for i in row} == {x}


def test_unstable_rows_are_rejected(cover12):
    """The top generator of a projective alone is not action-stable:
    it does not span the kernel of a quotient."""
    proj = projective_module(cover12, (1, 1))
    (_, _, top), = top_generators(proj)
    with pytest.raises(AssertionError, match="do not span a submodule"):
        quotient_module(proj, list(top))


def _format_cases(a):
    """Every canonical module at ``a``, and a direct sum, a shift and a
    quotient built from them."""
    mods = [canonical_module(a, kind, x) for kind in KINDS
            for x in a.presentation.vertices]
    x = a.presentation.vertices[len(a.presentation.vertices) // 2]
    proj, inj = projective_module(a, x), injective_module(a, x)
    return mods + [direct_sum(a, [proj, inj, simple_module(a, x, (0, 1))]),
                   shift_module(standard_module(a, x), (1, 2)),
                   quotient_module(inj, [i for i, d in enumerate(inj.bidegrees)
                                         if d == (0, 0)])]


@pytest.mark.parametrize("point", GRID)
def test_sparse_actions_are_valid_and_dualize_back(covers, point):
    """Stored actions satisfy the weights, the grading and the
    relations, hold only arrows of the presentation that move something,
    store a row only where it is nonempty and keyed at a basis vector of
    the arrow's source, hold no zero coefficient, and transpose back
    under double duality."""
    for m in _format_cases(covers[point]):
        assert m.check(), m
        assert all(rows and m.algebra.presentation.arrow(a.source, a.label) == a
                   for a, rows in m.action.items()), m
        assert all(row and 0 <= i < m.dim and m.vertices[i] == a.source
                   for a, rows in m.action.items()
                   for i, row in rows.items()), m
        assert all(c for rows in m.action.values() for row in rows.values()
                   for c in row.values()), m
        assert dualize(dualize(m)).action == m.action, m


def _with_action(m, edit):
    """A copy of m whose action dict of row dicts ``edit`` changes."""
    action = {a: {i: dict(row) for i, row in rows.items()}
              for a, rows in m.action.items()}
    edit(action)
    return RightModule(m.algebra, m.vertices, m.bidegrees, action)


def test_check_rejects_broken_actions(cover12):
    proj = projective_module(cover12, (1, 1))
    m = direct_sum(cover12, [proj, shift_module(proj, (1, 0))])
    a, i, j = next((a, i, j) for a, rows in proj.action.items()
                   for i, row in rows.items() for j in row)
    off = next(k for k, v in enumerate(m.vertices) if v != a.target)

    def weights(action):
        action[a][i][off] = Fraction(1)

    def grading(action):  # from the first copy into the shifted one
        action[a][i][proj.dim + j] = Fraction(1)

    def length(action):  # a row keyed past the last basis vector
        action[a][m.dim] = {0: Fraction(1)}

    assert _with_action(m, lambda action: None).check()
    for edit, msg in ((weights, "breaks weights"),
                      (grading, "breaks the grading"),
                      (length, "bad action shape")):
        with pytest.raises(AssertionError, match=msg):
            _with_action(m, edit).check()


def _foreign_arrows(cover, borel):
    """(algebra, an arrow not of its presentation, an arrow of it at the
    same source): an index-0 arrow of the cover for the Borel, and an
    arrow of the cover for its opposite."""
    a0 = next(a for a in cover.presentation.arrows if a.label == 0
              and borel.presentation.arrows_from(a.source))
    op = cover.opposite()
    a = next(a for a in cover.presentation.arrows
             if op.presentation.arrows_from(a.source))
    return [(borel, a0, borel.presentation.arrows_from(a0.source)[0]),
            (op, a, op.presentation.arrows_from(a.source)[0])]


def _moving(alg, arrow):
    """The module on ``arrow``'s source and target, which ``arrow``
    sends one to the other."""
    return RightModule(alg, [arrow.source, arrow.target],
                       [(0, 0), arrow.bidegree], {arrow: {0: {1: Fraction(1)}}})


def test_a_module_rejects_an_arrow_not_of_its_presentation(covers, borels):
    """Building the module certifies each key of ``action`` an arrow of
    its presentation by value: an index-0 arrow of the cover given to a
    Borel module, and a cover arrow given to a module over the opposite
    algebra, raise, while the algebra's own arrows, and the cover's
    nonzero-index arrows equal to them by value, build a module."""
    for point in GRID:
        cover, borel = covers[point], borels[point]
        for alg, foreign, own in _foreign_arrows(cover, borel):
            with pytest.raises(KeyError):
                _moving(alg, foreign)
            with pytest.raises(KeyError):  # given no row, it still raises
                RightModule(alg, [foreign.source], [(0, 0)], {foreign: {}})
            assert _moving(alg, own).check()
        shared = next(a for a in cover.presentation.arrows if a.label != 0)
        assert shared in borel.presentation.arrows
        assert id(shared) not in {id(a) for a in borel.presentation.arrows}
        assert _moving(borel, shared).check()


def test_act_rejects_an_arrow_not_of_the_presentation(covers, borels):
    """Both ``act``s raise on an arrow not of the module's presentation
    rather than read it as moving nothing, while an arrow of the
    presentation that moves nothing gives the zero row."""
    for point in GRID:
        for alg, foreign, _ in _foreign_arrows(covers[point], borels[point]):
            x = foreign.source
            proj = projective_module(alg, x)
            still = next(a for a in alg.presentation.arrows
                         if a not in proj.action)
            free = free_module(alg, [(x, (0, 0))])
            for m in (simple_module(alg, x), proj, free):
                with pytest.raises(KeyError):
                    m.act(foreign, {0: Fraction(1)})
                assert m.act(still, {0: Fraction(1)}) == {}


def test_without_the_arrow_certificate_a_foreign_arrow_reads_as_zero(
        covers, borels, monkeypatch):
    """Negative control: with ``_no_rows`` accepting every arrow, the
    module takes the foreign arrow and each ``act`` reads it as zero."""
    monkeypatch.setattr(RightModule, "_no_rows", lambda self, arrow: {})
    for alg, foreign, _ in _foreign_arrows(covers[(2, 2)], borels[(2, 2)]):
        x = foreign.source
        assert foreign in _moving(alg, foreign).action
        for m in (simple_module(alg, x), free_module(alg, [(x, (0, 0))])):
            assert m.act(foreign, {0: Fraction(1)}) == {}


def _empty_entries(modules):
    """(label, arrow) for each arrow entry with no row."""
    return [(m.label, a) for m in modules
            for a, rows in m.action.items() if not rows]


def test_no_module_stores_an_empty_arrow_entry(capsys, monkeypatch):
    """Over one ``check all`` on the default grid, every module built
    holds only the arrows that move something, and no free module holds
    an ``action``; a module given an empty entry after it was built is
    found (negative control)."""
    from zzqh.cli import run_cli
    built, frees, init = [], [], RightModule.__init__
    free_init = FreeModule.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def record_free(self, *args):
        free_init(self, *args)
        frees.append(self)

    monkeypatch.setattr(RightModule, "__init__", record)
    monkeypatch.setattr(FreeModule, "__init__", record_free)
    assert run_cli(["check", "all"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert len(built) > 100 and frees and any(m.action for m in built)
    assert _empty_entries(built) == []
    assert not any(hasattr(f, "action") for f in frees)
    m = next(m for m in built if m.dim > 1)
    a = next(a for a in m.algebra.presentation.arrows if a not in m.action)
    m.action[a] = {}
    assert _empty_entries(built) == [(m.label, a)]


def test_duality_swaps_projective_injective(cover12):
    for x in VERTS:
        d = dualize(projective_module(cover12, x))
        assert d.dim == injective_module(cover12, x).dim


@pytest.mark.parametrize("point", GRID)
def test_projectives_are_read_off_the_product_table(monkeypatch, point):
    """Each P_x of the cover and of its opposite, built with
    ``AlgebraInstance.basis`` made to raise: its basis paths are the
    basis paths from x in sort-key order, each action row is
    ``reduce_path`` of its path times the arrow, in P_x's indices, and
    ``prefixes[l]`` is (the index of path l's prefix, its last arrow)."""
    def no_scan(self):
        raise AssertionError("a projective scanned the whole basis")

    with scope():
        cover = compute_basis(presentation_cover(*point))
        algebras = (cover, cover.opposite())
        want = [[sorted((p for p in a.basis() if p.source == x),
                        key=Path.sort_key) for x in a.presentation.vertices]
                for a in algebras]
        monkeypatch.setattr(AlgebraInstance, "basis", no_scan)
        for a, by_vertex in zip(algebras, want):
            for x, paths in zip(a.presentation.vertices, by_vertex):
                proj = projective_module(a, x)
                assert proj.basis_paths == tuple(paths)
                index = {p: i for i, p in enumerate(paths)}
                assert proj.prefixes == tuple(
                    (index[Path(x, p.arrows[:-1])], p.arrows[-1])
                    if p.arrows else None for p in paths)
                for arr in a.presentation.arrows:
                    reduced = {i: {index[q]: c for q, c in a.reduce_path(
                        Path(x, p.arrows + (arr,))).terms.items()}
                        for i, p in enumerate(paths) if p.target == arr.source}
                    assert rows(proj, arr) == {
                        i: row for i, row in reduced.items() if row}, (x, arr)


@pytest.mark.parametrize("build,point", [(presentation_cover, p) for p in GRID]
                         + [(presentation_shifted_dual, (2, 3))],
                         ids=[f"cover-{n},{s}" for n, s in GRID]
                         + ["shifted-dual-2,3"])
def test_left_multiplication_matches_reduce_path(build, point):
    """For every basis path g: u -> v, row l of ``left_mult_map`` by g is
    ``reduce_path`` of g followed by basis path l of P_v, in P_u's
    indices: the prefix chain against the folding oracle.  A sum g + 2h
    of two basis paths u -> v maps as the same sum of their maps."""
    with scope():
        a = compute_basis(build(*point))
        maps = {}
        for g in a.basis():
            src = projective_module(a, g.target)
            tgt = projective_module(a, g.source)
            index = {q: j for j, q in enumerate(tgt.basis_paths)}
            m = left_mult_map(a, Element.of_path(g))
            assert (m.nrows, m.ncols) == (src.dim, tgt.dim)
            for row, p in zip(m.data, src.basis_paths):
                want = [0] * tgt.dim
                for q, c in a.reduce_path(concat(g, p)).terms.items():
                    want[index[q]] = c
                assert row == want, (g, p)
            maps.setdefault((g.source, g.target), []).append((g, m))
        pairs = [ms[:2] for ms in maps.values() if len(ms) > 1]
        assert pairs
        for (g, mg), (h, mh) in pairs:
            assert left_mult_map(a, Element({g: 1, h: 2})).data == [
                [x + 2 * y for x, y in zip(r, t)]
                for r, t in zip(mg.data, mh.data)], (g, h)


def test_hom_projectives_match_blocks(cover12):
    for x in VERTS:
        for y in VERTS:
            h = hom_space(projective_module(cover12, x),
                          projective_module(cover12, y))
            assert len(h) == cover12.dim_block(y, x)


def _hom_space_reference(m, n, shift=None):
    """The dense Hom solver: one equation per (arrow, i, j), each built
    by scanning every unknown.  Returns the matrices of the basis maps."""
    allowed = []
    for i in range(m.dim):
        for j in range(n.dim):
            if m.vertices[i] != n.vertices[j]:
                continue
            if shift is not None:
                if tuple(b - a for a, b in zip(m.bidegrees[i], n.bidegrees[j])) \
                        != tuple(shift):
                    continue
            allowed.append((i, j))
    if not allowed:
        return []
    pos = {p: k for k, p in enumerate(allowed)}
    equations = []
    for a in m.algebra.presentation.arrows:
        am = [full(m, m.act(a, m.unit(i))) for i in range(m.dim)]
        an = [full(n, n.act(a, n.unit(l))) for l in range(n.dim)]
        for i in range(m.dim):
            for j in range(n.dim):
                row = [Fraction(0)] * len(allowed)
                touched = False
                for (k, jj), col in pos.items():
                    if jj == j and am[i][k]:
                        row[col] += am[i][k]
                        touched = True
                for (ii, l), col in pos.items():
                    if ii == i and an[l][j]:
                        row[col] -= an[l][j]
                        touched = True
                if touched:
                    equations.append(row)
    if equations:
        sols = Matrix(equations, ncols=len(allowed)).kernel_basis().data
    else:
        sols = [[int(r == c) for c in range(len(allowed))]
                for r in range(len(allowed))]
    maps = []
    for srow in sols:
        mat = Matrix.zero(m.dim, n.dim)
        for (i, j), col in pos.items():
            mat.data[i][j] = srow[col]
        maps.append(mat)
    return maps


@pytest.mark.parametrize("point", GRID)
def test_hom_space_matches_dense_reference(covers, point):
    """The sparse equations of ``hom_space`` span the same row space as
    the dense ones, so the canonical kernel, and every map, agrees.  The
    engine's Hom, Ext^0 of a two-step resolution, has the dimension
    ``hom_space`` gives, ungraded and in each bidegree, on every pair of
    canonical modules."""
    a = covers[point]
    mods = [canonical_module(a, kind, x) for kind in KINDS
            for x in a.presentation.vertices]
    for m in mods:
        res = minimal_resolution(m, max_steps=2)
        for n in mods:
            level = ext_bigraded_reps(res, n)[2][0]
            for shift in (None, (0, 0), (0, 1)):
                got = hom_space(m, n, shift)
                assert got == _hom_space_reference(m, n, shift), \
                    (m, n, shift)
                ext0 = level.values() if shift is None else [
                    level.get(shift, [])]
                assert len(got) == sum(map(len, ext0)), (m, n, shift)


def test_minimal_resolution_of_simple_exact_shape(cover12):
    res = minimal_resolution(simple_module(cover12, (0, 2)))
    assert res.complete
    assert res.terms == [[((0, 2), (0, 0))],
                         [((1, 1), (0, 1))],
                         [((0, 2), (1, 1)), ((2, 0), (0, 2))],
                         [((1, 1), (1, 2))],
                         [((0, 2), (2, 2))]]
    assert is_linear(res, "length")["linear"]


def _below(res, i):
    """The target of step i of ``res``: frees[i-1], or the module."""
    return res.frees[i - 1] if i else res.module


def test_resolution_composes_to_zero(covers):
    """Consecutive maps compose to zero in the resolutions of every
    simple and standard at the grid points: each generator image of
    step i goes to zero through the generator images of step i - 1."""
    composed = 0
    for a in covers.values():
        for m in [f(a, x) for x in a.presentation.vertices
                  for f in (simple_module, standard_module)]:
            res = minimal_resolution(m)
            for i in range(1, len(res.gens)):
                for grow in res.gens[i]:
                    assert not free_row_image(
                        res.frees[i - 1], _below(res, i - 1), res.gens[i - 1],
                        grow), (m, i)
                    composed += 1
    assert composed


def test_projective_dimensions_and_gldim(cover12):
    pds = tuple(minimal_resolution(simple_module(cover12, x)).length
                for x in VERTS)
    assert pds == (4, 3, 2)
    assert gldim(cover12) == 4


def test_ext_simple_simple_counts_arrows(cover12):
    pres = cover12.presentation
    for x in VERTS:
        res = minimal_resolution(simple_module(cover12, x))
        for y in VERTS:
            _, _, levels = ext_bigraded_reps(res, simple_module(cover12, y))
            dims = [sum(map(len, level.values())) for level in levels]
            arrows = sum(1 for a in pres.arrows
                         if a.source == x and a.target == y)
            assert dims[1] == arrows
            assert dims[0] == (1 if x == y else 0)


def test_projectives_are_delta_filtered(cover12):
    for x in VERTS:
        layers, witness = delta_filtration(projective_module(cover12, x))
        assert layers is not None, witness
        for v, _ in layers:
            assert v in VERTS


def test_truncated_resolution_is_flagged(cover12):
    res = minimal_resolution(simple_module(cover12, (0, 2)), max_steps=2)
    assert not res.complete
    assert res.length == 1


def test_socle_isomorphic_detects_shifts(cover12):
    p = projective_module(cover12, (1, 1))
    assert socle_isomorphic(p, p)
    shifted = shift_module(p, (1, 0))
    assert not socle_isomorphic(p, shifted)
    assert socle_isomorphic(p, shifted, graded=False)


# ---------------------------------------------------------------------------
# the socle certificate against a seeded search


def _search_isomorphic(m, n, graded=True):
    """The second route: block dimensions and the (vertex, bidegree)
    multisets of socle and top decide the negative cases; otherwise up
    to 8 seeded combinations of a Hom basis, coefficients from
    [1, 2^20], look for an invertible one.  If an isomorphism exists, a
    trial misses it with probability at most dim / 2^20
    (Schwartz-Zippel).  Raises if every trial misses."""
    def invariants(mod):
        soc = [min(r) for r in socle_rows(mod)]
        soc = [(mod.vertices[i], mod.bidegrees[i]) for i in soc]
        top = [(v, d) for v, d, _ in top_generators(mod)]
        if not graded:
            soc, top = ([(v, (0, 0)) for v, _ in vds] for vds in (soc, top))
        return ({k: len(ix) for k, ix in mod.blocks(graded).items()},
                sorted(soc, key=_block_key), sorted(top, key=_block_key))
    if m.dim != n.dim or invariants(m) != invariants(n):
        return False
    maps = hom_space(m, n, shift=(0, 0) if graded else None)
    if not maps:
        return m.dim == 0
    rng = random.Random(0)
    for _ in range(8):
        rows = [[0] * n.dim for _ in range(m.dim)]
        for f in maps:
            c = rng.randint(1, 1 << 20)
            for row, frow in zip(rows, f.data):
                for j, v in enumerate(frow):
                    row[j] += c * v
        if Matrix(rows, ncols=n.dim).rank() == m.dim:
            return True
    raise AssertionError("isomorphism search inconclusive")


def _restricted_costandard(cover, borel, x, order):
    """The cover's Nabla_x on the Borel's arrows alone, as
    ``check_borel`` builds it."""
    nab = costandard_module(cover, x, order)
    return RightModule(borel, nab.vertices, nab.bidegrees,
                       {ar: dict(rows(nab, ar))
                        for ar in borel.presentation.arrows})


@pytest.mark.parametrize("point", GRID + ((2, 4), (3, 3), (4, 2)))
def test_the_socle_certificate_agrees_with_the_search(covers, borels, point):
    """At both call sites and every vertex, the certificate and the
    search give one answer: the Borel's Nabla_x against the restricted
    cover Nabla_x (graded, either way round), and I_x against P_x
    (ungraded), which holds exactly at the J vertices.  For I_x and P_x
    the copresentation that ``check_projective_injective`` reads agrees:
    P_x is I_x exactly when its copresentation is I_x alone."""
    if point in covers:
        cover, borel = covers[point], borels[point]
    else:
        cover = compute_basis(presentation_cover(*point))
        borel = compute_basis(presentation_borel(*point))
    order = algebra_order(cover)
    for x in cover.presentation.vertices:
        own = costandard_module(borel, x, order)
        restricted = _restricted_costandard(cover, borel, x, order)
        assert socle_isomorphic(own, restricted) is True
        assert _search_isomorphic(own, restricted) is True
        assert socle_isomorphic(restricted, own) is True
        inj, proj = injective_module(cover, x), projective_module(cover, x)
        iso = socle_isomorphic(inj, proj, graded=False)
        assert iso == _search_isomorphic(inj, proj, graded=False) == (x[0] > 0)
        res = _copresentation(cover, x)
        assert iso == (res.complete
                       and [[v for v, _ in t] for t in res.terms] == [[x]]), x


@pytest.mark.parametrize("point", GRID)
def test_a_restricted_costandard_with_a_row_cleared_fails(covers, borels,
                                                         point):
    """Negative control for ``check_borel``: one action row taken out of
    the restricted Nabla_x makes it no longer the Borel's Nabla_x."""
    cover, borel = covers[point], borels[point]
    order = algebra_order(cover)
    broken = 0
    for x in cover.presentation.vertices:
        restricted = _restricted_costandard(cover, borel, x, order)
        ar = next((ar for ar, rows in restricted.action.items() if rows), None)
        if ar is None:
            continue
        del restricted.action[ar][min(restricted.action[ar])]
        own = costandard_module(borel, x, order)
        assert not socle_isomorphic(own, restricted), x
        assert not _search_isomorphic(own, restricted), x
        broken += 1
    assert broken


def test_an_injective_is_not_another_vertex_projective(covers):
    """Negative control for ``check_projective_injective``: I_x against
    P_y with y != x fails, including where the dimensions agree."""
    cover = covers[(2, 2)]
    verts = cover.presentation.vertices
    same_dim = 0
    for x in verts:
        inj = injective_module(cover, x)
        for y in verts:
            if y != x:
                proj = projective_module(cover, y)
                same_dim += inj.dim == proj.dim
                assert not socle_isomorphic(inj, proj, graded=False), (x, y)
    assert same_dim


def test_a_proper_submodule_is_not_isomorphic(cover12):
    """Nabla_x embeds in I_x, so the certificate's map is injective;
    only the dimension tells them apart where Nabla_x is smaller."""
    smaller = 0
    for x in VERTS:
        nabla, inj = costandard_module(cover12, x), injective_module(cover12, x)
        smaller += nabla.dim < inj.dim
        assert socle_isomorphic(nabla, inj) == (nabla.dim == inj.dim), x
    assert smaller


def test_a_map_nonzero_on_the_top_alone_is_not_an_isomorphism(cover12):
    """P_x against (P_x / soc P_x) + S_x, at the J vertices: the same
    blocks, and maps onto the top S_x, but none nonzero on the socle
    of P_x."""
    for x in ((1, 1), (2, 0)):
        proj = projective_module(cover12, x)
        i, = socle_rows(proj)[0]
        other = direct_sum(cover12, [
            quotient_module(proj, [i]),
            simple_module(cover12, proj.vertices[i], proj.bidegrees[i])])
        assert any(f.data[0] != [0] * other.dim
                   for f in hom_space(proj, other, shift=(0, 0)))
        assert not socle_isomorphic(proj, other), x
        assert not socle_isomorphic(proj, other, graded=False), x


def test_a_socle_that_is_not_simple_raises(cover12):
    pair = direct_sum(cover12, [simple_module(cover12, x) for x in VERTS[:2]])
    with pytest.raises(AssertionError, match="not simple"):
        socle_isomorphic(pair, pair)


# ---------------------------------------------------------------------------
# lifts through a resolution


LIFT_RUNS = [("dual", p) for p in GRID] + [("borel", (2, 3)), ("borel", (3, 2))]


@pytest.mark.parametrize("run,point", LIFT_RUNS)
def test_lifts_match_the_vertex_wide_route(covers, borels, tables,
                                           monkeypatch, run, point):
    """Every row that ``build_dual_from_ext`` or ``check_borel`` lifts
    with ``Resolution.lift`` lifts as the vertex-wide dense solve lifts
    it: up to a permutation that system is block-diagonal, and the
    right-hand side is zero off the row's block."""
    calls, lift = [], zzqh.modules.Resolution.lift

    def recording(res, k, row):
        out = lift(res, k, row)
        calls.append((res, k, row, out))
        return out

    monkeypatch.setattr(zzqh.modules.Resolution, "lift", recording)
    if run == "dual":
        build_dual_from_ext(covers[point], tables[point])
    else:
        check_borel(covers[point], borels[point])
    monkeypatch.undo()
    assert any(out for *_, out in calls)
    for res, k, row, out in calls:
        assert out == lift_reference(res, k, row), (k, row)


@pytest.mark.parametrize("point", GRID)
def test_a_lift_stays_on_its_block_and_in_the_image(tables, point):
    """``Resolution.lift`` on the resolutions of the standard modules:
    each generator image lifts to a row that d_k sends back to it, and
    the zero row lifts to {}.  A generator image with an entry added in
    another block raises AssertionError, and for k >= 1 the unit row of
    a generator of frees[k-1], outside the radical that holds the image
    of the minimal d_k, raises ArithmeticError."""
    off_block = units = 0
    for res in tables[point].resolutions.values():
        assert all(res.lift(k, {}) == {} for k in range(res.length + 1))
        for k in range(1, res.length + 1):
            tgt, blocks = res.frees[k - 1], res.frees[k - 1].blocks()
            for row in res.gens[k]:
                lifted = res.lift(k, row)
                assert free_row_image(res.frees[k], tgt, res.gens[k],
                                      lifted) == row
                first = next(iter(row))
                key = (tgt.vertices[first], tgt.bidegrees[first])
                other = next(j for b, cols in blocks.items() if b != key
                             for j in cols)
                with pytest.raises(AssertionError, match="block"):
                    res.lift(k, {**row, other: 1})
                off_block += 1
            for _, _, start, _ in tgt.summands:
                with pytest.raises(ArithmeticError):
                    res.lift(k, {start: 1})
                units += 1
    assert off_block and units


# ---------------------------------------------------------------------------
# block-local elimination against the whole-matrix routes it replaced


def _act(m, a, row):
    """The dense list ``row`` times arrow a, as a dense list."""
    return full(m, m.act(a, sparse(row)))


def _graded_rows_reference(module, rows):
    """The whole-span route: split rows into (vertex, bidegree)
    components, reduce each block at full width, and require the split
    to keep the total rank."""
    if not rows:
        return []
    total = Matrix([list(r) for r in rows], ncols=module.dim).rank()
    per_block = {}
    for r in rows:
        seen = {}
        for i, c in enumerate(r):
            if c:
                key = (module.vertices[i], module.bidegrees[i])
                seen.setdefault(key, [Fraction(0)] * module.dim)[i] = c
        for key, comp in seen.items():
            per_block.setdefault(key, []).append(comp)
    out = []
    for key in sorted(per_block, key=_block_key):
        _, red = Matrix(per_block[key], ncols=module.dim).rref()
        out.extend(row for row in red.data if any(row))
    assert len(out) == total, "span is not a graded subspace"
    return out


def _left_kernel_reference(rows, width):
    """A basis of {v : v * rows = 0}, as the right kernel of the
    transposed matrix, built entry by entry."""
    return Matrix([[row[j] for row in rows] for j in range(width)],
                  ncols=len(rows)).kernel_basis().data


def _kernel_rows_reference(source, f):
    """The left kernel of the whole map matrix f, split by block."""
    return _graded_rows_reference(
        source, _left_kernel_reference(f.data, f.ncols))


def _largest_stable_subspace_reference(m, allowed):
    """The whole-module iteration: keep the rows whose images under
    every arrow lie in the span, through one wide residue matrix."""
    rows = _graded_rows_reference(
        m, [full(m, m.unit(i)) for i in sorted(allowed)])
    while rows:
        span = Echelon(rows)
        resid = [[c for a in m.algebra.presentation.arrows
                  for c in span.reduce(_act(m, a, r))] for r in rows]
        kern = Matrix(_left_kernel_reference(resid, len(resid[0])),
                      ncols=len(rows))
        if kern.nrows == len(rows):
            return rows
        base = Matrix([list(r) for r in rows], ncols=m.dim)
        rows = _graded_rows_reference(m, (kern * base).data)
    return []


def _submodule_reference(m, rows):
    """The submodule spanned by reduced, action-stable rows: basis
    vector k is row k, and an image's coefficient on a row is its entry
    at that row's pivot."""
    span = Echelon(rows)
    pivots = list(span.rows)
    action = {}
    for a in m.algebra.presentation.arrows:
        action[a] = {}
        for k, r in enumerate(rows):
            img = _act(m, a, r)
            assert not any(span.reduce(img)), "rows do not span a submodule"
            row = {l: img[p] for l, p in enumerate(pivots) if img[p]}
            if row:
                action[a][k] = row
    return RightModule(m.algebra, [m.vertices[p] for p in pivots],
                       [m.bidegrees[p] for p in pivots], action)


def _costandard_reference(a, x, cut=True):
    """Nabla_x by the route that builds it inside I_x: the largest
    submodule supported on the weights at most x, or with ``cut`` false
    all of I_x."""
    order = algebra_order(a)
    inj = injective_module(a, x)
    allowed = {i for i, v in enumerate(inj.vertices)
               if not cut or order.leq(v, x)}
    return _submodule_reference(
        inj, _largest_stable_subspace_reference(inj, allowed))


def _same_module(m, n):
    """Equal counts per (vertex, bidegree) block and a graded
    isomorphism."""
    counts = lambda mod: {k: len(ix) for k, ix in mod.blocks().items()}
    return counts(m) == counts(n) and _search_isomorphic(m, n)


def _socle_rows_reference(m):
    """The whole-module route: the left kernel of every basis vector's
    images under all the arrows side by side, split by block."""
    arrows = m.algebra.presentation.arrows
    stacked = [[c for a in arrows for c in full(m, rows(m, a).get(i, {}))]
               for i in range(m.dim)]
    return _graded_rows_reference(
        m, _left_kernel_reference(stacked, m.dim * len(arrows)))


def _block_kernel_rows(free, target, gens):
    """The kernel of ``_block_kernel`` as full-width rows, blocks in
    order."""
    _, kernel = _block_kernel(free, target, gens)
    return [full(free, dict(zip(kernel[key][0], r)))
            for key in sorted(kernel, key=_block_key) for r in kernel[key][1]]


@pytest.mark.parametrize("point", GRID)
def test_block_kernels_match_the_whole_matrix_route(covers, point):
    """Every map in the resolutions of the simples and the standards
    has the same rank and the same kernel rows, in the same order, by
    blocks as by the whole matrix."""
    a = covers[point]
    for x in a.presentation.vertices:
        for m in (simple_module(a, x), standard_module(a, x)):
            res = minimal_resolution(m)
            for i, (free, gens) in enumerate(zip(res.frees, res.gens)):
                f = _dense_map(free, _below(res, i), gens)
                assert _block_kernel(free, _below(res, i), gens)[0] == f.rank()
                assert (_block_kernel_rows(free, _below(res, i), gens)
                        == _kernel_rows_reference(free, f)), (m, i)


@pytest.mark.parametrize("point", GRID)
def test_costandard_rows_match_the_whole_module_route(covers, borels, point):
    """Nabla_x as the dual of the opposite algebra's Delta_x is the
    largest submodule of I_x on the weights at most x, at every vertex of
    the cover and of the Borel.  All of I_x, without the order cut,
    fails the same comparison wherever it is larger, as it is at some
    vertex of the cover (the Borel's injectives are its costandards)."""
    uncut = 0
    for a in (covers[point], borels[point]):
        for x in a.presentation.vertices:
            nabla = costandard_module(a, x)
            assert nabla.label == f"Nabla[{x}]"
            assert _same_module(nabla, _costandard_reference(a, x)), (a, x)
            whole = _costandard_reference(a, x, cut=False)
            if whole.dim > nabla.dim:
                uncut += 1
                assert not _same_module(nabla, whole), (a, x)
    assert uncut


@pytest.mark.parametrize("point", GRID)
def test_socle_rows_match_the_stacked_route(covers, point):
    a = covers[point]
    for kind in KINDS:
        for x in a.presentation.vertices:
            m = canonical_module(a, kind, x)
            assert ([full(m, r) for r in socle_rows(m)]
                    == _socle_rows_reference(m)), (kind, x)


def test_a_map_entry_in_another_block_is_rejected(cover12):
    """A generator image with one nonzero entry moved to another block
    at the same vertex stops the kernel."""
    res = minimal_resolution(costandard_module(cover12, (1, 1)))
    free, target, gens = res.frees[1], res.frees[0], res.gens[1]
    assert _block_kernel(free, target, gens)
    t, j, other = next(
        (t, j, k) for t, row in enumerate(gens) for j in row
        for k in range(target.dim)
        if target.vertices[k] == target.vertices[j]
        and target.bidegrees[k] != target.bidegrees[j])
    moved = [dict(row) for row in gens]
    moved[t][other] = moved[t].pop(j)
    with pytest.raises(AssertionError, match="leaves its"):
        _block_kernel(free, target, moved)


def test_a_generator_image_off_its_vertex_is_rejected(cover12):
    """A generator image with one nonzero entry moved to another vertex,
    which no map out of e_x A can have, stops the kernel and the image
    of a row instead of being cut."""
    res = minimal_resolution(costandard_module(cover12, (1, 1)))
    free, target, gens = res.frees[1], res.frees[0], res.gens[1]
    t, j, other = next(
        (t, j, k) for t, row in enumerate(gens) for j in row
        for k in range(target.dim)
        if target.vertices[k] != target.vertices[j])
    moved = [dict(row) for row in gens]
    moved[t][other] = moved[t].pop(j)
    row = {free.summands[t][2]: 1}
    assert free_row_image(free, target, gens, row)
    with pytest.raises(AssertionError, match="leaves its vertex"):
        _block_kernel(free, target, moved)
    with pytest.raises(AssertionError, match="leaves its vertex"):
        free_row_image(free, target, moved, row)


def test_block_elimination_rejects_broken_actions(cover12):
    """An action entry that keeps the weight but breaks the bidegree
    stops the resolution, the top and the socle; a row at a basis
    vector off the arrow's source stops building the module."""
    proj = projective_module(cover12, (1, 1))
    m = direct_sum(cover12, [proj, shift_module(proj, (1, 0))])
    a, i, j = next((a, i, j) for a, rows in proj.action.items()
                   for i, row in rows.items() for j in row)
    off = next(k for k, v in enumerate(m.vertices) if v != a.target)

    def grading(action):  # from the first copy into the shifted one
        action[a][i][proj.dim + j] = Fraction(1)

    def weights(action):
        b = next(b for b in action if b.source != m.vertices[off])
        action[b][off] = {off: Fraction(1)}

    for build in (top_generators, minimal_resolution, socle_rows):
        with pytest.raises(AssertionError, match="leaves its"):
            build(_with_action(m, grading))
    with pytest.raises(AssertionError, match="breaks weights"):
        _with_action(m, weights)


# ---------------------------------------------------------------------------
# quotients by basis vectors against the echelon route they replaced


def _generated_submodule_reference(m, rows):
    """Row basis of the submodule the rows generate: a whole-width
    echelon of the rows and of all their images, split by block."""
    span = Echelon()
    work = [list(r) for r in rows]
    while work:
        piv = span.insert(work.pop())
        if piv is None:
            continue
        for a in m.algebra.presentation.arrows:
            img = _act(m, a, span.rows[piv])
            if any(img):
                work.append(img)
    return _graded_rows_reference(m, list(span.rows.values()))


def _quotient_module_reference(m, spanning, label=""):
    """m modulo the span of the rows ``spanning``, the quotient basis
    being the basis vectors that are not pivots, each action row reduced
    modulo the span."""
    span = Echelon(_graded_rows_reference(m, spanning))
    for r in span.rows.values():
        for a in m.algebra.presentation.arrows:
            if any(span.reduce(_act(m, a, r))):
                raise AssertionError("rows do not span a submodule")
    keep = [i for i in range(m.dim) if i not in span.rows]
    pos = {i: k for k, i in enumerate(keep)}
    action = {a: {k: row for k, row in enumerate(
                      {pos[j]: c for j, c in enumerate(span.reduce(
                          full(m, rows(m, a).get(i, {})))) if c}
                      for i in keep) if row}
              for a in m.algebra.presentation.arrows}
    return RightModule(m.algebra, [m.vertices[i] for i in keep],
                       [m.bidegrees[i] for i in keep], action, label=label)


def _standard_reference(a, x, order):
    proj = projective_module(a, x)
    rows = [full(proj, proj.unit(i)) for i, v in enumerate(proj.vertices)
            if not order.leq(v, x)]
    gen = _generated_submodule_reference(proj, rows) if rows else []
    return _quotient_module_reference(proj, gen, label=f"Delta[{x}]")


def _based(m):
    """What two based modules share when the identity is an
    isomorphism between them."""
    return m.label, m.vertices, m.bidegrees, m.action


@pytest.mark.parametrize("point", GRID)
def test_standards_match_the_echelon_route(covers, borels, point):
    """Delta_x over the cover, the Borel, the opposite cover (the route
    behind Nabla_x) and, for s > 2, the zigzag algebra under the order
    of its cover's quiver at s - 1, is the same based module by both
    routes."""
    n, s = point
    cover = covers[point]
    cases = [(cover, algebra_order(cover)),
             (borels[point], algebra_order(borels[point])),
             (cover.opposite(), algebra_order(cover))]
    if s > 2:
        cases.append((compute_basis(presentation_zigzag(n, s)),
                      order_data(build_quiver(n, s - 1))))
    for a, order in cases:
        for x in a.presentation.vertices:
            assert _based(standard_module(a, x, order)) == \
                _based(_standard_reference(a, x, order)), (a, x)


def test_the_memo_keys_standards_by_order(covers):
    """Under the order with only the diagonal, Delta_x is the simple top
    of P_x: a different object, and of a different dimension wherever
    the cover's order keeps more of P_x, than under the cover's order."""
    a = covers[(2, 2)]
    verts = a.presentation.vertices
    order = algebra_order(a)
    diagonal = OrderData(order.quiver, {(v, v): 0 for v in verts})
    larger = 0
    for x in verts:
        delta, bare = standard_module(a, x), standard_module(a, x, diagonal)
        assert bare is not delta and bare.dim == 1
        assert standard_module(a, x, diagonal) is bare
        assert standard_module(a, x, order) is delta
        larger += delta.dim > 1
    assert larger


def test_checks_leave_no_cache_outside_the_memo():
    """Every object the checks derive from an instance is kept in its
    memo: after them, the cover, its opposite and the Borel hold just
    the attributes ``AlgebraInstance.__init__`` sets."""
    cover = compute_basis(presentation_cover(2, 2))
    borel = compute_basis(presentation_borel(2, 2))
    ext_table(cover)
    assert check_quasi_hereditary(cover).passed()
    assert check_borel(cover, borel).passed()
    assert check_delta_koszul(cover).passed()
    assert cover.opposite().opposite() is cover
    for a in (cover, cover.opposite(), borel):
        ids = sorted(i for x in a.presentation.vertices for i in a.ids_from(x))
        fresh = AlgebraInstance(a.presentation, a.basis_by_length, ids,
                                a.step, a.forms)
        assert vars(a).keys() == vars(fresh).keys(), a


@pytest.mark.parametrize("point", GRID)
def test_flat_degree_zero_parts_match_the_echelon_route(covers, point):
    """The regular module of the cover and of its opposite, and each
    projective of the cover, modulo flat degree >= 1."""
    cover = covers[point]
    mods = [direct_sum(a, [projective_module(a, x)
                           for x in a.presentation.vertices])
            for a in (cover, cover.opposite())]
    mods += [projective_module(cover, x) for x in cover.presentation.vertices]
    for m in mods:
        rows = [full(m, m.unit(i)) for i, d in enumerate(m.bidegrees)
                if d[0] >= 1]
        assert _based(_flat_degree_zero_part(m)) == \
            _based(_quotient_module_reference(m, rows)), m


@pytest.mark.parametrize("point", GRID)
def test_delta_filtrations_match_the_echelon_route(covers, point,
                                                   monkeypatch):
    """The layers of every projective of the cover and the witnesses of
    every projective of the zigzag algebra, which is not
    quasi-hereditary (and infinite dimensional for s = 2), are the same
    when ``delta_filtration`` runs on the echelon route.  The reference
    run builds its own instances, so that no Delta_x it reads comes from
    the cache the first run filled."""
    n, s = point
    cases = [(covers[point], algebra_order(covers[point]))]
    if s > 2:
        cases.append((compute_basis(presentation_zigzag(n, s)),
                      order_data(build_quiver(n, s - 1))))
    new = [[delta_filtration(projective_module(a, x), order)
            for x in a.presentation.vertices] for a, order in cases]
    cases = [(compute_basis(a.presentation), order) for a, order in cases]
    monkeypatch.setattr(zzqh.modules, "generated_submodule",
                        lambda m, seeds: _generated_submodule_reference(
                            m, [full(m, m.unit(i)) for i in seeds]))
    monkeypatch.setattr(zzqh.modules, "quotient_module",
                        _quotient_module_reference)
    old = [[delta_filtration(projective_module(a, x), order)
            for x in a.presentation.vertices] for a, order in cases]
    assert new == old
    assert all(layers for layers, _ in new[0])
    assert all(any(witness for _, witness in runs) for runs in new[1:])


def test_generated_submodule_is_the_closure_of_basis_vectors(cover12):
    proj = projective_module(cover12, (1, 1))
    assert generated_submodule(proj, [0]) == list(range(proj.dim))
    assert generated_submodule(proj, []) == []
    socle = [i for i, d in enumerate(proj.bidegrees) if sum(d) == 2]
    assert generated_submodule(proj, socle) == socle


def test_a_row_with_two_entries_stops_the_closure(cover12):
    """Each entry of a row with two entries may lie outside the span, so
    neither joins it, and the stability check rejects the closure."""
    proj = projective_module(cover12, (1, 1))
    a, i = next((a, i) for a, rows in proj.action.items()
                for i in rows if i)

    def second_entry(action):  # onto the top, outside the closure of i
        action[a][i][0] = Fraction(1)

    broken = _with_action(proj, second_entry)
    with pytest.raises(AssertionError, match="not spanned by basis vectors"):
        generated_submodule(broken, [i])


def test_act_rejects_an_index_outside_the_module():
    m = projective_module(compute_basis(presentation_cover(1, 2)), (0, 2))
    a = next(a for a, rows in m.action.items() if rows)
    assert m.act(a, m.unit(0))
    for row in ({m.dim: 1}, {-1: 1}, {0: 1, m.dim: 1}):
        with pytest.raises(ValueError):
            m.act(a, row)


@pytest.mark.parametrize("point", GRID)
def test_dim_is_the_number_of_basis_vectors(covers, point):
    """``dim``, set when a module is built, counts its basis vectors for
    the modules that ``direct_sum``, ``shift_module``, ``restrict_to``
    and ``dualize`` build from others."""
    a = covers[point]
    parts = [projective_module(a, v) for v in a.presentation.vertices[:3]]
    total = direct_sum(a, parts)
    built = [total, shift_module(total, (1, -1)),
             restrict_to(total, list(range(0, total.dim, 2))),
             restrict_to(total, []), dualize(total),
             dualize(restrict_to(parts[0], [0]))]
    assert total.dim == sum(m.dim for m in parts)
    for m in built:
        assert m.dim == len(m.vertices) == len(m.bidegrees), m


def _act_path(m, row, path):
    """``row`` times ``path``, one arrow at a time; the trivial path
    keeps the entries at its vertex."""
    if not path.arrows:
        return {i: c for i, c in row.items() if m.vertices[i] == path.source}
    for a in path.arrows:
        row = m.act(a, row)
    return row


def _relations_hold_reference(m):
    """Every relation applied to every basis vector, on dense rows."""
    for r in m.algebra.presentation.relations:
        for i in range(m.dim):
            img = [0] * m.dim
            for p, c in r.terms.items():
                for j, v in _act_path(m, m.unit(i), p).items():
                    img[j] += c * v
            if any(img):
                return False
    return True


def _dense_map(free, target, gen_rows):
    """The full matrix of the map free -> target sending generator t to
    the row ``gen_rows[t]``: its image times each basis path, arrow by
    arrow."""
    return Matrix([full(target, _act_path(target, grow, p))
                   for grow, (v, _, _, _) in zip(gen_rows, free.summands)
                   for p in projective_module(free.algebra, v).basis_paths],
                  ncols=target.dim)


@pytest.mark.parametrize("point", [(1, 2), (2, 2), (2, 3)])
def test_maps_from_generators_match_the_path_by_path_route(covers, point):
    """The rows ``free_images`` reads are the generator's image times
    each basis path, also on every other ascending set of indices, and
    ``free_row_image`` is a row times that map, on the generator images
    of the resolutions of the standards and on rows of ones at each
    generator's vertex."""
    a = covers[point]
    for x in a.presentation.vertices:
        res = minimal_resolution(standard_module(a, x))
        for k, (free, gens) in enumerate(zip(res.frees, res.gens)):
            target = _below(res, k)
            ones = [{j: 1 for j, w in enumerate(target.vertices) if w == v}
                    for v, _, _, _ in free.summands]
            for rows in (gens, ones):
                want = _dense_map(free, target, rows).data
                assert [full(target, r) for r in free_images(
                    free, target, rows, range(free.dim))] == want
                odd = range(1, free.dim, 2)
                assert ([full(target, r) for r in free_images(
                    free, target, rows, odd)] == [want[i] for i in odd])
            whole = _dense_map(free, target, gens)
            if k + 1 < len(res.gens):
                for row in res.gens[k + 1] + [dict.fromkeys(range(free.dim), 1)]:
                    assert (full(target, free_row_image(free, target, gens, row))
                            == whole.mul_row(full(free, row)))


def test_check_agrees_with_the_dense_route_on_each_broken_entry(covers):
    """Doubling one action entry of a projective breaks a relation
    exactly when the dense route over every basis vector says so, and
    some entry does: the sparse check is not blind."""
    a = covers[(2, 2)]
    raised = 0
    for x in a.presentation.vertices:
        proj = projective_module(a, x)
        for arrow, rows in proj.action.items():
            for i, row in rows.items():
                for j in row:
                    def double(action):
                        action[arrow][i][j] *= 2
                    m = _with_action(proj, double)
                    if _relations_hold_reference(m):
                        assert m.check()
                        continue
                    raised += 1
                    with pytest.raises(AssertionError, match="not satisfied"):
                        m.check()
    assert raised


def test_a_hom_complex_against_a_shifted_vector_is_rejected(cover12):
    """Shift the bidegree of one basis vector of the target that a
    nonzero differential entry starts from: the complex stops at that
    entry instead of mixing bidegrees."""
    res = minimal_resolution(simple_module(cover12, (0, 2)))
    target = projective_module(cover12, (1, 1))
    bases, blocks, _ = ext_bigraded_reps(res, target)
    j = next(bases[i][cols[r]][1] for i, step in enumerate(blocks)
             for d, (cols, diff, _) in step.items()
             for r, row in enumerate(diff.data) for k, v in enumerate(row)
             if v and bases[i + 1][blocks[i + 1][d][0][k]][1]
             != bases[i][cols[r]][1])
    bidegrees = list(target.bidegrees)
    bidegrees[j] = (bidegrees[j][0] + 1, bidegrees[j][1])
    shifted = RightModule(cover12, target.vertices, bidegrees, target.action)
    with pytest.raises(AssertionError,
                       match="hom differential mixes bidegrees"):
        ext_bigraded_reps(res, shifted)


# ---------------------------------------------------------------------------
# free modules by reference


def _grid_resolutions(covers):
    """The minimal resolution of every simple and standard at the grid
    points, made afresh."""
    return [minimal_resolution(f(a, x)) for a in covers.values()
            for x in a.presentation.vertices
            for f in (simple_module, standard_module)]


def _acts_like_the_direct_sum(free):
    """Whether ``free.act`` agrees with ``act`` on the direct sum of its
    parts for every arrow, on each unit row and on a row with an entry
    at every index of a (vertex, bidegree) block."""
    whole = direct_sum(free.algebra, free.parts)
    for a in free.algebra.presentation.arrows:
        for i in range(free.dim):
            if free.act(a, free.unit(i)) != whole.act(a, whole.unit(i)):
                return False
        for cols in free.blocks().values():
            row = {j: Fraction(k + 1) for k, j in enumerate(cols)}
            if free.act(a, row) != whole.act(a, row):
                return False
    return True


def test_free_modules_act_by_reference_as_their_direct_sum(covers,
                                                          monkeypatch):
    """Building a resolution copies no action row: it calls
    ``direct_sum`` zero times, and no free module of it holds ``action``
    rows or has built its label.  Each free module acts as the direct
    sum of its parts, and reads back the same label on demand."""
    sums = []
    monkeypatch.setattr(zzqh.modules, "direct_sum",
                        lambda *args: sums.append(args) or direct_sum(*args))
    resolutions = _grid_resolutions(covers)
    assert sums == []
    monkeypatch.undo()
    frees = [(free, terms) for res in resolutions
             for free, terms in zip(res.frees, res.terms, strict=True)]
    assert len(frees) > len(resolutions)
    assert all(vars(free).keys().isdisjoint({"action", "label"})
               for free, _ in frees)
    for free, terms in frees:
        assert _acts_like_the_direct_sum(free), free
        whole = direct_sum(free.algebra, free.parts)
        assert free.vertices == whole.vertices
        assert free.label == f"F[{', '.join(f'{v}<{s}>' for v, s in terms)}]"


def test_a_free_module_act_without_offsets_fails_the_comparison(covers,
                                                               monkeypatch):
    """Negative control: an ``act`` that drops each summand's offset."""
    resolutions = _grid_resolutions(covers)

    def act_at_offset_zero(self, arrow, row):
        out = {}
        for k, a in row.items():
            t = bisect_right(self.starts, k) - 1
            for j, c in rows(self.parts[t], arrow).get(
                    k - self.starts[t], {}).items():
                out[j] = out.get(j, 0) + a * c
        return {j: c for j, c in out.items() if c}

    monkeypatch.setattr(FreeModule, "act", act_at_offset_zero)
    assert not all(_acts_like_the_direct_sum(free)
                   for res in resolutions for free in res.frees)


def test_a_free_module_rejects_an_index_outside_it(cover12):
    free = free_module(cover12, [(x, (0, 0)) for x in VERTS])
    a = cover12.presentation.arrows[0]
    assert free.act(a, free.unit(free.dim - 1)) is not None
    for row in ({free.dim: 1}, {-1: 1}, {0: 1, free.dim: 1}):
        with pytest.raises(ValueError):
            free.act(a, row)


def test_each_free_module_groups_its_blocks_once(covers, monkeypatch):
    """A resolution groups the graded (vertex, bidegree) blocks of each
    free module once, though three steps read them: its own kernel, the
    next step's kernel into it, and its syzygy's top.  The grouping kept
    equals a fresh one and holds nothing that points back, so a free
    module that has grouped its blocks still dies by reference counting."""
    counts, group = Counter(), RightModule.blocks

    def counting(self, graded=True):
        counts[id(self), graded] += 1
        return group(self, graded)

    monkeypatch.setattr(RightModule, "blocks", counting)
    resolutions = _grid_resolutions(covers)
    monkeypatch.undo()
    frees = [free for res in resolutions for free in res.frees]
    assert len(frees) > len(resolutions)
    assert all(counts[id(free), True] == 1 for free in frees)
    assert any(len(res.frees) > 2 for res in resolutions)
    assert all(free.blocks() == group(free) for free in frees)
    assert all(free.blocks(False) == group(free, False) for free in frees)
    a = covers[(2, 2)]
    free = free_module(a, [(x, (0, 0)) for x in a.presentation.vertices])
    assert free.blocks() is free.blocks()
    ref = weakref.ref(free)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del free
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# module rows store no zero


def _merging_module(a):
    """Two basis vectors at the source of the first arrow that the arrow
    sends to one basis vector at its target, every other arrow acting
    by zero: a module over a quadratic algebra, on which the difference
    of the two is a row whose image is a cancelling sum."""
    arr = a.presentation.arrows[0]
    action = {b: {} for b in a.presentation.arrows}
    action[arr] = {0: {2: 1}, 1: {2: 1}}
    return RightModule(a, [arr.source] * 2 + [arr.target],
                       [(0, 0)] * 2 + [arr.bidegree], action)


def _stored_zeros(covers, monkeypatch):
    """The rows holding a zero among the generator images of the
    resolutions of every simple and standard at the grid points, every
    ``act`` output while they are built and composed, and every
    ``free_row_image`` output of a generator image of one step, or of
    the row of ones, through the step below.  No arrow of those
    modules sends two basis vectors to one, so no ``act`` sum there
    cancels; ``act`` also runs on the difference of each two consecutive
    basis vectors of one block of each free module and of a module in
    which an arrow merges two (``_merging_module``), where one does."""
    acted = []
    for cls in (RightModule, FreeModule):
        def recording(self, arrow, row, act=cls.act):
            acted.append(out := act(self, arrow, row))
            return out
        monkeypatch.setattr(cls, "act", recording)
    resolutions = _grid_resolutions(covers)
    rows = [g for res in resolutions for gens in res.gens for g in gens]
    for res in resolutions:
        for i in range(1, len(res.gens)):
            free, below = res.frees[i - 1], _below(res, i - 1)
            for row in res.gens[i] + [dict.fromkeys(range(free.dim), 1)]:
                rows.append(free_row_image(free, below, res.gens[i - 1], row))
    merging = _merging_module(covers[(1, 2)])
    assert merging.check()
    for m in [merging] + [free for res in resolutions for free in res.frees]:
        for cols in m.blocks().values():
            for i, k in zip(cols, cols[1:]):
                for a in m.algebra.presentation.arrows_from(m.vertices[i]):
                    m.act(a, {i: 1, k: -1})
    assert acted and any(rows)
    return [row for row in rows + acted if not all(row.values())]


def test_module_rows_store_no_zero(covers, monkeypatch):
    assert _stored_zeros(covers, monkeypatch) == []


def test_an_act_that_keeps_zero_sums_fails_the_check(covers, monkeypatch):
    """Negative control: an ``act`` that keeps each sum, zero or not."""
    def keep_zeros(self, arrow, row):
        out = {}
        for i, a in row.items():
            for j, c in rows(self, arrow).get(i, {}).items():
                out[j] = out.get(j, 0) + a * c
        return out

    def keep_zeros_by_part(self, arrow, row):
        out = {}
        for k, a in row.items():
            at = self.starts[t := bisect_right(self.starts, k) - 1]
            for j, c in rows(self.parts[t], arrow).get(k - at, {}).items():
                out[at + j] = out.get(at + j, 0) + a * c
        return out

    monkeypatch.setattr(RightModule, "act", keep_zeros)
    monkeypatch.setattr(FreeModule, "act", keep_zeros_by_part)
    assert _stored_zeros(covers, monkeypatch)
