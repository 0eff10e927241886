"""Quasi-heredity of the covers, the double-centralizer property over
the zigzag algebras, and the Borel subalgebra checks."""

from collections import Counter
from itertools import combinations

import pytest

import zzqh.modules
import zzqh.qh
from zzqh import (compute_basis, presentation_borel, presentation_cover,
                  presentation_zigzag)
from zzqh.algebra import Element, Path, Presentation, scope
from zzqh.extdual import ext_table
from zzqh.modules import (algebra_order, costandard_module, delta_filtration,
                          delta_nabla_ext, ext_bigraded_reps,
                          minimal_resolution, projective_module,
                          standard_module, standard_resolution)
from zzqh.qh import (QhReport, _copresentation_failures, check_borel,
                     check_cover, check_quasi_hereditary)
from zzqh.quiver import build_quiver, order_data, vertex_name

from helpers import check_projective_injective
from hom_reference import _fully_faithful_failures, hom_space


def test_covers_are_quasi_hereditary(covers):
    for (n, s), cover in covers.items():
        rep = check_quasi_hereditary(cover)
        assert rep.passed(), ((n, s), rep.witnesses)
        assert rep.endo_standard_trivial
        assert rep.projectives_delta_filtered
        assert rep.ext_delta_nabla_vanishing
        assert rep.hom_delta_nabla_diagonal


def _bgg_sides(cover):
    """For each vertex x, the Counter of the layers (y, shift) of the
    Delta-filtration of P_x, and the Counter of (y, bidegree) over the
    basis vectors at x of each costandard module Nabla_y."""
    order, verts = algebra_order(cover), cover.presentation.vertices
    nablas = {y: costandard_module(cover, y, order) for y in verts}
    deltas, nabla = {}, {}
    for x in verts:
        layers, witness = delta_filtration(projective_module(cover, x), order)
        assert witness is None, (x, witness)
        deltas[x] = Counter(layers)
        nabla[x] = Counter((y, d) for y, m in nablas.items()
                           for v, d in zip(m.vertices, m.bidegrees) if v == x)
    return deltas, nabla


def _flipped(counter):
    return Counter({(y, (-d[0], -d[1])): c for (y, d), c in counter.items()})


@pytest.mark.parametrize("point", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2),
                                   (2, 4), (3, 3)])
def test_delta_filtrations_obey_graded_bgg_reciprocity(point):
    """A second route to the Delta-filtrations ``check qh`` reads:
    graded BGG reciprocity (Cline-Parshall-Scott 1988),
    (P_x : Delta_y<d>) = [Nabla_y : L_x<-d>], with Nabla_y built over
    the opposite algebra apart from any filtration.  Without the sign
    flip the comparison fails, and so does a Nabla with one basis
    vector at x dropped."""
    deltas, nabla = _bgg_sides(compute_basis(presentation_cover(*point)))
    assert all(deltas[x] == _flipped(nabla[x]) for x in deltas)
    assert not all(deltas[x] == nabla[x] for x in deltas)
    for x, counter in nabla.items():
        dropped = counter.copy()
        dropped[next(iter(counter))] -= 1
        assert deltas[x] != _flipped(+dropped), x


@pytest.mark.parametrize("ext_first", [True, False])
def test_capped_and_uncapped_resolutions_are_kept_apart(ext_first):
    fresh = check_quasi_hereditary(compute_basis(presentation_cover(2, 2)),
                                   max_steps=2)
    witness = fresh.witnesses["ext_delta_nabla_vanishing"]
    assert witness and all("truncated_at" in w for w in witness)
    inst = compute_basis(presentation_cover(2, 2))
    if ext_first:
        table = ext_table(inst)
    rep = check_quasi_hereditary(inst, max_steps=2)
    if not ext_first:
        table = ext_table(inst)
    assert rep.as_dict() == fresh.as_dict()
    assert all(res.complete for res in table.resolutions.values())
    assert ext_table(inst) is table
    assert table.dims == ext_table(
        compute_basis(presentation_cover(2, 2))).dims


def test_a_loose_cap_shares_the_complete_resolutions_and_table():
    """Resolutions that complete under a cap are the uncapped ones, and
    the (Delta, Nabla) table under that cap is the uncapped table."""
    a = compute_basis(presentation_cover(2, 2))
    order = algebra_order(a)
    resolutions, ext = table = delta_nabla_ext(a, order, 32)
    assert delta_nabla_ext(a, order) is table
    for x, res in resolutions.items():
        assert res.complete and standard_resolution(a, x, order) is res


@pytest.mark.parametrize("n,s,cap", [(2, 2, 2), (2, 2, 3), (2, 4, 3)])
def test_a_cut_resolution_gives_the_prefix_of_its_levels(n, s, cap):
    """Cut at ``cap``, a standard's resolution gives the Ext levels of
    the complete one below the cut, against every costandard and
    standard, and no level at the cut.  At (2,2) the longest resolution
    has length 2, so a cap of 3 cuts nothing and gives every level."""
    a = compute_basis(presentation_cover(n, s))
    order = algebra_order(a)
    verts = a.presentation.vertices
    x = max(verts, key=lambda v: standard_resolution(a, v, order).length)
    full = standard_resolution(a, x, order)
    capped = minimal_resolution(full.module, max_steps=cap)
    if cap > full.length:
        assert capped.complete and capped.length == full.length
        exact = full.length + 1
    else:
        assert not capped.complete and capped.length == cap - 1
        exact = capped.length
    for y in verts:
        for target in (costandard_module(a, y, order),
                       standard_module(a, y, order)):
            levels = ext_bigraded_reps(capped, target)[2]
            assert len(levels) == exact
            assert levels == ext_bigraded_reps(full, target)[2][:exact]


def test_a_resolution_cut_at_the_first_step_has_no_exact_hom():
    """Level 0 needs F_1: under a cap of one the check raises rather
    than read Hom(Delta, Nabla) from an inexact level.  No CLI call gets
    here, since the basis itself stops at one step."""
    with pytest.raises(ValueError, match="cut at F_0"):
        check_quasi_hereditary(compute_basis(presentation_cover(2, 2)),
                               max_steps=1)


@pytest.mark.parametrize("kind,n,s", [
    *(("cover", n, s) for n, s in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2),
                                   (2, 4), (3, 3), (4, 2))),
    ("zigzag", 2, 3)])
def test_end_and_hom_of_standards_agree_with_hom_space(kind, n, s):
    """The second route: ``hom_space`` solves End(Delta_x) and
    Hom(Delta_x, Nabla_y), against [Delta_x : L_x] and level 0 of the
    table.  The zigzag algebra, under an order that is not
    quasi-hereditary, is the negative control: both routes give 2 for
    End and Hom at 0,0,2."""
    if kind == "cover":
        a = compute_basis(presentation_cover(n, s))
        order = algebra_order(a)
    else:
        a = compute_basis(presentation_zigzag(n, s))
        order = order_data(build_quiver(n, s - 1))
    verts = a.presentation.vertices
    resolutions, ext = delta_nabla_ext(a, order)
    ends, homs = {}, {}
    for x in verts:
        delta = resolutions[x].module
        ends[x] = len(hom_space(delta, delta))
        assert ends[x] == delta.vertices.count(x), x
        for y in verts:
            d = len(hom_space(delta, costandard_module(a, y, order)))
            assert d == sum(map(len, ext[(x, y)][0].values())), (x, y)
            if d:
                homs[(x, y)] = d
    odd = {(0, 0, 2): 2} if kind == "zigzag" else {}
    assert {x: d for x, d in ends.items() if d != 1} == odd
    assert homs == {(x, x): odd.get(x, 1) for x in verts}


def test_covers_cover_their_zigzag_algebras(covers):
    for (n, s), cover in covers.items():
        rep = check_cover(cover)
        assert rep.passed(), ((n, s), rep.witnesses)
        assert rep.cover_fully_faithful


def test_fully_faithful_fails_off_the_true_j_set(covers):
    """Negative control for the cover property on cover(1, 2): the J
    vertices (first coordinate > 0) pass, and other vertex sets fail
    with frozen witnesses [a, b, hom_dim, end_dim, frank]."""
    cover = covers[(1, 2)]
    assert _fully_faithful_failures(cover, {(1, 1), (2, 0)}) == []
    assert _fully_faithful_failures(cover, {(1, 1)}) == [
        ['0,2', '1,1', 1, 2, 1], ['0,2', '2,0', 0, 1, 0],
        ['1,1', '0,2', 1, 2, 1], ['1,1', '1,1', 2, 4, 2],
        ['1,1', '2,0', 1, 2, 1], ['2,0', '0,2', 0, 1, 0],
        ['2,0', '1,1', 1, 2, 1], ['2,0', '2,0', 2, 1, 1]]
    assert _fully_faithful_failures(cover, {(0, 2)}) == [
        ['1,1', '0,2', 1, 1, 0], ['1,1', '1,1', 2, 1, 1],
        ['1,1', '2,0', 1, 0, 0], ['2,0', '1,1', 1, 0, 0],
        ['2,0', '2,0', 2, 0, 0]]


def test_the_copresentation_fails_off_the_true_j_set(covers):
    """Negative control for the route ``check_cover`` takes, on the sets
    of the test above: frozen witnesses [x, v, step], an injective I_v
    outside J in step 0 or 1 of the copresentation of P_x."""
    cover = covers[(1, 2)]
    assert _copresentation_failures(cover, {(1, 1), (2, 0)}) == []
    assert _copresentation_failures(cover, {(1, 1)}) == [
        ['0,2', '2,0', 1], ['2,0', '2,0', 0]]
    assert _copresentation_failures(cover, {(0, 2)}) == [
        ['0,2', '1,1', 0], ['0,2', '2,0', 1], ['1,1', '1,1', 0],
        ['2,0', '2,0', 0]]


@pytest.mark.parametrize("point", [(1, 3), (2, 3)])
def test_a_forged_zigzag_relation_fails_in_the_cover(monkeypatch, point):
    """Negative control for ``zigzag_relations_hold``: each two-term
    zigzag relation, a commutator, cut down to its first path is a
    relation the cover does not satisfy; added to the true ones, exactly
    the cut-down relations are reported, and the cover check fails."""
    zz = presentation_zigzag(*point)
    forged = tuple(Element.of_path(min(r.terms, key=Path.sort_key))
                   for r in zz.relations if len(r.terms) == 2)
    assert forged
    monkeypatch.setattr(zzqh.qh, "presentation_zigzag", lambda n, s: (
        Presentation(zz.vertices, zz.arrows, zz.relations + forged,
                     kind="zigzag", params=zz.params)))
    with scope():
        rep = check_cover(compute_basis(presentation_cover(*point)))
    assert rep.witnesses["zigzag_relations_hold"] == [repr(r) for r in forged]
    detail = rep.witnesses["cover_detail"]
    assert not detail["zigzag_relations_hold"] and detail["arrows_generate"]
    assert rep.cover_fully_faithful is False


@pytest.mark.parametrize("point", [(1, 2), (1, 3), (2, 2)])
def test_withholding_a_j_arrow_fails_generation(monkeypatch, point):
    """Negative control for ``arrows_generate``: with any one arrow
    between J vertices left out of the presentation that ``check_cover``
    reads, the block of that arrow alone is not reached, [a, b, 0, 1],
    and every block reported falls short.  The projectives are built
    first, with every arrow, and the copresentation half, which reads
    every arrow, is left out."""
    monkeypatch.setattr(zzqh.qh, "_copresentation_failures",
                        lambda cover, jset: [])
    with scope():
        cover = compute_basis(presentation_cover(*point))
        pres = cover.presentation
        jverts = [x for x in pres.vertices if x[0] > 0]
        for x in jverts:
            projective_module(cover, x)
        arrows = pres.arrows
        assert check_cover(cover).passed()
        jarrows = [ar for ar in arrows
                   if ar.source in jverts and ar.target in jverts]
        assert jarrows
        for ar in jarrows:
            monkeypatch.setattr(pres, "arrows",
                                tuple(a for a in arrows if a != ar))
            rep = check_cover(cover)
            bad = rep.witnesses["arrows_generate"]
            assert [vertex_name(ar.source), vertex_name(ar.target), 0, 1] in bad
            assert all(got < want for _, _, got, want in bad), bad
            assert rep.cover_fully_faithful is False


def _leaves_j(cover, jset):
    """Whether some basis path between two J vertices passes through a
    vertex outside J."""
    return any(p.source in jset and p.target in jset
               and any(ar.target not in jset for ar in p.arrows)
               for p in cover.basis())


@pytest.mark.parametrize("point,count,apart", [((1, 2), 8, 0),
                                               ((2, 2), 64, 2)])
def test_the_cover_routes_agree_on_every_j_subset(covers, point, count, apart):
    """The copresentation and the pair route on every vertex set J.  They
    differ only where the pair route fails and the copresentation passes,
    and there a basis path between two J vertices leaves J: the pair
    route lets only the arrows inside J act, so it computes Hom over a
    smaller algebra than eAe."""
    cover = covers[point]
    verts = cover.presentation.vertices
    subsets = [set(js) for k in range(len(verts) + 1)
               for js in combinations(verts, k)]
    differ = []
    for jset in subsets:
        copres = not _copresentation_failures(cover, jset)
        pairs = not _fully_faithful_failures(cover, jset)
        if copres != pairs:
            assert copres and not pairs and _leaves_j(cover, jset), jset
            differ.append(jset)
    assert (len(subsets), len(differ)) == (count, apart)


def test_borel_restriction(covers, borels):
    for key, cover in covers.items():
        rep = check_borel(cover, borels[key])
        assert rep.passed(), (key, rep.witnesses)
        assert rep.borel_directed
        assert rep.borel_costandard_iso


def test_projective_injective_at_positive_first_coordinate(covers):
    for key, cover in covers.items():
        rep = check_projective_injective(cover)
        assert rep.passed(), (key, rep.witnesses)
        assert rep.proj_injective_at_J


def test_zigzag_is_not_quasi_hereditary():
    inst = compute_basis(presentation_zigzag(2, 3))
    order = order_data(build_quiver(2, 2))
    rep = check_quasi_hereditary(inst, order=order)
    assert not rep.passed()
    assert rep.projectives_delta_filtered is False
    witness = rep.witnesses["projectives_delta_filtered"]
    assert witness and all("projective" in w for w in witness)


def test_report_pass_semantics():
    empty = QhReport()
    assert not empty.passed()
    assert QhReport(endo_standard_trivial=True).passed()
    both = QhReport(endo_standard_trivial=True, borel_directed=False,
                    witnesses={"borel_directed": ["x"]})
    assert both.endo_standard_trivial and both.borel_directed is False
    assert not both.passed()
    assert both.witnesses == {"borel_directed": ["x"]}
    assert both.as_dict()["passed"] is False


def test_check_borel_builds_the_order_once(monkeypatch):
    """The cover and its Borel subalgebra share (n, s), so one order
    serves both; each module builder would otherwise derive it again."""
    calls = []
    build = zzqh.modules.algebra_order

    def counted(a):
        calls.append(a.presentation.kind)
        return build(a)
    monkeypatch.setattr(zzqh.modules, "algebra_order", counted)
    monkeypatch.setattr(zzqh.qh, "algebra_order", counted)
    cover = compute_basis(presentation_cover(2, 2))
    borel = compute_basis(presentation_borel(2, 2))
    assert check_borel(cover, borel).passed()
    assert calls == ["cover"]
    assert build(cover) is build(cover)
