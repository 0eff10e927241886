"""Koszulity in its three flavours: classical for covers and Borels,
standard Koszulity, Koszulity of standard modules, plus the fixtures
that separate the notions."""

import pytest

import zzqh.koszul
from zzqh import (compute_basis, presentation_borel, presentation_shifted_dual,
                  presentation_zigzag, vertex_name)
from zzqh.algebra import Element, Presentation
from zzqh.koszul import (check_delta_koszul, check_koszul,
                         check_shifted_dual_lemmas, check_standard_koszul,
                         fixture_brauer_line, fixture_counterexample,
                         gamma0_summand_iso, loop_presentation)
from zzqh.modules import (RightModule, algebra_order, projective_module,
                          standard_module)

from helpers import shift_module

GRID = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))


def test_covers_are_koszul(covers):
    for key, cover in covers.items():
        rep = check_koszul(cover)
        assert rep.passed(), (key, rep.offdiagonal)
        assert rep.extra["hilbert_identity"]["passed"]
        assert all(m["linear"] and m["complete"]
                   for m in rep.modules.values())


def test_covers_are_standard_koszul(covers):
    for key, cover in covers.items():
        rep = check_standard_koszul(cover)
        assert rep.passed(), (key, rep.offdiagonal)


def test_standards_are_koszul_in_flat_grading(covers):
    for key, cover in covers.items():
        rep = check_delta_koszul(cover)
        assert rep.passed(), (key, rep.offdiagonal)
        assert rep.offdiagonal == []
        assert rep.extra["gamma0_iso_delta"]
        assert rep.extra["line_algebra"]


@pytest.mark.parametrize("point", GRID)
def test_gamma0_certificate_rejects_other_modules(covers, point):
    """The certificate accepts Delta_x at every vertex.  Handed all of
    P_x in place of Delta_x, it fails exactly at the vertices where the
    order cut removes something; handed Delta_x shifted, or Delta_x with
    every action row cleared (same dimension and grading), it fails
    wherever these differ from Delta_x."""
    a = covers[point]
    order = algebra_order(a)
    cut = 0
    for x in a.presentation.vertices:
        proj = projective_module(a, x)
        delta = standard_module(a, x, order)
        split = RightModule(a, delta.vertices, delta.bidegrees,
                            {b: {} for b in delta.action})
        assert gamma0_summand_iso(a, x, delta)
        assert gamma0_summand_iso(a, x, proj) == (proj.dim == delta.dim), x
        assert not gamma0_summand_iso(a, x, shift_module(delta, (0, 1))), x
        assert gamma0_summand_iso(a, x, split) == (delta.dim == 1), x
        cut += proj.dim > delta.dim
    assert 0 < cut < len(a.presentation.vertices)


def test_borels_are_koszul(borels):
    for key, borel in borels.items():
        assert check_koszul(borel).passed(), key


def test_zigzag_is_almost_but_not_koszul():
    inst = compute_basis(presentation_zigzag(2, 3))
    rep = check_koszul(inst)
    assert not rep.passed()
    hilbert = rep.extra["hilbert_identity"]
    assert not hilbert["passed"]
    # the alternating-sum identity first fails in degree 3
    assert min(hilbert["failures"]) == 3


def test_loop_fixture_linear_up_to_truncation():
    inst = compute_basis(loop_presentation())
    assert inst.dim() == 2
    rep = check_koszul(inst, max_steps=5)
    assert rep.passed()
    mod = rep.modules["1"]
    assert mod["linear"] and not mod["complete"]


def test_socle_lemmas_on_grid():
    for n, s in GRID:
        rep = check_shifted_dual_lemmas(n, s)
        assert rep["passed"], ((n, s), rep)
        assert rep["matches_quadratic_dual_blocks"]
        assert rep["membership_mismatches"] == []


def test_socle_lemmas_see_a_socle_path_that_extends(monkeypatch):
    """A negative control for the maximal-path lemma: handed the top e_x
    of each projective in place of its socle, the check reports each
    arrow out of x, read off the projective's action rows."""
    monkeypatch.setattr(zzqh.koszul, "socle_rows", lambda proj: [proj.unit(0)])
    rep = check_shifted_dual_lemmas(2, 2)
    assert not rep["passed"]
    pres = compute_basis(presentation_shifted_dual(2, 2)).presentation
    assert [[v, why] for v, _, why in rep["socle_not_maximal_into_K"]
            if why.startswith("extends")] == [
        [vertex_name(x), f"extends along {ar.label}"]
        for x in pres.vertices for ar in pres.arrows_from(x)]


@pytest.mark.parametrize("point", [(1, 2), (2, 2), (2, 3)])
def test_socle_lemmas_see_a_non_injective_alpha0(monkeypatch, point):
    """A negative control for the injectivity lemma: the shifted dual
    keeps a_0 a_1 at the vertices x with x_0 = 0.  Made zero at the
    first such x, left multiplication by the a_0 out of x kills the
    path a_1 of the projective at its target, and the check reports
    that arrow."""
    pres = presentation_shifted_dual(*point)
    a0 = next(a for a in pres.arrows if a.label == 0 and a.source[0] == 0
              and any(b.label == 1 for b in pres.arrows_from(a.target)))
    path = pres.path(a0.source, (0, 1))
    killed = Element.of_path(path)
    assert compute_basis(pres).reduce_path(path) == killed  # a basis path
    monkeypatch.setattr(zzqh.koszul, "presentation_shifted_dual", lambda n, s: (
        Presentation(pres.vertices, pres.arrows, pres.relations + (killed,),
                     kind="shifted-dual", params=pres.params)))
    rep = check_shifted_dual_lemmas(*point)
    assert not rep["passed"]
    assert [vertex_name(a0.source), vertex_name(a0.target)] in (
        rep["alpha0_not_injective"])


def test_counterexample_fixture_frozen_values():
    fx = fixture_counterexample()
    assert fx["passed"]
    assert fx["dim"] == 9
    assert fx["dim_degree_zero"] == 5
    assert fx["self_orthogonal"] and fx["offdiagonal"] == []
    assert fx["s3_shape_matches"]
    assert fx["s3_terms"] == [[[3, [0, 0]]],
                              [[2, [0, 1]], [2, [1, 0]]],
                              [[1, [0, 2]], [1, [1, 1]]]]
    # self-orthogonal in the flat grading, yet the resolution is not
    # flat-linear: orthogonality does not force linearity
    assert fx["s3_linear_length"] and not fx["s3_linear_flat"]


def test_brauer_line_fixture_matches_covers():
    for s, dim in ((2, 9), (3, 13), (4, 17)):
        fx = fixture_brauer_line(s)
        assert fx["passed"], (s, fx)
        assert fx["dim"] == dim
        assert fx["arrows_match"] and fx["relations_match"]
        assert fx["block_dims_match"] and fx["koszul"]
