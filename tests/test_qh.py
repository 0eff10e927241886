"""Quasi-heredity of the covers, the double-centralizer property over
the zigzag algebras, and the Borel subalgebra checks."""

import pytest

import zzqh.modules
import zzqh.qh
from zzqh import (compute_basis, presentation_borel, presentation_cover,
                  presentation_zigzag)
from zzqh.extdual import ext_table
from zzqh.qh import (QhReport, _fully_faithful_failures, check_borel,
                     check_cover, check_projective_injective,
                     check_quasi_hereditary)
from zzqh.quiver import build_quiver, order_data


def test_covers_are_quasi_hereditary(covers):
    for (n, s), cover in covers.items():
        rep = check_quasi_hereditary(cover)
        assert rep.passed(), ((n, s), rep.witnesses)
        assert rep.endo_standard_trivial
        assert rep.projectives_delta_filtered
        assert rep.ext_delta_nabla_vanishing
        assert rep.hom_delta_nabla_diagonal


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
