"""Graded right modules over the computed algebras: canonical modules,
socles, Hom spaces, minimal resolutions and Ext."""

from fractions import Fraction

import pytest

from zzqh import compute_basis, presentation_cover
from zzqh.linalg import Matrix
from zzqh.modules import (canonical_module, costandard_module, delta_filtration,
                          dualize, ext_dims, generated_submodule, gldim,
                          hom_space, injective_module, is_isomorphic,
                          is_linear, minimal_resolution, projective_module,
                          quotient_module, simple_module, socle_top,
                          standard_module, submodule, top_generators)

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
        soc, top = socle_top(proj)
        assert top == [(x, (0, 0))]
        assert len(soc) == 1


def test_standard_is_quotient_costandard_is_sub(cover12):
    for x in VERTS:
        delta = standard_module(cover12, x)
        nabla = costandard_module(cover12, x)
        assert delta.dim <= projective_module(cover12, x).dim
        assert nabla.dim <= injective_module(cover12, x).dim
        _, dtop = socle_top(delta)
        assert dtop == [(x, (0, 0))]
        nsoc, _ = socle_top(nabla)
        assert [(v, (0, 0)) for v, _ in nsoc] == [(x, (0, 0))]


def test_unstable_rows_are_rejected(cover12):
    """The top generator of a projective alone is not action-stable:
    it spans neither a submodule nor the kernel of a quotient."""
    proj = projective_module(cover12, (1, 1))
    (_, _, top), = top_generators(proj)
    with pytest.raises(AssertionError, match="do not span a submodule"):
        submodule(proj, [top])
    with pytest.raises(AssertionError, match="do not span a submodule"):
        quotient_module(proj, [top])
    sub, incl = submodule(proj, generated_submodule(proj, [top]))
    assert sub.dim == proj.dim and incl.is_module_map()


def test_duality_swaps_projective_injective(cover12):
    for x in VERTS:
        d = dualize(projective_module(cover12, x))
        assert d.dim == injective_module(cover12, x).dim


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
        am, an = m.act(a), n.act(a)
        for i in range(m.dim):
            for j in range(n.dim):
                row = [Fraction(0)] * len(allowed)
                touched = False
                for (k, jj), col in pos.items():
                    if jj == j and am.data[i][k]:
                        row[col] += am.data[i][k]
                        touched = True
                for (ii, l), col in pos.items():
                    if ii == i and an.data[l][j]:
                        row[col] -= an.data[l][j]
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


@pytest.mark.parametrize("point", [(1, 2), (2, 2)])
def test_hom_space_matches_dense_reference(covers, point):
    """The sparse equations of ``hom_space`` span the same row space as
    the dense ones, so the canonical kernel, and every map, agrees."""
    a = covers[point]
    mods = [canonical_module(a, kind, x) for kind in KINDS
            for x in a.presentation.vertices]
    for m in mods:
        for n in mods:
            for shift in (None, (0, 0), (0, 1)):
                got = [f.matrix for f in hom_space(m, n, shift)]
                assert got == _hom_space_reference(m, n, shift), \
                    (m, n, shift)


def test_minimal_resolution_of_simple_exact_shape(cover12):
    res = minimal_resolution(simple_module(cover12, (0, 2)))
    assert res.complete
    assert res.terms == [[((0, 2), (0, 0))],
                         [((1, 1), (0, 1))],
                         [((0, 2), (1, 1)), ((2, 0), (0, 2))],
                         [((1, 1), (1, 2))],
                         [((0, 2), (2, 2))]]
    assert is_linear(res, "length")["linear"]


def test_resolution_composes_to_zero(cover12):
    res = minimal_resolution(simple_module(cover12, (1, 1)))
    for i in range(1, len(res.maps)):
        composite = res.maps[i].matrix * res.maps[i - 1].matrix
        assert all(all(c == 0 for c in row) for row in composite.data)


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
            dims = ext_dims(res, simple_module(cover12, y))
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


def test_is_isomorphic_detects_shifts(cover12):
    p = projective_module(cover12, (1, 1))
    assert is_isomorphic(p, p)
    from zzqh.modules import shift_module
    shifted = shift_module(p, (1, 0))
    assert not is_isomorphic(p, shifted)
    assert is_isomorphic(p, shifted, graded=False)
