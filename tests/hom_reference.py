"""The reference route to Hom, kept beside the tests that compare the
engine against it.

``hom_space`` solves Hom(m, n) as one linear system in the unknown
matrix entries, and ``_fully_faithful_failures`` decides the cover
property one vertex pair at a time with it.  The engine reads Hom as
Ext^0 of a resolution instead (``modules.ext_bigraded_reps``) and
decides the cover property by injective copresentations
(``qh.check_cover``); these are the independent second routes.
"""

from collections import defaultdict

from zzqh.algebra import Element
from zzqh.linalg import ZERO, Matrix
from zzqh.modules import (RightModule, left_mult_map, projective_module,
                          restrict_to)
from zzqh.quiver import vertex_name


def hom_space(m: RightModule, n: RightModule, shift=None):
    """A basis of module maps m -> n, as matrices; with ``shift`` only
    the maps homogeneous of that (flat, sharp) bidegree.  The unknowns f[i][j]
    pair basis vectors of equal weight; arrow a gives the equation
    (a_m f - f a_n)[i][j] = 0 for each (i, j) a nonzero action entry
    reaches."""
    targets = n.blocks(graded=False)
    pos = {}
    for i, v in enumerate(m.vertices):
        for j in targets.get(v, ()):
            if shift is None or tuple(shift) == tuple(
                    b - a for a, b in zip(m.bidegrees[i], n.bidegrees[j])):
                pos[(i, j)] = len(pos)
    if not pos:
        return []
    by_row, by_col = {}, {}
    for (i, j), col in pos.items():
        by_row.setdefault(i, []).append((j, col))
        by_col.setdefault(j, []).append((i, col))
    equations = defaultdict(lambda: [ZERO] * len(pos))
    for a in m.algebra.presentation.arrows:
        for i, row in m.action[a].items():
            for k, c in row.items():
                for j, col in by_row.get(k, ()):
                    equations[(a, i, j)][col] += c
        for l, row in n.action[a].items():
            for j, c in row.items():
                for i, col in by_col.get(l, ()):
                    equations[(a, i, j)][col] -= c
    maps = []
    sols = Matrix(list(equations.values()), ncols=len(pos)).kernel_basis()
    for srow in sols.data:
        mat = Matrix.zero(m.dim, n.dim)
        for (i, j), col in pos.items():
            mat.data[i][j] = srow[col]
        maps.append(mat)
    return maps



def _fully_faithful_failures(cover, jset):
    """Pairs (a, b) where Hom(P_a, P_b) -> Hom(F P_a, F P_b) is not
    bijective, with the three dimensions as witness.  F P_x is P_x
    restricted to the paths ending in ``jset``: an action entry between
    two such paths belongs to an arrow inside J, so only those act."""
    verts = cover.presentation.vertices
    keep, fproj = {}, {}
    for x in verts:
        proj = projective_module(cover, x)
        ix = keep[x] = [i for i, v in enumerate(proj.vertices) if v in jset]
        fproj[x] = restrict_to(proj, ix)
    by_pair = {}
    for p in cover.basis():
        by_pair.setdefault((p.source, p.target), []).append(p)

    bad = []
    for a in verts:
        for b in verts:
            hom_dim = cover.dim_block(b, a)
            end_dim = len(hom_space(fproj[a], fproj[b]))
            images = []
            for g in by_pair.get((b, a), ()):
                m = left_mult_map(cover, Element.of_path(g))
                images.append([m.data[i][j] for i in keep[a] for j in keep[b]])
            frank = Matrix(images, ncols=len(keep[a]) * len(keep[b])).rank()
            if end_dim != hom_dim or frank != hom_dim:
                bad.append([vertex_name(a), vertex_name(b),
                            hom_dim, end_dim, frank])
    return bad
