"""Definitions that only the tests use, kept beside them.

``full`` and ``sparse`` convert between the engine's module rows,
dicts {index: nonzero coefficient}, and the dense lists of the
reference routes, and ``rows`` reads an arrow's action rows, none for
an arrow the module does not store.  The rest build the inputs and the second routes
that some tests compare against: a path's concatenation, a shifted
module, the identity class of a standard, the projective-injective
check at the J vertices, and the vertex-wide lift through a resolution.
"""

from zzqh.algebra import Path
from zzqh.linalg import Matrix
from zzqh.modules import RightModule, free_images
from zzqh.qh import QhReport, _copresentation
from zzqh.quiver import vertex_name


def full(m, row):
    """The row ``row`` of m as a dense list of m.dim entries."""
    return [row.get(j, 0) for j in range(m.dim)]


def sparse(row):
    """The dense list ``row`` as a module row."""
    return {j: c for j, c in enumerate(row) if c}


def rows(m, arrow):
    """The action rows of ``arrow`` in m: ``m.action`` holds only the
    arrows that move some basis vector."""
    return m.action.get(arrow, {})


def concat(p: Path, q: Path) -> Path:
    """The path p followed by q."""
    if p.target != q.source:
        raise ValueError("paths do not compose")
    return Path(p.source, p.arrows + q.arrows)


def shift_module(m: RightModule, shift) -> RightModule:
    """m with every bidegree moved by ``shift``, sharing m's action rows."""
    bidegrees = [tuple(c + s for c, s in zip(d, shift)) for d in m.bidegrees]
    return RightModule(m.algebra, m.vertices, bidegrees, m.action,
                       label=f"{m.label}<{shift}>" if m.label else "")


def identity(table, x):
    """The class of the identity of Delta_x in ``table``, the one class
    of Hom(Delta_x, Delta_x) in bidegree (0, 0)."""
    reps = table.classes_by_key.get((x, x, 0, 0, 0), ())
    if len(reps) != 1:
        raise ArithmeticError(f"Hom(Delta, Delta) at {x} is not a line")
    return reps[0]


def check_projective_injective(cover) -> QhReport:
    """Projectives at J vertices are injective: P_x is isomorphic to
    I_x exactly when D(P_x) is the projective at x of the opposite
    algebra, that is, when the copresentation of P_x is I_x alone.  The
    K vertices are recorded but not required to pass."""
    rep = QhReport()
    jbad, at_k = [], []
    for x in cover.presentation.vertices:
        res = _copresentation(cover, x)
        iso = res.complete and [[v for v, _ in t] for t in res.terms] == [[x]]
        if x[0] > 0:
            if not iso:
                jbad.append(vertex_name(x))
        else:
            at_k.append([vertex_name(x), bool(iso)])
    rep.record("proj_injective_at_J", jbad)
    rep.witnesses["injective_at_K"] = at_k
    return rep


def lift_reference(res, k, row):
    """The row of frees[k] that d_k sends to ``row`` by the vertex-wide
    route: one dense solve with a column for every basis vector of
    frees[k] at the vertex of ``row`` and a row for every basis vector
    of the target, frees[k-1] (``module`` for k = 0).  Raises
    ArithmeticError when there is no solution."""
    if not row:
        return {}
    target = res.frees[k - 1] if k else res.module
    v = target.vertices[next(iter(row))]
    cols = [j for j, w in enumerate(res.frees[k].vertices) if w == v]
    images = [full(target, img) for img in
              free_images(res.frees[k], target, res.gens[k], cols)]
    d = Matrix([[img[j] for img in images] for j in range(target.dim)],
               ncols=len(cols))
    sol = d.solve(full(target, row))
    if sol is None:
        raise ArithmeticError("row not in the image")
    return {j: c for j, c in zip(cols, sol) if c}
