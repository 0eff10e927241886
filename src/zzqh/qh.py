"""Checks for the quasi-hereditary structure of the covers.

A cover carries the path-length order on its weight vertices; against
that order this module certifies the quasi-hereditary axioms, the
cover property (the endomorphism algebra of the sum of projectives at
J vertices is the zigzag algebra, and Hom(P_J, -) is fully faithful
on projectives) and the directed Borel subalgebra.  Checks never raise
on mathematical failure: every False field in a report comes with a
finite witness reproducible by a single engine call.

The zigzag side of the cover check is constructive, on the rows of
the projectives P_a, a in J, whose indices at b are the paths a -> b.
The zigzag relations are verified to hold among the lifted arrows, as
each lifted relation's row in P_a, the lifted arrows are verified to
generate the endomorphism algebra, by acting on those rows, and the
block dimensions are verified against the subset-word oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import ZERO, Echelon
from .quiver import build_quiver, vertex_name
from .algebra import (AlgebraInstance, Element, Path, presentation_zigzag,
                      zigzag_hom_oracle)
from .modules import (algebra_order, costandard_module, delta_filtration,
                      delta_nabla_ext, dualize, element_row,
                      minimal_resolution, projective_module, RightModule,
                      socle_isomorphic)

REPORT_FIELDS = (
    "endo_standard_trivial",
    "projectives_delta_filtered",
    "ext_delta_nabla_vanishing",
    "hom_delta_nabla_diagonal",
    "cover_fully_faithful",
    "borel_directed",
    "borel_costandard_iso",
    "proj_injective_at_J",
)


@dataclass
class QhReport:
    """Outcome of the quasi-hereditary checks.

    Fields left at None were not part of the requested check; every
    False comes with an entry in ``witnesses``.
    """

    endo_standard_trivial: bool | None = None
    projectives_delta_filtered: bool | None = None
    ext_delta_nabla_vanishing: bool | None = None
    hom_delta_nabla_diagonal: bool | None = None
    cover_fully_faithful: bool | None = None
    borel_directed: bool | None = None
    borel_costandard_iso: bool | None = None
    proj_injective_at_J: bool | None = None
    witnesses: dict = field(default_factory=dict)

    def passed(self) -> bool:
        values = [getattr(self, f) for f in REPORT_FIELDS]
        return (not any(v is False for v in values)
                and any(v is True for v in values))

    def record(self, name, bad, into=None):
        """Set field ``name``, or ``into[name]``, to whether ``bad`` is
        empty; a nonempty ``bad`` becomes the witnesses of ``name``."""
        if into is None:
            setattr(self, name, not bad)
        else:
            into[name] = not bad
        if bad:
            self.witnesses[name] = bad

    def as_dict(self) -> dict:
        out = {f: getattr(self, f) for f in REPORT_FIELDS}
        out["passed"] = self.passed()
        out["witnesses"] = self.witnesses
        return out


def check_quasi_hereditary(a: AlgebraInstance, order=None,
                           max_steps=None) -> QhReport:
    """Certify the quasi-hereditary axioms for ``a``.

    End(Delta_x) = k for every x, counted as [Delta_x : L_x], since a
    map P_x -> Delta_x kills the kernel, generated at vertices not below
    x.  Every projective is Delta-filtered.  From the one table of
    ``delta_nabla_ext``: Hom(Delta_x, nabla_y) = Ext^0 has dimension
    delta_{xy}, and Ext^i(Delta, nabla) = 0 for 1 <= i <= the computed
    global dimension.  A resolution cut off at the step cap fails the
    Ext check with a truncation witness instead of raising.
    """
    if order is None:
        order = algebra_order(a)
    rep = QhReport()
    verts = a.presentation.vertices
    resolutions, ext = delta_nabla_ext(a, order, max_steps)

    bad = [vertex_name(x) for x in verts
           if resolutions[x].module.vertices.count(x) != 1]
    rep.record("endo_standard_trivial", bad)

    bad = []
    for x in verts:
        layers, witness = delta_filtration(projective_module(a, x),
                                           order=order)
        if layers is None:
            witness = dict(witness)
            witness["vertex"] = vertex_name(witness["vertex"])
            bad.append({"projective": vertex_name(x), **witness})
    rep.record("projectives_delta_filtered", bad)

    hom_bad, ext_bad = [], []
    for x, res in resolutions.items():
        if not res.complete:
            ext_bad.append({"standard": vertex_name(x),
                            "truncated_at": res.length})
        for y in verts:
            dims = [sum(map(len, level.values())) for level in ext[(x, y)]]
            if dims[0] != (1 if x == y else 0):
                hom_bad.append([vertex_name(x), vertex_name(y), dims[0]])
            if res.complete:
                ext_bad.extend({"standard": vertex_name(x),
                                "costandard": vertex_name(y),
                                "degree": i, "dim": d}
                               for i, d in enumerate(dims) if i and d)
    rep.record("hom_delta_nabla_diagonal", hom_bad)
    rep.record("ext_delta_nabla_vanishing", ext_bad)
    return rep


# ---------------------------------------------------------------------------
# the cover property


def _down(x):
    return (x[0] - 1,) + tuple(x[1:])


def _lift_path(pres, p: Path) -> Path:
    src = (p.source[0] + 1,) + tuple(p.source[1:])
    return pres.path(src, tuple(a.label for a in p.arrows))


def check_cover(cover: AlgebraInstance) -> QhReport:
    """Certify that the cover covers its zigzag algebra.

    (a) The endomorphism algebra of the sum of the J projectives is
    the zigzag algebra: block dimensions match the subset-word oracle,
    the zigzag relations hold among the lifted arrows, and the lifted
    arrows generate.
    (b) F = Hom(P_J, -) is fully faithful on projectives: every P_x
    has an injective copresentation 0 -> P_x -> I^0 -> I^1 with I^0 and
    I^1 sums of injectives I_j, j in J (Koenig-Slungaard-Xi, J. Algebra
    240, 2001).  A witness [x, v, step] names an I_v outside J in step
    0 or 1 of the minimal copresentation of P_x; the report keeps the
    key ``fully_faithful_pairs``.
    """
    pres = cover.presentation
    if pres.kind != "cover":
        raise ValueError("check_cover expects a cover instance")
    n, s = pres.params["n"], pres.params["s"]

    rep = QhReport()
    detail = {}
    verts = pres.vertices
    jverts = [x for x in verts if x[0] > 0]
    jset = set(jverts)
    jarrows = [ar for ar in pres.arrows if ar.source in jset
               and ar.target in jset]
    zq = build_quiver(n, s - 1)
    zidx = {v: i for i, v in enumerate(zq.vertices)}
    oracle = zigzag_hom_oracle(n, s)
    # the paths a -> b are P_a's indices at vertex b
    proj = {a: projective_module(cover, a) for a in jverts}
    at = {a: proj[a].blocks(graded=False) for a in jverts}
    cols = {(a, b): at[a].get(b, []) for a in jverts for b in jverts}

    dim_bad = []
    for a in jverts:
        for b in jverts:
            want = int(oracle.data[zidx[_down(a)]][zidx[_down(b)]])
            got = len(cols[(a, b)])
            if got != want:
                dim_bad.append([vertex_name(a), vertex_name(b), got, want])
    rep.record("end_dims_match_oracle", dim_bad, detail)

    rel_bad = []
    for r in presentation_zigzag(n, s).relations:
        lifted = Element({_lift_path(pres, p): c for p, c in r.terms.items()})
        a = next(iter(lifted.terms)).source
        if element_row(proj[a], lifted):
            rel_bad.append(repr(r))
    rep.record("zigzag_relations_hold", rel_bad, detail)

    # the (a, a) block starts from e_a among the round trips at a
    gen_ech = {key: Echelon() for key in cols}
    frontier = []
    for a in jverts:
        e = proj[a].unit(0)
        gen_ech[(a, a)].insert([e.get(j, ZERO) for j in cols[(a, a)]])
        frontier.append((a, a, e))
    while frontier:
        a, b, row = frontier.pop()
        for ar in jarrows:
            if ar.source != b:
                continue
            prod = proj[a].act(ar, row)
            if not prod:
                continue
            key = (a, ar.target)
            cut = [prod.get(j, ZERO) for j in cols[key]]
            if gen_ech[key].insert(cut) is not None:
                frontier.append((*key, prod))
    gen_bad = [[vertex_name(a), vertex_name(b), got, len(cols[(a, b)])]
               for (a, b), ech in gen_ech.items()
               if (got := len(ech.rows)) != len(cols[(a, b)])]
    rep.record("arrows_generate", gen_bad, detail)

    detail["zigzag_engine_compared"] = False

    ff_bad = _copresentation_failures(cover, jset)
    rep.record("fully_faithful_pairs", ff_bad, detail)

    rep.cover_fully_faithful = not (dim_bad or rel_bad or gen_bad or ff_bad)
    rep.witnesses.setdefault("cover_detail", detail)
    return rep


def _copresentation(cover, x):
    """The minimal injective copresentation of P_x, as the first two
    steps of the projective resolution of D(P_x) over the opposite
    algebra: a summand at v in step i is I_v in step i of the
    copresentation."""
    return minimal_resolution(dualize(projective_module(cover, x)),
                              max_steps=2)


def _copresentation_failures(cover, jset):
    """[x, v, step] for each vertex v outside ``jset`` with I_v in step
    0 or 1 of the minimal injective copresentation of P_x."""
    return [[vertex_name(x), vertex_name(v), step]
            for x in cover.presentation.vertices
            for step, terms in enumerate(_copresentation(cover, x).terms)
            for v in dict.fromkeys(v for v, _ in terms if v not in jset)]


# ---------------------------------------------------------------------------
# Borel subalgebra


def check_borel(cover: AlgebraInstance, borel: AlgebraInstance) -> QhReport:
    """The Borel subalgebra embeds word-for-word into the cover, is
    directed, and restricting the cover's costandard modules to its
    arrows reproduces its own costandard modules."""
    if borel.presentation.kind != "borel":
        raise ValueError("check_borel expects a borel instance")
    if cover.presentation.kind != "cover":
        raise ValueError("check_borel expects a cover instance")
    if cover.presentation.params != borel.presentation.params:
        raise ValueError("cover and borel parameters differ")

    rep = QhReport()
    not_words = [repr(p) for p in borel.basis()
                 if p.length and not cover.is_basis_path(p)]
    if not_words:
        rep.witnesses["borel_words_in_cover"] = not_words

    order = []
    pending = {v: 0 for v in borel.presentation.vertices}
    for ar in borel.presentation.arrows:
        pending[ar.target] += 1
    queue = sorted((v for v, c in pending.items() if c == 0))
    while queue:
        v = queue.pop()
        order.append(v)
        for ar in borel.presentation.arrows_from(v):
            pending[ar.target] -= 1
            if pending[ar.target] == 0:
                queue.append(ar.target)
    rep.borel_directed = (len(order) == len(borel.presentation.vertices)
                          and not not_words)
    if len(order) != len(borel.presentation.vertices):
        rep.witnesses["borel_directed"] = sorted(
            vertex_name(v) for v, c in pending.items() if c > 0)

    iso_bad = []
    cover_order = algebra_order(cover)  # the borel's too: same (n, s)
    for x in cover.presentation.vertices:
        nab = costandard_module(cover, x, cover_order)
        restricted = RightModule(
            borel, nab.vertices, nab.bidegrees,
            {ar: nab.action[ar] for ar in borel.presentation.arrows},
            label=f"Nabla[{x}]|B")
        restricted.check()
        if not socle_isomorphic(costandard_module(borel, x, cover_order),
                                restricted):
            iso_bad.append(vertex_name(x))
    rep.record("borel_costandard_iso", iso_bad)
    return rep
