"""The Koszulity suite.

Three gradings matter here.  In the length grading every arrow counts
one; the classical and standard checks certify linear minimal
resolutions of the simples and of the standard modules in that
grading.  In the flat grading only the nonzero-index arrows count; the
Delta check certifies that the flat-degree-zero subalgebra decomposes
into lines of finite global dimension, that it is isomorphic to the
sum of the standard modules as a right module, and that the standard
modules are self-orthogonal (Ext concentrated on the diagonal i = j
of homological against flat degree).

The suite also houses the socle lemmas over the shifted dual algebra
B = opposite(quadratic dual of the cover), the numerical Hilbert
series criterion, and the hard-coded fixtures: the loop control, the
Brauer line, and the counterexample whose summand S_3 resolves
non-linearly even though the dual degree-zero module is
self-orthogonal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .quiver import vertex_name
from .algebra import (AlgebraInstance, Arrow, Element, Path, Presentation,
                      compute_basis, presentation_cover,
                      presentation_shifted_dual, quadratic_blocks,
                      quadratic_dual, scope, shifted_dual_membership)
from .modules import (RightModule, algebra_order, dualize, ext_bigraded_reps,
                      free_module, gldim, is_linear,
                      left_mult_map, minimal_resolution, projective_module,
                      quotient_module, simple_module, socle_rows,
                      standard_resolution)


@dataclass
class KoszulReport:
    """Outcome of one Koszulity check: per-module linearity in the
    grading used, off-diagonal Ext witnesses, and auxiliary results
    (Hilbert identity, line-algebra and degree-zero facts) in extra."""

    kind: str
    grading: str
    modules: dict
    offdiagonal: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def passed(self) -> bool:
        ok = all(m["linear"] for m in self.modules.values())
        ok = ok and not self.offdiagonal
        for val in self.extra.values():
            if isinstance(val, dict):
                ok = ok and bool(val.get("passed", True))
            else:
                ok = ok and bool(val)
        return ok

    def as_dict(self) -> dict:
        return {"kind": self.kind, "grading": self.grading,
                "passed": self.passed(), "modules": self.modules,
                "offdiagonal": self.offdiagonal, "extra": self.extra}


def _linearity(res, grading):
    out = is_linear(res, grading)
    return {"linear": out["linear"], "complete": out["complete"],
            "failures": [[i, vertex_name(v), list(shift)]
                         for i, v, shift in out["failures"]]}


def hilbert_koszul_identity(a: AlgebraInstance, resolutions) -> dict:
    """The numerical Koszul criterion H_E(-t) * H_A(t) = 1, with the
    Ext-algebra dimensions read off the minimal resolutions of the
    simples.  Checked degree by degree: through the full polynomial
    range when every resolution is complete, otherwise only up to the
    shallowest truncation."""
    hmax = a.top_length
    H = [{} for _ in range(hmax + 1)]
    for p in a.basis():
        H[sum(p.bidegree)].setdefault(p.source, Counter())[p.target] += 1

    E = []
    cut = None
    for x, res in resolutions.items():
        for e, layer in enumerate(res.terms):
            while len(E) <= e:
                E.append(Counter())
            for v, _ in layer:
                E[e][(x, v)] += 1
        if not res.complete:
            cut = res.length if cut is None else min(cut, res.length)
    top = hmax + len(E) - 1 if cut is None else cut

    failures = []
    for d in range(top + 1):
        tot = Counter()
        for e in range(max(0, d - hmax), min(d + 1, len(E))):
            for (x, v), c in E[e].items():
                for w, h in H[d - e].get(v, {}).items():
                    tot[(x, w)] += (-1) ** e * c * h
        want = {(x, x): 1 for x in a.presentation.vertices} if d == 0 else {}
        if {k: c for k, c in tot.items() if c} != want:
            failures.append(d)
    return {"passed": not failures, "checked_through": top,
            "failures": failures}


def check_koszul(a: AlgebraInstance, max_steps=None) -> KoszulReport:
    """Classical Koszulity: every simple has a linear minimal
    resolution in the length grading, plus the numerical Hilbert
    criterion.  Algebras whose degree-zero part is not semisimple
    (arrows of total degree zero) are rejected."""
    for ar in a.presentation.arrows:
        if ar.bidegree[0] + ar.bidegree[1] == 0:
            raise ValueError(
                f"degree-0 part not semisimple: arrow {ar} has degree 0")
    modules, resolutions = {}, {}
    for x in a.presentation.vertices:
        res = minimal_resolution(simple_module(a, x), max_steps=max_steps)
        resolutions[x] = res
        modules[vertex_name(x)] = _linearity(res, "length")
    rep = KoszulReport(kind="classical", grading="length", modules=modules)
    rep.extra["hilbert_identity"] = hilbert_koszul_identity(a, resolutions)
    return rep


def check_standard_koszul(cover: AlgebraInstance) -> KoszulReport:
    """Standard Koszulity: every standard module has a linear minimal
    resolution in the length grading."""
    if cover.presentation.kind != "cover":
        raise ValueError("check_standard_koszul expects a cover instance")
    order = algebra_order(cover)
    modules = {vertex_name(x): _linearity(
        standard_resolution(cover, x, order), "length")
        for x in cover.presentation.vertices}
    return KoszulReport(kind="standard", grading="length", modules=modules)


def _line_presentation(pres: Presentation) -> Presentation:
    arrows = [a for a in pres.arrows if a.label == 0]
    heads = {a.source for a in arrows}
    rels = []
    for a in arrows:
        if a.target in heads:
            rels.append(Element.of_path(Path(a.source, (
                a, next(b for b in arrows if b.source == a.target)))))
    return Presentation(pres.vertices, arrows, rels, kind="line",
                        params=pres.params)


def check_delta_koszul(cover: AlgebraInstance) -> KoszulReport:
    """Koszulity with respect to the standard modules.

    (a) The flat-degree-zero subalgebra decomposes into index-0 line
    algebras of finite global dimension; (b) it is isomorphic to the
    direct sum of the standard modules, one summand at a time; (c)
    Ext^i(Delta_x, Delta_y) is concentrated in flat degree i, read off
    the cover's Ext table; the minimal resolutions behind it are
    themselves linear in the flat grading."""
    from .extdual import ext_table  # extdual imports this module
    if cover.presentation.kind != "cover":
        raise ValueError("check_delta_koszul expects a cover instance")
    pres = cover.presentation
    order = algebra_order(cover)
    verts = pres.vertices
    resolved = {x: standard_resolution(cover, x, order) for x in verts}
    modules = {vertex_name(x): _linearity(res, "flat")
               for x, res in resolved.items()}
    offdiag = [[i, [flat, sharp], vertex_name(x), vertex_name(y), dim]
               for (x, y, i, flat, sharp), dim in ext_table(cover).dims.items()
               if flat != i]

    with scope():  # the line algebra is this check's own
        line = compute_basis(_line_presentation(pres))
        dims_ok = all(
            line.dim_block(x, y) == sum(
                c for d, c in cover.block_bidegrees(x, y).items() if d[0] == 0)
            for x in verts for y in verts)
        monotone = all(a.source[0] < a.target[0]
                       for a in line.presentation.arrows)
        gl = gldim(line)
    s = pres.params["s"]
    line_report = {"passed": dims_ok and monotone and gl <= s,
                   "degree_zero_dims_match": dims_ok,
                   "lines_directed": monotone,
                   "gldim": gl, "chain_bound": s}

    iso = all(gamma0_summand_iso(cover, x, res.module)
              for x, res in resolved.items())

    return KoszulReport(kind="delta", grading="flat", modules=modules,
                        offdiagonal=offdiag,
                        extra={"line_algebra": line_report,
                               "gamma0_iso_delta": iso})


# ---------------------------------------------------------------------------
# socle lemmas over the shifted dual


@scope()  # the algebras it builds are its own, released when it returns
def check_shifted_dual_lemmas(n: int, s: int) -> dict:
    """Over the opposite quadratic dual B of the cover: the socle of
    every projective is simple and generated by maximal paths ending
    at a K vertex; left multiplication by any index-0 arrow embeds one
    projective into another; and the coordinate membership criterion
    for surviving path classes agrees with the engine on every
    realizable multidegree (each such class space has dimension at
    most one).  B is built from its explicit presentation and its
    block dimensions are cross-checked against the annihilator dual of
    the cover, which has the same normal forms up to signs."""
    b = compute_basis(presentation_shifted_dual(n, s))
    dq = compute_basis(quadratic_dual(presentation_cover(n, s)))
    blocks_ok = all(b.dim_block(x, y) == dq.dim_block(x, y)
                    for x in b.presentation.vertices
                    for y in b.presentation.vertices)
    pres = b.presentation
    socle_bad, maximal_bad, inj_bad, member_bad = [], [], [], []

    for x in pres.vertices:
        proj = projective_module(b, x)
        rows = socle_rows(proj)
        if len(rows) != 1:
            socle_bad.append([vertex_name(x), len(rows)])
        for row in rows:
            for i in sorted(row):
                q = proj.basis_paths[i]
                if q.target[0] != 0:
                    maximal_bad.append([vertex_name(x), repr(q), "not in K"])
                for ar in pres.arrows_from(q.target):
                    if i in proj.action[ar]:
                        maximal_bad.append([vertex_name(x), repr(q),
                                            "extends along " + str(ar.label)])

    for ar in pres.arrows:
        if ar.label != 0:
            continue
        f = left_mult_map(b, Element.of_path(Path(ar.source, (ar,))))
        if f.rank() != f.nrows:
            inj_bad.append([vertex_name(ar.source), vertex_name(ar.target)])

    # realizable multidegrees by walking the quiver freely
    counts = {}
    for p in b.basis():
        md = [0] * (n + 1)
        for ar in p.arrows:
            md[ar.label] += 1
        counts[(p.source, tuple(md))] = counts.get((p.source, tuple(md)), 0) + 1
    for x in pres.vertices:
        seen = set()
        stack = [(x, (0,) * (n + 1), 0)]
        while stack:
            at, md, ln = stack.pop()
            if md in seen:
                continue
            seen.add(md)
            if ln < b.top_length + 1:
                for ar in pres.arrows_from(at):
                    nxt = list(md)
                    nxt[ar.label] += 1
                    stack.append((ar.target, tuple(nxt), ln + 1))
            got = counts.get((x, md), 0)
            want = 1 if shifted_dual_membership(x, md) else 0
            if got > 1 or got != want:
                member_bad.append([vertex_name(x), list(md), got, want])

    failed = socle_bad or maximal_bad or inj_bad or member_bad
    return {"passed": blocks_ok and not failed,
            "socle_not_simple": socle_bad,
            "socle_not_maximal_into_K": maximal_bad,
            "alpha0_not_injective": inj_bad,
            "membership_mismatches": member_bad,
            "matches_quadratic_dual_blocks": blocks_ok,
            "dim": b.dim()}


# ---------------------------------------------------------------------------
# fixtures


def loop_presentation() -> Presentation:
    """One vertex, one loop, loop squared zero."""
    loop = Arrow(source=1, target=1, label="loop", bidegree=(1, 0))
    pres = Presentation((1,), (loop,), (), kind="loop")
    return Presentation((1,), (loop,),
                        (Element.of_path(pres.path(1, ("loop", "loop"))),),
                        kind="loop")


def brauer_line_presentation(s: int) -> Presentation:
    """The Brauer line on vertices 1..s+1: arrows a upward and b
    downward, squares zero, commutators where both round trips exist,
    and the extra zero b-then-a at the top vertex only (the round trip
    at vertex 1 survives)."""
    if s < 1:
        raise ValueError(f"the Brauer line needs s >= 1, got {s}")
    verts = tuple(range(1, s + 2))
    arrows = []
    for i in range(1, s + 1):
        arrows.append(Arrow(source=i, target=i + 1, label="a", bidegree=(1, 0)))
        arrows.append(Arrow(source=i + 1, target=i, label="b", bidegree=(0, 1)))
    pres = Presentation(verts, arrows, (), kind="brauer-line", params={"s": s})
    rels = []
    for i in verts:
        if i + 2 <= s + 1:
            rels.append(Element.of_path(pres.path(i, ("a", "a"))))
        if i - 2 >= 1:
            rels.append(Element.of_path(pres.path(i, ("b", "b"))))
        if 2 <= i <= s:
            rels.append(Element.of_path(pres.path(i, ("a", "b")))
                        - Element.of_path(pres.path(i, ("b", "a"))))
    rels.append(Element.of_path(pres.path(s + 1, ("b", "a"))))
    return Presentation(verts, arrows, rels, kind="brauer-line",
                        params={"s": s})


def counterexample_presentation() -> Presentation:
    """Three vertices; a, c: 2 -> 1 and b, d: 3 -> 2 with b then a zero
    and d then a equal to b then c; a, b flat degree 0 and c, d flat
    degree 1."""
    arrows = (Arrow(source=2, target=1, label="a", bidegree=(0, 1)),
              Arrow(source=2, target=1, label="c", bidegree=(1, 0)),
              Arrow(source=3, target=2, label="b", bidegree=(0, 1)),
              Arrow(source=3, target=2, label="d", bidegree=(1, 0)))
    pres = Presentation((1, 2, 3), arrows, (), kind="counterexample")
    rels = (Element.of_path(pres.path(3, ("b", "a"))),
            Element.of_path(pres.path(3, ("d", "a")))
            - Element.of_path(pres.path(3, ("b", "c"))))
    return Presentation((1, 2, 3), arrows, rels, kind="counterexample")


def _flat_degree_zero_part(m: RightModule, label=""):
    """m modulo the span of its basis vectors in flat degree >= 1."""
    return quotient_module(m, [i for i, d in enumerate(m.bidegrees)
                               if d[0] >= 1], label=label)


def gamma0_summand_iso(cover: AlgebraInstance, x, delta: RightModule):
    """Whether e_x Gamma_0 (P_x modulo flat degree >= 1) and ``delta``
    (Delta_x) are the same based module, which decides e_x Gamma_0 =
    Delta_x: a graded isomorphism P_x/U -> P_x/V, with U and V spans of
    basis vectors, lifts to a bidegree (0, 0) endomorphism of P_x, a
    scalar, so U = V.  Both have top S_x, so by Krull-Schmidt the checks
    at all x decide Gamma_0 = sum_x Delta_x."""
    part = _flat_degree_zero_part(projective_module(cover, x))
    return ((part.algebra, part.vertices, part.bidegrees, part.action)
            == (delta.algebra, delta.vertices, delta.bidegrees, delta.action))


def dual_degree_zero_module(inst: AlgebraInstance):
    """D of the flat-degree-zero quotient of the regular left module,
    as a right module."""
    op = inst.opposite()
    regular = free_module(op, [(x, (0, 0)) for x in op.presentation.vertices])
    return dualize(_flat_degree_zero_part(regular, "A[0]"))


_COUNTEREXAMPLE_S3_TERMS = (((3, (0, 0)),),
                            ((2, (0, 1)), (2, (1, 0))),
                            ((1, (0, 2)), (1, (1, 1))))


def fixture_counterexample() -> dict:
    """The counterexample run end to end: the dual degree-zero module
    is graded self-orthogonal in the flat grading, yet its summand S_3
    resolves with the recorded non-linear shape (linear in the length
    grading, not in the flat one)."""
    inst = compute_basis(counterexample_presentation())
    t = dual_degree_zero_module(inst)
    res_t = minimal_resolution(t)
    offdiag = []
    _, _, levels = ext_bigraded_reps(res_t, t)
    for i, level in enumerate(levels):
        for d, reps in level.items():
            if -d[0] != i:
                offdiag.append([i, [-d[0], d[1]], len(reps)])

    res3 = minimal_resolution(simple_module(inst, 3))
    terms = [sorted(((v, tuple(sh)) for v, sh in layer))
             for layer in res3.terms]
    expected = [sorted(layer) for layer in _COUNTEREXAMPLE_S3_TERMS]
    shape_ok = terms == expected and res3.complete
    flat = _linearity(res3, "flat")
    length = _linearity(res3, "length")

    degree_zero = sum(1 for p in inst.basis() if p.bidegree[0] == 0)
    passed = (not offdiag) and shape_ok and not flat["linear"]
    return {"passed": passed,
            "dim": inst.dim(),
            "dim_degree_zero": degree_zero,
            "self_orthogonal": not offdiag,
            "offdiagonal": offdiag,
            "s3_terms": [[[v, list(sh)] for v, sh in layer]
                         for layer in terms],
            "s3_shape_matches": shape_ok,
            "s3_linear_flat": flat["linear"],
            "s3_linear_length": length["linear"]}


def fixture_brauer_line(s: int) -> dict:
    """The Brauer line against the (1, s) cover: identical quiver and
    relation subspaces under the relabeling i <-> (s+1-i, i-1), equal
    block dimensions, and classical Koszulity."""
    fix = brauer_line_presentation(s)
    cov = presentation_cover(1, s)
    vmap = {i: (s + 1 - i, i - 1) for i in range(1, s + 2)}
    lmap = {"a": 1, "b": 0}

    arrows_ok = len(fix.arrows) == len(cov.arrows)
    for ar in fix.arrows:
        mapped = cov._by_key.get((vmap[ar.source], lmap[ar.label]))
        if mapped is None or mapped.target != vmap[ar.target] \
                or mapped.bidegree != ar.bidegree:
            arrows_ok = False

    def on_cover(p):
        return cov.path(vmap[p.source], [lmap[a.label] for a in p.arrows])

    relations_ok = arrows_ok and quadratic_blocks(cov) == quadratic_blocks(
        Presentation(cov.vertices, cov.arrows, [
            Element({on_cover(p): c for p, c in r.terms.items()})
            for r in fix.relations]))

    fix_inst = compute_basis(fix)
    cov_inst = compute_basis(cov)
    dims_ok = all(fix_inst.dim_block(i, j) == cov_inst.dim_block(vmap[i], vmap[j])
                  for i in fix.vertices for j in fix.vertices)
    koszul = check_koszul(fix_inst).passed()
    return {"passed": arrows_ok and relations_ok and dims_ok and koszul,
            "arrows_match": arrows_ok, "relations_match": relations_ok,
            "block_dims_match": dims_ok, "koszul": koszul,
            "dim": fix_inst.dim()}
