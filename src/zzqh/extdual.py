"""Ext of the standard modules, Yoneda products, and the dual algebra.

Every ordered pair of standard modules gets its bigraded Ext read off
a minimal projective resolution.  Classes are stored as canonical
cocycle rows (residues modulo coboundaries in a fixed Hom-complex
basis), so equality of classes is a row comparison, and both the
homological and the internal degree of each class are recorded rather
than assumed.  Yoneda products are computed honestly: the second
cocycle is lifted through the resolution of its source, step by step,
by solving for generator images with a deterministic pivot rule, and
the composite is reduced back to canonical form.

The total-degree-one classes assemble into a quiver on the cover's
vertices: one forward class along each index-0 arrow and one backward
class against each nonzero-index arrow.  The kernel of the degree-two
Yoneda multiplication is a quadratic relation space, and compare_dual
certifies the result against the closed-form presentation: arrows as
sets, relation spaces as subspaces (an arrow rescaling that repairs
the match is reported separately from a genuine mismatch), bigraded
dimension tables, and the Ext table itself.  Companion checks cover
the degree law i = d - n*sharp, Koszulity of the dual in the total
grading together with the shift law for maps between dual projectives,
and the Hom/Ext dimensions that pin each costandard to the simple top
of the corresponding dual projective.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (AlgebraInstance, Arrow, Element, Path, Presentation,
                      compute_basis, presentation_cover,
                      presentation_dual_conjectured, quadratic_blocks,
                      scope)
from .koszul import KoszulReport, check_koszul
from .linalg import ONE, ZERO, Echelon, Matrix, exact_div
from .modules import (_generator_rows, algebra_order, delta_nabla_ext,
                      ext_bigraded_reps, free_row_image, standard_resolution)
from .quiver import build_quiver, order_data, vertex_name


@dataclass
class ExtClass:
    """A class in Ext^i(Delta_source, Delta_target).

    ``row`` is the canonical cocycle: the representative in the
    Hom-complex basis at step i of the resolution of Delta_source,
    reduced modulo coboundaries.  ``bidegree`` is the internal
    (flat, sharp) degree read off the cocycle; the flat part lands on
    i for the covers, but that is checked, not assumed.  The table
    holding the class is held weakly; keep it while classes are multiplied.
    """

    source: tuple
    target: tuple
    i: int
    bidegree: tuple
    row: tuple
    table: ExtTable = field(repr=False, compare=False)

    def is_zero(self) -> bool:
        return not any(self.row)


ExtClass.table = property(lambda self: self._table(), lambda self, table: setattr(
    self, "_table", weakref.ref(table)))  # None once the table is freed


@dataclass
class ExtTable:
    """Bigraded Ext of all standard modules over one cover.

    ``dims`` maps (x, y, i, flat, sharp) to a dimension and
    ``classes_by_key`` to the tuple of representative classes.
    ``hom[(x, y)]`` keeps the Hom complex of each pair as
    ``ext_bigraded_reps`` built it, its bases and its bidegree blocks
    with their coboundary echelons, so products computed later land in
    the same canonical coordinates.
    """

    cover: AlgebraInstance
    order: object
    deltas: dict
    resolutions: dict
    dims: dict = field(default_factory=dict)
    classes_by_key: dict = field(default_factory=dict)
    hom: dict = field(default_factory=dict, repr=False)

    def flat_equals_homological(self):
        """Keys whose recorded flat degree differs from the homological
        degree; empty exactly when the standards are self-orthogonal."""
        return [k for k, m in sorted(self.dims.items()) if m and k[2] != k[3]]

    def dims_by_pair(self):
        """The nonzero ``dims`` as {(x, y): {(i, flat, sharp): dim}}."""
        out = {}
        for (x, y, i, jb, js), m in self.dims.items():
            if m:
                out.setdefault((x, y), {})[(i, jb, js)] = m
        return out


def ext_table(cover: AlgebraInstance) -> ExtTable:
    """Tabulate bigraded Ext between the standard modules of a cover.

    The complete resolutions of the standards come from
    ``standard_resolution``.  The table, with canonical representative
    cocycles, is made once per cover through ``cover.memo``: later
    calls return the same table.  Products are not kept: each
    ``yoneda_product`` call computes its own.
    """
    if cover.presentation.kind != "cover":
        raise ValueError("ext tables are computed over a cover instance")
    return cover.memo("ext-table", lambda: _tabulate_ext(cover))


def _tabulate_ext(cover: AlgebraInstance) -> ExtTable:
    order = algebra_order(cover)
    deltas, resolutions = {}, {}
    for x in cover.presentation.vertices:
        resolutions[x] = standard_resolution(cover, x, order)
        deltas[x] = resolutions[x].module
        if not resolutions[x].complete:
            raise RuntimeError(f"resolution of the standard at {x} truncated")
    table = ExtTable(cover, order, deltas, resolutions)
    for x in deltas:
        for y in deltas:
            bases, blocks, levels = ext_bigraded_reps(resolutions[x], deltas[y])
            table.hom[(x, y)] = (bases, blocks)
            for i, level in enumerate(levels):
                for d, reps in sorted(level.items()):
                    key = (x, y, i, -d[0], d[1])
                    table.dims[key] = len(reps)
                    table.classes_by_key[key] = tuple(
                        ExtClass(x, y, i, (-d[0], d[1]), tuple(r), table)
                        for r in reps)
    return table


# ---------------------------------------------------------------------------
# Yoneda products


def _zero_class(table, a, c, i, bidegree) -> ExtClass:
    bases = table.hom[(a, c)][0]
    width = len(bases[i]) if i < len(bases) else 0
    return ExtClass(a, c, i, bidegree, (ZERO,) * width, table)


def yoneda_product(f: ExtClass, g: ExtClass) -> ExtClass:
    """The composite f.g for f in Ext^p(Delta_b, Delta_c) and g in
    Ext^q(Delta_a, Delta_b), landing in Ext^(p+q)(Delta_a, Delta_c).

    The cocycle of g is lifted to a partial chain map from the
    resolution of Delta_a to step p of the resolution of Delta_b, each
    generator row by ``Resolution.lift`` on its own block, composed
    with the cocycle of f, and reduced to canonical form.
    Homological degrees and bidegrees add; the result is verified to
    be a cocycle concentrated in the expected bidegree.
    """
    table = f.table
    if table is None or table is not g.table:
        raise ValueError("classes live over different tables, or a freed one")
    if g.target != f.source:
        raise ValueError(
            f"classes do not compose: target {g.target}, source {f.source}")
    a, c = g.source, f.target
    i_total = f.i + g.i
    bidegree = (f.bidegree[0] + g.bidegree[0], f.bidegree[1] + g.bidegree[1])
    res_a, res_b = table.resolutions[a], table.resolutions[g.target]
    if f.is_zero() or g.is_zero() or i_total > res_a.length:
        return _zero_class(table, a, c, i_total, bidegree)

    delta_c = table.deltas[c]
    # lift_k: F^a_(q+k) -> F^b_k, as generator rows, with d^b_k lift_k
    # = lift_(k-1) d^a_(q+k), and d^b_0 lift_0 = g
    rhs = _generator_rows(res_a.frees[g.i], table.hom[(a, g.target)][0][g.i],
                          g.row)
    for k in range(f.i + 1):
        if k:
            rhs = [free_row_image(res_a.frees[g.i + k - 1], res_b.frees[k - 1],
                                  lift, grow) for grow in res_a.gens[g.i + k]]
        lift = [res_b.lift(k, want) for want in rhs]

    f_gens = _generator_rows(res_b.frees[f.i], table.hom[(g.target, c)][0][f.i],
                             f.row)
    # the product lives on the block of its bidegree, if there is one
    bases, blocks = table.hom[(a, c)]
    basis = bases[i_total]
    cols, diff, bounds = blocks[i_total].get(
        (-bidegree[0], bidegree[1]), ((), Matrix.zero(0, 0), Echelon()))
    pos = {basis[col][:2]: k for k, col in enumerate(cols)}
    local = [ZERO] * len(cols)
    for t, grow in enumerate(lift):
        img = free_row_image(res_b.frees[f.i], delta_c, f_gens, grow)
        for j, val in img.items():
            k = pos.get((t, j))
            if k is None:
                raise ArithmeticError("product left its bidegree")
            local[k] = val
    local = bounds.reduce(local)
    if any(diff.mul_row(local)):
        raise ArithmeticError("product row is not a cocycle")
    row = [ZERO] * len(basis)
    for col, val in zip(cols, local):
        row[col] = val
    return ExtClass(a, c, i_total, bidegree, tuple(row), table)


# ---------------------------------------------------------------------------
# extraction of the dual presentation


def build_dual_from_ext(cover: AlgebraInstance,
                        table: ExtTable = None) -> Presentation:
    """Extract the quadratic presentation of the Ext algebra.

    Arrows are the total-degree-one classes, scaled so the leading
    cocycle coordinate is +1: a class in bidegree (0, 1) along each
    index-0 cover arrow, kept forward, and a class in bidegree (1, 0)
    against each nonzero-index cover arrow, reversed.  Relations are
    the kernel of the degree-two Yoneda multiplication out of the free
    quadratic layer, one block per (source, target) pair.  The arrow
    set is verified to exhaust total degree one and to strictly
    decrease the partial order, so the result is directed.
    """
    if table is None:
        table = ext_table(cover)
    n, s = cover.presentation.params["n"], cover.presentation.params["s"]
    q = build_quiver(n, s)
    arrows, arrow_class, used = [], {}, set()
    for (v, i) in q.arrows:
        w = q.target(v, i)
        if i == 0:
            key = (w, v, 0, 0, 1)
            arr = Arrow(source=v, target=w, label=0, bidegree=(0, 1))
        else:
            key = (v, w, 1, 1, 0)
            arr = Arrow(source=w, target=v, label=i, bidegree=(1, 0))
        reps = table.classes_by_key.get(key, ())
        if len(reps) != 1:
            raise ArithmeticError(
                f"expected one generator class at {key}, found {len(reps)}")
        arrows.append(arr)
        arrow_class[(arr.source, arr.label)] = reps[0]
        used.add(key)
    for key, m in sorted(table.dims.items()):
        if key[2] + key[4] == 1 and m and key not in used:
            raise ArithmeticError(f"stray total-degree-one class at {key}")
    for arr in arrows:
        if not table.order.lt(arr.target, arr.source):
            raise ArithmeticError(f"dual arrow does not drop the order: {arr}")

    pres0 = Presentation(cover.presentation.vertices, arrows, [],
                         kind="dual-built", params={"n": n, "s": s})
    blocks = quadratic_blocks(pres0)
    rels = []
    for key in sorted(blocks, key=lambda k: tuple(map(vertex_name, k))):
        paths = blocks[key][0]
        # products of the block land in a direct sum of Ext components,
        # one per (homological degree, bidegree) of total degree two
        prods = [yoneda_product(*(arrow_class[(a.source, a.label)]
                                  for a in p.arrows)) for p in paths]
        comps = {(prod.i, prod.bidegree): len(prod.row) for prod in prods}
        rows = [[c for ck in sorted(comps)
                 for c in (prod.row if ck == (prod.i, prod.bidegree)
                           else (ZERO,) * comps[ck])] for prod in prods]
        _, ker = Matrix(rows, ncols=sum(comps.values())).left_kernel()
        rels.extend(Element({paths[c]: val for c, val in enumerate(krow)})
                    for krow in ker)
    gauge = _preferred_gauge(rels)
    if gauge:
        rels = [_apply_gauge(r, gauge) for r in rels]
    return Presentation(pres0.vertices, arrows, rels,
                        kind="dual-built", params={"n": n, "s": s})


def perturb_presentation(pres: Presentation) -> Presentation:
    """A deliberately broken variant: the first relation with more than
    one term loses its last path.  Negative control for compare_dual;
    no arrow rescaling can repair a changed support."""
    rels = list(pres.relations)
    for k, r in enumerate(rels):
        if len(r.terms) > 1:
            paths = sorted(r.terms, key=lambda p: p.sort_key())
            rels[k] = Element({p: c for p, c in r.terms.items()
                               if p != paths[-1]})
            return Presentation(pres.vertices, pres.arrows, rels,
                                kind=pres.kind, params=pres.params)
    raise ValueError("no multi-term relation to perturb")


def _preferred_gauge(rels):
    """Arrow scalars turning every two-term relation into a difference
    of paths with coefficient one.  The cocycle representatives behind
    the arrows carry no preferred signs, so the raw kernel relations are
    only canonical up to rescaling arrows; this fixes that freedom
    without consulting anything beyond the relations themselves.  Empty
    when the relations admit no such normal form."""
    constraints = []
    for r in rels:
        if len(r.terms) != 2:
            continue
        (p, cp), (q, cq) = sorted(r.terms.items(),
                                  key=lambda t: t[0].sort_key())
        constraints.append((_path_exponents(q, p), exact_div(-cq, cp)))
    return _solve_multiplicative(constraints) or {}


def _apply_gauge(rel: Element, eps: dict) -> Element:
    """Rewrite a relation in the rescaled arrow generators and
    renormalize the leading coefficient to one."""
    terms = {}
    for p, c in rel.terms.items():
        scale = ONE
        for a in p.arrows:
            scale *= eps.get((a.source, a.label), ONE)
        terms[p] = exact_div(c, scale)
    lead = terms[min(terms, key=lambda p: p.sort_key())]
    return Element({p: exact_div(c, lead) for p, c in terms.items()})


# ---------------------------------------------------------------------------
# comparison with the closed-form presentation


def _path_exponents(plus: Path, minus: Path) -> dict:
    """Arrow multiset difference of two paths, as exponents keyed by
    (source, label)."""
    exps = {}
    for a in plus.arrows:
        k = (a.source, a.label)
        exps[k] = exps.get(k, 0) + 1
    for a in minus.arrows:
        k = (a.source, a.label)
        exps[k] = exps.get(k, 0) - 1
    return {k: e for k, e in exps.items() if e}


def _solve_multiplicative(constraints):
    """Nonzero rationals eps satisfying prod eps[k]**e == ratio for each
    (exponents, ratio) constraint, by propagation over single-unknown
    constraints (enough for the quadratic blocks here); None if
    inconsistent or out of scope."""
    eps = {}
    pending = list(constraints)
    while pending:
        nxt, progressed = [], False
        for exps, ratio in pending:
            unknown = [(k, e) for k, e in exps.items() if k not in eps]
            if not unknown:
                val = ONE
                for k, e in exps.items():
                    val *= Fraction(eps[k]) ** e
                if val != ratio:
                    return None
                progressed = True
            elif len(unknown) == 1 and abs(unknown[0][1]) == 1:
                k, e = unknown[0]
                rest = ONE
                for kk, ee in exps.items():
                    if kk != k:
                        rest *= Fraction(eps[kk]) ** ee
                eps[k] = (exact_div(ratio, rest) if e == 1
                          else exact_div(rest, ratio))
                progressed = True
            else:
                nxt.append((exps, ratio))
        if not progressed:
            free = next((k for exps, _ in nxt for k in exps
                         if k not in eps), None)
            if free is None:
                return None
            eps[free] = ONE
        pending = nxt
    return eps


def _arrow_rescaling(conjectured, blocks):
    """Search for nonzero scalars on the arrows making the relation
    subspaces coincide; None if there are none (or the blocks fall
    outside the binomial shapes this solver handles).  ``blocks`` maps
    a key of ``quadratic_blocks`` to (paths, built rows, conjectured
    rows)."""
    constraints = []
    for paths, rb, rc in blocks.values():
        if len(rb) != len(rc):
            return None
        pb = {next(c for c, v in enumerate(r) if v): r for r in rb}
        pc = {next(c for c, v in enumerate(r) if v): r for r in rc}
        if set(pb) != set(pc):
            return None
        for piv, rowb in pb.items():
            rowc = pc[piv]
            supb = [c for c, v in enumerate(rowb) if v]
            if supb != [c for c, v in enumerate(rowc) if v]:
                return None
            if len(supb) == 1:
                continue
            if len(supb) > 2:
                return None
            q = supb[1]
            constraints.append((_path_exponents(paths[q], paths[piv]),
                                exact_div(rowb[q], rowc[q])))
    eps = _solve_multiplicative(constraints)
    if eps is None:
        return None
    scaled = quadratic_blocks(conjectured, eps)
    if any(rb != scaled[key][1] for key, (_, rb, _) in blocks.items()):
        return None
    return eps


def compare_dual(built: Presentation, conjectured: Presentation,
                 table: ExtTable = None) -> dict:
    """Certify the extracted presentation against the closed form.

    Four comparisons: arrow sets; relation subspaces block by block
    (with an arrow-rescaling fallback, reported separately from a
    genuine mismatch, which carries a witness pair of reduced bases);
    bigraded dimension tables of the two quotient algebras; and the
    dimension table of the built algebra against the Ext table itself,
    including the flat-degree-zero layer against the standard modules.
    """
    if table is None:
        n, s = built.params["n"], built.params["s"]
        table = ext_table(compute_basis(presentation_cover(n, s)))
    verts = list(built.vertices)
    report = {}

    sb, sc = set(built.arrows), set(conjectured.arrows)
    report["arrows_equal"] = sb == sc
    report["arrow_mismatches"] = (
        [f"built only: {a}" for a in sorted(sb - sc, key=repr)]
        + [f"conjectured only: {a}" for a in sorted(sc - sb, key=repr)])

    relations_equal, rescaled, witness, scalars = False, False, None, None
    blocks_rep = {}
    if report["arrows_equal"]:
        # the arrows agree, so both sides have the same blocks of paths;
        # only blocks with relations on either side are compared
        bb, cb = quadratic_blocks(built), quadratic_blocks(conjectured)
        blocks = {k: (*bb[k], cb[k][1]) for k in sorted(
            bb, key=lambda k: (vertex_name(k[0]), vertex_name(k[1])))
            if bb[k][1] or cb[k][1]}
        mismatched = []
        for key, (paths, rb, rc) in blocks.items():
            name = f"{vertex_name(key[0])}|{vertex_name(key[1])}"
            blocks_rep[name] = {"equal": rb == rc,
                                "built": [[str(v) for v in r] for r in rb],
                                "conjectured": [[str(v) for v in r]
                                                for r in rc]}
            if rb != rc:
                mismatched.append(key)
        if not mismatched:
            relations_equal = True
        else:
            eps = _arrow_rescaling(conjectured, blocks)
            if eps is not None:
                rescaled = True
                scalars = {f"{vertex_name(k[0])}|a{k[1]}": str(v)
                           for k, v in sorted(eps.items(), key=repr)}
            else:
                key = mismatched[0]
                paths, rb, rc = blocks[key]
                witness = {
                    "block": f"{vertex_name(key[0])}|{vertex_name(key[1])}",
                    "paths": [[a.label for a in p.arrows] for p in paths],
                    "built": [[str(v) for v in r] for r in rb],
                    "conjectured": [[str(v) for v in r] for r in rc]}
    else:
        witness = {"reason": "arrow sets differ"}
    report["relations_equal"] = relations_equal
    report["relations_rescaled"] = rescaled
    if scalars is not None:
        report["arrow_scalars"] = scalars
    report["relation_blocks"] = blocks_rep
    report["relation_witness"] = witness

    inst_b = compute_basis(built)
    inst_c = compute_basis(conjectured)
    dim_mism = []
    for x in verts:
        for y in verts:
            db = inst_b.block_bidegrees(x, y)
            dc = inst_c.block_bidegrees(x, y)
            if db != dc:
                dim_mism.append({
                    "from": vertex_name(x), "to": vertex_name(y),
                    "built": {str(list(k)): v for k, v in sorted(db.items())},
                    "conjectured": {str(list(k)): v
                                    for k, v in sorted(dc.items())}})
    report["dim_tables_equal"] = not dim_mism
    report["dim_table_mismatches"] = dim_mism

    ext_mism = []
    offdiag = table.flat_equals_homological()
    if offdiag:
        ext_mism.append({"off_diagonal_classes": [list(map(str, k))
                                                  for k in offdiag]})
    by_pair = table.dims_by_pair()
    for x in verts:
        for y in verts:
            want = {}
            for (i, _, js), m in by_pair.get((x, y), {}).items():
                want[(i, js)] = want.get((i, js), 0) + m
            got = inst_b.block_bidegrees(y, x)
            if got != want:
                ext_mism.append({
                    "pair": [vertex_name(x), vertex_name(y)],
                    "ext": {str(list(k)): v for k, v in sorted(want.items())},
                    "built": {str(list(k)): v
                              for k, v in sorted(got.items())}})
    report["ext_dims_match"] = not ext_mism
    report["ext_dim_mismatches"] = ext_mism

    hom_mism = []
    for x in verts:
        weights = {}
        for v in table.deltas[x].vertices:
            weights[v] = weights.get(v, 0) + 1
        for y in verts:
            have = sum(m for (i, jb, _), m in by_pair.get((y, x), {}).items()
                       if (i, jb) == (0, 0))
            if have != weights.get(y, 0):
                hom_mism.append({"standard": vertex_name(x),
                                 "weight": vertex_name(y),
                                 "hom": have, "module": weights.get(y, 0)})
    report["hom_blocks_match_standards"] = not hom_mism
    report["hom_block_mismatches"] = hom_mism

    report["built_directed"] = all(table.order.lt(a.target, a.source)
                                   for a in built.arrows)
    report["passed"] = (report["arrows_equal"]
                        and (relations_equal or rescaled)
                        and report["dim_tables_equal"]
                        and report["ext_dims_match"]
                        and report["hom_blocks_match_standards"]
                        and report["built_directed"])
    return report


# ---------------------------------------------------------------------------
# companion checks


def check_degree_law(table: ExtTable) -> dict:
    """Every nonzero class satisfies i = d(x, y) - n*sharp, with d the
    order distance from source to target weight; in particular Ext
    vanishes entirely between incomparable weights."""
    n = table.cover.presentation.params["n"]
    checked, failures = 0, []
    for (x, y, i, jb, js), m in sorted(table.dims.items()):
        if not m:
            continue
        checked += 1
        d = table.order.distance(x, y)
        if d == math.inf or i != d - n * js:
            failures.append([vertex_name(x), vertex_name(y), i, jb, js,
                             "incomparable" if d == math.inf else d])
    return {"passed": not failures, "checked": checked, "failures": failures}


@scope()  # the dual it builds is its own, released when it returns
def check_dual_koszul(n: int, s: int) -> KoszulReport:
    """Koszulity of the dual algebra in the total grading (every arrow
    has total degree one, so the length grading is the total grading),
    plus the shift law: a basis path u -> v of total degree t, viewed
    as a map Q_v<t> -> Q_u of dual projectives, satisfies
    t = d(v, u) - j*(n - 1) where j is its sharp degree."""
    dual = compute_basis(presentation_dual_conjectured(n, s))
    rep = check_koszul(dual)
    rep.kind = "dual"
    order = order_data(build_quiver(n, s))
    checked, failures = 0, []
    for p in dual.basis():
        t = p.bidegree[0] + p.bidegree[1]
        d = order.distance(p.target, p.source)
        checked += 1
        if d == math.inf or t != d - p.bidegree[1] * (n - 1):
            failures.append([vertex_name(p.source), vertex_name(p.target), t,
                             p.bidegree[1],
                             "incomparable" if d == math.inf else d])
    rep.extra["shift_law"] = {"passed": not failures, "checked": checked,
                              "failures": failures}
    return rep


def check_simple_costandard_dims(cover: AlgebraInstance) -> dict:
    """dim Hom(Delta_y, Nabla_x<j>) = delta_xy delta_j0, and all higher
    graded Ext(Delta_y, Nabla_x) vanish: the dimensions that force each
    costandard onto the simple top of the corresponding dual
    projective.  Hom is Ext^0, and every level is read from the table
    of ``delta_nabla_ext`` that ``check_quasi_hereditary`` reads."""
    resolutions, ext = delta_nabla_ext(cover, algebra_order(cover))
    verts = cover.presentation.vertices
    failures = [{"standard": vertex_name(y), "truncated_at": res.length}
                for y, res in resolutions.items() if not res.complete]
    hom_dims = {}
    for x in verts:
        for y in verts:
            levels = ext[(y, x)]
            hom0 = {d: len(reps) for d, reps in levels[0].items()}
            hom_dims[f"{vertex_name(y)}->{vertex_name(x)}"] = \
                sum(hom0.values())
            want = {(0, 0): 1} if x == y else {}
            if hom0 != want:
                failures.append({"standard": vertex_name(y),
                                 "costandard": vertex_name(x),
                                 "hom": {str(list(d)): c
                                         for d, c in sorted(hom0.items())}})
            for k in range(1, len(levels)):
                for d, reps in sorted(levels[k].items()):
                    failures.append({"standard": vertex_name(y),
                                     "costandard": vertex_name(x),
                                     "degree": k, "bidegree": list(d),
                                     "dim": len(reps)})
    return {"passed": not failures, "hom_dims": hom_dims,
            "failures": failures}


def relations_json(pres: Presentation) -> list:
    """The relations, each a list of coefficient/source/label-word terms
    in path order, sorted by source and words."""
    rels = [[{"coeff": str(c), "src": vertex_name(p.source),
              "labels": [a.label for a in p.arrows]}
             for p, c in sorted(r.terms.items(), key=lambda t: t[0].sort_key())]
            for r in pres.relations]
    return sorted(rels, key=lambda ts: (
        ts[0]["src"], [[str(l) for l in t["labels"]] for t in ts]))


def dual_presentation_json(pres: Presentation) -> dict:
    """JSON-ready dual presentation: vertices, arrows tagged a0 or ai,
    and relations as ``relations_json`` writes them."""
    arrows = [{"src": vertex_name(a.source), "tgt": vertex_name(a.target),
               "kind": "a0" if a.label == 0 else "ai", "i": a.label}
              for a in pres.arrows]
    return {"vertices": [vertex_name(v) for v in pres.vertices],
            "arrows": arrows, "relations": relations_json(pres)}
