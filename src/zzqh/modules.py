"""Finite dimensional right modules over a computed algebra.

A ``RightModule`` is a based bigraded module: each basis vector carries
a vertex (its weight) and a bidegree, and each arrow that moves some
basis vector acts by sparse rows: ``action[arrow]`` is a dict
``{i: {j: c}}``, c the nonzero coefficient of basis vector j in basis
vector i times the arrow, with a row only for each i the arrow moves,
certified once to sit at its source; an arrow with no entry moves
nothing.  ``RightModule.act(arrow, row)`` is the one product: every
product outside ``compute_basis`` acts on rows of a memoized projective,
an element of e_x A being its row in P_x (``element_row``).  Canonical
constructors build simples, projectives e_x A, injectives D(A e_x),
and, over a quasi-hereditary cover, standard modules from the partial
order on vertices and costandard modules as duals of the opposite
algebra's standard modules.  On top of that live projective
covers, minimal bigraded resolutions, cochain complexes computing Ext
(Hom is their level 0, the one route to Hom), the socle certificate
for isomorphism, filtration by standard modules, and the duality to
the opposite algebra.  A free module holds its projectives by reference
with no ``action`` (``free_module``), a Hom complex with no cochain at
any step is not built (``_hom_is_zero``), and nothing here forms a
reference cycle outside an instance's memo, which ``cli.run_cli`` relies
on when it pauses the cyclic collector for a call.

Elimination is block-local: an arrow maps each (vertex, bidegree) block
into one other block and a module map keeps blocks in place, so kernels,
radicals and socles are reduced block by block, in the block's own
coordinates, and an entry outside its block raises ``AssertionError``.
Quotients eliminate nothing: with monomial or binomial relations every
submodule divided out is spanned by basis vectors, a set of indices
closed along single-entry action rows, and a quotient keeps the other
indices; both certify the span action-stable or raise ``AssertionError``.

Conventions.  A row of a module is a dict {index: nonzero coefficient},
the format of the action rows; elimination cuts it to a dense list of
its block (``_restrict``), and Hom cochains are dense lists.  A module
map is a ``Matrix`` acting on row vectors: row i holds the image of
source basis vector i.  A map out of a free module is stored as its
generator images alone, and ``free_images`` reads any of its rows: each
basis path's image is its prefix's image times its last arrow.  Duality
negates bidegrees: the socle of an injective sits in bidegree (0, 0) and
everything else below.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .linalg import ONE, ZERO, Echelon, Matrix
from .quiver import OrderData, build_quiver, order_data
from .algebra import AlgebraInstance, Element, _vkey


class RightModule:
    """A based right module.  ``vertices[i]`` and ``bidegrees[i]``
    describe basis vector i; ``action[arrow]`` maps each i the arrow
    moves, and no other, to the row {j: c} of nonzero coefficients of
    basis vector i times the arrow, and an arrow that moves nothing has
    no entry.  Building the module certifies each key an arrow of the
    presentation and each row nonempty and keyed at a basis vector of
    the arrow's source, and sets ``dim``, the number of basis vectors."""

    def __init__(self, algebra, vertices, bidegrees, action, label=""):
        self.algebra = algebra
        self.vertices = tuple(vertices)
        self.bidegrees = tuple(tuple(d) for d in bidegrees)
        self.dim = len(self.vertices)
        if self.dim != len(self.bidegrees):
            raise ValueError("vertex and bidegree lists differ in length")
        self.action, self.label = {}, label
        for a, rows in action.items():
            self._no_rows(a)  # KeyError unless an arrow of the presentation
            for i, row in rows.items():
                if not (row and 0 <= i < self.dim):
                    raise AssertionError(f"bad action shape for {a}")
                if self.vertices[i] != a.source:
                    raise AssertionError(f"action of {a} breaks weights")
            if rows:
                self.action[a] = rows

    def act(self, arrow, row):
        """``row`` times ``arrow``, as a new row with no zero entry: only two
        products meeting can cancel.  ValueError for an index out of range."""
        rows, out, n = self.action.get(arrow) or self._no_rows(arrow), {}, 0
        for i, a in row.items():
            if not 0 <= i < self.dim:
                raise ValueError(f"index {i} in a module of dimension {self.dim}")
            for j, c in rows.get(i, {}).items():
                out[j], n = out.get(j, ZERO) + a * c, n + 1
        return out if len(out) == n else {j: c for j, c in out.items() if c}

    def _no_rows(self, arrow):
        """No rows for an arrow of the presentation, matched by value;
        KeyError for another."""
        if self.algebra.presentation.arrow(arrow.source, arrow.label) != arrow:
            raise KeyError(arrow)
        return {}

    def unit(self, i):
        """Basis vector i as a row."""
        return {i: ONE}

    def blocks(self, graded=True):
        """Indices of basis vectors grouped by (vertex, bidegree), or by
        vertex alone."""
        out = {}
        keys = zip(self.vertices, self.bidegrees) if graded else self.vertices
        for i, key in enumerate(keys):
            out.setdefault(key, []).append(i)
        return out

    def check(self):
        """Validate weight compatibility, grading, and the relations."""
        pres = self.algebra.presentation
        for a, rows in self.action.items():
            for i, srow in rows.items():
                for j in srow:
                    if self.vertices[j] != a.target:
                        raise AssertionError(f"action of {a} breaks weights")
                    db = tuple(x + y for x, y in zip(self.bidegrees[i], a.bidegree))
                    if self.bidegrees[j] != db:
                        raise AssertionError(f"action of {a} breaks the grading")
        # a path out of u moves only the basis vectors at u
        at = self.blocks(graded=False)
        for r in pres.relations:
            if any(element_row(self, r, i) for u in {p.source for p in r.terms}
                   for i in at.get(u, ())):
                raise AssertionError(f"relation {r!r} not satisfied")
        return True

    def __repr__(self):
        tag = f" {self.label}" if self.label else ""
        return f"RightModule(dim {self.dim}{tag})"


def _block_key(key):
    v, d = key
    return _vkey(v), d


# ---------------------------------------------------------------------------
# block-local row reduction


def _restrict(row, cols):
    """``row`` at ``cols`` (one block), a dense list for elimination;
    raises unless each index of ``row`` (no zero stored) is among them."""
    part = [row.get(j, ZERO) for j in cols]
    if len(row) != len(part) - part.count(ZERO):
        raise AssertionError("row leaves its (vertex, bidegree) block")
    return part


def _block_row(cols, part):
    """The row with the entries of ``part`` at the indices ``cols``, the
    inverse of ``_restrict``."""
    return {j: c for j, c in zip(cols, part) if c}


def _arrows_from(m: RightModule, blocks, key):
    """(arrow, target block, its indices) for each arrow that starts at
    the vertex of block ``key``, the only arrows the module lets act."""
    v, d = key
    out = []
    for a in m.algebra.presentation.arrows_from(v):
        tkey = (a.target, tuple(x + y for x, y in zip(d, a.bidegree)))
        out.append((a, tkey, blocks.get(tkey, ())))
    return out


def _block_kernel(free: RightModule, target: RightModule, gen_rows):
    """(rank, kernel) by source block of the map free -> target with
    generator images ``gen_rows``: ``kernel`` maps a block to (its
    indices, the reduced echelon basis of its nonzero kernel in its own
    coordinates).  Each row is cut to its block as it is read, or raises."""
    targets = target.blocks()
    cut = [_restrict(row, targets.get(key, ())) for key, row in zip(
        zip(free.vertices, free.bidegrees),
        free_images(free, target, gen_rows, range(free.dim)))]
    rank, kernel = 0, {}
    for key, cols in free.blocks().items():
        r, kern = Matrix._exact([cut[i] for i in cols],
                                len(targets.get(key, ()))).left_kernel()
        rank += r
        if kern:
            kernel[key] = (cols, kern)
    return rank, kernel


# ---------------------------------------------------------------------------
# canonical modules


def projective_module(a: AlgebraInstance, x) -> RightModule:
    """e_x A, made once per instance and vertex through ``a.memo``."""
    return a.memo(("projective", x), lambda: _projective(a, x))


def _projective(a: AlgebraInstance, x) -> RightModule:
    """e_x A, each action row read off the product table by ids: a product
    that is a basis path gives that path's (prefix index, last arrow)."""
    paths, ids = a.paths_from(x), a.ids_from(x)
    if not paths:
        raise ValueError(f"no such vertex: {x}")
    index = {q: i for i, q in enumerate(ids)}
    pres, step, forms = a.presentation, a.step, a.forms
    rows, prefixes = defaultdict(dict), [None] * len(paths)  # rows by arrow id
    for i, (p, q) in enumerate(zip(paths, ids)):
        for k, arr in pres.numbered_from(p.target):
            form = forms.get(c := step[q, k])
            if form is None:
                rows[k][i], prefixes[index[c]] = {index[c]: ONE}, (i, arr)
            elif form:
                rows[k][i] = {index[u]: v for u, v in form.items()}
    mod = RightModule(a, [p.target for p in paths], [p.bidegree for p in paths],
                      {pres.arrows[k]: r for k, r in rows.items()}, f"P[{x}]")
    mod.basis_paths, mod.prefixes = tuple(paths), tuple(prefixes)
    return mod


def simple_module(a: AlgebraInstance, x, shift=(0, 0)) -> RightModule:
    if x not in a.presentation.vertices:
        raise ValueError(f"no such vertex: {x}")
    return RightModule(a, [x], [shift], {}, label=f"S[{x}]")


def free_module(a: AlgebraInstance, gens) -> RightModule:
    """Direct sum of shifted projectives, one per (vertex, shift) pair,
    held by reference (``FreeModule``): it keeps the memoized projectives
    and their offsets and writes out only the shifted bidegrees: it has no
    ``action``, and ``act`` reads the rows of its parts, certified when
    each projective was built."""
    return FreeModule(a, gens)


class FreeModule(RightModule):
    """A free module by reference (see ``free_module``): ``parts`` and
    their (vertex, shift, start, stop) ``summands``."""

    def __init__(self, a: AlgebraInstance, gens):
        self.algebra, self.parts = a, [projective_module(a, v) for v, _ in gens]
        self.summands, self.starts, at = [], [], 0
        for (v, shift), part in zip(gens, self.parts):
            self.summands.append((v, tuple(shift), at, at + part.dim))
            self.starts.append(at)
            at += part.dim
        self.dim = at
        self.vertices = tuple(w for part in self.parts for w in part.vertices)
        self.bidegrees = tuple(tuple(c + s for c, s in zip(d, shift))
                               for (_, shift), part in zip(gens, self.parts)
                               for d in part.bidegrees)

    @cached_property
    def _graded_blocks(self):  # made once and shared: callers only read it
        return super().blocks()

    def blocks(self, graded=True):
        return self._graded_blocks if graded else super().blocks(False)

    @cached_property
    def label(self):
        return "F[" + ", ".join(f"{v}<{s}>" for v, s, _, _ in self.summands) + "]"

    def act(self, arrow, row):
        out, starts, n = {}, self.starts, 0
        for k, a in row.items():
            if not 0 <= k < self.dim:
                raise ValueError(f"index {k} in a module of dimension {self.dim}")
            at = starts[t := bisect_right(starts, k) - 1]
            rows = self.parts[t].action.get(arrow) or self._no_rows(arrow)
            for j, c in rows.get(k - at, {}).items():
                out[at + j], n = out.get(at + j, ZERO) + a * c, n + 1
        return out if len(out) == n else {j: c for j, c in out.items() if c}


def direct_sum(a: AlgebraInstance, parts) -> RightModule:
    vertices = [v for m in parts for v in m.vertices]
    bidegrees = [d for m in parts for d in m.bidegrees]
    action, at = defaultdict(dict), 0
    for part in parts:
        for arr, rows in part.action.items():
            for i, srow in rows.items():
                action[arr][at + i] = {at + j: c for j, c in srow.items()}
        at += part.dim
    return RightModule(a, vertices, bidegrees, action, label="sum")


def dualize(m: RightModule) -> RightModule:
    """The vector space dual as a module over the opposite algebra,
    with each action's rows and columns swapped and negated bidegrees."""
    op, action = m.algebra.opposite(), {}
    for a, srows in m.action.items():
        rows = action[op.presentation.arrow(a.target, a.label)] = {}
        for i, srow in srows.items():
            for j, c in srow.items():
                rows.setdefault(j, {})[i] = c
    bidegrees = [tuple(-c for c in d) for d in m.bidegrees]
    return RightModule(op, m.vertices, bidegrees, action,
                       label=f"D({m.label})" if m.label else "D")


def injective_module(a: AlgebraInstance, x) -> RightModule:
    mod = dualize(projective_module(a.opposite(), x))
    mod.label = f"I[{x}]"
    return mod


def left_mult_map(a: AlgebraInstance, g: Element) -> Matrix:
    """Left multiplication by g in e_u A e_v, as the map P_v -> P_u that
    sends e_v to g's row in P_u: row l is that row times basis path l,
    read off the prefix chain of ``_path_images``."""
    sig = {(p.source, p.target) for p in g.terms}
    if len(sig) != 1:
        raise ValueError("element must be weight-homogeneous")
    u, v = next(iter(sig))
    src, tgt = projective_module(a, v), projective_module(a, u)
    images = _path_images(tgt, src, element_row(tgt, g), range(src.dim))
    return Matrix._exact([[img.get(j, ZERO) for j in range(tgt.dim)]
                          for img in images], tgt.dim)


def element_row(m: RightModule, g: Element, i=0):
    """The row of basis vector i of m times g: i acted along the arrows
    of each term that starts at its vertex.  In a projective P_x, i = 0
    gives the row of e_x g."""
    out = {}
    for p, c in g.terms.items():
        if p.source == m.vertices[i]:
            row = {i: c}
            for arr in p.arrows:
                row = m.act(arr, row)
            for j, x in row.items():
                out[j] = out.get(j, ZERO) + x
    return {j: x for j, x in out.items() if x}


def algebra_order(a: AlgebraInstance) -> OrderData:
    """The cover's partial order on vertices, derived from the
    presentation parameters, made once per instance."""
    if a.presentation.kind not in ("cover", "borel"):
        raise ValueError(
            f"no partial order for a {a.presentation.kind!r} presentation")
    n, s = a.presentation.params["n"], a.presentation.params["s"]
    return a.memo("order", lambda: order_data(build_quiver(n, s)))


def _assert_stable(m: RightModule, indices, message):
    """Raises unless the basis vectors in the set ``indices`` span a
    submodule."""
    for rows in m.action.values():
        for i in indices & rows.keys():
            if not rows[i].keys() <= indices:
                raise AssertionError(message)


def generated_submodule(m: RightModule, seeds):
    """Sorted basis indices of the submodule generated by the basis
    vectors ``seeds``: an index joins when it is the single entry of an
    action row of a member, read from the arrows out of the member's
    vertex, the only ones with a row for it.  Raises unless the span of
    the closure is action-stable, which certifies that it is the
    generated submodule."""
    arrows_from = m.algebra.presentation.arrows_from
    members, work = set(seeds), list(seeds)
    while work:
        i = work.pop()
        new = {j for a in arrows_from(m.vertices[i])
               if len(row := m.action.get(a, {}).get(i, ())) == 1
               for j in row} - members
        members |= new
        work.extend(new)
    _assert_stable(m, members, "submodule not spanned by basis vectors")
    return sorted(members)


def restrict_to(m: RightModule, keep, label=""):
    """m on the basis vectors listed in ``keep`` alone: each action row
    cut to them, and dropped if that leaves it empty."""
    pos = {i: k for k, i in enumerate(keep)}
    action = {a: {pos[i]: cut for i, row in rows.items() if i in pos
                  if (cut := {pos[j]: c for j, c in row.items() if j in pos})}
              for a, rows in m.action.items()}
    return RightModule(m.algebra, [m.vertices[i] for i in keep],
                       [m.bidegrees[i] for i in keep], action, label=label)


def quotient_module(m: RightModule, indices, label=""):
    """m modulo the span of the basis vectors ``indices``: m restricted
    to the others.  Raises if the span is not action-stable."""
    gone = set(indices)
    _assert_stable(m, gone, "rows do not span a submodule")
    return restrict_to(m, [i for i in range(m.dim) if i not in gone], label)


def standard_module(a: AlgebraInstance, x, order: OrderData = None) -> RightModule:
    """Largest quotient of P_x whose composition factors have weight
    at most x, made once per instance, vertex and order (keyed by
    value) through ``a.memo``."""
    order = order or algebra_order(a)

    def build():
        proj = projective_module(a, x)
        bad = [i for i, v in enumerate(proj.vertices) if not order.leq(v, x)]
        return quotient_module(proj, generated_submodule(proj, bad),
                               label=f"Delta[{x}]")
    return a.memo(("standard", x, order.key), build)


def costandard_module(a: AlgebraInstance, x, order: OrderData = None) -> RightModule:
    """Largest submodule of I_x whose composition factors have weight
    at most x: the dual of the standard module of the opposite algebra
    at x, under the same order (Dlab-Ringel).  Made once per instance,
    vertex and order, as ``standard_module`` is."""
    order = order or algebra_order(a)

    def build():
        mod = dualize(standard_module(a.opposite(), x, order))
        mod.label = f"Nabla[{x}]"
        return mod
    return a.memo(("costandard", x, order.key), build)


def canonical_module(a: AlgebraInstance, kind: str, x) -> RightModule:
    build = {"simple": simple_module, "projective": projective_module,
             "injective": injective_module, "standard": standard_module,
             "costandard": costandard_module}.get(kind)
    if build is None:
        raise ValueError(f"unknown module kind: {kind}")
    return build(a, x)


# ---------------------------------------------------------------------------
# socle and top


def socle_rows(m: RightModule):
    """Rows spanning the socle, the vectors every arrow sends to zero:
    per block, the left kernel of its basis vectors' images."""
    blocks = m.blocks()
    out = []
    for key in sorted(blocks, key=_block_key):
        cols, arrows = blocks[key], _arrows_from(m, blocks, key)
        images = [[c for a, _, tcols in arrows
                   for c in _restrict(m.action.get(a, {}).get(i, {}), tcols)]
                  for i in cols]
        _, kern = Matrix(images).left_kernel()
        out.extend(_block_row(cols, r) for r in kern)
    return out


def top_generators(m: RightModule):
    """Deterministic representatives of m / m*rad: the coordinate rows,
    with their (vertex, bidegree), of the basis vectors that are not
    pivots of the radical, which is eliminated one block at a time."""
    blocks = m.blocks()
    rad = defaultdict(Echelon)
    for key, cols in blocks.items():
        for a, tkey, tcols in _arrows_from(m, blocks, key):
            for i in cols:
                rad[tkey].insert(_restrict(m.action.get(a, {}).get(i, {}), tcols))
    pivots = {blocks[key][p] for key, span in rad.items() for p in span.rows}
    return [(m.vertices[i], m.bidegrees[i], m.unit(i))
            for i in range(m.dim) if i not in pivots]


# ---------------------------------------------------------------------------
# projective covers and minimal resolutions


def _path_images(target: RightModule, proj: RightModule, grow, wanted):
    """``grow`` times basis path l of ``proj`` for each l in ``wanted``: e_x
    keeps ``grow``, which must sit at x or raises, and a longer path gives
    its prefix's image times its last arrow, made first: a prefix sorts
    before its path."""
    x = proj.basis_paths[0].source
    if any(target.vertices[j] != x for j in grow):
        raise AssertionError("generator image leaves its vertex")
    need = set(wanted)
    for l in range(max(need, default=0), 0, -1):  # path 0 is e_x
        if l in need:
            need.add(proj.prefixes[l][0])
    images = {}
    for l in sorted(need):
        step = proj.prefixes[l]
        images[l] = grow if step is None else target.act(step[1], images[step[0]])
    return [images[l] for l in wanted]


def free_images(free: RightModule, target: RightModule, gen_rows, indices):
    """Rows of the map free -> target sending the generator of summand t
    of ``free`` to ``gen_rows[t]``, a row of target: the image of basis
    vector k for each k of the ascending ``indices``, one summand at a
    time, a zero generator's rows without acting."""
    for grow, proj, (_, _, start, stop) in zip(gen_rows, free.parts, free.summands):
        wanted = [k - start for k in indices[bisect_left(indices, start):
                                             bisect_left(indices, stop)]]
        yield from (_path_images(target, proj, grow, wanted) if grow
                    else ({} for _ in wanted))


def free_row_image(free: RightModule, target: RightModule, gen_rows, row):
    """``row`` times the map free -> target with generator images
    ``gen_rows``, as a new row with no zero entry."""
    wanted, out = sorted(row), {}
    for k, img in zip(wanted, free_images(free, target, gen_rows, wanted)):
        a = row[k]
        for j, x in img.items():
            out[j] = out.get(j, ZERO) + a * x
    return {j: x for j, x in out.items() if x}


@dataclass
class Resolution:
    """A projective resolution by its generator images: ``gens[i][t]`` is
    the image of generator t of ``frees[i]``, a row of ``frees[i-1]``
    (of ``module`` for i = 0); ``terms[i]`` lists the (vertex, shift)
    summands of step i.  No matrix of a differential is kept: ``lift``
    builds the one block it solves on."""

    module: RightModule
    frees: list
    terms: list
    gens: list
    complete: bool

    @property
    def length(self):
        return len(self.frees) - 1

    def lift(self, k, row):
        """A row of frees[k] that d_k sends to ``row``, a row of frees[k-1]
        (of ``module`` for k = 0), solved on the one (vertex, bidegree)
        block that holds ``row``; rref pivots make the choice reproducible.
        Raises AssertionError for a row that leaves its block, and
        ArithmeticError for one outside the image of d_k."""
        if not row:
            return {}
        target = self.frees[k - 1] if k else self.module
        i = next(iter(row))
        key = (target.vertices[i], target.bidegrees[i])
        cols, tcols = self.frees[k].blocks().get(key, []), target.blocks()[key]
        images = [_restrict(img, tcols) for img in
                  free_images(self.frees[k], target, self.gens[k], cols)]
        d = Matrix._exact([[img[j] for img in images]
                           for j in range(len(tcols))], len(cols))
        sol = d.solve(_restrict(row, tcols))
        if sol is None:
            raise ArithmeticError(f"row not in the image of d_{k}")
        return _block_row(cols, sol)

    @cached_property
    def coefficients(self):
        """``coefficients[i][t]`` lists (l, pairs) for each basis path l of
        summand t of frees[i] in a generator image, pairs the nonzero (t1, c)
        with c its coefficient in the image of generator t1 of frees[i+1]."""
        out = []
        for free, gens in zip(self.frees, self.gens[1:]):
            out.append([[(k - start, pairs) for k in range(start, stop)
                         if (pairs := [(t1, g[k]) for t1, g in enumerate(gens)
                                       if k in g])]
                        for _, _, start, stop in free.summands])
        return out

    def __repr__(self):
        shape = " <- ".join(str(len(t)) for t in self.terms)
        state = "complete" if self.complete else "truncated"
        return f"Resolution({state}, terms {shape})"


def minimal_resolution(m: RightModule, max_steps=None) -> Resolution:
    """The minimal bigraded projective resolution, computed by repeated
    projective covers of syzygies, the rank and kernel of each map one
    block at a time.  Stops after ``max_steps`` covers (default: algebra
    dimension + 1) and flags the result truncated if the last kernel is
    nonzero."""
    if max_steps is None:
        max_steps = m.algebra.dim() + 1
    frees, gens, terms = [], [], []
    target, tops, want = m, top_generators(m), m.dim
    while True:
        free = free_module(m.algebra, [(v, d) for v, d, _ in tops])
        rows = [r for _, _, r in tops]
        rank, kernel = _block_kernel(free, target, rows)
        if rank != want:
            raise AssertionError("projective cover is not surjective")
        frees.append(free)
        gens.append(rows)
        terms.append([(v, d) for v, d, _, _ in free.summands])
        if not kernel:
            return Resolution(m, frees, terms, gens, complete=True)
        if len(frees) >= max_steps:
            return Resolution(m, frees, terms, gens, complete=False)
        target, tops = free, _submodule_top(free, kernel)
        want = sum(len(rows) for _, rows in kernel.values())


def standard_resolution(a: AlgebraInstance, x, order: OrderData = None,
                        max_steps=None) -> Resolution:
    """The minimal resolution of Delta_x (its ``module``) cut off after
    ``max_steps``, made once per instance, vertex and order through
    ``a.memo``: a complete one serves every cap above its length, a cut
    one only the cap that cut it."""
    order = order or algebra_order(a)
    cap = a.dim() + 1 if max_steps is None else max_steps
    made = a.memo(("resolutions", x, order.key), dict)  # "complete" or cap
    res = made.get("complete")
    if res is None or res.length >= cap:
        res = made.get(cap) or minimal_resolution(standard_module(a, x, order),
                                                  cap)
        made["complete" if res.complete else cap] = res
    return res


def delta_nabla_ext(a: AlgebraInstance, order: OrderData = None,
                    max_steps=None):
    """The standards' resolutions {x: res_x} under ``max_steps`` and the
    Ext levels {(x, y): ``ext_bigraded_reps(res_x, Nabla_y)[2]``}, made
    once per instance and order through ``a.memo``, and once per cap
    only if the cap cuts some resolution."""
    order = order or algebra_order(a)
    verts = a.presentation.vertices
    res = {x: standard_resolution(a, x, order, max_steps) for x in verts}
    cap = "complete" if all(r.complete for r in res.values()) else max_steps
    return a.memo(("delta-nabla-ext", order.key, cap), lambda: (res, {
        (x, y): ext_bigraded_reps(res[x], costandard_module(a, y, order))[2]
        for x in verts for y in verts}))


def _submodule_top(m: RightModule, kernel):
    """Top generators of the submodule of m given by ``kernel`` as
    ``_block_kernel`` returns it: (vertex, bidegree, representative row)
    triples, deterministic.  A row of block B reaches block B+a through
    arrow a, so the radical is eliminated one block at a time."""
    blocks = m.blocks()
    rad = defaultdict(Echelon)
    for key, (cols, rows) in kernel.items():
        spread = [_block_row(cols, r) for r in rows]
        for a, tkey, tcols in _arrows_from(m, blocks, key):
            for r in spread:
                if img := m.act(a, r):
                    rad[tkey].insert(_restrict(img, tcols))
    gens = []
    for key in sorted(kernel, key=_block_key):
        (cols, rows), span = kernel[key], rad[key]
        for r in rows:
            piv = span.insert(r)
            if piv is not None:
                gens.append((*key, _block_row(cols, span.rows[piv])))
    return gens


def is_linear(res: Resolution, grading="length"):
    """Whether every summand of step i sits in shift degree i, measuring
    shifts by total length or by flat degree alone."""
    if grading not in ("length", "flat"):
        raise ValueError("grading must be 'length' or 'flat'")
    failures = []
    for i, layer in enumerate(res.terms):
        for v, shift in layer:
            deg = shift[0] + shift[1] if grading == "length" else shift[0]
            if deg != i:
                failures.append((i, v, shift))
    return {"linear": not failures, "complete": res.complete,
            "failures": failures}


def gldim(a: AlgebraInstance, max_steps=None):
    """Global dimension, by resolving every simple.  Raises if any
    resolution is truncated before the kernel vanishes."""
    worst = 0
    for x in a.presentation.vertices:
        res = minimal_resolution(simple_module(a, x), max_steps=max_steps)
        if not res.complete:
            raise RuntimeError(f"resolution of the simple at {x} did not "
                               f"terminate within the step bound")
        worst = max(worst, res.length)
    return worst


# ---------------------------------------------------------------------------
# Ext via Hom cochain complexes


def ext_bigraded_reps(res: Resolution, n: RightModule):
    """The cochain complex Hom(F_*, n) of a resolution, stored once by
    bidegree block, and its Ext split by cocycle bidegree.  A truncated
    resolution gives only its exact levels, those below ``res.length``;
    one cut at F_0 has none and raises ``ValueError``.  A pair with no
    cochain at any step (``_hom_is_zero``) builds nothing.

    Returns (bases, blocks, levels).  bases[i] lists the Hom basis of
    step i as (summand index, n basis index, bidegree) triples, the
    bidegree being that of the n basis vector minus the generator's
    shift.  blocks[i][d] is (cols, diff, bounds): cols the ascending
    indices of bases[i] in bidegree d, diff the Matrix from those
    cochains to the bidegree-d cochains of step i+1 (rows act on the
    left; no columns at the last step, where every cochain is a
    cocycle), bounds the Echelon of the coboundaries, the rows of
    blocks[i-1][d]'s diff.  An entry aimed at another bidegree raises.
    levels[i] maps a bidegree to its representative cocycle rows: full
    width, reduced modulo the coboundaries, leading coefficient one.
    """
    exact = len(res.frees) if res.complete else res.length
    if not exact:
        raise ValueError("resolution is cut at F_0; no Ext level is exact")
    if _hom_is_zero(res, n):  # nothing to build: every level is empty
        return ([[] for _ in res.frees], [{} for _ in range(exact)],
                [{} for _ in range(exact)])
    at = n.blocks(graded=False)
    bases = [[(t, j, (n.bidegrees[j][0] - sh[0], n.bidegrees[j][1] - sh[1]))
              for t, (v, sh, _, _) in enumerate(free.summands)
              for j in at.get(v, ())] for free in res.frees]
    groups = [{} for _ in bases]
    for group, basis in zip(groups, bases):
        for c, (_, _, d) in enumerate(basis):
            group.setdefault(d, []).append(c)
    # the last step maps to nothing: its summands have no coefficients
    coeffs = res.coefficients + [[[] for _ in res.frees[-1].summands]]
    blocks, levels = [], []
    for i, basis in enumerate(bases[:exact]):
        nxt = groups[i + 1] if i < res.length else {}
        pos = {bases[i + 1][c]: k for tcols in nxt.values()
               for k, c in enumerate(tcols)}
        step, level = {}, {}
        for d in sorted(groups[i]):
            cols = groups[i][d]
            diff = Matrix.zero(len(cols), len(nxt.get(d, ())))
            # cochain (t, j) sends generator t1 of F_{i+1} to e_j times the
            # summand-t part of t1's image, a combination of its basis paths
            for row, c0 in zip(diff.data, cols):
                t, j, _ = basis[c0]
                images = _path_images(n, res.frees[i].parts[t], n.unit(j),
                                      [l for l, _ in coeffs[i][t]])
                for (_, pairs), img in zip(coeffs[i][t], images):
                    for jj, x in img.items():
                        for t1, c in pairs:
                            k = pos.get((t1, jj, d))
                            if k is None:
                                raise AssertionError("hom differential mixes bidegrees")
                            row[k] += c * x
            bounds = Echelon(blocks[i - 1][d][1].data
                             if i and d in blocks[i - 1] else ())
            step[d] = (cols, diff, bounds)
            reps = Echelon()
            for cycle in diff.left_kernel()[1]:
                reps.insert(bounds.reduce(cycle))
            for r in reps.rows.values():
                cocycle = [ZERO] * len(basis)
                for c, x in zip(cols, r):
                    cocycle[c] = x
                level.setdefault(d, []).append(cocycle)
        blocks.append(step)
        levels.append(level)
    return bases, blocks, levels


def _hom_is_zero(res: Resolution, n: RightModule):
    """Whether Hom(F_i, n) is zero at every step i of ``res``: no basis
    vector of n sits at the vertex of a summand."""
    return set(n.vertices).isdisjoint(v for terms in res.terms for v, _ in terms)


def _generator_rows(free, basis, row):
    """The generator images of the cochain ``row`` of Hom(free, n), the
    cochains of ``basis`` being (summand, n basis index, bidegree)."""
    gens = [{} for _ in free.summands]
    for (t, j, _), c in zip(basis, row):
        if c:
            gens[t][j] = c
    return gens


def socle_isomorphic(m: RightModule, n: RightModule, graded=True):
    """Whether m is isomorphic to n, by a map homogeneous of bidegree
    (0, 0) when ``graded``, for m whose socle is simple, spanned by s.
    A map out of m is then injective exactly when it is nonzero on s,
    so for dim m = dim n some basis map of Hom(m, n) is nonzero on s
    exactly when m and n are isomorphic.  Hom(m, n) is Ext^0 of a
    two-step resolution F_1 -> F_0 -> m: each level-0 cocycle is a map
    F_0 -> n by its generator images, and its value on s is its image
    of a lift of s to F_0.  Raises unless the socle of m is simple."""
    soc = socle_rows(m)
    if len(soc) != 1:
        raise AssertionError(f"socle of {m.label or 'module'} is not simple")
    if m.dim != n.dim:
        return False
    res = minimal_resolution(m, max_steps=2)
    bases, _, levels = ext_bigraded_reps(res, n)
    free, lift = res.frees[0], res.lift(0, soc[0])
    level = levels[0]
    cocycles = (level.get((0, 0), []) if graded
                else [f for rows in level.values() for f in rows])
    images = (free_row_image(free, n, _generator_rows(free, bases[0], f), lift)
              for f in cocycles)
    return any(images)


# ---------------------------------------------------------------------------
# standard filtrations


def delta_filtration(m: RightModule, order: OrderData = None):
    """Greedy filtration by shifted standard modules.

    Returns (layers, witness): on success layers is the list of
    (vertex, shift) pairs from the deepest submodule outwards and
    witness is None; on failure layers is None and witness records the
    offending vertex with the dimension mismatch.
    """
    order = order or algebra_order(m.algebra)
    layers = []
    current = m
    while current.dim:
        present = sorted({v for v in current.vertices}, key=_vkey)
        maximal = next(x for x in present
                       if not any(order.lt(x, y) for y in present if y != x))
        gens = [i for i, v in enumerate(current.vertices) if v == maximal]
        sub = generated_submodule(current, gens)
        expected = len(gens) * standard_module(m.algebra, maximal, order).dim
        if len(sub) != expected:
            witness = {"vertex": maximal, "copies": len(gens),
                       "submodule_dim": len(sub), "expected_dim": expected}
            return None, witness
        layers.extend((maximal, current.bidegrees[i]) for i in gens)
        current = quotient_module(current, sub)
    return layers, None
