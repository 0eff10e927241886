"""Bound quiver algebras with exact degreewise normal forms.

A ``Presentation`` is a quiver together with a list of homogeneous
relation elements.  ``compute_basis`` builds the basis one path length
at a time from the basis of the length before: the candidates of
length d are the basis paths of length d-1, each extended by one arrow,
and the relations, multiplied on the left by shorter basis paths and
rewritten over the candidates, are eliminated one (source, target,
bidegree) block at a time.  The largest word is the pivot, so the
surviving representative of each class is the lexicographically
smallest path under the arrow order ``a_1 < a_2 < ... < a_n < a_0``
(index-0 arrows sort last).  The elimination runs on integer ids and
fills a table of basis path times arrow, whose rows the projectives of
:mod:`.modules` read: every product outside ``compute_basis`` is one.

The zigzag family lives on the translation quivers of :mod:`.quiver`:

* ``presentation_zigzag(n, s)``      relations on the weight s-1 quiver,
* ``presentation_cover(n, s)``       weight s quiver plus the extra zero
  relations ``e_z a_0 a_1`` at vertices z with z_0 = 0,
* ``presentation_borel(n, s)``       the nonzero-index subquiver,
* ``presentation_dual_conjectured``  the closed-form presentation of the
  Ext algebra of the standard modules (index-0 arrows kept, others
  reversed).

Everything is immutable after construction and safe to share.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field

from .linalg import ONE, ZERO, Matrix, _coerce
from .quiver import Quiver, build_quiver, classify_vertices, displacement

DEFAULT_MAX_LEN = 32


@dataclass(frozen=True)
class Arrow:
    """A quiver arrow.  ``label`` is the family index (int) for
    translation quivers, or a name (str) for explicit presentations.
    ``bidegree`` is the (flat, sharp) degree of the arrow.  Its hash and
    ``label_key(label)`` are computed once, as arrows key every lookup."""

    source: object
    target: object
    label: object
    bidegree: tuple[int, int]
    label_key: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "label_key", label_key(self.label))
        object.__setattr__(self, "_hash", hash(
            (self.source, self.target, self.label, self.bidegree)))

    def __hash__(self):
        return self._hash


def label_key(label):
    """Sort key for arrow labels: a_1 < a_2 < ... < a_0, names after."""
    if isinstance(label, int):
        return (0, 1, 0) if label == 0 else (0, 0, label)
    return (1, str(label))


class Path:
    """A path: a source vertex and a composable tuple of arrows.

    Paths multiply left to right: in ``p * q`` the path ``p`` is
    traversed first.  The empty path at a vertex is the idempotent.
    """

    __slots__ = ("source", "arrows", "target", "bidegree", "_hash")

    def __init__(self, source, arrows=()):
        self.source = source
        self.arrows = tuple(arrows)
        at = source
        for a in self.arrows:
            if a.source != at:
                raise ValueError(f"non-composable arrows at {at}: {a}")
            at = a.target
        self.target, self.bidegree = at, (sum(a.bidegree[0] for a in self.arrows),
                                          sum(a.bidegree[1] for a in self.arrows))
        self._hash = hash((source, self.arrows))

    def _extend(self, arrow):
        """This path then ``arrow``, which starts at its target: no check."""
        p, (f, s), (g, t) = Path.__new__(Path), self.bidegree, arrow.bidegree
        p.source, p.target, p.bidegree = self.source, arrow.target, (f + g, s + t)
        p.arrows = self.arrows + (arrow,)
        p._hash = hash((p.source, p.arrows))
        return p

    @property
    def length(self):
        return len(self.arrows)

    def sort_key(self):
        return (len(self.arrows), tuple(a.label_key for a in self.arrows),
                _vkey(self.source))

    def __eq__(self, other):
        return (isinstance(other, Path) and self.source == other.source
                and self.arrows == other.arrows)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.arrows:
            return f"e[{self.source}]"
        word = ".".join(f"a{a.label}" if isinstance(a.label, int) else str(a.label)
                        for a in self.arrows)
        return f"[{self.source}|{word}]"


def _vkey(v):
    return v if isinstance(v, tuple) else (v,)


class Element:
    """A finite rational combination of paths."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for p, c in terms.items():
                c = _coerce(c)
                if c:
                    self.terms[p] = c

    @classmethod
    def of_path(cls, p: Path, coeff=ONE):
        return cls({p: coeff})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for p, c in other.terms.items():
            v = out.get(p, ZERO) + c
            if v:
                out[p] = v
            else:
                out.pop(p, None)
        return Element(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _coerce(c)
        if not c:
            return Element()
        return Element({p: c * v for p, v in self.terms.items()})

    def support(self):
        return sorted(self.terms, key=Path.sort_key)

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p in self.support():
            c = self.terms[p]
            bits.append(f"{c}*{p!r}" if c != 1 else repr(p))
        return " + ".join(bits)


class Presentation:
    """A quiver with homogeneous relations.

    Vertices keep their given order (used for Cartan matrices and JSON
    output); arrows are stored sorted by (source, label).  Relations
    must be homogeneous: every path in one relation shares source,
    target, length and bidegree, and has length at least 2.
    """

    def __init__(self, vertices, arrows, relations, kind="custom", params=None):
        self.vertices = tuple(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertices")
        self.arrows = tuple(sorted(arrows,
                                   key=lambda a: (_vkey(a.source), a.label_key)))
        self._by_key = {}
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow endpoint missing from vertex set: {a}")
            key = (a.source, a.label)
            if key in self._by_key:
                raise ValueError(f"duplicate arrow (source, label): {key}")
            self._by_key[key] = a
        self.relations = tuple(relations)
        for r in self.relations:
            if r.is_zero():
                raise ValueError("zero relation")
            sig = {(p.source, p.target, p.length, p.bidegree) for p in r.terms}
            if len(sig) != 1:
                raise ValueError(f"inhomogeneous relation: {r!r}")
            if next(iter(sig))[2] < 2:
                raise ValueError("relations must have path length >= 2")
        self.kind = kind
        self.params = dict(params or {})
        self._from, self._numbered = {}, {}  # id: position in ``arrows``
        for k, a in enumerate(self.arrows):
            self._from.setdefault(a.source, []).append(a)
            self._numbered.setdefault(a.source, []).append((k, a))

    def arrows_from(self, v):
        return self._from.get(v, [])

    def numbered_from(self, v):
        """(id, arrow) for each arrow from v."""
        return self._numbered.get(v, [])

    def arrow(self, source, label) -> Arrow:
        return self._by_key[(source, label)]

    def path(self, source, labels) -> Path:
        """The path starting at ``source`` along the given arrow labels."""
        arrows = []
        at = source
        for lbl in labels:
            a = self._by_key.get((at, lbl))
            if a is None:
                raise KeyError(f"no arrow {lbl!r} at {at}")
            arrows.append(a)
            at = a.target
        return Path(source, arrows)

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.vertices == other.vertices
                and self.arrows == other.arrows
                and set(self.relations) == set(other.relations))

    def __repr__(self):
        return (f"Presentation({self.kind}, {len(self.vertices)} vertices, "
                f"{len(self.arrows)} arrows, {len(self.relations)} relations)")


# ---------------------------------------------------------------------------
# the zigzag family


def _translation_arrows(q: Quiver, indices=None, flip=False):
    """Arrow objects for a translation quiver.  Index-0 arrows carry
    bidegree (0, 1), the others (1, 0).  With ``flip`` the nonzero-index
    arrows are reversed (used by the conjectured dual presentation)."""
    out = []
    for (x, i) in q.arrows:
        y = q.target(x, i)
        bideg = (0, 1) if i == 0 else (1, 0)
        if flip and i != 0:
            out.append(Arrow(source=y, target=x, label=i, bidegree=bideg))
        else:
            out.append(Arrow(source=x, target=y, label=i, bidegree=bideg))
    return out


def _zigzag_relations(pres: Presentation, q: Quiver):
    """Squares vanish; parallelograms commute when both routes exist."""
    rels = []
    vset = set(q.vertices)
    for x in q.vertices:
        for i in range(q.n + 1):
            yi = q.target(x, i)
            if yi not in vset:
                continue
            # squares α_i α_i = 0
            zi = q.target(yi, i)
            if zi in vset:
                rels.append(Element.of_path(pres.path(x, (i, i))))
            # commutators for unordered pairs {i, j}, both routes valid
            for j in range(i + 1, q.n + 1):
                yj = q.target(x, j)
                z = q.target(yi, j)
                if z in vset and yj in vset:
                    rels.append(Element.of_path(pres.path(x, (i, j)))
                                - Element.of_path(pres.path(x, (j, i))))
    return rels


def presentation_zigzag(n: int, s: int) -> Presentation:
    """The quadratic presentation of the zigzag algebra of type (n, s)
    on the weight s-1 quiver."""
    if s < 2:
        raise ValueError(f"zigzag type needs s >= 2, got s={s}")
    q = build_quiver(n, s - 1)
    pres = Presentation(q.vertices, _translation_arrows(q), [],
                        kind="zigzag", params={"n": n, "s": s})
    return Presentation(q.vertices, pres.arrows, _zigzag_relations(pres, q),
                        kind="zigzag", params={"n": n, "s": s})


def presentation_cover(n: int, s: int) -> Presentation:
    """The quasi-hereditary cover of zigzag(n, s): the weight s quiver
    with zigzag relations plus ``e_z a_0 a_1 = 0`` for each vertex z
    with z_0 = 0 at which that path exists."""
    if s < 1:
        raise ValueError(f"cover needs s >= 1, got s={s}")
    q = build_quiver(n, s)
    pres = Presentation(q.vertices, _translation_arrows(q), [],
                        kind="cover", params={"n": n, "s": s})
    rels = _zigzag_relations(pres, q)
    vset = set(q.vertices)
    _, k_vertices = classify_vertices(q)
    for z in k_vertices:
        y = q.target(z, 0)
        if y in vset and q.target(y, 1) in vset:
            rels.append(Element.of_path(pres.path(z, (0, 1))))
    return Presentation(q.vertices, pres.arrows, rels,
                        kind="cover", params={"n": n, "s": s})


def presentation_borel(n: int, s: int) -> Presentation:
    """The directed subalgebra of the cover on arrows of nonzero index,
    with the inherited squares and commutators."""
    if s < 1:
        raise ValueError(f"borel needs s >= 1, got s={s}")
    q = build_quiver(n, s)
    full = Presentation(q.vertices, _translation_arrows(q), [])
    rels = [r for r in _zigzag_relations(full, q)
            if all(a.label != 0 for p in r.terms for a in p.arrows)]
    return Presentation(q.vertices, [a for a in full.arrows if a.label != 0],
                        rels, kind="borel", params={"n": n, "s": s})


def presentation_dual_conjectured(n: int, s: int) -> Presentation:
    """Closed-form presentation of the Ext algebra of the standard
    modules over cover(n, s).

    Vertices are the cover's.  Each index-0 arrow is kept with bidegree
    (0, 1); each nonzero-index arrow is reversed with bidegree (1, 0).
    Relations: index-0 squares vanish, every parallelogram of the cover
    quiver commutes (pure or mixed), and a reversed-pair path whose
    parallelogram partner is missing vanishes.
    """
    if s < 1:
        raise ValueError(f"dual needs s >= 1, got s={s}")
    q = build_quiver(n, s)
    pres = Presentation(q.vertices, _translation_arrows(q, flip=True), [],
                        kind="dual-conjectured", params={"n": n, "s": s})
    vset = set(q.vertices)
    rels = []
    for x in q.vertices:
        fi = {i: q.target(x, i) for i in range(q.n + 1)}
        # index-0 squares
        if fi[0] in vset and q.target(fi[0], 0) in vset:
            rels.append(Element.of_path(pres.path(x, (0, 0))))
        # parallelograms of the cover quiver based at x
        for i in range(1, q.n + 1):
            if fi[i] not in vset:
                continue
            z0 = q.target(fi[i], 0)
            if fi[0] in vset and z0 in vset:
                # mixed square x -> x+f_0, x -> x+f_i, top x+f_0+f_i:
                # dual paths run from w = x+f_i to y = x+f_0
                w, y, z = fi[i], fi[0], z0
                rels.append(Element.of_path(pres.path(w, (i, 0)))
                            - Element.of_path(pres.path(w, (0, i))))
            for j in range(i + 1, q.n + 1):
                z = q.target(fi[i], j)
                if z in vset and fi[j] in vset:
                    # pure square: dual paths run from z = x+f_i+f_j to x
                    rels.append(Element.of_path(pres.path(z, (i, j)))
                                - Element.of_path(pres.path(z, (j, i))))
        # reversed-pair paths with no partner: the dual path (a_i, a_j)
        # from z traces the cover path x -> x+f_j -> x+f_i+f_j; it dies
        # iff the other route through x+f_i does not exist.
        for j in range(1, q.n + 1):
            yj = fi[j]
            if yj not in vset:
                continue
            for i in range(1, q.n + 1):
                if i == j:
                    continue
                z = q.target(yj, i)
                if z in vset and fi[i] not in vset:
                    rels.append(Element.of_path(pres.path(z, (i, j))))
    return Presentation(q.vertices, pres.arrows, rels,
                        kind="dual-conjectured", params={"n": n, "s": s})


def presentation_shifted_dual(n: int, s: int) -> Presentation:
    """The opposite quadratic dual of cover(n, s), written out on the
    same weight-s quiver: parallelograms commute whenever both routes
    stay on the quiver, a two-step path whose parallelogram partner
    falls off vanishes, except that the composite a_0 a_1 at a vertex
    with x_0 = 0 survives.  No square relations: the dual of a vanishing
    square is a free one."""
    if s < 1:
        raise ValueError(f"shifted dual needs s >= 1, got s={s}")
    q = build_quiver(n, s)
    pres = Presentation(q.vertices, _translation_arrows(q), [],
                        kind="shifted-dual", params={"n": n, "s": s})
    vset = set(q.vertices)
    rels = []
    for x in q.vertices:
        for i in range(q.n + 1):
            yi = q.target(x, i)
            if yi not in vset:
                continue
            for j in range(q.n + 1):
                if j == i or q.target(yi, j) not in vset:
                    continue
                if q.target(x, j) in vset:
                    if i < j:
                        rels.append(Element.of_path(pres.path(x, (i, j)))
                                    - Element.of_path(pres.path(x, (j, i))))
                elif (i, j) != (0, 1):
                    rels.append(Element.of_path(pres.path(x, (i, j))))
    return Presentation(q.vertices, pres.arrows, rels,
                        kind="shifted-dual", params={"n": n, "s": s})


# ---------------------------------------------------------------------------
# degreewise elimination


class NonTerminationError(Exception):
    """Raised when the degreewise basis computation hits its length cap
    with the top degree still nonzero, so finiteness is not certified."""

    def __init__(self, presentation, max_len, dims):
        self.presentation = presentation
        self.max_len = max_len
        self.dims = list(dims)
        super().__init__(
            f"basis not exhausted by length {max_len}; dims so far {dims}")


_scopes = []  # the instances made in each open scope, innermost last


@contextmanager
def scope():
    """Record weakly each instance made inside, and yield that set; on
    exit, release each one still alive.  What a memo holds points back at
    its instance, so this cuts the cycles, and all of it dies by
    reference counting once dropped.  Scopes nest; an instance made
    outside every scope, and its opposite, keep their memos."""
    made = weakref.WeakSet()
    _scopes.append(made)
    try:
        yield made
    finally:
        _scopes.remove(made)
        for inst in list(made):
            inst.release()


class AlgebraInstance:
    """A finite dimensional bound quiver algebra with a computed basis.

    ``basis_by_length[d]`` lists the basis paths of length d in
    canonical order.  ``step`` and ``forms`` from ``compute_basis`` are
    its one product table, on ids: a projective reads it by ``ids_from``,
    and ``reduce_path``, which no module of the package calls, folds a
    path over it as the oracle for those rows.  The instance certifies
    finiteness: the computation ran until an empty length, and since the
    algebra is generated in length 1 all longer components vanish too.
    """

    def __init__(self, presentation, basis_by_length, ids, step, forms):
        self.presentation = presentation
        self.basis_by_length = [tuple(b) for b in basis_by_length]
        self.step, self.forms = step, forms  # the product table, on ids
        self.top_length = len(self.basis_by_length) - 1
        self._memo = {}  # key -> what memo(key, build) built for it
        self._blocks = {}  # (source, target) -> bidegree -> path count
        self._from, self._ids = {}, {}  # source -> its basis paths in order, their ids
        for p, i in zip(self.basis(), ids):
            self._from.setdefault(p.source, []).append(p)
            self._ids.setdefault(p.source, []).append(i)
            counts = self._blocks.setdefault((p.source, p.target), {})
            counts[p.bidegree] = counts.get(p.bidegree, 0) + 1
        if _scopes:
            _scopes[-1].add(self)

    # -- basic queries ----------------------------------------------------

    def basis(self):
        for level in self.basis_by_length:
            yield from level

    def dim(self):
        return sum(len(level) for level in self.basis_by_length)

    def dims_by_length(self):
        return [len(level) for level in self.basis_by_length]

    def dim_block(self, x, y):
        """dim of the span of basis paths from x to y."""
        return sum(self._blocks.get((x, y), {}).values())

    def block_bidegrees(self, x, y):
        return dict(self._blocks.get((x, y), {}))

    def is_basis_path(self, p: Path) -> bool:
        return p in self._from.get(p.source, ())

    def paths_from(self, x):
        return self._from.get(x, [])

    def ids_from(self, x):
        """The ids of ``paths_from(x)``, in the same order."""
        return self._ids.get(x, [])

    # -- reduction and products -------------------------------------------

    def reduce_path(self, p: Path) -> Element:
        """``p`` folded over the product table from its source's idempotent;
        ValueError if its source or an arrow is not in the presentation."""
        ids = {a: k for k, a in enumerate(self.presentation.arrows)}
        if p.source not in self._from or not all(a in ids for a in p.arrows):
            raise ValueError(f"{p!r} is not a path of {self.presentation!r}")
        paths, at = self._from[p.source], self._ids[p.source]
        out = _fold(at[0], [(tuple(ids[a] for a in p.arrows), ONE)],
                    self.step, self.forms)
        return Element({paths[bisect_left(at, u)]: c for u, c in out.items()})

    @property
    def _forms(self):
        """The stored forms keyed by path, for the tests, pivots built here."""
        path = {c: p for x, at in self._ids.items() for c, p in zip(at, self._from[x])}
        path.update((c, path[q]._extend(self.presentation.arrows[k]))
                    for (q, k), c in self.step.items() if c in self.forms)
        return {path[c]: {path[u]: v for u, v in form.items()}
                for c, form in self.forms.items()}

    # -- derived structure --------------------------------------------------

    def memo(self, key, build):
        """``build()``, made once per instance and key and kept until
        ``release()``: the one store of what this instance derives."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def release(self):
        """Forget what ``memo`` kept; later calls build it again."""
        self._memo.clear()

    def opposite(self) -> "AlgebraInstance":
        """Made once; released in the scopes that release this one."""
        def build():
            op = compute_basis(opposite_presentation(self.presentation),
                               max_len=max(self.top_length + 1,
                                           DEFAULT_MAX_LEN))
            op._memo["opposite"] = self
            for made in _scopes:
                (made.add if self in made else made.discard)(op)
            return op
        return self.memo("opposite", build)

    def __repr__(self):
        return (f"AlgebraInstance({self.presentation.kind}, dim {self.dim()}, "
                f"top length {self.top_length})")


def _fold(b, terms, step, forms) -> dict:
    """The normal form of basis path ``b`` times ``terms``, (arrow-id
    word, coefficient) pairs on paths from b's target, each word folded
    along its arrows: ``step[(q, a)]`` is the candidate q * a of basis
    path q, a pivot reading its stored form, maybe empty (zero), or else
    standing for itself.  A missing (q, a) raises KeyError."""
    out = {}
    for word, c in terms:
        vec = {b: c}
        for a in word:
            vec, last = {}, vec
            for q, x in last.items():
                p = step[q, a]
                form = forms.get(p)
                for u, v in ((p, ONE),) if form is None else form.items():
                    vec[u] = vec.get(u, ZERO) + x * v
        for u, x in vec.items():
            out[u] = out.get(u, ZERO) + x
    return {u: x if type(x) is int else _coerce(x) for u, x in out.items() if x}


def compute_basis(pres: Presentation, max_len: int = DEFAULT_MAX_LEN) -> AlgebraInstance:
    """Build the basis length by length from the previous length's basis.

    The candidates of length d, the basis paths of length d-1 each
    extended by one arrow, span A_{d-1} (x) A_1; they are numbered after
    the shorter ones in ``Path.sort_key`` order (ids 0..V-1 are the
    idempotents, an arrow's id is its place in ``pres.arrows``), and
    ``step`` records each (basis path, arrow) -> candidate.  The kernel
    of its map onto A_d is spanned by the products b * r of a relation r
    of length k <= d with a basis path b of length d-k, each term folded
    from b along its arrows over ``step`` (``_fold``): a pivot of a
    shorter length reads its form, a candidate of length d stands for
    itself.  Each product lies in one (source, target, bidegree) block;
    ``Matrix.rref`` eliminates each block with its ids as columns in
    descending order, so the pivots and normal forms depend only on the
    span.  A pivot keeps its row, without the pivot and negated, as its
    normal form.  By a dimension count the candidates that are not pivots
    are the normal words, the paths an elimination over all paths would
    keep, and only they are built as paths.

    Stops at the first empty length and returns the finite instance (all
    longer components vanish since the algebra is generated in length
    1), which keeps ``step`` and ``forms`` as its product table: the top
    length's candidates are all pivots, so ``step`` holds every basis path
    times every arrow.  If the cap is reached while the top length is
    still nonzero, raises :class:`NonTerminationError`: the algebra may be
    infinite dimensional and no basis is certified.
    """
    ids = {a: k for k, a in enumerate(pres.arrows)}
    rels = {}  # length -> source -> relations, as (arrow-id word, coeff)
    for r in pres.relations:
        p = next(iter(r.terms))
        rels.setdefault(p.length, {}).setdefault(p.source, []).append(
            [(tuple(ids[a] for a in t.arrows), c) for t, c in r.terms.items()])

    # (source, target, bidegree, label keys) by candidate id, dropped on return
    info = [(v, v, (0, 0), ()) for v in pres.vertices]
    level = {i: Path(v) for i, v in enumerate(pres.vertices)}  # id -> basis path
    levels, forms, step = [level], {}, {}

    for d in range(1, max_len + 1):
        new = sorted((info[b][3] + (a.label_key,), _vkey(info[b][0]), b, k, a)
                     for b in level for k, a in pres.numbered_from(info[b][1]))
        for c, (w, _, b, k, a) in enumerate(new, len(info)):
            v, _, (f, s), _ = info[b]
            step[b, k] = c
            info.append((v, a.target, (f + a.bidegree[0], s + a.bidegree[1]), w))
        blocks = {}  # (source, target, bidegree) -> products b * r
        for k, at in rels.items():
            for b in levels[d - k] if k <= d else ():
                for r in at.get(info[b][1], ()):
                    vec = _fold(b, r, step, forms)
                    if vec:
                        blocks.setdefault(info[next(iter(vec))][:3], []).append(vec)
        for vecs in blocks.values():
            cols = sorted({p for vec in vecs for p in vec}, reverse=True)
            found, red = Matrix._exact([[vec.get(p, ZERO) for p in cols]
                                        for vec in vecs], len(cols)).rref()
            for c, row in zip(found, red.data):
                forms[cols[c]] = {cols[j]: -v for j, v in enumerate(row)
                                  if v and j != c}
        level = {c: level[b]._extend(a) for c, (_, _, b, _, a)
                 in enumerate(new, len(info) - len(new)) if c not in forms}
        levels.append(level)
        if not level:
            return AlgebraInstance(pres, [list(at.values()) for at in levels],
                                   [c for at in levels for c in at], step, forms)

    raise NonTerminationError(pres, max_len, [len(at) for at in levels])


def opposite_presentation(pres: Presentation) -> Presentation:
    """Reverse all arrows and all relation paths."""
    flip = {a: Arrow(source=a.target, target=a.source, label=a.label,
                     bidegree=a.bidegree) for a in pres.arrows}

    def flip_path(p: Path) -> Path:
        return Path(p.target, tuple(flip[a] for a in reversed(p.arrows)))

    rels = [Element({flip_path(p): c for p, c in r.terms.items()})
            for r in pres.relations]
    return Presentation(pres.vertices, flip.values(), rels,
                        kind=pres.kind + "-op", params=pres.params)


def quadratic_blocks(pres: Presentation, eps=None) -> dict:
    """The relation span of a quadratic presentation, one block per
    (source, target) pair of length-2 paths, keys in vertex order:
    (the block's paths, sorted, and the reduced echelon rows of its
    relations in those coordinates, each arrow scaled by ``eps``, a map
    (source, label) -> scalar that defaults to 1)."""
    eps = eps or {}
    paths, rels = {}, {}
    for v in pres.vertices:
        for a in pres.arrows_from(v):
            for b in pres.arrows_from(a.target):
                paths.setdefault((v, b.target), []).append(Path(v, (a, b)))
    for r in pres.relations:
        p0 = next(iter(r.terms))
        if p0.length != 2:
            raise ValueError("quadratic blocks need quadratic relations")
        rels.setdefault((p0.source, p0.target), []).append(r)
    out = {}
    for key in sorted(paths, key=lambda k: (_vkey(k[0]), _vkey(k[1]))):
        block = sorted(paths[key], key=Path.sort_key)
        idx = {p: c for c, p in enumerate(block)}
        rows = []
        for r in rels.get(key, ()):
            row = [ZERO] * len(block)
            for p, c in r.terms.items():
                for a in p.arrows:
                    c *= eps.get((a.source, a.label), ONE)
                row[idx[p]] = c
            rows.append(row)
        pivots, red = Matrix(rows, ncols=len(block)).rref()
        out[key] = (block, [tuple(row) for row in red.data[:len(pivots)]])
    return out


def quadratic_dual(pres: Presentation) -> Presentation:
    """The quadratic dual on the same quiver.

    For each (source, target) pair the relation subspace of the span of
    length-2 paths is replaced by its annihilator under the dot-product
    pairing in the path basis.  Pairs with no relations acquire full
    zero relations; pairs whose relation space is full lose them.
    """
    new_rels = [Element({p: c for p, c in zip(block, vec) if c})
                for block, rows in quadratic_blocks(pres).values()
                for vec in Matrix(rows, ncols=len(block)).kernel_basis().data]
    return Presentation(pres.vertices, pres.arrows, new_rels,
                        kind=pres.kind + "!", params=pres.params)


# ---------------------------------------------------------------------------
# closed forms and oracles


def closed_form_cover_basis(n: int, s: int):
    """The basis of cover(n, s) in closed form: from each vertex, the
    strictly increasing words in the nonzero indices followed by an
    optional index-0 arrow, kept when every step stays on the quiver."""
    pres = presentation_cover(n, s)
    q = build_quiver(n, s)
    vset = set(q.vertices)

    def walk(x, labels):
        at = x
        for i in labels:
            at = q.target(at, i)
            if at not in vset:
                return None
        return pres.path(x, labels)

    out = []
    for x in pres.vertices:
        for mask in range(1 << n):
            labels = [i for i in range(1, n + 1) if mask & (1 << (i - 1))]
            for eps in (0, 1):
                word = tuple(labels) + ((0,) if eps else ())
                p = walk(x, word)
                if p is not None:
                    out.append(p)
    out.sort(key=Path.sort_key)
    return out


def zigzag_hom_oracle(n: int, s: int) -> Matrix:
    """Hom dimensions of zigzag(n, s) by subset-word enumeration.

    Entry (x, y) counts the subsets S of the arrow indices such that
    the displacements of S sum to y - x and some ordering of S is a
    valid path on the weight s-1 quiver.  Independent of the engine.
    """
    if s < 2:
        raise ValueError(f"zigzag type needs s >= 2, got s={s}")
    q = build_quiver(n, s - 1)
    vset = set(q.vertices)
    idx = {v: i for i, v in enumerate(q.vertices)}
    m = Matrix.zero(len(idx), len(idx))
    for x in q.vertices:
        for mask in range(1 << (n + 1)):
            subset = frozenset(i for i in range(n + 1) if mask & (1 << i))
            y = x
            for i in subset:
                y = tuple(a + b for a, b in zip(y, displacement(i, n)))
            if y in vset and _reachable(q, vset, x, subset):
                m.data[idx[x]][idx[y]] += 1
    return m


def _reachable(q, vset, x, todo) -> bool:
    """Whether some ordering of the arrow indices ``todo`` is a path from
    ``x`` that stays on the vertices ``vset`` of ``q``."""
    return not todo or any((y := q.target(x, i)) in vset
                           and _reachable(q, vset, y, todo - {i}) for i in todo)


def shifted_dual_membership(x, d) -> bool:
    """Whether the class of a degree-``d`` path out of ``x`` survives in
    the shifted dual algebra: x_j >= d_{(j+1) mod (n+1)} for every
    coordinate j >= 1.  The j = 0 pair carries no condition: a path may
    overshoot in the 0-direction and return, which is what keeps the
    composite alpha_0 alpha_1 alive at the x_0 = 0 vertices."""
    if len(d) != len(x):
        raise ValueError("degree vector and vertex have different lengths")
    if any(c < 0 for c in d):
        raise ValueError("degree vector must be non-negative")
    npl = len(x)
    return all(x[j] >= d[(j + 1) % npl] for j in range(1, npl))
