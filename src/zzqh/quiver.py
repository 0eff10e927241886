"""Translation quivers on weight lattices of affine type A.

The vertex set with weight ``w`` in ``n + 1`` coordinates is the set of
integer compositions of ``w`` into ``n + 1`` non-negative parts.  Arrows
come in ``n + 1`` families: the arrow of index ``i`` translates a vertex
by the displacement vector ``f_i``, which subtracts 1 from coordinate
``i - 1`` and adds 1 to coordinate ``i`` (indices mod ``n + 1``, so the
index-0 family moves weight from the last coordinate to the first).
Arrows exist whenever both endpoints have non-negative coordinates.

The arrows of nonzero index generate a partial order on the vertices;
all paths of nonzero index between two comparable vertices have the
same length, which makes the distance function well defined and
additive.  ``order_data`` computes and certifies this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

Vertex = tuple[int, ...]


def displacement(i: int, n: int) -> Vertex:
    """The translation vector f_i: -1 at coordinate i-1, +1 at coordinate i."""
    if not 0 <= i <= n:
        raise ValueError(f"index {i} out of range for n={n}")
    f = [0] * (n + 1)
    f[i - 1] -= 1  # i = 0 wraps to the last coordinate
    f[i] += 1
    return tuple(f)


def _compositions(w: int, parts: int):
    """All tuples of `parts` non-negative integers summing to w, sorted."""
    return sorted(tuple(b - a for a, b in zip((0,) + cuts, cuts + (w,)))
                  for cuts in combinations_with_replacement(range(w + 1), parts - 1))


@dataclass(frozen=True)
class Quiver:
    """The translation quiver with parameters (n, w).

    ``vertices`` is in lexicographic order; ``arrows`` is the list of
    (source, index) pairs, sorted by (source, index).  The target of an
    arrow is recovered by adding the displacement vector.
    """

    n: int
    w: int
    vertices: tuple[Vertex, ...]
    arrows: tuple[tuple[Vertex, int], ...]

    def target(self, x: Vertex, i: int) -> Vertex:
        return tuple(a + b for a, b in zip(x, displacement(i, self.n)))


def build_quiver(n: int, w: int) -> Quiver:
    """Build the translation quiver on compositions of w into n+1 parts."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if w < 0:
        raise ValueError(f"need w >= 0, got {w}")
    vertices = _compositions(w, n + 1)
    vset = set(vertices)
    arrows = []
    for x in vertices:
        for i in range(n + 1):
            y = tuple(a + b for a, b in zip(x, displacement(i, n)))
            if y in vset:
                arrows.append((x, i))
    arrows.sort(key=lambda a: (a[0], a[1]))
    return Quiver(n=n, w=w, vertices=tuple(vertices), arrows=tuple(arrows))


def classify_vertices(q: Quiver):
    """Split vertices by first coordinate: (J, K) with K = {x : x_0 = 0}.

    K consists of the vertices with no incoming index-0 arrow.
    """
    j = tuple(x for x in q.vertices if x[0] != 0)
    k = tuple(x for x in q.vertices if x[0] == 0)
    return j, k


@dataclass(frozen=True)
class OrderData:
    """The partial order generated by arrows of nonzero index.

    ``dist`` maps comparable ordered pairs (x, y) with x <= y to the
    common length of all nonzero-index paths from x to y.  Incomparable
    pairs are absent; ``distance`` returns math.inf for them.
    """

    quiver: Quiver
    dist: dict

    def leq(self, x: Vertex, y: Vertex) -> bool:
        return (x, y) in self.dist

    def lt(self, x: Vertex, y: Vertex) -> bool:
        return x != y and (x, y) in self.dist

    def distance(self, x: Vertex, y: Vertex):
        return self.dist.get((x, y), math.inf)

    @cached_property
    def key(self):
        """The order as a hashable value, made once per object."""
        return frozenset(self.dist.items())


def order_data(q: Quiver) -> OrderData:
    """Compute the order and distances along arrows of nonzero index.

    Certifies that all nonzero-index paths between a comparable pair
    have equal length (so distances are single numbers and additive).
    """
    step = {x: [] for x in q.vertices}
    for (x, i) in q.arrows:
        if i != 0:
            step[x].append(q.target(x, i))
    # Propagate path lengths; arrows of nonzero index strictly increase
    # the moment sum(i * x_i), so this terminates.
    lengths = {x: {x: {0}} for x in q.vertices}
    order = sorted(q.vertices, key=lambda x: sum(i * c for i, c in enumerate(x)),
                   reverse=True)
    for x in order:
        table = lengths[x]
        for y in step[x]:
            for z, ls in lengths[y].items():
                table.setdefault(z, set()).update(l + 1 for l in ls)
    dist = {}
    for x, table in lengths.items():
        for z, ls in table.items():
            if len(ls) != 1:
                raise AssertionError(
                    f"paths of different lengths {sorted(ls)} from {x} to {z}")
            dist[(x, z)] = next(iter(ls))
    return OrderData(quiver=q, dist=dist)


def vertex_name(x) -> str:
    if isinstance(x, tuple):
        return ",".join(str(c) for c in x)
    return str(x)


def export_dot(obj) -> str:
    """Render a Quiver or a Presentation as a DOT digraph.

    Nodes are vertices, edges carry the arrow label (``a<i>`` for
    indexed arrow families, the bare label otherwise).  Output is
    deterministic: nodes and edges are emitted in canonical order.
    """
    lines = ["digraph {"]
    if isinstance(obj, Quiver):
        vertices = obj.vertices
        edges = [(src, obj.target(src, i), f"a{i}") for (src, i) in obj.arrows]
    else:  # a Presentation from the algebra module
        vertices = obj.vertices
        edges = []
        for a in obj.arrows:
            label = f"a{a.label}" if isinstance(a.label, int) else str(a.label)
            edges.append((a.source, a.target, label))
    for x in vertices:
        lines.append(f'  "{vertex_name(x)}";')
    for src, tgt, label in sorted(edges, key=lambda e: (str(e[0]), str(e[2]), str(e[1]))):
        lines.append(f'  "{vertex_name(src)}" -> "{vertex_name(tgt)}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
