"""Reference values for the benchmark, computed without the engine.

Nothing here imports ``zzqh``.  The vertices of the cover of type
(n, s) are the compositions of s into n + 1 parts; the arrow of index i
moves one unit from coordinate i - 1 to coordinate i (index 0 wraps
around from the last coordinate).  From that combinatorics alone this
module gives

* the cover basis counted per length and per block: from each vertex,
  the strictly increasing words in the nonzero indices followed by an
  optional index-0 arrow, kept when every step stays on the simplex;
* the multiplicities of the minimal resolutions of the simples: the
  cover is Koszul, so with H(t) its length-graded Hilbert matrix series,
  H(t)^{-1} = sum_i (-1)^i E_i t^i and the i-th term of the resolution
  of the simple at x holds P_y exactly (E_i)_{x,y} times, in degree i;
  the sum of all entries of all E_i is the dimension of the Koszul dual,
  which is that of the shifted dual;
* the closed-form presentation of the Delta-Koszul dual: index-0 arrows
  kept, the others reversed, with its quadratic relations block by
  block as reduced row echelon forms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def vertices(n: int, s: int) -> tuple:
    """Compositions of s into n + 1 non-negative parts, sorted."""
    if n == 0:
        return ((s,),)
    return tuple(sorted((head,) + tail for head in range(s + 1)
                        for tail in vertices(n - 1, s - head)))


def name(x) -> str:
    return ",".join(str(c) for c in x)


def step(x, i: int, sign: int = 1):
    """x plus sign times the displacement of index i, or None when that
    leaves the simplex."""
    y = list(x)
    y[i - 1] -= sign
    y[i] += sign
    return tuple(y) if min(y) >= 0 else None


def cover_arrows(n: int, s: int) -> list:
    """Arrows (source, index, target) of the cover's quiver."""
    out = []
    for x in vertices(n, s):
        for i in range(n + 1):
            y = step(x, i)
            if y is not None:
                out.append((x, i, y))
    return out


@lru_cache(maxsize=None)
def cover_basis_counts(n: int, s: int) -> dict:
    """{(length, source, target): number of basis paths} of the cover."""
    counts = {}
    for x in vertices(n, s):
        for mask in range(1 << n):
            word = [i for i in range(1, n + 1) if mask >> (i - 1) & 1]
            for tail in ([], [0]):
                at = x
                for i in word + tail:
                    at = step(at, i)
                    if at is None:
                        break
                if at is not None:
                    key = (len(word) + len(tail), x, at)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def cover_dimension(n: int, s: int) -> int:
    return sum(cover_basis_counts(n, s).values())


def projective_dims(n: int, s: int) -> dict:
    """dim P_x = number of basis paths starting at x."""
    out = {x: 0 for x in vertices(n, s)}
    for (_, x, _), c in cover_basis_counts(n, s).items():
        out[x] += c
    return out


def _matmul(a, b):
    size = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(size) if a[i][k])
             for j in range(size)] for i in range(size)]


@lru_cache(maxsize=None)
def resolution_multiplicities(n: int, s: int) -> tuple:
    """(E_0, E_1, ...) as tuples of rows indexed by ``vertices(n, s)``:
    (E_i)[x][y] is the multiplicity of P_y in step i of the minimal
    resolution of the simple at x.  Raises if the inverse series is not
    a polynomial with non-negative signed coefficients, which would mean
    the cover is not Koszul of finite global dimension."""
    verts = vertices(n, s)
    idx = {x: k for k, x in enumerate(verts)}
    size = len(verts)
    hilbert = {}
    for (d, x, y), c in cover_basis_counts(n, s).items():
        if d:
            hilbert.setdefault(d, [[0] * size for _ in range(size)])
            hilbert[d][idx[x]][idx[y]] += c
    top = max(hilbert)
    inverse = [[[int(i == j) for j in range(size)] for i in range(size)]]
    zeros_in_a_row = 0
    while zeros_in_a_row < top:
        k = len(inverse)
        if k > 4 * size + top:
            raise ArithmeticError(f"Hilbert series of cover({n},{s}) has "
                                  "no polynomial inverse")
        g = [[0] * size for _ in range(size)]
        for j in range(1, min(k, top) + 1):
            if j in hilbert:
                prod = _matmul(inverse[k - j], hilbert[j])
                g = [[a - b for a, b in zip(ra, rb)]
                     for ra, rb in zip(g, prod)]
        inverse.append(g)
        zeros_in_a_row = zeros_in_a_row + 1 if not any(map(any, g)) else 0
    while not any(map(any, inverse[-1])):
        inverse.pop()
    out = []
    for i, g in enumerate(inverse):
        e = tuple(tuple(v if i % 2 == 0 else -v for v in row) for row in g)
        if any(v < 0 for row in e for v in row):
            raise ArithmeticError(f"negative multiplicity in step {i} of "
                                  f"cover({n},{s})")
        out.append(e)
    return tuple(out)


def simple_resolution(n: int, s: int, x) -> list:
    """Step i of the resolution of the simple at x as {y: multiplicity}."""
    verts = vertices(n, s)
    row = verts.index(tuple(x))
    levels = [{y: e[row][k] for k, y in enumerate(verts) if e[row][k]}
              for e in resolution_multiplicities(n, s)]
    while not levels[-1]:
        levels.pop()
    return levels


def largest_resolution_vertex(n: int, s: int):
    """The vertex whose simple has the largest free modules in its
    resolution (total dimension over all steps); first in vertex order
    on ties."""
    dims = projective_dims(n, s)
    return max(vertices(n, s), key=lambda x: (
        sum(m * dims[y] for level in simple_resolution(n, s, x)
            for y, m in level.items()), [-c for c in x]))


def dual_dimension(n: int, s: int) -> int:
    """Dimension of the Koszul dual of the cover: every P_y in every
    step of every simple's resolution is one basis element of Ext."""
    return sum(v for e in resolution_multiplicities(n, s)
               for row in e for v in row)


# ---------------------------------------------------------------------------
# the closed-form Delta-Koszul dual


def dual_arrows(n: int, s: int) -> set:
    """(source, target, index) of the dual quiver: each index-0 arrow of
    the cover kept, each other arrow reversed."""
    return {(x, y, 0) if i == 0 else (y, x, i)
            for x, i, y in cover_arrows(n, s)}


def dual_walk(x, labels):
    """End of the dual path from x along ``labels``, or None."""
    at = x
    for i in labels:
        at = step(at, i, 1 if i == 0 else -1)
        if at is None:
            return None
    return at


def dual_two_paths(n: int, s: int, src, tgt) -> list:
    """Label pairs of the dual paths of length two from src to tgt."""
    return sorted((i, j) for i in range(n + 1) for j in range(n + 1)
                  if dual_walk(src, (i, j)) == tuple(tgt))


def _closed_form_relations(n: int, s: int) -> list:
    """(source, {label pair: coefficient}) for each closed-form relation:
    index-0 squares vanish, every square of the cover's quiver commutes
    in the dual, and a reversed two-step path whose square is missing a
    corner vanishes."""
    rels = []
    for x in vertices(n, s):
        f = {i: step(x, i) for i in range(n + 1)}
        if f[0] and step(f[0], 0):
            rels.append((x, {(0, 0): 1}))
        for i in range(1, n + 1):
            if not f[i]:
                continue
            if f[0] and step(f[i], 0):
                rels.append((f[i], {(i, 0): 1, (0, i): -1}))
            for j in range(i + 1, n + 1):
                top = step(f[i], j)
                if top and f[j]:
                    rels.append((top, {(i, j): 1, (j, i): -1}))
        for j in range(1, n + 1):
            if not f[j]:
                continue
            for i in range(1, n + 1):
                top = step(f[j], i)
                if i != j and top and not f[i]:
                    rels.append((top, {(i, j): 1}))
    return rels


def rref(rows: list, width: int) -> tuple:
    """Reduced row echelon form over Q of integer or Fraction rows."""
    m = [[Fraction(v) for v in r] for r in rows]
    out, col = [], 0
    for col in range(width):
        piv = next((r for r in m if r[col]), None)
        if piv is None:
            continue
        m.remove(piv)
        piv = [v / piv[col] for v in piv]
        m = [[a - r[col] * b for a, b in zip(r, piv)] for r in m]
        out = [[a - r[col] * b for a, b in zip(r, piv)] for r in out]
        out.append(piv)
    return tuple(tuple(r) for r in out)


def relation_blocks(rels, n: int, s: int) -> dict:
    """Group relations given as (source, {label pair: coefficient}) by
    (source, target) and reduce each block over its two-step paths."""
    by_block = {}
    for src, terms in rels:
        targets = {dual_walk(src, p) for p in terms}
        if len(targets) != 1 or None in targets:
            raise ValueError(f"relation at {name(src)} is not a combination "
                             "of parallel paths of length two")
        by_block.setdefault((src, targets.pop()), []).append(terms)
    out = {}
    for (src, tgt), block in by_block.items():
        paths = dual_two_paths(n, s, src, tgt)
        col = {p: k for k, p in enumerate(paths)}
        rows = [[0] * len(paths) for _ in block]
        for row, terms in zip(rows, block):
            for p, c in terms.items():
                row[col[p]] += Fraction(c)
        reduced = rref(rows, len(paths))
        if reduced:
            out[(src, tgt)] = reduced
    return out


@lru_cache(maxsize=None)
def dual_relation_blocks(n: int, s: int) -> dict:
    """The closed-form relation space, block by block."""
    return relation_blocks(_closed_form_relations(n, s), n, s)
