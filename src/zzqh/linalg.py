"""Exact dense linear algebra over the rationals.

Entries are exact rationals, held as ``int`` while integral and as
``fractions.Fraction`` otherwise, so ranks, kernels and solutions are
exact; a float never becomes an entry.  ``_coerce`` makes a value an
entry and ``exact_div`` divides one entry by another, both keeping an
integral result an ``int``.  Entries are coerced once, at the
boundary: ``Matrix(rows)`` and ``Element`` coerce what they are given;
zeros, ``rref`` results, kernel bases and the augmented matrices of
``left_kernel`` and ``solve`` (whose right-hand side alone is coerced)
are built from exact entries and not coerced again, as are, through
``Matrix._exact``, the blocks of ``modules._block_kernel``, of
``Resolution.lift`` and of ``compute_basis``'s relations, all exact.
The matrices here (Hom-space bases and constraint systems, one resolution
block or Hom-complex bidegree block at a time, relation spans) are small,
and a dense representation keeps the code simple and the pivoting
deterministic.  Arrow actions and resolution maps are not matrices:
``modules.RightModule`` stores actions as sparse rows, and a
``modules.Resolution`` each differential as its generator images.

``Echelon`` is the one elimination in the package: ``Matrix.rref``
and with it ranks, kernels and solving are built on it, the basis
engine ``algebra.compute_basis`` reduces each relation block through
``Matrix.rref``, and the module code uses it directly for top
generators and Ext residues; quotients of modules need no elimination,
being restrictions to basis indices.  Callers rely on
three of its conditions.  The pivot of a stored row is its leftmost
nonzero entry, scaled to 1.  Stored rows are never rewritten, so a row
handed out stays valid.  The residue of a vector modulo the span is
unique: it is zero at every pivot, and the pivots depend only on the
span, so it is the same whatever order the rows came in.

``Matrix.left_kernel`` is the one left kernel, for resolution blocks, socles,
cocycles and the extracted dual's relations; relation spans come from
``algebra.quadratic_blocks``.  Four shortcuts give the full routine's
rows.  A left kernel of one row is ``(1, [])``, or ``(0, [[1]])`` for a
zero row, and one with no columns is the identity at rank 0.  ``rref``
of one row scales a new copy at its leftmost nonzero entry, and skips
back-substitution when there is at most one pivot.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = 0
ONE = 1


def _coerce(value):
    """``value`` as an exact rational: an int as it is, anything else
    as a Fraction, or its numerator when that is integral.  Raises
    TypeError on a float, whose binary value is no exact entry."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"a float is not an exact entry: {value!r}")
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def exact_div(c, p):
    """``c / p`` exactly: ``c // p`` when the int ``p`` divides the int
    ``c``, and otherwise a Fraction, or its numerator when integral."""
    if type(c) is int and type(p) is int and not c % p:
        return c // p
    return _coerce(Fraction(c, p))


class Matrix:
    """A dense matrix of exact rationals, held as ``int`` while
    integral and as ``Fraction`` otherwise.

    Rows are lists; the data is owned by the instance.  All reductions
    use the leftmost nonzero column as pivot, so results are
    deterministic for a given input.
    """

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, data, ncols=None):
        self.data = [[x if type(x) is int else _coerce(x) for x in row]
                     for row in data]
        self.nrows = len(self.data)
        self.ncols = len(self.data[0]) if self.data else ncols or 0
        if any(len(row) != self.ncols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def _exact(cls, data, ncols):
        """A Matrix owning ``data``, rows of ``ncols`` entries that are
        already exact: nothing is copied or coerced."""
        m = cls.__new__(cls)
        m.data, m.nrows, m.ncols = data, len(data), ncols
        return m

    @classmethod
    def zero(cls, nrows, ncols):
        return cls._exact([[ZERO] * ncols for _ in range(nrows)], ncols)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __repr__(self):
        rows = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.nrows}x{self.ncols}: {rows})"

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = Matrix.zero(self.nrows, other.ncols)
        for i, row in enumerate(self.data):
            orow = out.data[i]
            for k, a in enumerate(row):
                if a:
                    brow = other.data[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] += a * b
        return out

    def mul_row(self, vec):
        """vec (length nrows) times this matrix, as a new list."""
        if len(vec) != self.nrows:
            raise ValueError("shape mismatch")
        out = [ZERO] * self.ncols
        for a, row in zip(vec, self.data):
            if a:
                for j, b in enumerate(row):
                    if b:
                        out[j] += a * b
        return out

    def rref(self):
        """Reduced row echelon form; returns (pivot columns, new Matrix)."""
        if self.nrows == 1:  # the row scaled at its pivot, as a new list
            row = self.data[0]
            for piv, p in enumerate(row):
                if p:
                    return [piv], Matrix._exact(
                        [[exact_div(c, p) if c else c for c in row]], self.ncols)
            return [], Matrix.zero(1, self.ncols)
        ech = Echelon(self.data)
        pivots = sorted(ech.rows)
        # back-substitution, from two pivots on: each row is reduced
        # against the rows with pivots to its right, already reduced
        if len(pivots) > 1:
            ech = Echelon(ech.rows[c] for c in reversed(pivots))
        red = [ech.rows[c] for c in pivots]
        red += [[ZERO] * self.ncols for _ in range(self.nrows - len(pivots))]
        return pivots, Matrix._exact(red, self.ncols)

    def rank(self):
        return len(self.rref()[0])

    def kernel_basis(self):
        """Basis of the right kernel {v : self * v = 0}, as rows of a Matrix."""
        pivots, red = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        rows = []
        for f in free:
            v = [ZERO] * self.ncols
            v[f] = ONE
            for r, c in enumerate(pivots):
                v[c] = -red.data[r][f]
            rows.append(v)
        return Matrix._exact(rows, self.ncols)

    def left_kernel(self):
        """(rank, kernel): the kernel is the reduced echelon basis of
        {v : v * self = 0}, as lists, from the rref of [self | identity]."""
        n = self.nrows
        if n == 1:
            return (1, []) if any(self.data[0]) else (0, [[ONE]])
        eye = [[ONE if k == i else ZERO for k in range(n)] for i in range(n)]
        if not self.ncols:
            return 0, eye
        aug = [row + e for row, e in zip(self.data, eye)]
        pivots, red = Matrix._exact(aug, self.ncols + n).rref()
        rank = sum(p < self.ncols for p in pivots)
        return rank, [row[self.ncols:] for row in red.data[rank:]]

    def solve(self, rhs):
        """One solution x of self * x = rhs (a list), or None if inconsistent."""
        if len(rhs) != self.nrows:
            raise ValueError("shape mismatch")
        aug = Matrix._exact([row + [_coerce(v)] for row, v in
                             zip(self.data, rhs)], self.ncols + 1)
        pivots, red = aug.rref()
        if self.ncols in pivots:
            return None
        x = [ZERO] * self.ncols
        for r, c in enumerate(pivots):
            x[c] = red.data[r][self.ncols]
        return x


class Echelon:
    """A growing span, held as rows keyed by pivot column.

    The pivot of a row is its leftmost nonzero entry, scaled to 1, and
    each row is zero at the pivots of the rows stored before it.  Rows
    are stored as inserted, after reduction, and never rewritten.
    """

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows = {}
        for row in rows:
            self.insert(row)

    def reduce(self, vec):
        """The residue of ``vec`` modulo the span, as a new list: the
        rows are subtracted in insertion order, which leaves it zero at
        every pivot."""
        out = list(vec)
        for piv, row in self.rows.items():
            c = out[piv]
            if c:
                for j in range(piv, len(row)):
                    v = row[j]
                    if v:
                        out[j] -= c * v
        return out

    def insert(self, vec):
        """Add ``vec`` to the span; returns the pivot of its stored
        residue, or None if ``vec`` already lies in the span."""
        out = self.reduce(vec)
        for piv, p in enumerate(out):
            if p:
                self.rows[piv] = out if p == 1 else [
                    exact_div(c, p) if c else c for c in out]
                return piv
        return None
