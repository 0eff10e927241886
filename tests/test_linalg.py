"""Exact rational linear algebra: deterministic echelon forms, kernels
and solving."""

import random
from fractions import Fraction

import pytest

from zzqh.linalg import Echelon, Matrix

F = Fraction


def _random_matrix(rng, nrows, ncols):
    return Matrix([[F(rng.randint(-3, 3), rng.randint(1, 4))
                    for _ in range(ncols)] for _ in range(nrows)],
                  ncols=ncols)


def test_rref_fixed_example():
    m = Matrix([[2, 4, -2], [1, 2, 0], [3, 6, -3]])
    pivots, red = m.rref()
    assert pivots == [0, 2]
    assert red.data[0] == [F(1), F(2), F(0)]
    assert red.data[1] == [F(0), F(0), F(1)]
    assert red.data[2] == [F(0), F(0), F(0)]


def test_rref_idempotent_and_leading_ones():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        pivots, red = m.rref()
        again_pivots, again = red.rref()
        assert again == red and again_pivots == pivots
        for r, c in enumerate(pivots):
            assert red.data[r][c] == 1
            assert all(red.data[i][c] == 0 for i in range(red.nrows) if i != r)


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ker = m.kernel_basis()
        assert m.rank() + ker.nrows == m.ncols
        for v in ker.data:
            assert all(sum(row[j] * v[j] for j in range(m.ncols)) == 0
                       for row in m.data)


def test_left_kernel_is_kernel_of_transpose():
    m = Matrix([[1, 2], [2, 4], [0, 1]])
    rank, left = m.left_kernel()
    assert rank == 2 and len(left) == 1
    u = left[0]
    assert all(sum(u[i] * m.data[i][j] for i in range(m.nrows)) == 0
               for j in range(m.ncols))
    assert u == [F(1), F(-1, 2), F(0)]
    assert _transposed_kernel_reference(m.data, m.ncols) \
        == [[F(-2), F(1), F(0)]]


def test_solve_consistent_and_inconsistent():
    m = Matrix([[1, 1], [0, 1], [1, 2]])
    x = m.solve([F(3), F(1), F(4)])
    assert x is not None
    assert [sum(row[j] * x[j] for j in range(2)) for row in m.data] \
        == [F(3), F(1), F(4)]
    assert m.solve([F(3), F(1), F(5)]) is None


def test_solve_random_roundtrip():
    rng = random.Random(13)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = [F(rng.randint(-2, 2)) for _ in range(m.ncols)]
        rhs = [sum(row[j] * x[j] for j in range(m.ncols)) for row in m.data]
        got = m.solve(rhs)
        assert got is not None
        back = [sum(row[j] * got[j] for j in range(m.ncols))
                for row in m.data]
        assert back == rhs


def test_mul_row_matches_matrix_product():
    rng = random.Random(17)
    a = _random_matrix(rng, 3, 4)
    b = _random_matrix(rng, 4, 2)
    prod = a * b
    for i in range(3):
        assert b.mul_row(a.data[i]) == prod.data[i]


def test_exactness_no_float_drift():
    m = Matrix([[F(1, 3), F(1, 7)], [F(1, 11), F(1, 13)]])
    _, red = m.rref()
    assert m.rank() == 2
    assert red == Matrix([[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# Echelon and the rref built on it


def _gauss_jordan(m):
    """Reference reduced row echelon form of a Matrix by plain
    Gauss-Jordan elimination, column by column: (pivots, rows).  The
    entries are copied as Fractions, so its divisions stay exact."""
    rows = [[F(x) for x in row] for row in m.data]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, rows


def _transposed_kernel_reference(rows, width):
    """A basis of {v : v * rows = 0}: the right kernel of the transposed
    matrix, read off its Gauss-Jordan form, one vector per free column."""
    n = len(rows)
    pivots, red = _gauss_jordan(Matrix(
        [[row[j] for row in rows] for j in range(width)], ncols=n))
    out = []
    for f in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        out.append(v)
    return out


def _strategies():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.one_of(st.just(F(0)),
                        st.fractions(min_value=-3, max_value=3,
                                     max_denominator=4))

    @st.composite
    def row_lists(draw, ncols):
        """Rows of width ncols, with zero rows and duplicates mixed in."""
        rows = draw(st.lists(st.lists(entries, min_size=ncols,
                                      max_size=ncols), max_size=5))
        for k in draw(st.lists(st.integers(0, len(rows)), max_size=3)):
            rows.insert(k, rows[k][:] if k < len(rows) else [F(0)] * ncols)
        return rows

    settings = hypothesis.settings(max_examples=80, deadline=None,
                                   derandomize=True, database=None)
    return hypothesis, st, row_lists, settings


def test_rref_matches_gauss_jordan_reference():
    hypothesis, st, row_lists, settings = _strategies()

    @settings
    @hypothesis.given(st.integers(0, 5).flatmap(
        lambda n: st.tuples(st.just(n), row_lists(n))))
    def check(shape_rows):
        ncols, rows = shape_rows
        m = Matrix(rows, ncols=ncols)
        pivots, red = m.rref()
        want_pivots, want_rows = _gauss_jordan(m)
        assert pivots == want_pivots
        assert red.shape == m.shape and red.data == want_rows

    check()


def test_left_kernel_matches_the_transposed_kernel():
    """Same span as the kernel of the transpose, rank = rows - kernel,
    and the kernel in reduced echelon form."""
    hypothesis, st, row_lists, settings = _strategies()

    @settings
    @hypothesis.given(st.integers(0, 5).flatmap(
        lambda n: st.tuples(st.just(n), row_lists(n))))
    def check(shape_rows):
        ncols, rows = shape_rows
        m = Matrix(rows, ncols=ncols)
        rank, kern = m.left_kernel()
        assert rank == m.nrows - len(kern) == m.rank()
        ref = Matrix(_transposed_kernel_reference(rows, ncols), ncols=m.nrows)
        pivots, red = _gauss_jordan(ref)
        assert len(pivots) == ref.nrows == len(kern) and red == kern
        assert _gauss_jordan(Matrix(kern, ncols=m.nrows))[1] == kern
        for v in kern:
            assert all(sum(v[i] * rows[i][j] for i in range(m.nrows)) == 0
                       for j in range(ncols))

    check()


def test_echelon_residue_does_not_depend_on_insertion_order():
    hypothesis, st, row_lists, settings = _strategies()

    @settings
    @hypothesis.given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(row_lists(n), row_lists(n), st.randoms())))
    def check(args):
        rows, vectors, rng = args
        shuffled = rows[:]
        rng.shuffle(shuffled)
        one, two = Echelon(rows), Echelon(shuffled)
        assert set(one.rows) == set(two.rows)
        for ech in (one, two):
            stored = list(ech.rows.items())
            for k, (piv, row) in enumerate(stored):
                assert row[piv] == 1 and not any(row[:piv])
                assert all(row[p] == 0 for p, _ in stored[:k])
        for v in vectors + rows:
            resid = one.reduce(v)
            assert resid == two.reduce(v)
            assert all(resid[p] == 0 for p in one.rows)

    check()


def test_echelon_insert_keeps_stored_rows():
    ech = Echelon()
    assert ech.insert([F(0), F(2), F(4)]) == 1
    first = ech.rows[1]
    assert ech.insert([F(0), F(1), F(2)]) is None
    assert ech.insert([F(3), F(1), F(0)]) == 0
    assert ech.rows[1] is first and first == [F(0), F(1), F(2)]
    assert ech.rows[0] == [F(1), F(0), F(-2, 3)]
    assert ech.reduce([F(1), F(1), F(1)]) == [F(0), F(0), F(-1, 3)]


def test_results_own_their_rows():
    """The matrices that ``rref``, ``kernel_basis``, ``left_kernel`` and
    ``zero`` build without copying share no row with their input or
    with each other: editing one leaves the input and a recomputation
    as they were."""
    m = Matrix([[2, 4, -2, 1], [1, 2, 0, 1], [3, 6, -2, 2]])
    before = [row[:] for row in m.data]
    first = (m.rref()[1], m.kernel_basis(), m.left_kernel()[1])
    for rows in (first[0].data, first[1].data, first[2]):
        for row in rows:
            row[0] = F(7, 3)
    assert m.data == before
    again = (m.rref()[1], m.kernel_basis(), m.left_kernel()[1])
    assert again[0].data[0][0] == 1 and again[1].data[0][0] != F(7, 3)
    assert again[2] and again[2][0][0] != F(7, 3)
    z = Matrix.zero(2, 3)
    z.data[0][0] = 1
    assert z.data[1] == [0, 0, 0] and Matrix.zero(2, 3).data[0] == [0, 0, 0]
    # the shortcuts: a left kernel with no columns is the identity at
    # rank 0, and one pivot needs no back-substitution
    empty = Matrix([[], [], []], ncols=0)
    rank, kern = empty.left_kernel()
    assert rank == 0 and kern == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    kern[0][1] = F(7, 3)
    assert empty.left_kernel()[1][0] == [1, 0, 0]
    single = Matrix([[0, 2, 4], [0, 1, 2]])
    before = [row[:] for row in single.data]
    pivots, red = single.rref()
    assert (pivots, red.data) == ([1], [[0, 1, 2], [0, 0, 0]])
    assert (pivots, red.data) == _gauss_jordan(single)
    red.data[0][2] = F(7, 3)
    assert single.data == before and single.rref()[1].data[0] == [0, 1, 2]


def test_one_row_shortcuts_give_the_general_routes_rows():
    """A one-row ``rref`` and ``left_kernel``, rows of ints and
    Fractions with leading zeros and zero rows among them, equal a
    general route: Gauss-Jordan here, and the full ``rref`` of the row
    over a zero row.  Every entry stays exact (an int when integral),
    and editing a returned row leaves the input and a recomputation as
    they were."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.one_of(st.just(0), st.integers(-4, 4),
                        st.fractions(min_value=-3, max_value=3,
                                     max_denominator=4))
    rows = st.tuples(st.integers(0, 3), st.lists(entries, max_size=4)).map(
        lambda t: [0] * t[0] + t[1])

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(rows)
    def check(row):
        m = Matrix([row], ncols=len(row))
        before = [r[:] for r in m.data]
        pivots, red = m.rref()
        assert (pivots, red.data) == _gauss_jordan(m)
        padded = Matrix([row, [0] * len(row)], ncols=len(row)).rref()
        assert pivots == padded[0] and red.data == padded[1].data[:1]
        assert all(type(x) is int or x.denominator > 1 for x in red.data[0])
        rank, kern = m.left_kernel()
        gj_pivots, gj = _gauss_jordan(Matrix([row + [1]], ncols=len(row) + 1))
        want = sum(p < len(row) for p in gj_pivots)
        assert (rank, kern) == (want, [r[len(row):] for r in gj[want:]])
        assert all(type(x) is int for r in kern for x in r)
        for r in red.data + kern:
            r[:] = [F(7, 3)] * len(r)
        assert m.data == before
        assert m.rref()[1].data == padded[1].data[:1]
        assert m.left_kernel() == (want, [r[len(row):] for r in gj[want:]])

    check()
