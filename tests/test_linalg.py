import copy
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from excisionlab.chains import Chain
from excisionlab.linalg import (
    IncrementalSpan,
    SparseMatrix,
    SparseVector,
    Unsolvable,
    echelon,
    invert,
    kernel_basis,
    parse_scalar,
    solve,
)

from support import stored_exactly


def test_parse_scalar_accepts_exact_rationals():
    assert parse_scalar("-3/2") == Fraction(-3, 2)
    assert parse_scalar("7") == 7
    assert parse_scalar("0") == 0


@pytest.mark.parametrize("bad", [
    "1.5", "1e3", "3/0", "3/-2", " 1", "", None, "1/2/3",
    # `$` matches before a final newline, `\d` any Unicode digit, and `int`
    # takes spaces and "_" separators: the literal must be plain ASCII
    "5\n", "1/2\n", "5 ", "\u0663", "1/\u0663", "1_0", "1/1_0",
])
def test_parse_scalar_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_sparse_vector_drops_zeros_and_checks_range():
    v = SparseVector(3, {0: 1, 1: 0})
    assert v.entries == {0: Fraction(1)}
    with pytest.raises(ValueError):
        SparseVector(2, {2: 1})
    with pytest.raises(ValueError):
        SparseVector(2, {-1: Fraction(1, 2)})
    half = Fraction(1, 2)
    v = SparseVector(4, {0: half, 1: "-2/3", 2: Fraction(5), 3: Fraction(0)})
    assert v.entries == {0: half, 1: Fraction(-2, 3), 2: 5}
    # `int` exactly where integral, a `Fraction` only where not
    assert [type(x) for x in v.entries.values()] == [Fraction, Fraction, int]
    assert stored_exactly(v.entries.values())
    assert v.entries[0] is half
    assert v.get(3) == 0 and type(v.get(3)) is int


# Each way a scalar enters storage, as (split) -> the stored values of a
# container holding the one value x.
STORES = {
    "SparseVector": lambda split, x: SparseVector(2, {0: x}).entries,
    "SparseVector.from_list": lambda split, x: SparseVector.from_list([x, 0]).entries,
    "SparseMatrix": lambda split, x: SparseMatrix(1, 2, {(0, 1): x}).entries,
    "Chain": lambda split, x: Chain(0, split, {(0,): x}).terms,
    "scaled": lambda split, x: SparseVector.unit(2, 0).scaled(x).entries,
}


@pytest.mark.parametrize("store", STORES.values(), ids=list(STORES))
@pytest.mark.parametrize("value, error", [
    (0.1, TypeError), (2.0, TypeError), (Decimal("0.5"), TypeError),
    (1j, TypeError), (None, TypeError), (b"1", TypeError),
    # strings are read by `parse_scalar`, which takes only ASCII literals
    ("\u0663", ValueError), ("1.5", ValueError), ("1/0", ValueError),
])
def test_non_rational_scalars_are_refused(t2, store, value, error):
    with pytest.raises(error):
        store(t2.split, value)


@pytest.mark.parametrize("store", STORES.values(), ids=list(STORES))
def test_scalars_are_stored_int_where_integral(t2, store):
    for value, stored in (("-2/3", Fraction(-2, 3)), ("7", 7), (Fraction(6, 3), 2),
                          (5, 5), (True, 1)):
        [kept] = store(t2.split, value).values()
        assert kept == stored and type(kept) is type(stored), value
        assert stored_exactly([kept])


def _matrix(rows):
    """The `SparseMatrix` with the dense rows `rows`."""
    return SparseMatrix(len(rows), len(rows[0]), {
        (r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)})


def _rref(record):
    """{(row, col): value}: the reduced row echelon form read from an
    `Echelon` record, each reduced row divided by its pivot entry."""
    return {(i, j): Fraction(v, row[c])
            for i, (row, c) in enumerate(zip(record.reduced, record.pivots))
            for j, v in row.items()}


def test_echelon_of_identity():
    record = echelon(_matrix([[1, 0], [0, 1]]))
    assert _rref(record) == {(0, 0): 1, (1, 1): 1}
    assert record.pivots == [0, 1]


def test_echelon_of_zero_matrix():
    record = echelon(SparseMatrix(2, 3))
    assert _rref(record) == {}
    assert record.pivots == []


def test_echelon_of_rank_one():
    # hand Gaussian elimination: R2 <- R2 - 2 R1
    record = echelon(_matrix([[1, 2], [2, 4]]))
    assert _rref(record) == {(0, 0): 1, (0, 1): 2}
    assert record.pivots == [0]


def test_solve_identity():
    m = _matrix([[1, 0], [0, 1]])
    v = SparseVector.from_list([5, -7])
    assert solve(m, v) == v


def test_solve_zeroes_free_variables():
    m = _matrix([[1, 1]])
    x = solve(m, SparseVector.from_list([2]))
    assert x == SparseVector.from_list([2, 0])


def test_solve_inconsistent():
    m = _matrix([[1], [1]])
    result = solve(m, SparseVector.from_list([1, 2]))
    assert isinstance(result, Unsolvable)


def test_solve_rejects_dimension_mismatch():
    m = _matrix([[1, 0]])
    with pytest.raises(ValueError):
        solve(m, SparseVector.from_list([1, 2]))


def test_kernel_of_identity_is_empty():
    assert kernel_basis(_matrix([[1, 0], [0, 1]])) == []


def _random_matrix(rng, rows, cols, density=0.4):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = Fraction(rng.randint(-4, 4))
    return SparseMatrix(rows, cols, {k: v for k, v in entries.items() if v})


def test_rank_nullity_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert len(kernel_basis(m)) + len(echelon(m).pivots) == m.cols


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        for v in kernel_basis(m):
            assert m.matvec(v).is_zero()


def test_solutions_are_exact_on_random_consistent_systems():
    rng = random.Random(99)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        x0 = SparseVector(
            m.cols, {c: Fraction(rng.randint(-3, 3)) for c in range(m.cols)}
        )
        rhs = m.matvec(x0)
        x = solve(m, rhs)
        assert not isinstance(x, Unsolvable)
        assert m.matvec(x) == rhs


def test_solve_is_deterministic():
    rng = random.Random(4)
    m = _random_matrix(rng, 5, 7)
    rhs = m.matvec(SparseVector.from_list([1, 2, 3, 0, -1, 1, 2]))
    first = solve(m, rhs)
    second = solve(m, rhs)
    assert first == second
    assert first.entries == second.entries


def test_invert_round_trip():
    m = _matrix([[2, 1], [1, 1]])
    inv = invert(m)
    prod = [[sum(m.entries.get((r, k), 0) * inv.entries.get((k, c), 0)
                 for k in range(2)) for c in range(2)] for r in range(2)]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        invert(_matrix([[1, 2], [2, 4]]))


def test_incremental_span_membership():
    span = IncrementalSpan(3)
    assert span.add(SparseVector.from_list([1, 1, 0]))
    assert not span.add(SparseVector.from_list([2, 2, 0]))
    assert span.contains(SparseVector.from_list([-1, -1, 0]))
    assert not span.contains(SparseVector.from_list([1, 0, 0]))
    assert span.add(SparseVector.from_list([0, 0, 5]))
    assert len(span) == 2


# Reference elimination: plain dense Gauss-Jordan over Fractions, sharing
# nothing with excisionlab.linalg.  The reduced row echelon form is unique,
# so any correct elimination must agree with it exactly.


def _dense(matrix):
    return [[matrix.entries.get((r, c), Fraction(0)) for c in range(matrix.cols)]
            for r in range(matrix.rows)]


def _reference_rref(dense, ncols):
    # read as `Fraction`s: the library stores integral values as `int`, and
    # the `/` below must stay exact
    rows = [[Fraction(x) for x in row] for row in dense]
    pivots = []
    top = 0
    for c in range(ncols):
        sel = next((i for i in range(top, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        pv = rows[top][c]
        rows[top] = [x / pv for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[top])]
        pivots.append(c)
        top += 1
    return rows, pivots


def _reference_solve(dense, ncols, rhs):
    aug = [row + [rhs[r]] for r, row in enumerate(dense)]
    rows, pivots = _reference_rref(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return Unsolvable(row=len(pivots) - 1)
    return {c: rows[r][ncols] for r, c in enumerate(pivots) if rows[r][ncols]}


def _reference_kernel(dense, ncols):
    rows, pivots = _reference_rref(dense, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = {f: Fraction(1)}
        for r, c in enumerate(pivots):
            if rows[r][f]:
                v[c] = -rows[r][f]
        basis.append(v)
    return basis


def _awkward_matrix(rng):
    """Sparse rational matrix with planted zero columns, zero rows and
    duplicate (scaled) rows, so that many are rank-deficient."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    dense = [[Fraction(0)] * ncols for _ in range(nrows)]
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < 0.3:
                dense[r][c] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if ncols > 1 and rng.random() < 0.5:
        zero_col = rng.randrange(ncols)
        for row in dense:
            row[zero_col] = Fraction(0)
    if nrows > 1 and rng.random() < 0.5:
        a, b = rng.sample(range(nrows), 2)
        scale = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        dense[b] = [scale * x for x in dense[a]]
    if nrows > 1 and rng.random() < 0.3:
        dense[rng.randrange(nrows)] = [Fraction(0)] * ncols
    entries = {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row) if v}
    return SparseMatrix(nrows, ncols, entries)


def _big_rational(rng):
    return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))


def _large_matrix(rng):
    """Sparse matrix of large-magnitude rationals (numerators up to 1e12,
    denominators up to 1e6) with a planted scaled duplicate row, so that
    the integer scaling and the gcd reductions of the elimination are
    exercised far from small entries."""
    nrows, ncols = rng.randint(2, 7), rng.randint(1, 7)
    dense = [[Fraction(0)] * ncols for _ in range(nrows)]
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < 0.5:
                dense[r][c] = _big_rational(rng)
    a, b = rng.sample(range(nrows), 2)
    scale = Fraction(rng.randint(-10**9, 10**9) or 1, rng.randint(1, 10**6))
    dense[b] = [scale * x for x in dense[a]]
    entries = {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row) if v}
    return SparseMatrix(nrows, ncols, entries)


def _square_matrix(rng):
    """Square matrix, nonsingular more often than not, for `invert`."""
    n = rng.randint(1, 6)
    big = rng.random() < 0.5
    entries = {}
    for r in range(n):
        for c in range(n):
            if r == c or rng.random() < 0.4:
                if big:
                    value = _big_rational(rng)
                else:
                    value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if value:
                    entries[(r, c)] = value
    return SparseMatrix(n, n, entries)


def _far_pivot_matrix():
    """Column 0 is nonzero only in the last of eight rows, so the first
    pivot row must come up from the bottom."""
    entries = {(7, 0): Fraction(3), (7, 2): Fraction(1, 2)}
    for r in range(7):
        entries[(r, 1 + r % 3)] = Fraction(r + 1)
        entries[(r, 4)] = Fraction(-1, r + 1)
    return SparseMatrix(8, 5, entries)


def _permuted_block_matrix(rng):
    """Two to four small random blocks on the diagonal, then a seeded
    permutation of the rows and one of the columns, so that the blocks are
    scattered across the matrix."""
    blocks = []
    for _ in range(rng.randint(2, 4)):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        blocks.append([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        if rng.random() < 0.6 else Fraction(0)
                        for _ in range(ncols)] for _ in range(nrows)])
    nrows = sum(len(b) for b in blocks)
    ncols = sum(len(b[0]) for b in blocks)
    row_perm, col_perm = list(range(nrows)), list(range(ncols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    entries = {}
    top = left = 0
    for block in blocks:
        for r, row in enumerate(block):
            for c, v in enumerate(row):
                if v:
                    entries[(row_perm[top + r], col_perm[left + c])] = v
        top, left = top + len(block), left + len(block[0])
    return SparseMatrix(nrows, ncols, entries)


def test_elimination_matches_dense_reference():
    rng = random.Random(31415)
    matrices = (
        [_far_pivot_matrix()]
        + [_awkward_matrix(rng) for _ in range(240)]
        + [_large_matrix(rng) for _ in range(40)]
        + [_square_matrix(rng) for _ in range(60)]
    )
    block_rng = random.Random(16180)
    blocks = [_permuted_block_matrix(block_rng) for _ in range(60)]
    matrices += blocks
    seen = {"deficient": 0, "inconsistent": 0, "consistent": 0,
            "inverted": 0, "singular": 0}
    for m in matrices:
        dense = _dense(m)
        ref_rows, ref_pivots = _reference_rref(dense, m.cols)
        ref_kernel = _reference_kernel(dense, m.cols)
        record = echelon(m)
        snapshot = copy.deepcopy(record)
        assert record.pivots == ref_pivots
        reduced = _rref(record)
        assert reduced == {
            (r, c): v for r, row in enumerate(ref_rows) for c, v in enumerate(row) if v
        }
        # each reduced row is kept as a primitive integer row, pivot entry > 0
        for row, c in zip(record.reduced, record.pivots):
            assert all(type(v) is int for v in row.values())
            assert gcd(*row.values()) == 1 and row[c] > 0
        if len(ref_pivots) < min(m.rows, m.cols):
            seen["deficient"] += 1

        kernel = kernel_basis(m)
        assert [v.entries for v in kernel] == ref_kernel
        assert all(v.dimension == m.cols for v in kernel)
        assert all(stored_exactly(v.entries.values()) for v in kernel)

        if m.rows == m.cols:
            n = m.rows
            identity = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
            aug_rows, aug_pivots = _reference_rref(
                [row + identity[r] for r, row in enumerate(dense)], 2 * n
            )
            if aug_pivots[:n] == list(range(n)):
                seen["inverted"] += 1
                inverse = invert(m)
                assert inverse.entries == {
                    (r, c): aug_rows[r][n + c]
                    for r in range(n) for c in range(n) if aug_rows[r][n + c]
                }
                assert stored_exactly(inverse.entries.values())
            else:
                seen["singular"] += 1
                with pytest.raises(ValueError):
                    invert(m)

        # one record answers every question, read as often as asked
        assert _rref(record) == reduced and record.pivots == ref_pivots
        assert [v.entries for v in kernel_basis(record)] == ref_kernel
        free = record.free_columns()
        chosen = free[::2]
        assert [v.entries for v in kernel_basis(record, chosen)] == [
            ref_kernel[free.index(f)] for f in chosen]

        solutions = []
        for _ in range(2):
            x0 = SparseVector(m.cols, {c: rng.randint(-2, 2) for c in range(m.cols)})
            solutions.append(m.matvec(x0))
        planted = SparseVector(
            m.rows, {r: Fraction(rng.randint(-3, 3), 2) for r in range(m.rows)}
        )
        for rhs in solutions + [planted, SparseVector(m.rows)]:
            expected = _reference_solve(dense, m.cols, rhs.to_list())
            for result in (solve(m, rhs), solve(record, rhs)):
                if isinstance(expected, Unsolvable):
                    assert result == expected
                else:
                    assert isinstance(result, SparseVector)
                    assert result.entries == expected
                    assert stored_exactly(result.entries.values())
            if isinstance(expected, Unsolvable):
                seen["inconsistent"] += 1
            else:
                seen["consistent"] += 1
        assert record == snapshot
    assert seen["deficient"] >= 50
    assert seen["inconsistent"] >= 50
    assert seen["consistent"] >= 200
    assert seen["inverted"] >= 30
    assert seen["singular"] >= 10
    assert sum(1 for m in blocks if len(echelon(m).pivots) < min(m.rows, m.cols)) >= 10


def test_incremental_span_matches_reference_rank():
    rng = random.Random(2718)
    for _ in range(60):
        dim = rng.randint(1, 8)
        big = rng.random() < 0.5
        span = IncrementalSpan(dim)
        added = []
        for _ in range(rng.randint(1, 12)):
            pick = rng.random()
            if pick < 0.15:
                vector = SparseVector(dim)
            elif pick < 0.4 and added:
                scale = Fraction(rng.choice([-7, -1, 2, 10**9]), rng.randint(1, 10**6))
                vector = rng.choice(added).scaled(scale)
            else:
                entries = {}
                for c in range(dim):
                    if rng.random() < 0.4:
                        if big:
                            entries[c] = _big_rational(rng)
                        else:
                            entries[c] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                vector = SparseVector(dim, entries)
            before = len(_reference_rref([v.to_list() for v in added], dim)[1])
            after = len(_reference_rref([v.to_list() for v in added + [vector]], dim)[1])
            assert span.contains(vector) == (after == before)
            assert span.add(vector) == (after > before)
            added.append(vector)
            assert len(span) == after
            assert span.contains(vector)


def test_far_pivot_is_swapped_up():
    m = _far_pivot_matrix()
    assert [r for (r, c) in m.entries if c == 0] == [7]
    record = echelon(m)
    reduced = _rref(record)
    assert record.pivots[0] == 0
    assert reduced[(0, 0)] == 1
    assert [r for (r, c) in reduced if c == 0] == [0]
