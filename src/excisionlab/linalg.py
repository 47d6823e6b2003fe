"""Exact sparse linear algebra over the rationals.

Scalars are `fractions.Fraction`, so nothing is ever rounded, and every
routine here is a pure function of its inputs: the same input produces a
bit-identical output.  Underdetermined solves are resolved deterministically
by setting every free variable to zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_SCALAR_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_scalar(text):
    """Parse an exact rational literal "p" or "p/q" with q > 0.

    Anything else (floats, scientific notation, negative denominators) is
    rejected, so a file containing "1.5" fails loudly instead of being
    silently coerced.
    """
    if not isinstance(text, str) or _SCALAR_RE.match(text) is None:
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(text)


def format_scalar(value):
    return str(Fraction(value))


class SparseVector:
    """Sparse vector over Q; only nonzero entries are stored.

    Treated as immutable: all operations return new vectors.
    """

    __slots__ = ("dimension", "entries")

    def __init__(self, dimension, entries=None):
        self.dimension = int(dimension)
        clean = {}
        if entries:
            for index, value in entries.items():
                index = int(index)
                if not 0 <= index < self.dimension:
                    raise ValueError(
                        f"index {index} out of range for dimension {self.dimension}"
                    )
                value = Fraction(value)
                if value:
                    clean[index] = value
        self.entries = clean

    @classmethod
    def from_list(cls, values):
        return cls(len(values), {i: Fraction(v) for i, v in enumerate(values)})

    @classmethod
    def unit(cls, dimension, index):
        return cls(dimension, {index: ONE})

    def get(self, index):
        return self.entries.get(index, ZERO)

    def items(self):
        """Entries in ascending index order (deterministic iteration)."""
        return sorted(self.entries.items())

    def is_zero(self):
        return not self.entries

    def support(self):
        return tuple(sorted(self.entries))

    def to_list(self):
        return [self.get(i) for i in range(self.dimension)]

    def scaled(self, factor):
        factor = Fraction(factor)
        if not factor:
            return SparseVector(self.dimension)
        return SparseVector(
            self.dimension, {i: factor * v for i, v in self.entries.items()}
        )

    def __add__(self, other):
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        out = dict(self.entries)
        for i, v in other.entries.items():
            nv = out.get(i, ZERO) + v
            if nv:
                out[i] = nv
            else:
                out.pop(i, None)
        return SparseVector(self.dimension, out)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def __eq__(self, other):
        return (
            isinstance(other, SparseVector)
            and self.dimension == other.dimension
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dimension, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        body = ", ".join(f"{i}: {v}" for i, v in self.items())
        return f"SparseVector({self.dimension}, {{{body}}})"


class SparseMatrix:
    """Sparse matrix over Q with entries indexed by (row, col)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = int(rows)
        self.cols = int(cols)
        clean = {}
        if entries:
            for (r, c), value in entries.items():
                r, c = int(r), int(c)
                if not (0 <= r < self.rows and 0 <= c < self.cols):
                    raise ValueError(f"entry ({r}, {c}) out of range")
                value = Fraction(value)
                if value:
                    clean[(r, c)] = value
        self.entries = clean

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows_list else 0
        entries = {}
        for r, row in enumerate(rows_list):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = Fraction(v)
                if v:
                    entries[(r, c)] = v
        return cls(rows, cols, entries)

    @classmethod
    def from_columns(cls, columns, rows=None):
        if rows is None:
            if not columns:
                raise ValueError("cannot infer row count from zero columns")
            rows = columns[0].dimension
        entries = {}
        for c, vec in enumerate(columns):
            if vec.dimension != rows:
                raise ValueError("dimension mismatch among columns")
            for r, v in vec.entries.items():
                entries[(r, c)] = v
        return cls(rows, len(columns), entries)

    def column(self, c):
        return SparseVector(
            self.rows, {r: v for (r, cc), v in self.entries.items() if cc == c}
        )

    def matvec(self, vec):
        if vec.dimension != self.cols:
            raise ValueError("dimension mismatch")
        out = {}
        for (r, c), v in self.entries.items():
            x = vec.entries.get(c)
            if x:
                nv = out.get(r, ZERO) + v * x
                if nv:
                    out[r] = nv
                else:
                    out.pop(r, None)
        return SparseVector(self.rows, out)

    def to_dense(self):
        return [
            [self.entries.get((r, c), ZERO) for c in range(self.cols)]
            for r in range(self.rows)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


@dataclass(frozen=True)
class Unsolvable:
    """Witness of an inconsistent system: the echelon row where 0 = nonzero."""

    row: int


@dataclass(frozen=True)
class NotInSpan:
    row: int


def _row_dicts(matrix):
    rows = [dict() for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    return rows


def _eliminate(rows, cols):
    """In-place Gauss-Jordan on row dicts; returns pivot column list.

    A column -> rows index means the pivot search and the sweep touch only
    the rows holding the pivot column.  Of those, the first row not yet used
    as a pivot becomes the pivot.  The reduced row echelon form is unique,
    so the result does not depend on that choice: on return, rows[r] is the
    reduced row of pivot r and the remaining rows are empty.
    """
    holders = {}  # column -> indices of the rows with a nonzero entry there
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    pivots = []
    pivot_rows = []
    used = set()
    nrows = len(rows)
    for col in range(cols):
        sel = min((i for i in holders.get(col, ()) if i not in used), default=None)
        if sel is None:
            continue
        pivot_row = rows[sel]
        pv = pivot_row[col]
        if pv != 1:
            for j in pivot_row:
                pivot_row[j] /= pv
        for i in holders.pop(col):
            if i == sel:
                continue
            target = rows[i]
            factor = target[col]
            for j, pvj in pivot_row.items():
                nv = target.get(j, ZERO) - factor * pvj
                if nv:
                    if j not in target:
                        holders[j].add(i)
                    target[j] = nv
                elif j != col:
                    del target[j]
                    holders[j].discard(i)
            del target[col]
        pivots.append(col)
        pivot_rows.append(sel)
        used.add(sel)
        if len(pivots) == nrows:
            break
    rows[:] = [rows[i] for i in pivot_rows] + [
        row for i, row in enumerate(rows) if i not in used
    ]
    return pivots


def rref(matrix):
    """Reduced row echelon form and its pivot columns."""
    rows = _row_dicts(matrix)
    pivots = _eliminate(rows, matrix.cols)
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}
    return SparseMatrix(matrix.rows, matrix.cols, entries), pivots


def rank(matrix):
    return len(rref(matrix)[1])


def solve(matrix, rhs):
    """One exact solution of matrix @ x = rhs, or an Unsolvable witness.

    Free variables are set to zero, so the answer is unique and reproducible.
    """
    if rhs.dimension != matrix.rows:
        raise ValueError("rhs dimension must equal the matrix row count")
    rows = _row_dicts(matrix)
    aug = matrix.cols
    for r, v in rhs.entries.items():
        rows[r][aug] = v
    pivots = _eliminate(rows, aug + 1)
    if pivots and pivots[-1] == aug:
        return Unsolvable(row=len(pivots) - 1)
    x = {}
    for r, c in enumerate(pivots):
        v = rows[r].get(aug)
        if v:
            x[c] = v
    return SparseVector(matrix.cols, x)


def kernel_basis(matrix):
    """Deterministic basis of the null space, one vector per free column."""
    rows = _row_dicts(matrix)
    pivots = _eliminate(rows, matrix.cols)
    pivot_set = set(pivots)
    free = [c for c in range(matrix.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = {f: ONE}
        for r, c in enumerate(pivots):
            coeff = rows[r].get(f)
            if coeff:
                v[c] = -coeff
        basis.append(SparseVector(matrix.cols, v))
    return basis


def image_basis(matrix):
    """Columns of the original matrix at the rref pivot positions."""
    pivots = _eliminate(_row_dicts(matrix), matrix.cols)
    slot = {c: k for k, c in enumerate(pivots)}
    columns = [{} for _ in pivots]
    for (r, c), v in matrix.entries.items():
        k = slot.get(c)
        if k is not None:
            columns[k][r] = v
    return [SparseVector(matrix.rows, column) for column in columns]


def in_span(vector, basis):
    """Expansion coefficients of `vector` over `basis`, or NotInSpan."""
    for b in basis:
        if b.dimension != vector.dimension:
            raise ValueError("dimension mismatch between vector and basis")
    if not basis:
        if vector.is_zero():
            return []
        return NotInSpan(row=0)
    result = solve(SparseMatrix.from_columns(basis), vector)
    if isinstance(result, Unsolvable):
        return NotInSpan(row=result.row)
    return [result.get(j) for j in range(len(basis))]


def invert(matrix):
    """Exact inverse of a nonsingular square matrix."""
    if matrix.rows != matrix.cols:
        raise ValueError("only square matrices can be inverted")
    n = matrix.rows
    rows = _row_dicts(matrix)
    for r in range(n):
        rows[r][n + r] = ONE
    pivots = _eliminate(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    entries = {}
    for r, row in enumerate(rows):
        for j, v in row.items():
            if j >= n:
                entries[(r, j - n)] = v
    return SparseMatrix(n, n, entries)


class IncrementalSpan:
    """A growing subspace kept in echelon form.

    `add` returns True exactly when the vector enlarges the span; `contains`
    is exact membership.  Used to pick homology representatives and to filter
    cycles modulo boundaries.
    """

    def __init__(self, dimension):
        self.dimension = dimension
        self._rows = {}  # leading column -> normalized row dict

    def _reduce(self, vector):
        row = dict(vector.entries)
        while row:
            lead = min(row)
            pivot = self._rows.get(lead)
            if pivot is None:
                return row
            factor = row[lead]
            for j, pv in pivot.items():
                nv = row.get(j, ZERO) - factor * pv
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
        return row

    def add(self, vector):
        if vector.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        row = self._reduce(vector)
        if not row:
            return False
        lead = min(row)
        pv = row[lead]
        if pv != 1:
            row = {j: v / pv for j, v in row.items()}
        self._rows[lead] = row
        return True

    def contains(self, vector):
        if vector.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return not self._reduce(vector)

    def __len__(self):
        return len(self._rows)
