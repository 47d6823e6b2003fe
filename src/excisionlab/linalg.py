"""Exact sparse linear algebra over the rationals.

Every stored scalar is exact and in one normal form, chosen by `_exact`: an
`int` where the value is integral and a `fractions.Fraction` only where it
is not.  `SparseVector`, `SparseMatrix` and `chains.Chain` store their
values so, integer arithmetic is used wherever the values allow it, and
nothing is ever rounded: a float, or any other inexact value, is refused.
Every routine here is a pure function of its inputs: the same input
produces a bit-identical output.  Underdetermined solves are resolved
deterministically by setting every free variable to zero.

A matrix is eliminated once, by `echelon`, into an `Echelon` record that
`kernel_basis` and `solve` read; a solve replays the record's integer log
of row operations on its right-hand side.  Elimination is fraction-free:
rows are kept as primitive integer rows (no common factor, no
denominators), and a value becomes a `Fraction` only when a reduced entry
is read out as the quotient of an integer entry by its row's pivot entry.
The reduced row echelon form is unique, so pivots, kernels and solutions
are exactly those of Gauss-Jordan over `Fraction`; only the cost differs.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

_SCALAR_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def parse_scalar(text):
    """Parse an exact rational literal "p" or "p/q" in ASCII digits, q > 0.

    Anything else (floats, scientific notation, negative denominators, spaces,
    newlines, "_" separators, other digits) is rejected, so a file containing
    "1.5" fails loudly instead of being silently coerced.
    """
    match = _SCALAR_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not an exact rational literal: {text!r}")
    p, q = match.groups()
    return int(p) if q is None else _exact(Fraction(int(p), int(q)))


def _exact(value):
    """The stored form of the exact scalar `value`: an `int` where it is
    integral, else a `Fraction`.  A string is read by `parse_scalar`; a
    float, `Decimal`, complex or any other value raises TypeError, so
    nothing inexact is ever stored."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"not an exact rational scalar: {value!r}")


def format_scalar(value):
    return str(Fraction(value))


def _accumulate(store, key, value):
    """Add `value` into `store[key]`, dropping the key when the sum is zero.

    The one sparse-sum step of the library: vectors, chains and tensor
    expansions all accumulate through it, so a stored value is never zero.
    """
    total = store.get(key, 0) + value
    if total:
        store[key] = total
    else:
        store.pop(key, None)


def _combination(dimension, terms):
    """The vector sum of `coeff · vector` over the (coeff, vector) pairs of
    `terms`, accumulated in one dict and built once."""
    out = {}
    for coeff, vector in terms:
        for i, v in vector.entries.items():
            _accumulate(out, i, coeff * v)
    return SparseVector(dimension, out)


class _Sparse:
    """The arithmetic that `SparseVector` and `chains.Chain` share.

    A subclass supplies the dict of nonzero values (`_values`), a sibling in
    the same space with other values (`_like`) and the check that two
    operands live in one space (`_require_same_space`).
    """

    __slots__ = ()

    def is_zero(self):
        return not self._values()

    def items(self):
        """Values in ascending key order (deterministic iteration)."""
        return sorted(self._values().items())

    def scaled(self, factor):
        factor = _exact(factor)
        if not factor:
            return self._like({})
        return self._like({k: factor * v for k, v in self._values().items()})

    def _sum(self, other, negate):
        self._require_same_space(other)
        out = dict(self._values())
        for k, v in other._values().items():
            _accumulate(out, k, -v if negate else v)
        return self._like(out)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        return self.scaled(-1)


class SparseVector(_Sparse):
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
                value = _exact(value)
                if value:
                    clean[index] = value
        self.entries = clean

    def _values(self):
        return self.entries

    def _like(self, entries):
        return SparseVector(self.dimension, entries)

    def _require_same_space(self, other):
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")

    @classmethod
    def from_list(cls, values):
        return cls(len(values), dict(enumerate(values)))

    @classmethod
    def unit(cls, dimension, index):
        return cls(dimension, {index: 1})

    def get(self, index):
        return self.entries.get(index, 0)

    def to_list(self):
        return [self.get(i) for i in range(self.dimension)]

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
                value = _exact(value)
                if value:
                    clean[(r, c)] = value
        self.entries = clean

    @classmethod
    def _assembled(cls, rows, cols, entries):
        """The matrix with the nonzero `entries`, already in `_exact` form
        and in range, stored without a check: for matrices the library
        assembles itself, whose entries are many and correct by
        construction.  Callers must not mutate `entries` afterwards."""
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols, matrix.entries = rows, cols, entries
        return matrix

    @classmethod
    def from_columns(cls, columns, rows):
        entries = {}
        for c, vec in enumerate(columns):
            if vec.dimension != rows:
                raise ValueError("dimension mismatch among columns")
            for r, v in vec.entries.items():
                entries[(r, c)] = v
        return cls(rows, len(columns), entries)

    def matvec(self, vec):
        if vec.dimension != self.cols:
            raise ValueError("dimension mismatch")
        out = {}
        for (r, c), v in self.entries.items():
            x = vec.entries.get(c)
            if x:
                _accumulate(out, r, v * x)
        return SparseVector(self.rows, out)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


@dataclass(frozen=True)
class Unsolvable:
    """Witness of an inconsistent system: the echelon row where 0 = nonzero."""

    row: int


def _primitive(row):
    """(ints, p, q): the primitive integer row `ints` on the line of a
    rational row dict, equal to the row times p/q.  The row is scaled by the
    lcm of its denominators, then divided by the gcd of its entries.
    Elimination depends only on the line of each row, so a row of one entry
    becomes {j: 1}; that and the short path for integer rows (with `_exact`
    storage, the rows without a `Fraction`) matter for the small local-unit
    systems solved for every class."""
    if len(row) == 1:
        [(j, v)] = row.items()
        return {j: 1}, v.denominator, v.numerator
    if all(type(v) is int for v in row.values()):
        ints, den = dict(row), 1
    else:
        den = lcm(*[v.denominator for v in row.values()])
        ints = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
    return ints, den, _divide_content(ints)


def _divide_content(row):
    """Divide an integer row dict in place by the gcd of its entries and
    return that gcd (1 for an empty row)."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return g or 1


class Echelon(namedtuple(
        "Echelon", "rows cols entries pivots reduced order scales steps")):
    """One elimination, read in place of the matrix by `kernel_basis` and
    `solve`: the matrix's shape and (shared) `entries`; per pivot column, a
    positive integer multiple of its row of the reduced row echelon form
    (`reduced`) and the matrix row it came from (`order`); and the row
    operations, in integers: (row, p, q) in `scales` where a row became p/q
    times itself, and per pivot (row, sign flipped, [(target, a, b, g), ...])
    in `steps` for each `target = (a·target − b·pivot row) / g`."""

    __slots__ = ()

    def free_columns(self):
        pivots = set(self.pivots)
        return [c for c in range(self.cols) if c not in pivots]


def _eliminate(rows, cols):
    """In-place fraction-free Gauss-Jordan on row dicts; returns the fields
    `pivots`, `reduced`, `order`, `scales` and `steps` of `Echelon`.

    On entry each row is replaced by its primitive integer row
    (`_primitive`), and every row operation keeps it primitive: a pivot row
    is made to have a positive pivot entry `a`, and column `col` is cleared
    from a target row with entry `b` there by
    `target = (a/g)·target − (b/g)·pivot_row` with `g = gcd(a, b)`, after
    which the target is divided by the gcd of its entries.  Only integers
    are multiplied, so no operation pays for a `Fraction` normalisation.

    A column -> rows index means the pivot search and the sweep touch only
    the rows holding the pivot column.  Of those, the first row not yet used
    as a pivot becomes the pivot.  On return, the pivot rows are positive
    integer multiples of the rows of the reduced row echelon form and every
    other row is empty.  The reduced row echelon form is unique, so neither
    the pivot choice nor the integer scaling changes the pivots or the
    reduced rows.
    """
    holders = {}  # column -> indices of the rows with a nonzero entry there
    scales = []
    for i, row in enumerate(rows):
        if row:
            row, p, q = _primitive(row)
            rows[i] = row
            if p != q:
                scales.append((i, p, q))
            for j in row:
                holders.setdefault(j, set()).add(i)
    pivots = []
    pivot_rows = []
    steps = []
    used = set()
    nrows = len(rows)
    for col in range(cols):
        sel = min((i for i in holders.get(col, ()) if i not in used), default=None)
        if sel is None:
            continue
        pivot_row = rows[sel]
        a = pivot_row[col]
        flip = a < 0
        if flip:
            a = -a
            for j in pivot_row:
                pivot_row[j] = -pivot_row[j]
        pivot_items = [(j, v) for j, v in pivot_row.items() if j != col]
        ops = []
        for i in holders.pop(col):
            if i == sel:
                continue
            target = rows[i]
            b = target.pop(col)
            g = gcd(a, b)
            scale, factor = a // g, b // g
            if scale != 1:
                for j in target:
                    target[j] *= scale
            for j, pvj in pivot_items:
                old = target.get(j)
                if old is None:
                    target[j] = -factor * pvj
                    holders[j].add(i)
                else:
                    nv = old - factor * pvj
                    if nv:
                        target[j] = nv
                    else:
                        del target[j]
                        holders[j].discard(i)
            ops.append((i, scale, factor, _divide_content(target)))
        pivots.append(col)
        pivot_rows.append(sel)
        steps.append((sel, flip, ops))
        used.add(sel)
        if len(pivots) == nrows:
            break
    return pivots, [rows[i] for i in pivot_rows], pivot_rows, scales, steps


def echelon(matrix):
    """Eliminate the `SparseMatrix` `matrix` once and return its `Echelon`
    record."""
    rows = [{} for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    return Echelon(matrix.rows, matrix.cols, matrix.entries,
                   *_eliminate(rows, matrix.cols))


def _record(system):
    """The echelon record of `system`, a matrix or already a record."""
    return system if type(system) is Echelon else echelon(system)


def solve(system, rhs):
    """One exact solution of matrix @ x = rhs, or an Unsolvable witness.

    Free variables are set to zero, so the answer is unique and reproducible.
    The logged row operations are replayed on `rhs` in exact arithmetic,
    skipping zeros; any non-pivot row left nonzero makes echelon row
    `len(pivots)` read 0 = nonzero.
    """
    record = _record(system)
    if rhs.dimension != record.rows:
        raise ValueError("rhs dimension must equal the matrix row count")
    x = dict(rhs.entries)
    for i, p, q in record.scales:
        v = x.get(i)
        if v:
            x[i] = Fraction(v.numerator * p, v.denominator * q)
    for sel, flip, ops in record.steps:
        pv = x.get(sel, 0)
        if pv and flip:
            x[sel] = pv = -pv
        for i, a, b, g in ops:
            v = x.pop(i, 0)
            if v or pv:
                v = a * v - b * pv
                if v:
                    x[i] = Fraction(v, g) if g != 1 else v
    solution = {}
    for row, c, i in zip(record.reduced, record.pivots, record.order):
        v = x.pop(i, None)
        if v:
            solution[c] = Fraction(v.numerator, v.denominator * row[c])
    if x:
        return Unsolvable(row=len(record.pivots))
    return SparseVector(record.cols, solution)


def kernel_basis(system, free=None):
    """Deterministic basis of the null space, one vector per free column
    (only those in `free` if given): 1 there, 0 at every other free column."""
    record = _record(system)
    if free is None:
        free = record.free_columns()
    vectors = {f: {f: 1} for f in free}
    for row, c in zip(record.reduced, record.pivots):
        pv = row[c]
        for j, v in row.items():
            vector = vectors.get(j)
            if vector is not None:
                vector[c] = Fraction(-v, pv)
    return [SparseVector(record.cols, vectors[f]) for f in free]


def invert(matrix):
    """Exact inverse of a nonsingular square matrix, one solve per column."""
    if matrix.rows != matrix.cols:
        raise ValueError("only square matrices can be inverted")
    n = matrix.rows
    record = echelon(matrix)
    if len(record.pivots) < n:
        raise ValueError("matrix is singular")
    columns = [solve(record, SparseVector.unit(n, c)) for c in range(n)]
    return SparseMatrix.from_columns(columns, rows=n)


class IncrementalSpan:
    """A growing subspace kept in echelon form.

    `add` returns True exactly when the vector enlarges the span; `contains`
    is exact membership.  Used to check that an ideal basis is independent
    and its span two-sided, and to complete it to a split basis.  Rows are
    stored as primitive integer rows with a positive leading entry and
    reduced fraction-free, as in `_eliminate`; a vector is in the span
    exactly when it reduces to zero, whatever nonzero multiple of each row
    is stored, so the answers are those of reduction over `Fraction`.
    """

    def __init__(self, dimension):
        self.dimension = dimension
        self._rows = {}  # leading column -> primitive integer row dict

    def _reduce(self, vector):
        row = _primitive(vector.entries)[0]
        while row:
            lead = min(row)
            pivot = self._rows.get(lead)
            if pivot is None:
                return row
            a = pivot[lead]
            b = row.pop(lead)
            g = gcd(a, b)
            scale, factor = a // g, b // g
            if scale != 1:
                for j in row:
                    row[j] *= scale
            for j, pv in pivot.items():
                if j == lead:
                    continue
                nv = row.get(j, 0) - factor * pv
                if nv:
                    row[j] = nv
                else:
                    del row[j]
            _divide_content(row)
        return row

    def add(self, vector):
        if vector.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        row = self._reduce(vector)
        if not row:
            return False
        lead = min(row)
        if row[lead] < 0:
            row = {j: -v for j, v in row.items()}
        self._rows[lead] = row
        return True

    def contains(self, vector):
        if vector.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        return not self._reduce(vector)

    def __len__(self):
        return len(self._rows)
