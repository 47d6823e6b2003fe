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
`kernel_basis` reads; `solve` eliminates the matrix with its right-hand side
as one more column, and `invert` the matrix beside the identity, each once
and by the same `_eliminate`.  Elimination is fraction-free:
rows are kept as primitive integer rows (no common factor, no
denominators), and a value becomes a `Fraction` only when a reduced entry
is read out as the quotient of an integer entry by its row's pivot entry.
The reduced row echelon form is unique, so pivots, kernels and solutions
are exactly those of Gauss-Jordan over `Fraction`; only the cost differs.
Where only pivots are read, `_pivot_columns` reduces row by row against the
rows kept so far (`_reduce`, shared with `IncrementalSpan`).
`invert` is the one matrix inverse: a split basis inverts its basis matrix
through it.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

_SCALAR_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


class InvariantError(RuntimeError):
    """An identity the library proves failed: a bug, never a property of the
    input.  `chain`, where there is one, is the offending chain, attached
    for inspection."""

    def __init__(self, message, chain=None):
        self.chain = chain
        super().__init__(message)


def parse_scalar(text):
    """Parse an exact rational literal "p" or "p/q" in ASCII digits, q > 0.

    Anything else (floats, scientific notation, negative denominators, spaces,
    newlines, "_" separators, other digits) is rejected, so a file containing
    "1.5" fails loudly instead of being silently coerced.
    """
    if type(text) is str:
        # an integer literal, most of a document's scalars, without the regex
        digits = text[1:] if text[:1] == "-" else text
        if digits.isdigit() and digits.isascii():
            return int(text)
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
    if type(value) is int:  # not bool, whose str is "True"
        return str(value)
    return str(Fraction(value))


def _accumulate(store, key, value):
    """Add `value` into `store[key]`, dropping the key when the sum is zero.

    The one sparse-sum step of the library: vectors, chains and tensor
    expansions accumulate through it, and the elimination loops and the
    face walk of the differential (`chains._add_boundary`) sum inline in
    the same way, so a stored value is never zero.
    """
    total = store.get(key, 0) + value
    if total:
        store[key] = total
    else:
        store.pop(key, None)


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
        self.dimension = operator.index(dimension)
        clean = {}
        if entries:
            for index, value in entries.items():
                # an `int` is already in both normal forms
                if type(index) is not int:
                    index = operator.index(index)
                if not 0 <= index < self.dimension:
                    raise ValueError(
                        f"index {index} out of range for dimension {self.dimension}"
                    )
                if type(value) is not int:
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
        return hash((self.dimension, frozenset(self.entries.items())))

    def __repr__(self):
        body = ", ".join(f"{i}: {v}" for i, v in self.items())
        return f"SparseVector({self.dimension}, {{{body}}})"


class SparseMatrix:
    """Sparse matrix over Q with entries indexed by (row, col)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = operator.index(rows)
        self.cols = operator.index(cols)
        clean = {}
        if entries:
            for (r, c), value in entries.items():
                r, c = operator.index(r), operator.index(c)
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
    """The primitive integer row on the line of a rational row dict: the row
    scaled by the lcm of its denominators, then divided by the gcd of its
    entries.  Elimination depends only on the line of each row, so a row of
    one entry becomes {j: 1}; that and the short path for integer rows (with
    `_exact` storage, the rows without a `Fraction`) matter for the small
    local-unit systems solved for every class."""
    if len(row) == 1:
        [j] = row
        return {j: 1}
    if all(type(v) is int for v in row.values()):
        ints = dict(row)
    else:
        den = lcm(*[v.denominator for v in row.values()])
        ints = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
    _divide_content(ints)
    return ints


def _divide_content(row):
    """Divide an integer row dict in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


class Echelon(namedtuple("Echelon", "cols pivots reduced")):
    """One elimination of a matrix with `cols` columns, read in place of the
    matrix by `kernel_basis`: per pivot column (`pivots`), a positive
    integer multiple of its row of the reduced row echelon form
    (`reduced`)."""

    __slots__ = ()

    def free_columns(self):
        pivots = set(self.pivots)
        return [c for c in range(self.cols) if c not in pivots]


def _eliminate(rows, cols):
    """In-place fraction-free Gauss-Jordan on row dicts; returns the fields
    `pivots` and `reduced` of `Echelon`.

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
    for i, row in enumerate(rows):
        if row:
            rows[i] = row = _primitive(row)
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
        a = pivot_row[col]
        if a < 0:
            a = -a
            for j in pivot_row:
                pivot_row[j] = -pivot_row[j]
        pivot_items = [(j, v) for j, v in pivot_row.items() if j != col]
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
            _divide_content(target)
        pivots.append(col)
        pivot_rows.append(sel)
        used.add(sel)
        if len(pivots) == nrows:
            break
    return pivots, [rows[i] for i in pivot_rows]


def _reduce(leads, row):
    """Reduce the primitive integer row dict `row` in place, fraction-free,
    against `leads` (leading column -> primitive integer row) until it is
    empty or its leading column leads no row there; return it."""
    while row:
        lead = min(row)
        pivot = leads.get(lead)
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


def _pivot_columns(rows, cols):
    """`_eliminate(rows, cols)[0]` for the row dicts `rows`, left unchanged:
    each row is reduced against the rows kept before it and kept under its
    leading column if anything is left.  Every echelon basis of a row space
    has the pivots of its RREF as leading columns.  Stops at full rank."""
    leads = {}
    for row in rows:
        if row:
            row = _reduce(leads, _primitive(row))
            if row:
                leads[min(row)] = row
                if len(leads) == cols:
                    break
    return sorted(leads)


def _rows(matrix):
    """The rows of `matrix` as dicts {column: value}, for `_eliminate`."""
    rows = [{} for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    return rows


def echelon(matrix):
    """Eliminate the `SparseMatrix` `matrix` once and return its `Echelon`
    record."""
    return Echelon(matrix.cols, *_eliminate(_rows(matrix), matrix.cols))


def solve(matrix, rhs):
    """One exact solution of matrix @ x = rhs, or an Unsolvable witness.

    Free variables are set to zero, so the answer is unique and reproducible.
    `rhs` is column `cols` of one elimination of `[matrix | rhs]`: a pivot
    there is the last one, and its echelon row reads 0 = nonzero; otherwise
    each pivot row gives x_c = row[cols] / row[c].
    """
    if rhs.dimension != matrix.rows:
        raise ValueError("rhs dimension must equal the matrix row count")
    n = matrix.cols
    rows = _rows(matrix)
    for r, v in rhs.entries.items():
        rows[r][n] = v
    pivots, reduced = _eliminate(rows, n + 1)
    if pivots and pivots[-1] == n:
        return Unsolvable(row=len(pivots) - 1)
    return SparseVector(n, {c: Fraction(row[n], row[c])
                            for row, c in zip(reduced, pivots) if n in row})


def kernel_basis(system, free=None):
    """Deterministic basis of the null space, one vector per free column
    (only those in `free` if given): 1 there, 0 at every other free column.
    `system` is a matrix or its `Echelon` record."""
    record = system if type(system) is Echelon else echelon(system)
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
    """Exact inverse of a nonsingular square matrix, by one elimination of
    `[matrix | 1]`: the parent -> split coordinate change of every
    `algebra.SplitBasis`.  The matrix is singular exactly when the last
    pivot lies in the identity's columns."""
    if matrix.rows != matrix.cols:
        raise ValueError("only square matrices can be inverted")
    n = matrix.rows
    rows = _rows(matrix)
    for r in range(n):
        rows[r][n + r] = 1
    pivots, reduced = _eliminate(rows, 2 * n)
    if pivots and pivots[-1] >= n:
        raise ValueError("matrix is singular")
    return SparseMatrix(n, n, {
        (r, c): Fraction(row[n + c], row[r])
        for c in range(n) for r, row in enumerate(reduced) if n + c in row})


class IncrementalSpan:
    """A growing subspace kept in echelon form.

    `add` returns True exactly when the vector enlarges the span.  Used to
    check that an ideal basis is independent and to complete it to a split
    basis.  Rows are stored as primitive integer rows with a positive leading
    entry and reduced fraction-free by `_reduce`; a vector is in the span
    exactly when it reduces to zero, whatever nonzero multiple of each row
    is stored, so the answers are those of reduction over `Fraction`.
    """

    def __init__(self, dimension):
        self.dimension = dimension
        self._rows = {}  # leading column -> primitive integer row dict

    def add(self, vector):
        if vector.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        row = _reduce(self._rows, _primitive(vector.entries))
        if not row:
            return False
        lead = min(row)
        if row[lead] < 0:
            row = {j: -v for j, v in row.items()}
        self._rows[lead] = row
        return True

    def __len__(self):
        return len(self._rows)
