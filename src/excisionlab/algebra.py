"""Finite-dimensional associative algebras over Q given by structure constants.

An algebra here need not be commutative and need not have a unit.  Ideals are
two-sided; a split basis lists an ideal basis first and a complement lifting
a basis of the quotient, and every chain-level computation downstream runs in
the coordinates of that ordered basis.

An algebra holds its structure constants once, in `Algebra.structure_table`;
products, equality, the associativity check and documents all read it.  Its
constants are stored as `linalg` stores every scalar, an `int` where
integral, so products run in `int` arithmetic wherever they can.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    IncrementalSpan,
    SparseMatrix,
    SparseVector,
    _accumulate,
    _combination,
    echelon,
    solve,
)


class Algebra:
    """Algebra presented extensionally: a basis and all pairwise products.

    The constructor's `structure_constants` maps (i, j) to the coordinates
    of e_i * e_j, a `SparseVector`; absent pairs multiply to zero.  They are
    kept as `structure_table`: (i, j) -> ((k, c), ...) for each nonzero
    product, by ascending k.  Associativity is not checked at construction,
    call `validate_algebra` for that.
    """

    __slots__ = ("dimension", "basis_labels", "structure_table")

    def __init__(self, dimension, basis_labels, structure_constants):
        self.dimension = int(dimension)
        if len(basis_labels) != self.dimension:
            raise ValueError("one label per basis element required")
        self.basis_labels = list(basis_labels)
        table = {}
        for (i, j), vec in structure_constants.items():
            i, j = int(i), int(j)
            if not (0 <= i < self.dimension and 0 <= j < self.dimension):
                raise ValueError(f"product index ({i}, {j}) out of range")
            if vec.dimension != self.dimension:
                raise ValueError(f"product ({i}, {j}) has wrong dimension")
            if not vec.is_zero():
                table[(i, j)] = tuple(vec.items())
        self.structure_table = table

    def mul(self, u, v):
        """Bilinear product of two coordinate vectors."""
        table = self.structure_table
        right = v.entries.items()
        out = {}
        for i, ci in u.entries.items():
            for j, cj in right:
                for k, c in table.get((i, j), ()):
                    _accumulate(out, k, ci * cj * c)
        return SparseVector(self.dimension, out)

    def basis_vector(self, i):
        return SparseVector.unit(self.dimension, i)

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.dimension == other.dimension
            and self.basis_labels == other.basis_labels
            and self.structure_table == other.structure_table
        )

    def __repr__(self):
        return f"Algebra(dim={self.dimension}, labels={self.basis_labels})"


@dataclass(frozen=True)
class AssociativityFailure:
    """Witnessing triple with both associations expanded."""

    i: int
    j: int
    k: int
    left_product: SparseVector
    right_product: SparseVector


def validate_algebra(algebra):
    """Check all dimension^3 associativity identities.

    Returns None when the structure constants define an associative product,
    otherwise the first failing triple in lexicographic order.
    """
    d = algebra.dimension
    table = algebra.structure_table
    for i in range(d):
        for j in range(d):
            ij = table.get((i, j), ())
            for k in range(d):
                left, right = {}, {}
                for m, c in ij:
                    for n, c2 in table.get((m, k), ()):
                        _accumulate(left, n, c * c2)
                for m, c in table.get((j, k), ()):
                    for n, c2 in table.get((i, m), ()):
                        _accumulate(right, n, c * c2)
                if left != right:
                    return AssociativityFailure(
                        i, j, k, SparseVector(d, left), SparseVector(d, right)
                    )
    return None


class Ideal:
    """A two-sided ideal, given by linearly independent basis vectors."""

    __slots__ = ("parent", "basis_vectors")

    def __init__(self, parent, basis_vectors):
        self.parent = parent
        vectors = list(basis_vectors)
        for v in vectors:
            if v.dimension != parent.dimension:
                raise ValueError("ideal vector dimension differs from the parent")
        self.basis_vectors = vectors

    @property
    def dimension(self):
        return len(self.basis_vectors)

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.parent == other.parent
            and self.basis_vectors == other.basis_vectors
        )

    def __repr__(self):
        return f"Ideal(dim={self.dimension} in {self.parent!r})"


@dataclass(frozen=True)
class NotTwoSided:
    """A product that escapes the span: side is "left" for a*x, "right" for x*a."""

    side: str
    algebra_index: int
    ideal_index: int
    product: SparseVector


def validate_ideal(ideal):
    """Check linear independence and two-sidedness.

    Dependent basis vectors are a malformed input and raise; a product
    escaping the span is the mathematically interesting failure and is
    returned as a NotTwoSided witness.
    """
    span = IncrementalSpan(ideal.parent.dimension)
    for idx, v in enumerate(ideal.basis_vectors):
        if not span.add(v):
            raise ValueError(f"ideal basis vector {idx} depends on the previous ones")
    algebra = ideal.parent
    for a in range(algebra.dimension):
        ea = algebra.basis_vector(a)
        for x_idx, x in enumerate(ideal.basis_vectors):
            left = algebra.mul(ea, x)
            if not span.contains(left):
                return NotTwoSided("left", a, x_idx, left)
            right = algebra.mul(x, ea)
            if not span.contains(right):
                return NotTwoSided("right", a, x_idx, right)
    return None


def _coordinates(columns, vector):
    """`vector` in the basis whose inverse matrix has the columns `columns`."""
    return _combination(
        len(columns), [(v, columns[j]) for j, v in vector.entries.items()]
    )


class _ProductTable(dict):
    """(i, j) -> ((k, c), ...): the split coordinates of f_i·f_j for split
    basis elements f_i, f_j, each pair computed on first use.

    `c` is stored as `linalg` stores every scalar, an `int` where integral,
    so integer algebras are expanded in `int` arithmetic.  A present pair is
    a plain dict lookup.  It holds what it reads, not the split, so that a
    dropped split is freed without the cyclic garbage collector.
    """

    def __init__(self, mul, basis, columns):
        super().__init__()
        self._mul, self._basis, self._columns = mul, basis, columns

    def __missing__(self, key):
        i, j = key
        basis = self._basis
        product = _coordinates(self._columns, self._mul(basis[i], basis[j]))
        row = self[key] = tuple(product.entries.items())
        return row


class SplitBasis:
    """Ordered basis of the parent algebra with the ideal basis first.

    The first `ideal_count` vectors span the ideal; the remaining ones lift a
    basis of the quotient.  Provides the coordinate change between parent and
    split coordinates and `product_table`, the one table of products of split
    basis elements that every chain computation reads.
    """

    def __init__(self, ideal, ordered_basis, ideal_count):
        self.ideal = ideal
        self.parent = ideal.parent
        self.ordered_basis = list(ordered_basis)
        self.ideal_count = int(ideal_count)
        self.dimension = self.parent.dimension
        if len(self.ordered_basis) != self.dimension:
            raise ValueError("ordered basis must span the parent algebra")
        record = echelon(
            SparseMatrix.from_columns(self.ordered_basis, rows=self.dimension)
        )
        if len(record.pivots) < self.dimension:
            raise ValueError("matrix is singular")
        # the columns of the inverse, for fast parent->split conversion
        self._backward_cols = [
            solve(record, SparseVector.unit(self.dimension, j))
            for j in range(self.dimension)
        ]
        self.product_table = _ProductTable(
            self.parent.mul, self.ordered_basis, self._backward_cols
        )
        # basis tuples, boundary matrices, homology bases and the inverse's
        # eliminated system, memoised by `chains` and `excision`; they live
        # as long as this split
        self.chain_cache = {}

    def is_ideal_index(self, i):
        return i < self.ideal_count

    def to_split(self, vector):
        """Parent coordinates -> coordinates over the ordered basis."""
        return _coordinates(self._backward_cols, vector)

    def split_label(self, i):
        """Human-readable name of split position i."""
        vec = self.ordered_basis[i]
        if len(vec.entries) == 1:
            ((k, v),) = vec.entries.items()
            if v == 1:
                return self.parent.basis_labels[k]
        return f"v{i}"

    def __eq__(self, other):
        return (
            isinstance(other, SplitBasis)
            and self.parent == other.parent
            and self.ordered_basis == other.ordered_basis
            and self.ideal_count == other.ideal_count
        )

    def __repr__(self):
        return (
            f"SplitBasis(dim={self.dimension}, ideal_count={self.ideal_count})"
        )


def make_split_basis(ideal, complement_hint=None):
    """Complete the ideal basis to a basis of the parent algebra.

    Without a hint the complement is filled greedily with standard coordinate
    vectors in index order, so the result is reproducible.  Hint vectors that
    are dependent on the ideal (or each other) are rejected.
    """
    algebra = ideal.parent
    span = IncrementalSpan(algebra.dimension)
    ordered = []
    for v in ideal.basis_vectors:
        if not span.add(v):
            raise ValueError("ideal basis is not linearly independent")
        ordered.append(v)
    ideal_count = len(ordered)
    if complement_hint is not None:
        for idx, v in enumerate(complement_hint):
            if v.dimension != algebra.dimension:
                raise ValueError("complement vector has wrong dimension")
            if not span.add(v):
                raise ValueError(
                    f"complement hint vector {idx} depends on the ideal"
                )
            ordered.append(v)
    for i in range(algebra.dimension):
        if len(ordered) == algebra.dimension:
            break
        candidate = algebra.basis_vector(i)
        if span.add(candidate):
            ordered.append(candidate)
    return SplitBasis(ideal, ordered, ideal_count)


def opposite_algebra(algebra):
    """Same underlying space with the reversed product: (i, j) -> product(j, i)."""
    constants = {
        (j, i): SparseVector(algebra.dimension, dict(row))
        for (i, j), row in algebra.structure_table.items()
    }
    return Algebra(algebra.dimension, list(algebra.basis_labels), constants)
