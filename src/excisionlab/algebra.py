"""Finite-dimensional associative algebras over Q given by structure constants.

An algebra here need not be commutative and need not have a unit.  Ideals are
two-sided; a split basis lists an ideal basis first and a complement lifting
a basis of the quotient, and every chain-level computation downstream runs in
the coordinates of that ordered basis.  `make_split_basis` is the one check
of an ideal: it refuses dependent basis vectors, and reads its split's own
product table to refuse an ideal that is not two-sided with `NotTwoSided`.

An algebra holds its structure constants once, in `Algebra.structure_table`;
products, equality, the associativity check and documents all read it.  Its
constants are stored as `linalg` stores every scalar, an `int` where
integral, so products run in `int` arithmetic wherever they can.  A split
basis builds its whole product table when it is made.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .linalg import (
    IncrementalSpan,
    SparseMatrix,
    SparseVector,
    _accumulate,
    _exact,
    invert,
)


def _product(table, u, v):
    """{k: c}, the product of the vectors with (index, value) items `u` and
    `v` under `table`, (i, j) -> ((k, c), ...): the one product loop."""
    out = {}
    for i, ci in u:
        for j, cj in v:
            for k, c in table.get((i, j), ()):
                _accumulate(out, k, ci * cj * c)
    return out


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
        self.dimension = operator.index(dimension)
        if len(basis_labels) != self.dimension:
            raise ValueError("one label per basis element required")
        self.basis_labels = list(basis_labels)
        table = {}
        for (i, j), vec in structure_constants.items():
            i, j = operator.index(i), operator.index(j)
            if not (0 <= i < self.dimension and 0 <= j < self.dimension):
                raise ValueError(f"product index ({i}, {j}) out of range")
            if vec.dimension != self.dimension:
                raise ValueError(f"product ({i}, {j}) has wrong dimension")
            if not vec.is_zero():
                table[(i, j)] = tuple(vec.items())
        self.structure_table = table

    def mul(self, u, v):
        """Bilinear product of two coordinate vectors."""
        return SparseVector(self.dimension, _product(
            self.structure_table, u.entries.items(), v.entries.items()))

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
                jk = table.get((j, k), ())
                if not (ij or jk):
                    continue  # both sides are zero
                left, right = {}, {}
                for m, c in ij:
                    for n, c2 in table.get((m, k), ()):
                        _accumulate(left, n, c * c2)
                for m, c in jk:
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


class NotTwoSided(ValueError):
    """The ideal is not two-sided: for the split basis element f_a at
    `split_index` and the ideal basis element f_x at `ideal_index`, the
    product f_a·f_x (`side` "left") or f_x·f_a (`side` "right") leaves the
    ideal.  `product` is that product in parent coordinates."""

    def __init__(self, side, split_index, ideal_index, product):
        super().__init__(
            f"the ideal is not two-sided: the {side} product of split basis "
            f"element {split_index} and ideal element {ideal_index} leaves it"
        )
        self.side, self.split_index = side, split_index
        self.ideal_index, self.product = ideal_index, product


class DependentComplement(ValueError):
    """A complement vector depends on the ideal or on the complement vectors
    before it."""


def validate_ideal(ideal):
    """The `NotTwoSided` that `make_split_basis(ideal)` raises, or None when
    the ideal is two-sided; dependent basis vectors raise ValueError."""
    try:
        make_split_basis(ideal)
    except NotTwoSided as failure:
        # without its traceback, which would keep the refused split alive
        return failure.with_traceback(None)
    return None


class SplitBasis:
    """Ordered basis of the parent algebra with the ideal basis first.

    The first `ideal_count` vectors span the ideal; the remaining ones lift a
    basis of the quotient.  Chains and units are in split coordinates (f_i
    is the i-th unit vector); `to_split` and `from_split` convert where
    vectors enter or leave the program.  `product_table` is the one table
    of products of split basis elements: (i, j) -> ((k, c), ...), the split
    coordinates of f_i·f_j (`int` where integral) for every pair; it
    refers to nothing, so a dropped split is freed without the cyclic
    garbage collector.
    """

    def __init__(self, ideal, ordered_basis, ideal_count):
        self.ideal = ideal
        self.parent = ideal.parent
        self.ordered_basis = list(ordered_basis)
        self.ideal_count = operator.index(ideal_count)
        self.dimension = self.parent.dimension
        # split -> parent coordinates and back; a wrong length is not square
        self._matrix = SparseMatrix.from_columns(self.ordered_basis, rows=self.dimension)
        self._inverse = invert(self._matrix)
        self.product_table = self._products()
        # basis tuples, boundary matrices and homology bases, memoised by
        # `chains`, and the local left units by target set, memoised by
        # `units`; they live as long as this split
        self.chain_cache = {}

    def _products(self):
        """`product_table`: `to_split(parent.mul(f_i, f_j))` for every pair,
        with the parent product and the coordinate change summed in place,
        in the order `matvec` sums them."""
        table, inverse = self.parent.structure_table, self._inverse.entries.items()
        basis = [f.entries.items() for f in self.ordered_basis]
        products = {}
        for i, f_i in enumerate(basis):
            for j, f_j in enumerate(basis):
                product, out = _product(table, f_i, f_j), {}
                if product:
                    for (r, c), v in inverse:
                        x = product.get(c)
                        if x:
                            _accumulate(out, r, v * x)
                products[(i, j)] = tuple(
                    (k, c if type(c) is int else _exact(c)) for k, c in out.items())
        return products

    def is_ideal_index(self, i):
        return i < self.ideal_count

    def to_split(self, vector):
        """Parent coordinates -> coordinates over the ordered basis."""
        return self._inverse.matvec(vector)

    def from_split(self, vector):
        """Coordinates over the ordered basis -> parent coordinates."""
        return self._matrix.matvec(vector)

    def mul(self, u, v):
        """Product of two split-coordinate vectors, read from `product_table`."""
        return SparseVector(self.dimension, _product(
            self.product_table, u.entries.items(), v.entries.items()))

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
    """Complete the ideal basis to a split basis of the parent algebra: the
    one check that `ideal` is a two-sided ideal.

    Without a hint the complement is filled greedily with standard coordinate
    vectors in index order, so the result is reproducible.  An ideal vector
    that depends on the previous ones raises ValueError, a hint vector that
    depends on the ideal or on the hint vectors before it raises
    `DependentComplement`, and an ideal that some product f_a·f_x or f_x·f_a
    of the split leaves (f_x in the ideal) raises `NotTwoSided`.
    """
    algebra = ideal.parent
    span = IncrementalSpan(algebra.dimension)
    for idx, v in enumerate(ideal.basis_vectors):
        if not span.add(v):
            raise ValueError(f"ideal basis vector {idx} depends on the previous ones")
    ordered = list(ideal.basis_vectors)
    for idx, v in enumerate(complement_hint or ()):
        if not span.add(v):
            raise DependentComplement(
                f"complement hint vector {idx} depends on the ideal"
            )
        ordered.append(v)
    for e in map(algebra.basis_vector, range(algebra.dimension)):
        if len(ordered) < algebra.dimension and span.add(e):
            ordered.append(e)
    split = SplitBasis(ideal, ordered, len(ideal.basis_vectors))
    table, count = split.product_table, split.ideal_count
    for a in range(split.dimension):
        for x in range(count):
            for side, pair in (("left", (a, x)), ("right", (x, a))):
                if any(k >= count for k, _ in table[pair]):
                    product = algebra.mul(ordered[pair[0]], ordered[pair[1]])
                    raise NotTwoSided(side, a, x, product)
    return split


def opposite_algebra(algebra):
    """Same underlying space with the reversed product: (i, j) -> product(j, i)."""
    constants = {
        (j, i): SparseVector(algebra.dimension, dict(row))
        for (i, j), row in algebra.structure_table.items()
    }
    return Algebra(algebra.dimension, list(algebra.basis_labels), constants)
