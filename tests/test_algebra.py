import gc
import random
import weakref
from fractions import Fraction

import pytest

from excisionlab.algebra import (
    Algebra,
    AssociativityFailure,
    Ideal,
    NotTwoSided,
    SplitBasis,
    make_split_basis,
    opposite_algebra,
    validate_algebra,
    validate_ideal,
)
from excisionlab.excision import isomorphism_witness
from excisionlab.linalg import SparseMatrix, SparseVector, invert

from support import (
    dual_number_split, rebased_split, stored_exactly, upper_triangular_split,
)


def _one_dim_idempotent():
    return Algebra(1, ["e"], {(0, 0): SparseVector.from_list([1])})


def test_validate_one_dimensional_idempotent():
    assert validate_algebra(_one_dim_idempotent()) is None


def test_validate_detects_non_associativity():
    # e0*e0 = e1, e0*e1 = e0: (e0 e0) e0 = e1 e0 = 0 but e0 (e0 e0) = e0 e1 = e0
    algebra = Algebra(
        2,
        ["a", "b"],
        {
            (0, 0): SparseVector.from_list([0, 1]),
            (0, 1): SparseVector.from_list([1, 0]),
        },
    )
    failure = validate_algebra(algebra)
    assert isinstance(failure, AssociativityFailure)
    assert (failure.i, failure.j, failure.k) == (0, 0, 0)


def test_validate_upper_triangular(t2):
    assert validate_algebra(t2.algebra) is None


def test_validate_ideal_corner(t2):
    assert validate_ideal(t2.ideal) is None


def test_validate_ideal_rejects_one_sided(t2):
    # E12*E22 = E12 escapes span{E22}
    bad = Ideal(t2.algebra, [SparseVector.from_list([0, 0, 1])])
    failure = validate_ideal(bad)
    assert isinstance(failure, NotTwoSided)
    assert failure.product == SparseVector.from_list([0, 1, 0])


def test_validate_ideal_whole_algebra(matrix2):
    assert validate_ideal(matrix2.ideal) is None


def test_validate_ideal_rejects_dependent_basis(t2):
    dependent = Ideal(
        t2.algebra,
        [SparseVector.from_list([1, 0, 0]), SparseVector.from_list([2, 0, 0])],
    )
    with pytest.raises(ValueError):
        validate_ideal(dependent)


def test_split_basis_completion(t2):
    split = t2.split
    assert split.ideal_count == 2
    assert split.ordered_basis == [
        SparseVector.from_list([1, 0, 0]),
        SparseVector.from_list([0, 1, 0]),
        SparseVector.from_list([0, 0, 1]),
    ]
    assert [split.split_label(i) for i in range(3)] == ["E11", "E12", "E22"]


def test_split_basis_zero_ideal(t2):
    zero = Ideal(t2.algebra, [])
    split = make_split_basis(zero)
    assert split.ideal_count == 0
    assert split.ordered_basis == [t2.algebra.basis_vector(i) for i in range(3)]


def test_split_basis_full_ideal(matrix2):
    assert matrix2.split.ideal_count == 4
    assert matrix2.split.ordered_basis == matrix2.ideal.basis_vectors


def test_split_basis_rejects_dependent_hint(t2):
    with pytest.raises(ValueError):
        make_split_basis(t2.ideal, [SparseVector.from_list([1, 1, 0])])


def test_split_coordinates_round_trip(direct_sum):
    split = direct_sum.split
    v = SparseVector.from_list([1, 0, -2, 3, 5])
    rebuilt = SparseVector(5)
    for j, c in split.to_split(v).entries.items():
        rebuilt += split.ordered_basis[j].scaled(c)
    assert rebuilt == v


def _tier1_splits(corpus):
    """Every split the tests build, by name: the corpus, ut3, the
    dual-number split and the rebased corpus splits."""
    splits = {demo.name: demo.split for demo in corpus}
    splits["ut3"] = upper_triangular_split()
    splits["dual-number"] = dual_number_split()
    for demo in corpus:
        for offset in (1, 2):
            splits[f"{demo.name}+{offset}"] = rebased_split(demo, offset)
    return splits


def test_to_split_reads_the_inverse_basis_matrix(corpus):
    for name, split in _tier1_splits(corpus).items():
        dim = split.dimension
        inverse = invert(SparseMatrix.from_columns(split.ordered_basis, rows=dim))
        for j in range(dim):
            column = [(r, v) for (r, c), v in inverse.entries.items() if c == j]
            image = split.to_split(SparseVector.unit(dim, j))
            # in the inverse's entry order, which the product table keeps
            assert list(image.entries.items()) == column, (name, j)
            assert stored_exactly(image.entries.values())
        for k, vector in enumerate(split.ordered_basis):
            assert split.to_split(vector) == SparseVector.unit(dim, k), (name, k)
        singular = split.ordered_basis[:-1] + [split.ordered_basis[0].scaled(-3)]
        with pytest.raises(ValueError, match="singular"):
            SplitBasis(split.ideal, singular, split.ideal_count)


def test_split_basis_with_complement_hint(t2):
    hint = SparseVector.from_list([1, 0, 1])
    hinted = make_split_basis(t2.ideal, [hint])
    assert hinted.ideal_count == len(t2.ideal.basis_vectors)
    assert hinted.ordered_basis == [*t2.ideal.basis_vectors, hint]
    assert hinted.to_split(hint) == SparseVector.unit(3, 2)


def test_opposite_is_involutive(t2):
    opposite = opposite_algebra(t2.algebra)
    assert opposite_algebra(opposite) == t2.algebra
    # E11*E12 = E12 becomes E12*E11 = E12
    e11, e12 = opposite.basis_vector(0), opposite.basis_vector(1)
    assert opposite.mul(e12, e11) == SparseVector.from_list([0, 1, 0])
    assert opposite.mul(e11, e12).is_zero()


def test_opposite_of_commutative_is_itself():
    algebra = _one_dim_idempotent()
    assert opposite_algebra(algebra) == algebra


def test_opposite_preserves_associativity(corpus):
    for demo in corpus:
        assert validate_algebra(opposite_algebra(demo.algebra)) is None


def _constants(algebra):
    """The structure constants of `algebra` as the constructor takes them."""
    return {(i, j): SparseVector(algebra.dimension, dict(row))
            for (i, j), row in algebra.structure_table.items()}


def _halved(demo):
    """`demo`'s algebra in the basis e_0/2, e_1, ..., so that constants 1/2
    and 2 appear."""
    old = demo.algebra
    scale = [Fraction(1, 2)] + [Fraction(1)] * (old.dimension - 1)
    constants = {
        (i, j): SparseVector(old.dimension, {
            k: scale[i] * scale[j] * c / scale[k] for k, c in row
        })
        for (i, j), row in old.structure_table.items()
    }
    return Algebra(old.dimension, old.basis_labels, constants)


def integer_path_algebras(corpus):
    """Corpus algebras, their rebased forms and one with non-integral
    constants, by name."""
    found = {demo.name: demo.algebra for demo in corpus}
    for demo in corpus:
        for offset in (1, 2):
            found[f"{demo.name}+{offset}"] = rebased_split(demo, offset).parent
    matrix2 = next(d for d in corpus if d.name == "matrix2")
    found["matrix2/2"] = _halved(matrix2)
    return found


def _bilinear(algebra, u, v):
    """u·v expanded term by term in `Fraction` arithmetic."""
    out = [Fraction(0)] * algebra.dimension
    for (i, j), row in algebra.structure_table.items():
        for k, c in row:
            out[k] += u.get(i) * v.get(j) * c
    return SparseVector.from_list(out)


def test_mul_equals_the_bilinear_fraction_expansion(corpus):
    rng = random.Random(5)
    algebras = integer_path_algebras(corpus)
    assert any(type(c) is Fraction
               for row in algebras["matrix2/2"].structure_table.values()
               for _, c in row)
    for algebra in algebras.values():
        # the constants are held once, by ascending index and in stored form
        assert not hasattr(algebra, "structure_constants")
        for row in algebra.structure_table.values():
            assert [k for k, _ in row] == sorted(k for k, _ in row)
            assert stored_exactly(c for _, c in row)
        d = algebra.dimension
        vectors = [algebra.basis_vector(i) for i in range(d)] + [
            SparseVector(d, {i: Fraction(rng.randint(-4, 4), rng.choice([1, 1, 3]))
                             for i in range(d)})
            for _ in range(6)
        ]
        for u in vectors:
            for v in vectors:
                product = algebra.mul(u, v)
                assert product == _bilinear(algebra, u, v)
                assert stored_exactly(product.entries.values())


def _first_failure(algebra):
    """(i, j, k, (e_i e_j) e_k, e_i (e_j e_k)) for the first non-associative
    triple, by brute force."""
    d = algebra.dimension
    e = [algebra.basis_vector(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = _bilinear(algebra, _bilinear(algebra, e[i], e[j]), e[k])
                right = _bilinear(algebra, e[i], _bilinear(algebra, e[j], e[k]))
                if left != right:
                    return i, j, k, left, right
    return None


def test_validate_algebra_finds_the_brute_force_triple(corpus):
    rng = random.Random(7)
    for name, algebra in integer_path_algebras(corpus).items():
        assert validate_algebra(algebra) is None, name
        d = algebra.dimension
        for _ in range(3):
            constants = _constants(algebra)
            pair = rng.choice(sorted(constants))
            bump = SparseVector(d, {rng.randrange(d): rng.choice([1, Fraction(-1, 2)])})
            constants[pair] = constants[pair] + bump
            perturbed = Algebra(d, algebra.basis_labels, constants)
            expected = _first_failure(perturbed)
            assert expected is not None, (name, pair, bump)
            failure = validate_algebra(perturbed)
            assert (failure.i, failure.j, failure.k, failure.left_product,
                    failure.right_product) == expected, name


def test_a_dropped_split_is_freed_without_a_collection(t2):
    # the split's memoised matrices and echelon records go with its last
    # reference, not at the cyclic collector's next run
    enabled = gc.isenabled()
    gc.disable()
    try:
        split = make_split_basis(t2.ideal)
        isomorphism_witness(split, 2)
        ref = weakref.ref(split)
        del split
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
