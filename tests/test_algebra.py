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
from excisionlab import chains
from excisionlab.chains import (
    VARIANT_SPACES, Chain, Variant, boundary_matrix, homology, pure_tensor,
)
from excisionlab.excision import (
    descent_output, descent_step, inverse_excision_class, isomorphism_witness,
)
from excisionlab.fileio import (
    ParseError, algebra_from_doc, algebra_to_doc, demo_corpus,
)
from excisionlab.linalg import IncrementalSpan, SparseMatrix, SparseVector, invert
from excisionlab.units import NoLocalUnit, build_unit_schedule, find_local_left_unit

from support import (
    dual_number_split, rebased_split, split_vectors, stored_exactly,
    upper_triangular_split,
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


def _first_row_of_full_3x3():
    """The first-row ideal span{E11, E12, E13} of the full 3x3 matrices: a
    right ideal, but E21·E11 = E21 leaves it."""
    pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    index = {p: i for i, p in enumerate(pairs)}
    products = {
        (i, j): SparseVector(9, {index[(a, d)]: 1})
        for i, (a, b) in enumerate(pairs)
        for j, (c, d) in enumerate(pairs) if b == c
    }
    algebra = Algebra(9, [f"E{a}{b}" for a, b in pairs], products)
    return Ideal(algebra, [algebra.basis_vector(i) for i in range(3)])


def test_the_first_row_ideal_is_refused_before_any_assembly(monkeypatch):
    def assembly(*args):
        pytest.fail("a chain complex was assembled")

    monkeypatch.setattr(chains, "boundary_matrix", assembly)
    ideal = _first_row_of_full_3x3()
    with pytest.raises(NotTwoSided) as info:
        make_split_basis(ideal)

    def fields(failure):
        return (failure.side, failure.split_index, failure.ideal_index,
                failure.product)

    # f_3 = E21 and f_0 = E11
    assert fields(info.value) == ("left", 3, 0, ideal.parent.basis_vector(3))
    witness = validate_ideal(ideal)
    assert fields(witness) == fields(info.value)
    assert witness.__traceback__ is None  # it does not hold the refused split
    with pytest.raises(ParseError) as info:
        algebra_from_doc(algebra_to_doc(ideal.parent, ideal))
    assert info.value.location == "ideal"


@pytest.mark.parametrize("build", [
    lambda t2: SparseVector(3.0),
    lambda t2: SparseVector(3, {1.5: 2}),
    lambda t2: SparseMatrix(2.0, 2),
    lambda t2: SparseMatrix(2, 2.0),
    lambda t2: SparseMatrix(2, 2, {(0.9, 1.2): 3}),
    lambda t2: Algebra(1.0, ["e"], {}),
    lambda t2: Algebra(1, ["e"], {(0.0, 0): SparseVector(1, {0: 1})}),
    lambda t2: Chain(1.0, t2.split),
    lambda t2: SplitBasis(t2.ideal, t2.split.ordered_basis, 2.0),
    lambda t2: build_unit_schedule([(0, 2)], t2.split, 1.0),
], ids=["vector dimension", "vector index", "matrix rows", "matrix cols",
        "matrix entry", "algebra dimension", "product index", "chain degree",
        "ideal count", "schedule degree"])
def test_a_float_integer_argument_is_refused(t2, build):
    # int() would truncate it: SparseVector(3, {1.5: 2}) stored {1: 2}
    with pytest.raises(TypeError):
        build(t2)


@pytest.mark.parametrize("build, message", [
    (lambda t2: Algebra(2, ["e"], {}), "one label per basis element"),
    (lambda t2: Algebra(1, ["e"], {(0, 1): SparseVector(1, {0: 1})}),
     r"product index \(0, 1\) out of range"),
    (lambda t2: Algebra(1, ["e"], {(0, 0): SparseVector(2, {0: 1})}),
     r"product \(0, 0\) has wrong dimension"),
    (lambda t2: Ideal(t2.algebra, [SparseVector(2)]), "differs from the parent"),
    (lambda t2: Chain(-1, t2.split), "degree must be non-negative"),
    (lambda t2: pure_tensor(t2.split, (0,)) + pure_tensor(
        SplitBasis(t2.ideal, t2.split.ordered_basis, 1), (0,)), "different split bases"),
    (lambda t2: pure_tensor(t2.split, (0,)) + pure_tensor(t2.split, (0, 0)),
     "different degrees"),
    (lambda t2: Variant("cc", "A"), "unknown op 'cc'"),
    (lambda t2: Variant("hc", "B"), "unknown space 'B'"),
    (lambda t2: boundary_matrix(t2.split, Variant("hc", "A"), 0), "needs degree >= 1"),
    (lambda t2: SparseVector(2) + SparseVector(3), "dimension mismatch"),
    (lambda t2: SparseMatrix(1, 1, {(1, 0): 1}), r"entry \(1, 0\) out of range"),
    (lambda t2: SparseMatrix.from_columns([SparseVector(2)], rows=3),
     "dimension mismatch among columns"),
    (lambda t2: SparseMatrix(2, 2).matvec(SparseVector(3)), "dimension mismatch"),
    (lambda t2: invert(SparseMatrix(1, 2)), "only square matrices"),
    (lambda t2: IncrementalSpan(2).add(SparseVector(3)), "dimension mismatch"),
    (lambda t2: descent_output(pure_tensor(t2.split, (0,)), SparseVector(3, {0: 1})),
     "descent needs degree >= 1"),
    (lambda t2: descent_step(pure_tensor(t2.split, (0,)), SparseVector(3, {0: 1})),
     "descent needs degree >= 1"),
    (lambda t2: inverse_excision_class([pure_tensor(t2.split, (0, 2)),
                                        pure_tensor(t2.split, (0, 0, 0))]),
     "classes must share degree and split basis"),
], ids=["algebra labels", "product index", "product dimension", "ideal dimension",
        "chain degree", "chains over two splits", "chains of two degrees",
        "variant op", "variant space", "boundary matrix degree", "vector sum",
        "matrix entry", "matrix columns", "matvec", "invert", "span",
        "descent output degree", "descent step degree", "classes of two degrees"])
def test_an_argument_out_of_range_is_refused(t2, build, message):
    with pytest.raises(ValueError, match=message):
        build(t2)


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


def test_the_product_table_is_built_whole():
    # on splits fresh from `make_split_basis`, before anything reads them
    for name, split in _tier1_splits(demo_corpus()).items():
        table, basis, dim = split.product_table, split.ordered_basis, split.dimension
        assert type(table) is dict and len(table) == dim * dim, name
        for i, f_i in enumerate(basis):
            for j, f_j in enumerate(basis):
                product = split.to_split(split.parent.mul(f_i, f_j))
                assert table[i, j] == tuple(product.entries.items()), (name, i, j)


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


def test_right_local_units_route_through_the_opposite(corpus):
    """The README's route for an extension with local right units: its
    opposite has them as local left units, has the same cyclic homology,
    and passing to the opposite again gives back the extension."""
    for demo in corpus:
        opposite = opposite_algebra(demo.algebra)
        assert opposite_algebra(opposite) == demo.algebra, demo.name
        restored = Ideal(opposite_algebra(opposite), demo.ideal.basis_vectors)
        assert make_split_basis(restored) == demo.split, demo.name
        flipped = make_split_basis(Ideal(opposite, demo.ideal.basis_vectors))
        for space in VARIANT_SPACES:
            for degree in range(4):
                variant = Variant("hc", space)
                assert (homology(flipped, variant, degree).dimension
                        == homology(demo.split, variant, degree).dimension), (
                    demo.name, space, degree)
    # t2-corner's ideal has a left unit and no right unit, so in the
    # opposite no element is a left unit on the whole ideal
    t2 = next(demo for demo in corpus if demo.name == "t2-corner")
    flipped = make_split_basis(
        Ideal(opposite_algebra(t2.algebra), t2.ideal.basis_vectors))
    ideal = split_vectors(flipped, range(flipped.ideal_count))
    assert isinstance(find_local_left_unit(flipped, ideal), NoLocalUnit)


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
