import copy
import json
import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from excisionlab.algebra import Algebra, Ideal, SplitBasis, make_split_basis
from excisionlab import chains, linalg, units
from excisionlab.chains import (
    VARIANT_OPS,
    VARIANT_SPACES,
    Chain,
    ComplexInvariantError,
    DegreeLimitError,
    Variant,
    basis_tuples,
    boundary_b,
    boundary_matrix,
    canonical_rotation,
    canonicalize_cyclic,
    cyclic_t,
    filtration_level,
    homology,
    pure_tensor,
    relative_membership,
    tensor_prepend,
    tuple_boundary_terms,
)
from excisionlab.excision import _invert_by_solve, _inverse_system, isomorphism_witness
from excisionlab.fileio import certificate_to_doc
from excisionlab.linalg import IncrementalSpan, SparseVector, Unsolvable, echelon, solve

from dense_oracle import (
    _dense_boundary, image_columns, incremental_span_homology, split_products,
)
from support import (
    random_chain, rebased_split, stored_exactly, upper_triangular_split,
)


def test_boundary_degree_one_formula(t2):
    # b(f0 ⊗ f1) = f0 f1 − f1 f0 on E11 ⊗ E12: E11E12 = E12, E12E11 = 0
    c = pure_tensor(t2.split, (0, 1))
    assert boundary_b(c).terms == {(1,): Fraction(1)}


def test_boundary_rejects_degree_zero(t2):
    with pytest.raises(ValueError):
        boundary_b(pure_tensor(t2.split, (0,)))
    with pytest.raises(ValueError):
        boundary_b(pure_tensor(t2.split, (0,)), wrap=False)


def test_boundary_squares_to_zero(corpus):
    rng = random.Random(11)
    for demo in corpus:
        for degree in range(2, 5):
            for _ in range(10):
                c = random_chain(demo.split, degree, rng)
                assert boundary_b(boundary_b(c)).is_zero()
                assert boundary_b(boundary_b(c, wrap=False), wrap=False).is_zero()


def test_bar_boundary_degree_one(t2):
    # b'(f0 ⊗ f1) = f0 f1
    c = pure_tensor(t2.split, (0, 1))
    assert boundary_b(c, wrap=False).terms == {(1,): Fraction(1)}


def test_bar_contracting_homotopy(corpus):
    # with e a left unit for the whole ideal, s(x) = e ⊗ x satisfies
    # b'(s(x)) + s(b'(x)) = x on ideal chains
    from excisionlab.units import find_local_left_unit

    rng = random.Random(5)
    for demo in corpus:
        split = demo.split
        unit = find_local_left_unit(demo.ideal, demo.ideal.basis_vectors)
        unit_split = split.to_split(unit)
        for degree in range(1, 4):
            for _ in range(8):
                x = random_chain(split, degree, rng, force_prefix=degree + 1)
                lhs = boundary_b(
                    tensor_prepend(unit_split, x), wrap=False
                ) + tensor_prepend(unit_split, boundary_b(x, wrap=False))
                assert lhs == x


def test_cyclic_t_degree_one(t2):
    c = pure_tensor(t2.split, (0, 1))
    assert cyclic_t(c).terms == {(1, 0): Fraction(-1)}


def test_cyclic_t_is_identity_in_degree_zero(t2):
    c = pure_tensor(t2.split, (2,))
    assert cyclic_t(c) == c


def test_cyclic_t_order(corpus):
    rng = random.Random(23)
    for demo in corpus:
        for degree in range(1, 5):
            c = random_chain(demo.split, degree, rng)
            out = c
            for _ in range(degree + 1):
                out = cyclic_t(out)
            assert out == c


def test_canonicalize_examples(t2):
    split = t2.split
    c = pure_tensor(split, (1, 0))
    assert canonicalize_cyclic(c).terms == {(0, 1): Fraction(-1)}
    rng = random.Random(3)
    for degree in range(1, 4):
        c = random_chain(split, degree, rng)
        assert canonicalize_cyclic(c) == canonicalize_cyclic(cyclic_t(c))
        assert canonicalize_cyclic(c - cyclic_t(c)).is_zero()


def test_canonicalize_idempotent(corpus):
    rng = random.Random(31)
    for demo in corpus:
        for degree in range(1, 4):
            c = random_chain(demo.split, degree, rng)
            once = canonicalize_cyclic(c)
            assert canonicalize_cyclic(once) == once


def test_boundary_descends_to_coinvariants(corpus):
    rng = random.Random(47)
    for demo in corpus:
        for degree in range(1, 5):
            for _ in range(6):
                c = random_chain(demo.split, degree, rng)
                moved = boundary_b(c - cyclic_t(c))
                assert canonicalize_cyclic(moved).is_zero()


def test_filtration_levels(t2):
    split = t2.split
    # all slots ideal -> level 0
    c = pure_tensor(split, (0, 1))
    assert filtration_level(c) == 0
    # E22 ⊗ E11: no ideal prefix
    c = pure_tensor(split, (2, 0))
    assert filtration_level(c) == 2
    zero = Chain(1, split)
    assert filtration_level(zero) == 0
    # no ideal slot anywhere
    c = pure_tensor(split, (2, 2))
    assert filtration_level(c) == 2


def test_filtration_lemma_on_random_chains(corpus):
    rng = random.Random(13)
    for demo in corpus:
        for degree in range(1, 5):
            for _ in range(10):
                prefix = rng.randint(1, degree + 1)
                c = random_chain(demo.split, degree, rng, force_prefix=prefix)
                assert filtration_level(boundary_b(c)) <= filtration_level(c)


def test_relative_membership(t2):
    split = t2.split
    assert relative_membership(pure_tensor(split, (0, 2)))
    assert not relative_membership(pure_tensor(split, (2, 2)))
    assert relative_membership(Chain(1, split))


def test_boundary_preserves_relative_membership(corpus):
    rng = random.Random(17)
    for demo in corpus:
        for degree in range(1, 5):
            for _ in range(8):
                c = random_chain(demo.split, degree, rng, force_ideal_slot=True)
                assert relative_membership(c)
                assert relative_membership(boundary_b(c))


def test_hc0_of_corner_ideal(t2):
    report = homology(t2.split, Variant("hc", "I"), 0)
    assert report.dimension == 1
    [rep] = report.representatives
    # the class of E11; the commutator span is {E12}
    assert rep.terms == {(0,): Fraction(1)}


def test_hc0_relative_corner(t2):
    report = homology(t2.split, Variant("hc", "relative"), 0)
    assert report.dimension == 1


def test_homology_of_zero_algebra():
    algebra = Algebra(0, [], {})
    split = make_split_basis(Ideal(algebra, []))
    for degree in range(0, 3):
        for op in ("hh", "hc", "bar"):
            assert homology(split, Variant(op, "A"), degree).dimension == 0


def test_cyclic_homology_of_full_matrices(matrix2):
    dims = [
        homology(matrix2.split, Variant("hc", "A"), n).dimension for n in range(4)
    ]
    assert dims == [1, 0, 1, 0]


def test_homology_representatives_are_cycles_mod_boundaries(t2):
    variant = Variant("hc", "relative")
    report = homology(t2.split, variant, 2)
    tuples = basis_tuples(t2.split, variant, 2)
    index = {t: i for i, t in enumerate(tuples)}
    up, _, _ = boundary_matrix(t2.split, variant, 3)
    span = IncrementalSpan(len(tuples))
    for v in image_columns(up):
        span.add(v)
    for rep in report.representatives:
        assert canonicalize_cyclic(boundary_b(rep)).is_zero()
        coords = SparseVector(
            len(tuples), {index[t]: c for t, c in rep.terms.items()}
        )
        assert span.add(coords)  # independent modulo boundaries


def test_degree_cap(t2, monkeypatch):
    with pytest.raises(DegreeLimitError):
        homology(t2.split, Variant("hc", "I"), 5)
    monkeypatch.setenv("EXCISIONLAB_MAX_DEGREE", "5")
    report = homology(t2.split, Variant("hc", "I"), 5)
    assert report.degree == 5
    monkeypatch.setenv("EXCISIONLAB_MAX_DEGREE", "2")
    with pytest.raises(DegreeLimitError):
        homology(t2.split, Variant("hc", "I"), 3)
    assert homology(t2.split, Variant("hc", "I"), 3, max_degree=3).degree == 3


def test_sign_killed_tuples_vanish_in_coinvariants(t2):
    # (E11, E11) equals its own rotation with sign -1, so its class is zero
    c = pure_tensor(t2.split, (0, 0))
    assert canonicalize_cyclic(c).is_zero()
    # and in even degree nothing is killed by signs
    c3 = pure_tensor(t2.split, (0, 0, 0))
    assert not canonicalize_cyclic(c3).is_zero()


def _zero_product_split(letters, ideal_count):
    algebra = Algebra(letters, [f"x{i}" for i in range(letters)], {})
    ideal = Ideal(algebra, [algebra.basis_vector(i) for i in range(ideal_count)])
    return make_split_basis(ideal)


def test_necklace_bases_equal_the_rotation_filter():
    for letters in range(1, 5):
        for length in range(1, 8):
            degree = length - 1
            words = list(iter_product(range(letters), repeat=length))
            canonical = [t for t in words if canonical_rotation(t) == (t, 1)]
            for ideal_count in range(letters + 1):
                split = _zero_product_split(letters, ideal_count)
                expected = {
                    "A": canonical,
                    "I": [t for t in canonical if max(t) < ideal_count],
                    "relative": [t for t in canonical if min(t) < ideal_count],
                }
                for space, tuples in expected.items():
                    got = basis_tuples(split, Variant("hc", space), degree)
                    assert got == tuples, (letters, length, ideal_count, space)


def test_necklace_bases_drop_sign_obstructed_words():
    split = _zero_product_split(2, 2)
    hc = Variant("hc", "A")
    # odd degree and odd period below the length: the class is zero over Q
    for word in [(0, 0), (1, 1), (0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 1, 1, 0, 1, 1)]:
        assert canonical_rotation(word) is None
        assert word not in basis_tuples(split, hc, len(word) - 1)
    # an even period, or an even degree, keeps the class
    for word in [(0, 1), (0, 1, 0, 1), (0, 0, 0), (0, 0, 0, 0, 0)]:
        assert canonical_rotation(word) == (word, 1)
        assert word in basis_tuples(split, hc, len(word) - 1)


def _halved_ideal_split(demo):
    """`demo` with its ideal basis scaled by 1/2: an idempotent e of the ideal
    becomes e/2 with (e/2)(e/2) = (1/2)(e/2), so some constants are 1/2."""
    count = demo.split.ideal_count
    basis = [v.scaled(Fraction(1, 2)) if i < count else v
             for i, v in enumerate(demo.split.ordered_basis)]
    return SplitBasis(demo.ideal, basis, count)


def test_boundary_matrices_match_the_dense_oracle(corpus, t2):
    cases = [(demo.name, demo.split, 4, ("A", "I", "relative")) for demo in corpus]
    cases.append(("t2-corner, ideal basis halved", _halved_ideal_split(t2), 3,
                  ("A", "I", "relative")))
    # the relative complex copies its all-ideal columns from ∂^I: request it
    # first on fresh splits, and on rebased splits, whose products gain
    # terms, so that the copy meets a non-trivial row re-indexing
    cases += [(f"{demo.name}, relative first", _fresh_split(demo), 4,
               ("relative", "I", "A")) for demo in corpus]
    cases += [(f"{demo.name} rebased {offset}", rebased_split(demo, offset), 3,
               ("relative", "I", "A")) for demo in corpus for offset in (1, 2)]
    non_integral = set()
    for name, split, top, spaces in cases:
        mult = split_products(split)
        for op in ("hh", "hc", "bar"):
            for space in spaces:
                for degree in range(1, top + 1):
                    variant = Variant(op, space)
                    matrix, cols, rows = boundary_matrix(split, variant, degree)
                    dense, ncols = _dense_boundary(
                        mult, split.dimension, split.ideal_count, space, op, degree
                    )
                    expected = {
                        (r, c): v
                        for r, row in enumerate(dense)
                        for c, v in enumerate(row)
                        if v
                    }
                    assert (matrix.rows, matrix.cols) == (len(dense), ncols)
                    assert matrix.entries == expected, (name, op, space, degree)
                    assert cols == basis_tuples(split, variant, degree)
                    assert rows == basis_tuples(split, variant, degree - 1)
                    # every entry is `int` exactly where integral
                    assert stored_exactly(matrix.entries.values())
                    if any(type(v) is Fraction for v in matrix.entries.values()):
                        non_integral.add(name)
    assert non_integral == {"t2-corner, ideal basis halved"}


def test_boundary_terms_are_exact_ints_or_fractions(corpus, t2):
    halved = _halved_ideal_split(t2)
    for split in [demo.split for demo in corpus] + [halved]:
        for tup in iter_product(range(split.dimension), repeat=3):
            for wrap in (True, False):
                terms = tuple_boundary_terms(split, tup, wrap)
                for v in terms.values():
                    assert v and (type(v) is int or (
                        split is halved and type(v) is Fraction and v.denominator != 1))
    assert tuple_boundary_terms(halved, (0, 0, 2)) == {(0, 2): Fraction(1, 2)}


def test_boundary_leaving_the_space_raises_a_typed_error(t2):
    # span{E11} is not an ideal: b(E11 ⊗ E12) = E12 has no ideal slot
    fake = SplitBasis(t2.ideal, t2.split.ordered_basis, 1)
    for op in ("hh", "hc", "bar"):
        with pytest.raises(ComplexInvariantError):
            boundary_matrix(fake, Variant(op, "relative"), 1)


def _fresh_split(demo):
    return SplitBasis(demo.ideal, demo.split.ordered_basis, demo.split.ideal_count)


def test_isomorphism_witness_never_builds_the_fraction_matrices(t2):
    """Each differential is assembled once, in its stored form: on an
    integer algebra every boundary matrix that `isomorphism_witness` leaves
    in the split's cache holds only `int`s, so no `Fraction` enters the
    assembly, the elimination or the solves."""
    split = _fresh_split(t2)
    report = isomorphism_witness(split, 2)
    assert report.dimensions_match and report.onto
    cached = [value[0] for key, value in split.chain_cache.items()
              if key[0] == "boundary_matrix"]
    assert len(cached) >= 4 and any(matrix.entries for matrix in cached)
    for matrix in cached:
        assert all(type(v) is int for v in matrix.entries.values())


def test_repeated_isomorphism_witness_is_identical(t2, direct_sum):
    for demo, degree in ((t2, 2), (direct_sum, 2)):
        split = _fresh_split(demo)
        first = isomorphism_witness(split, degree)
        second = isomorphism_witness(split, degree)
        assert first == second
        assert [json.dumps(certificate_to_doc(c, split)) for c in first.all_certificates()] == [
            json.dumps(certificate_to_doc(c, split)) for c in second.all_certificates()
        ]


def test_cached_complexes_are_not_mutated(t2):
    split = _fresh_split(t2)
    degree = 2
    keys = [(Variant("hc", space), n) for space in ("I", "relative")
            for n in (degree, degree + 1)]
    cached = [boundary_matrix(split, variant, n) for variant, n in keys]
    snapshots = [(dict(m.entries), list(cols), list(rows)) for m, cols, rows in cached]
    report = homology(split, Variant("hc", "relative"), degree)
    homology(split, Variant("hc", "I"), degree)
    for matrix, _, _ in cached:
        solve(matrix, SparseVector(matrix.rows, {0: 1}))
    assert report.representatives
    for rep in report.representatives:
        _invert_by_solve(rep)
    for (variant, n), triple, (entries, cols, rows) in zip(keys, cached, snapshots):
        assert boundary_matrix(split, variant, n) is triple
        assert triple[0].entries == entries
        assert (triple[1], triple[2]) == (cols, rows)
    # two replays against one record give equal answers and leave it as it was
    for variant, n in keys:
        matrix = boundary_matrix(split, variant, n)[0]
        record = echelon(matrix)
        snapshot = copy.deepcopy(record)
        consistent = matrix.matvec(SparseVector(matrix.cols, {0: 2, matrix.cols - 1: -1}))
        planted = SparseVector(matrix.rows, {r: Fraction(r + 1, 3) for r in range(matrix.rows)})
        for rhs in (consistent, planted):
            first, second = solve(record, rhs), solve(record, rhs)
            assert first == second
            assert first == solve(matrix, rhs)
        assert isinstance(solve(record, planted), Unsolvable)
        assert record == snapshot


def test_chain_keeps_fraction_coefficients_and_checks_slots(t2):
    half = Fraction(1, 2)
    chain = Chain(1, t2.split, {(0, 1): half, (1, 0): Fraction(6, 2), (0, 0): "2/3",
                                (1, 1): 0, (2, 2): -4})
    assert chain.terms[(0, 1)] is half
    assert chain.terms == {(0, 1): half, (1, 0): 3, (0, 0): Fraction(2, 3), (2, 2): -4}
    # `int` exactly where integral, a `Fraction` only where not
    assert [type(v) for v in chain.terms.values()] == [Fraction, int, Fraction, int]
    assert stored_exactly(chain.terms.values())
    with pytest.raises(ValueError, match="out of range"):
        Chain(1, t2.split, {(0, t2.split.dimension): half})
    with pytest.raises(ValueError, match="out of range"):
        Chain(1, t2.split, {(-1, 0): 1})
    with pytest.raises(ValueError, match="slots"):
        Chain(1, t2.split, {(0,): half})


def _homology_splits(corpus):
    splits = [(demo.name, demo.split, 3) for demo in corpus]
    splits.append(("ut3", upper_triangular_split(), 2))
    for demo in corpus:
        for offset in (1, 2):
            splits.append((f"{demo.name} rebased {offset}", rebased_split(demo, offset), 3))
    return splits


def test_homology_matches_the_incremental_span_reference(corpus):
    cases = 0
    for name, split, top in _homology_splits(corpus):
        for op in VARIANT_OPS:
            for space in VARIANT_SPACES:
                variant = Variant(op, space)
                for degree in range(top + 1):
                    report = homology(split, variant, degree)
                    dimension, representatives = incremental_span_homology(
                        split, variant, degree)
                    assert report.dimension == dimension == len(representatives)
                    assert [r.terms for r in report.representatives] == representatives, (
                        name, op, space, degree)
                    cases += 1
    assert cases == 351


@pytest.mark.parametrize("op, space, degree", [("hh", "A", 1), ("hc", "relative", 2)])
def test_homology_rejects_a_complex_whose_square_is_not_zero(t2, op, space, degree):
    split = _fresh_split(t2)
    variant = Variant(op, space)
    down = boundary_matrix(split, variant, degree)[0]
    up = boundary_matrix(split, variant, degree + 1)[0]
    used = {k for (_, k) in down.entries}
    # moving up[r, c] by 1 moves column c of ∂∂ by column r of ∂, not zero
    r, c = next((r, c) for (r, c) in up.entries if r in used)
    up.entries[(r, c)] += 1
    with pytest.raises(ComplexInvariantError, match="not zero"):
        homology(split, variant, degree)


def _count_eliminations(monkeypatch):
    """Count `linalg._eliminate` calls outside the unit search, by shape.
    Local units are solved afresh on every call, so their small systems are
    counted apart from the chain complexes and the inverse systems."""
    counts = {"complex": [], "unit": 0}
    inside_unit_search = []
    original = linalg._eliminate
    find_unit = units.find_local_left_unit

    def eliminate(rows, cols):
        if inside_unit_search:
            counts["unit"] += 1
        else:
            counts["complex"].append((len(rows), cols))
        return original(rows, cols)

    def unit_search(ideal, targets):
        inside_unit_search.append(True)
        try:
            return find_unit(ideal, targets)
        finally:
            inside_unit_search.pop()

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    monkeypatch.setattr(chains, "_eliminate", eliminate)
    monkeypatch.setattr(units, "find_local_left_unit", unit_search)
    return counts


def test_each_system_is_eliminated_once(corpus, monkeypatch):
    degree = 2
    for demo in corpus:
        split = _fresh_split(demo)
        counts = _count_eliminations(monkeypatch)
        first = isomorphism_witness(split, degree)
        solved = [r.input for r in first.onto] + [r.input for r, _ in first.back]
        assert len(solved) >= 2 and counts["unit"] > 0
        # every corpus class is all-ideal, so no stacked system is built
        assert ("_inverse_system", degree) not in split.chain_cache
        witness_eliminations = list(counts["complex"])
        # no complex is eliminated twice (told apart by shape): on matrix2
        # the ideal is the whole algebra, and its spaces share one complex
        assert len(set(witness_eliminations)) == len(witness_eliminations), demo.name
        if split.ideal_count == split.dimension:
            for op in VARIANT_OPS:
                for n in range(1, degree + 2):
                    for memoised in (basis_tuples, boundary_matrix,
                                     chains._homology_basis):
                        shared = {id(memoised(split, Variant(op, space), n))
                                  for space in VARIANT_SPACES}
                        assert len(shared) == 1, (op, n, memoised.__name__)
        counts["complex"].clear()
        assert isomorphism_witness(split, degree) == first
        assert counts["complex"] == [], demo.name
        # a direct solve eliminates the stacked system once, then replays
        system = _inverse_system(split, degree)[0]
        shape = (system.rows, system.cols)
        assert shape not in witness_eliminations
        assert counts["complex"] == [shape], demo.name
        counts["complex"].clear()
        for chain in solved:
            for scale in (1, -3):
                _invert_by_solve(chain.scaled(scale))
        assert counts["complex"] == [], demo.name
