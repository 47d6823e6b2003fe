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
    DegreeLimitError,
    Variant,
    _signed_rotations,
    _tuple_count,
    _weight_zero_matrix,
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
    resolve_max_degree,
    tensor_prepend,
    tuple_boundary_terms,
)
from excisionlab.excision import _invert_by_solve, isomorphism_witness
from excisionlab.fileio import certificate_to_doc, demo_by_name
from excisionlab.linalg import (
    IncrementalSpan, InvariantError, SparseVector, Unsolvable, solve,
)

from dense_oracle import image_columns
from support import (
    dual_number_split, fresh_split, halved_ideal_split, mixed_boundary, random_chain,
    rebased_split, split_vectors, stored_exactly, upper_triangular_split,
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


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("tup", [(0,), ()], ids=["one-slot", "no-slot"])
def test_tuple_boundary_terms_rejects_degree_zero(t2, tup, wrap):
    # a tuple needs two slots for a face: (0,) must not wrap onto a
    # "boundary" {(0,): 1}, nor () fail with an IndexError
    with pytest.raises(ValueError, match="degree >= 1"):
        tuple_boundary_terms(t2.split, tup, wrap)


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
        unit_split = find_local_left_unit(
            split, split_vectors(split, range(split.ideal_count)))
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


def test_signed_rotations_are_repeated_single_steps():
    # one step moves the last slot to the front with sign (-1)^n
    for length in range(1, 6):
        n = length - 1
        for tup in iter_product(range(3), repeat=length):
            rotations = _signed_rotations(tup)
            assert len(rotations) == length, tup
            step, sign = tup, 1
            for k, rotation in enumerate(rotations):
                assert rotation == (step, sign), (tup, k)
                step, sign = step[-1:] + step[:-1], sign * (-1) ** n
            # t^(n+1) is the identity: (-1)^(n(n+1)) = 1
            assert (step, sign) == (tup, 1), tup


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


@pytest.mark.parametrize("degree", [1.5, 1.0, 2.5])
def test_a_float_degree_is_refused(degree):
    # int() would truncate the cap, and a fractional degree gave an empty
    # complex.  On a fresh split: the memo finds an entry stored under an
    # integer degree equal to the float (1 == 1.0) before any check runs.
    split = demo_by_name("matrix2").split
    hc = Variant("hc", "A")
    calls = [
        lambda: homology(split, hc, degree),
        lambda: homology(split, hc, 1, max_degree=degree),
        lambda: isomorphism_witness(split, degree),
        lambda: basis_tuples(split, hc, degree),
        lambda: basis_tuples(split, Variant("hh", "A"), degree),
        lambda: boundary_matrix(split, hc, degree),
        lambda: resolve_max_degree(degree),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    assert split.chain_cache == {}
    assert homology(split, hc, 2).dimension == 1


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


COUNTED_SPLITS = {
    **{name: lambda name=name: demo_by_name(name).split
       for name in ("t2-corner", "matrix2", "direct-sum")},
    "ut3": upper_triangular_split,
    "dual-number": dual_number_split,
    **{f"{name} rebased {offset}": lambda name=name, offset=offset: rebased_split(
        demo_by_name(name), offset)
       for name in ("t2-corner", "matrix2", "direct-sum") for offset in (1, 2)},
}


@pytest.mark.parametrize("name", COUNTED_SPLITS)
def test_the_closed_form_count_is_the_length_of_the_basis(name):
    """Every op and space at degrees 0-5; on matrix2 the ideal is the whole
    algebra, so the relative space has no complement-only tuple to drop."""
    split = COUNTED_SPLITS[name]()
    for op in VARIANT_OPS:
        for space in VARIANT_SPACES:
            variant = Variant(op, space)
            for degree in range(6):
                assert _tuple_count(split, variant, degree) == len(
                    basis_tuples(split, variant, degree)), (op, space, degree)


@pytest.mark.parametrize("name", ["direct-sum", "direct-sum rebased 1"])
def test_a_second_homology_call_adds_nothing_to_the_cache(name, monkeypatch):
    """The count of the chain space is memoised like every chain-space
    result, so a second call is all memo hits.  On a graded split, homology
    walks only the weight-0 tuples of hh and hc: no walk with every key 0
    (a whole chain group) runs for them."""
    split = COUNTED_SPLITS[name]()
    walked = []
    walk = chains._walk
    monkeypatch.setattr(chains, "_walk", lambda context, variant, degree, key: (
        walked.append((variant, any(key))) or walk(context, variant, degree, key)))
    for op in VARIANT_OPS:
        for space in VARIANT_SPACES:
            variant = Variant(op, space)
            for degree in range(4):
                walked.clear()
                first = homology(split, variant, degree)
                if chains._gradings(split) and op != "bar":
                    assert walked and all(keyed for _, keyed in walked), (op, space)
                cached = list(split.chain_cache)
                walked.clear()
                assert homology(split, variant, degree) == first
                assert walked == [] and list(split.chain_cache) == cached, (op, space)


def test_variants_built_apart_are_equal_with_equal_hashes():
    # a memo key holds a Variant built afresh by each caller; its refusal of
    # unknown names is tested with the other input errors
    assert Variant("hc", "I") == Variant(op="hc", space="I")
    assert hash(Variant("hc", "I")) == hash(Variant("hc", "I"))
    assert Variant("hc", "I") != Variant("hc", "relative")
    assert (Variant("hh", "A").op, Variant("hh", "A").space) == ("hh", "A")
    assert repr(Variant("bar", "relative")) == "Variant(op='bar', space='relative')"


def test_boundary_terms_are_exact_ints_or_fractions(corpus, t2):
    halved = halved_ideal_split(t2)
    for split in [demo.split for demo in corpus] + [halved]:
        for tup in iter_product(range(split.dimension), repeat=3):
            for wrap in (True, False):
                terms = tuple_boundary_terms(split, tup, wrap)
                for v in terms.values():
                    assert v and (type(v) is int or (
                        split is halved and type(v) is Fraction and v.denominator != 1))
    assert tuple_boundary_terms(halved, (0, 0, 2)) == {(0, 2): Fraction(1, 2)}


def _summed_tuple_boundaries(chain, wrap):
    """Σ coeff · tuple_boundary_terms(tup) over the terms of `chain`, summed
    through `Chain` arithmetic."""
    total = Chain(chain.degree - 1, chain.context)
    for tup, coeff in chain.terms.items():
        faces = tuple_boundary_terms(chain.context, tup, wrap)
        total = total + Chain(chain.degree - 1, chain.context, faces).scaled(coeff)
    return total


def test_boundary_b_sums_the_tuple_boundaries(corpus, t2):
    # the face E12 of E11⊗E12 cancels the face E12 of E12⊗E22, in b and in
    # b'; E22⊗E22 adds E22 - E22 = 0 to b and E22 to b'
    cancelling = Chain(1, t2.split, {(0, 1): 1, (1, 2): -1, (2, 2): 1})
    for tup in ((0, 1), (1, 2)):
        for wrap in (True, False):
            assert tuple_boundary_terms(t2.split, tup, wrap) == {(1,): 1}
    assert boundary_b(cancelling).is_zero()
    assert boundary_b(cancelling, wrap=False) == Chain(0, t2.split, {(2,): 1})
    rng = random.Random(25)
    halved = halved_ideal_split(t2)
    cases = [cancelling]
    for split in [demo.split for demo in corpus] + [halved]:
        for degree in (1, 2, 3):
            for _ in range(6):
                chain = random_chain(split, degree, rng, nterms=4)
                cases += [chain, chain.scaled(Fraction(2, 3))]
    fractional = False
    for chain in cases:
        for wrap in (True, False):
            result = boundary_b(chain, wrap)
            assert result == _summed_tuple_boundaries(chain, wrap)
            assert stored_exactly(result.terms.values())
            fractional |= any(type(v) is Fraction for v in result.terms.values())
    assert fractional


def test_boundary_leaving_the_space_raises_a_typed_error(t2):
    # span{E11} is not an ideal: b(E11 ⊗ E12) = E12 has no ideal slot
    fake = SplitBasis(t2.ideal, t2.split.ordered_basis, 1)
    for op in ("hh", "hc", "bar"):
        with pytest.raises(InvariantError, match="lies outside the"):
            boundary_matrix(fake, Variant(op, "relative"), 1)


def test_isomorphism_witness_never_builds_the_fraction_matrices(t2):
    """Each differential is assembled once, in its stored form: on an
    integer algebra every boundary matrix that `isomorphism_witness` leaves
    in the split's cache holds only `int`s, so no `Fraction` enters the
    assembly, the elimination or the solves."""
    split = fresh_split(t2)
    report = isomorphism_witness(split, 2)
    assert report.dimensions_match and report.onto
    cached = [value[0] for key, value in split.chain_cache.items()
              if key[0] in ("boundary_matrix", "_weight_zero_matrix")]
    assert len(cached) >= 4 and any(matrix.entries for matrix in cached)
    for matrix in cached:
        assert all(type(v) is int for v in matrix.entries.values())


def test_repeated_isomorphism_witness_is_identical(t2, direct_sum):
    for demo, degree in ((t2, 2), (direct_sum, 2)):
        split = fresh_split(demo)
        first = isomorphism_witness(split, degree)
        second = isomorphism_witness(split, degree)
        assert first == second
        assert [json.dumps(certificate_to_doc(c, split)) for c in first.all_certificates()] == [
            json.dumps(certificate_to_doc(c, split)) for c in second.all_certificates()
        ]


def test_cached_complexes_are_not_mutated(t2):
    split = fresh_split(t2)
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
        # one with a complement slot, whose solve reads ∂^rel_(degree+1)
        assert not _invert_by_solve(rep + mixed_boundary(split, degree))[1].is_zero()
    for (variant, n), triple, (entries, cols, rows) in zip(keys, cached, snapshots):
        assert boundary_matrix(split, variant, n) is triple
        assert triple[0].entries == entries
        assert (triple[1], triple[2]) == (cols, rows)
    # two solves against one memoised matrix give equal answers and leave
    # it as it was
    for variant, n in keys:
        matrix = boundary_matrix(split, variant, n)[0]
        snapshot = copy.deepcopy(matrix)
        consistent = matrix.matvec(SparseVector(matrix.cols, {0: 2, matrix.cols - 1: -1}))
        planted = SparseVector(matrix.rows, {r: Fraction(r + 1, 3) for r in range(matrix.rows)})
        for rhs in (consistent, planted):
            first, second = solve(matrix, rhs), solve(matrix, rhs)
            assert first == second
        assert matrix.matvec(solve(matrix, consistent)) == consistent
        assert isinstance(solve(matrix, planted), Unsolvable)
        assert matrix == snapshot and list(matrix.entries) == list(snapshot.entries)


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


def _add_one(matrix, r, c):
    """Add 1 to entry (r, c) of `matrix` in place, storing a new entry
    after the others of column c, so that each column stays together."""
    entries = matrix.entries
    if (r, c) in entries:
        entries[(r, c)] += 1
        return
    items = list(entries.items())
    last = max(i for i, ((_, k), _) in enumerate(items) if k == c)
    items.insert(last + 1, ((r, c), 1))
    entries.clear()
    entries.update(items)


@pytest.mark.parametrize("graded, op, space, degree", [
    (False, "hh", "A", 1), (False, "hc", "relative", 2),
    (True, "hh", "A", 2), (True, "hc", "relative", 2),
])
def test_homology_rejects_a_complex_whose_square_is_not_zero(t2, graded, op, space, degree):
    # ∂∂ is checked one stored column of ∂_(degree+1) at a time, the last
    # column after the loop over the entries: perturb an entry that meets ∂,
    # the first stored column and the last, of the matrices homology reads:
    # the full ones on t2-corner rebased by offset 1, which has no grading
    # element, and the weight-0 ones on t2-corner (its ∂_1 is zero there;
    # test_full_matrices_square_to_zero checks the full matrices)
    for where in ("meets ∂", 0, -1):
        split = fresh_split(t2) if graded else rebased_split(t2, 1)
        assemble = _weight_zero_matrix if graded else boundary_matrix
        variant = Variant(op, space)
        down = assemble(split, variant, degree)[0]
        up = assemble(split, variant, degree + 1)[0]
        used = {k for (_, k) in down.entries}
        stored = list(up.entries)
        if where == "meets ∂":
            r, c = next((r, c) for (r, c) in stored if r in used)
        else:
            r, c = min(used), stored[where][1]
        # moving up[r, c] by 1 moves column c of ∂∂ by column r of ∂, not zero
        _add_one(up, r, c)
        with pytest.raises(InvariantError, match="not zero"):
            homology(split, variant, degree)


def _count_eliminations(monkeypatch):
    """Count `linalg._eliminate` calls by shape outside the unit search, and
    in number inside it, and the homology projections (`_pivot_columns` in
    `chains`) by shape.  Local units are memoised per split by their target
    set, so their small systems are counted apart from the chain complexes
    and the inverse systems."""
    counts = {"complex": [], "unit": 0, "projection": []}
    inside_unit_search = []
    original = linalg._eliminate
    pivot_columns = chains._pivot_columns
    find_unit = units.find_local_left_unit

    def eliminate(rows, cols):
        if inside_unit_search:
            counts["unit"] += 1
        else:
            counts["complex"].append((len(rows), cols))
        return original(rows, cols)

    def project(rows, cols):
        counts["projection"].append((len(rows), cols))
        return pivot_columns(rows, cols)

    def unit_search(ideal, targets):
        inside_unit_search.append(True)
        try:
            return find_unit(ideal, targets)
        finally:
            inside_unit_search.pop()

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    monkeypatch.setattr(chains, "_pivot_columns", project)
    monkeypatch.setattr(units, "find_local_left_unit", unit_search)
    return counts


def test_each_system_is_eliminated_once(corpus, monkeypatch):
    degree = 2
    for demo in corpus:
        split = fresh_split(demo)
        counts = _count_eliminations(monkeypatch)
        first = isomorphism_witness(split, degree)
        solved = [r.input for r in first.onto] + [r.input for r, _ in first.back]
        assert len(solved) >= 2 and counts["unit"] > 0
        witness_eliminations = list(counts["complex"])
        projections = counts["projection"]
        # no complex is eliminated or projected twice (told apart by shape):
        # on matrix2 the ideal is the whole algebra, and its spaces share
        # one complex
        assert projections, demo.name
        for reduced in (witness_eliminations, projections):
            assert len(set(reduced)) == len(reduced), demo.name
        if split.ideal_count == split.dimension:
            for op in VARIANT_OPS:
                for n in range(1, degree + 2):
                    for memoised in (basis_tuples, boundary_matrix,
                                     chains._homology_basis):
                        shared = {id(memoised(split, Variant(op, space), n))
                                  for space in VARIANT_SPACES}
                        assert len(shared) == 1, (op, n, memoised.__name__)
        counts["complex"].clear()
        counts["unit"] = 0
        projections.clear()
        assert isomorphism_witness(split, degree) == first
        assert counts["complex"] == [] and projections == [], demo.name
        assert counts["unit"] == 0, demo.name
        # every corpus class is all-ideal, so the inverse solved nothing; a
        # class with a complement slot eliminates the mixed rows of
        # ∂^rel_(n+1) once, with its right-hand side as one more column, and
        # nothing else
        up = boundary_matrix(split, Variant("hc", "relative"), degree + 1)[0]
        shape = (up.rows, up.cols + 1)
        assert shape not in witness_eliminations
        if split.ideal_count == split.dimension:
            continue  # matrix2: no tuple has a complement slot
        for chain in solved:
            mixed = chain + mixed_boundary(split, degree)
            for scale in (1, -3):
                counts["complex"].clear()
                _invert_by_solve(mixed.scaled(scale))
                assert counts["complex"] == [shape], demo.name
        assert projections == [], demo.name
