"""The weight grading that lets homology read only the weight-0 block.

A grading element is an ideal basis element x with x·f_i − f_i·x = w_i f_i
for every split basis element f_i; a tuple weighs the sum of its slots'
weights.  These tests check the premises of the restriction on the full
complexes, which homology no longer reads on a graded split: the library
finds exactly the grading elements a brute-force search finds, every
stored entry of every full differential joins a row and a column of equal
weight, ∂∂ = 0 holds on every full matrix, and the Cartan homotopy h_x
gives b h_x + h_x b = w·id on every tuple of nonzero weight.  Then that
the pruned walk lists exactly the weight-0 tuples that filtering the whole
chain group keeps, which splits are restricted, and that homology on the
weight-0 block equals the incremental-span reference on the full complex.
"""

from fractions import Fraction
from itertools import product as iter_product

import pytest

from excisionlab.algebra import Ideal, make_split_basis
from excisionlab.chains import (
    VARIANT_OPS, VARIANT_SPACES, Variant, _add_boundary, _gradings,
    _weight_zero_matrix, _weight_zero_tuples, basis_tuples, boundary_matrix,
    homology,
)
from excisionlab.fileio import demo_corpus
from excisionlab.linalg import SparseVector

from dense_oracle import filtered_tuples, incremental_span_homology
from support import (
    dual_number_split, halved_ideal_split, rebased_split, upper_triangular_split,
)

CORPUS = {demo.name: demo for demo in demo_corpus()}


def demo04_split():
    """Demo 04's split: the nilpotent line span{E12} in t2-corner, an ideal
    without local units."""
    t2 = CORPUS["t2-corner"]
    return make_split_basis(Ideal(t2.algebra, [SparseVector.from_list([0, 1, 0])]))


SPLITS = {
    **{name: lambda demo=demo: demo.split for name, demo in CORPUS.items()},
    "ut3": upper_triangular_split,
    "dual-number": dual_number_split,
    "t2-corner halved": lambda: halved_ideal_split(CORPUS["t2-corner"]),
    "demo 04": demo04_split,
    **{f"{name} rebased {offset}": lambda demo=demo, offset=offset: rebased_split(demo, offset)
       for name, demo in CORPUS.items() for offset in (1, 2)},
}
# the grading elements a brute-force search finds, by split: ideal index -> weights
GRADED = {
    "t2-corner": {0: [0, 1, 0]},
    "matrix2": {0: [0, 1, -1, 0], 3: [0, -1, 1, 0]},
    "direct-sum": {0: [0, 1, -1, 0, 0], 3: [0, -1, 1, 0, 0]},
    "ut3": {0: [0, 1, 1, 0, 0, 0]},
    "dual-number": {0: [0, 0, 1, 1, 0, 0]},
    "t2-corner halved": {0: [0, Fraction(1, 2), 0]},
    "t2-corner rebased 2": {0: [0, 1, 0]},
}


def grading_elements(split):
    """{e: [w_0, ...]} for every ideal basis element f_e, not central, whose
    bracket with every split basis element f_i is a multiple w_i f_i, found
    from products of split basis vectors through the parent algebra."""
    dim = split.dimension
    basis = [SparseVector.unit(dim, i) for i in range(dim)]

    def times(u, v):
        return split.to_split(split.parent.mul(split.from_split(u), split.from_split(v)))

    found = {}
    for e in range(split.ideal_count):
        weights = []
        for i, f in enumerate(basis):
            bracket = times(basis[e], f) - times(f, basis[e])
            if set(bracket.entries) - {i}:
                break
            weights.append(bracket.entries.get(i, 0))
        else:
            if any(weights):
                found[e] = weights
    return found


def weigh(weights, tup):
    return sum(weights[i] for i in tup)


@pytest.mark.parametrize("name", SPLITS)
def test_the_library_finds_the_grading_elements_a_search_finds(name):
    split = SPLITS[name]()
    found = grading_elements(split)
    assert found == GRADED.get(name, {})
    assert _gradings(split) == list(found.values())
    # weights are exact: `int`, or a `Fraction` where not integral
    assert all(type(w) is int or w.denominator != 1
               for weights in _gradings(split) for w in weights)


@pytest.mark.parametrize("name", ["t2-corner", "matrix2", "direct-sum", "ut3"])
def test_every_stored_entry_joins_a_row_and_a_column_of_equal_weight(name):
    split = SPLITS[name]()
    gradings = _gradings(split)
    stored = 0
    for op in VARIANT_OPS:
        for space in VARIANT_SPACES:
            for degree in range(1, 5):
                matrix, cols, rows = boundary_matrix(split, Variant(op, space), degree)
                stored += len(matrix.entries)
                for weights in gradings:
                    for r, c in matrix.entries:
                        assert weigh(weights, rows[r]) == weigh(weights, cols[c]), (
                            op, space, degree, rows[r], cols[c])
    assert gradings and stored


def _add(out, key, value):
    total = out.get(key, 0) + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def _b(split, chain):
    out = {}
    for tup, coeff in chain.items():
        _add_boundary(out, split, tup, coeff, True)
    return out


def _h(x, chain):
    """h_x = Σ_i (-1)^(i+1) a0⊗…⊗ai⊗x⊗a(i+1)⊗…⊗an, the Cartan homotopy."""
    out = {}
    for tup, coeff in chain.items():
        for i in range(len(tup)):
            _add(out, tup[:i + 1] + (x,) + tup[i + 1:], (-1) ** (i + 1) * coeff)
    return out


@pytest.mark.parametrize("name", sorted(GRADED))
def test_the_pruned_walk_lists_what_the_filter_keeps(name):
    """The walk that enters only prefixes able to reach weight 0 lists the
    tuples that filtering the whole chain group by weight keeps, in the same
    order, and with nothing pruned the whole group: every op and space,
    degrees 0-5."""
    split = SPLITS[name]()
    for op in VARIANT_OPS:
        for space in VARIANT_SPACES:
            variant = Variant(op, space)
            for degree in range(6):
                case = (op, space, degree)
                assert _weight_zero_tuples(split, variant, degree) == filtered_tuples(
                    split, variant, degree), case
                assert basis_tuples(split, variant, degree) == filtered_tuples(
                    split, variant, degree, weighted=False), case


@pytest.mark.parametrize("name", sorted(GRADED))
def test_the_cartan_homotopy_contracts_every_nonzero_weight_block(name):
    """b h_x + h_x b = w·id on every tuple of weight w ≠ 0 under x, degrees
    1-4, over the whole algebra (h_x keeps the I and relative spaces, x
    being ideal)."""
    split = SPLITS[name]()
    dim = split.dimension
    for x, weights in grading_elements(split).items():
        checked = 0
        for degree in range(1, 5):
            for tup in iter_product(range(dim), repeat=degree + 1):
                w = weigh(weights, tup)
                if not w:
                    continue
                lhs = _b(split, _h(x, {tup: 1}))
                for key, value in _h(x, _b(split, {tup: 1})).items():
                    _add(lhs, key, value)
                assert lhs == {tup: w}, (x, tup)
                checked += 1
        assert checked


@pytest.mark.parametrize("name", [
    "t2-corner", "matrix2", "direct-sum", "ut3", "dual-number",
    *(f"{n} rebased {offset}" for n in CORPUS for offset in (1, 2)),
])
def test_full_matrices_square_to_zero(name):
    """At run time homology checks ∂∂ = 0 on the weight-0 block only; here
    on every full matrix, degrees 1-4."""
    split = SPLITS[name]()
    for op in VARIANT_OPS:
        for space in VARIANT_SPACES:
            variant = Variant(op, space)
            for degree in range(1, 4):
                down = boundary_matrix(split, variant, degree)[0]
                up = boundary_matrix(split, variant, degree + 1)[0]
                down_cols = {}
                for (r, k), v in down.entries.items():
                    down_cols.setdefault(k, []).append((r, v))
                product = {}
                for (k, c), v in up.entries.items():
                    for r, d in down_cols.get(k, ()):
                        _add(product, (r, c), v * d)
                assert product == {}, (op, space, degree)


UNGRADED = ["demo 04", "t2-corner rebased 1", "matrix2 rebased 1", "matrix2 rebased 2",
            "direct-sum rebased 1", "direct-sum rebased 2"]


@pytest.mark.parametrize("name", UNGRADED)
def test_an_ungraded_split_restricts_nothing(name):
    """With no grading element, homology reads the full complex itself."""
    split = SPLITS[name]()
    assert _gradings(split) == []
    for op in VARIANT_OPS:
        for space in VARIANT_SPACES:
            variant = Variant(op, space)
            for degree in range(1, 4):
                homology(split, variant, degree)
                assert _weight_zero_tuples(split, variant, degree) is basis_tuples(
                    split, variant, degree)
                assert _weight_zero_matrix(split, variant, degree) is boundary_matrix(
                    split, variant, degree)


@pytest.mark.parametrize("name", ["t2-corner rebased 2", "dual-number", "direct-sum"])
def test_a_graded_split_restricts_hh_and_hc_but_not_bar(name):
    split = SPLITS[name]()
    (weights, *rest) = _gradings(split)
    for space in VARIANT_SPACES:
        for degree in range(1, 4):
            full = boundary_matrix(split, Variant("bar", space), degree)
            assert _weight_zero_matrix(split, Variant("bar", space), degree) is full
            for op in ("hh", "hc"):
                variant = Variant(op, space)
                tuples = _weight_zero_tuples(split, variant, degree)
                every = basis_tuples(split, variant, degree)
                assert tuples == [t for t in every if weigh(weights, t) == 0
                                  and all(weigh(w, t) == 0 for w in rest)]
                assert len(tuples) < len(every)
                matrix, cols, rows = _weight_zero_matrix(split, variant, degree)
                assert cols == tuples and rows == _weight_zero_tuples(
                    split, variant, degree - 1)
                report = homology(split, variant, degree)
                assert report.space_dimension == len(every)


def test_the_dual_number_split_keeps_its_classes_of_odd_x_degree():
    """The dual-number split is graded by E11 (inner) and also by the
    degree in x, which is not inner: restricting by the x-degree would lose
    the classes of odd x-degree, which the E11 grading keeps."""
    split = dual_number_split()
    x_degree = [0, 1, 0, 1, 0, 1]  # E11, E11x, E12, E12x, E22, E22x
    odd = 0
    for op in ("hh", "hc"):
        for degree in range(4):
            for cycle in homology(split, Variant(op, "I"), degree).representatives:
                odd += any(weigh(x_degree, t) % 2 for t in cycle.terms)
    assert odd


# the tier-1 subset of tests/cross_check_oracles.py's homology cases
REFERENCE_CASES = [("t2-corner", 3), ("ut3", 2), ("dual-number", 3),
                   ("t2-corner halved", 3), ("demo 04", 3), ("t2-corner rebased 2", 3)]


@pytest.mark.parametrize("name, top", REFERENCE_CASES)
def test_weight_zero_homology_matches_the_full_reference(name, top):
    split = SPLITS[name]()
    for op in VARIANT_OPS:
        for space in VARIANT_SPACES:
            variant = Variant(op, space)
            for degree in range(top + 1):
                report = homology(split, variant, degree)
                dimension, representatives = incremental_span_homology(
                    split, variant, degree)
                assert report.dimension == dimension, (op, space, degree)
                assert [r.terms for r in report.representatives] == representatives
