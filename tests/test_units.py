from dataclasses import replace
from itertools import combinations

import pytest

from excisionlab.algebra import Ideal, SplitBasis, make_split_basis
from excisionlab import units
from excisionlab.chains import Chain, boundary_b
from excisionlab.excision import inverse_excision, verify_certificate
from excisionlab.linalg import InvariantError, SparseVector, Unsolvable
from excisionlab.units import (
    NoLocalUnit,
    NoLocalUnitError,
    ScheduleMismatchError,
    UnitSchedule,
    build_unit_schedule,
    check_schedule,
    find_local_left_unit,
)

from support import dual_number_split, filtered_cycle_basis, split_vectors


def _fresh(split):
    """The same split with an empty cache: every unit system solved anew."""
    return SplitBasis(split.ideal, split.ordered_basis, split.ideal_count)


def _ideal(split):
    """The ideal basis of `split` in split coordinates."""
    return split_vectors(split, range(split.ideal_count))


def test_corner_ideal_unit(t2):
    # e·E11 = E11 and e·E12 = E12 has the solution e = E11 with the free
    # E12-coordinate zeroed
    unit = find_local_left_unit(t2.split, _ideal(t2.split))
    assert unit == SparseVector.from_list([1, 0, 0])


def test_unital_ideal_unit_is_the_identity(matrix2):
    unit = find_local_left_unit(matrix2.split, _ideal(matrix2.split))
    assert unit == SparseVector.from_list([1, 0, 0, 1])


def test_nilpotent_line_has_no_unit(t2):
    # x·E12 = 0 for every x in span{E12}, which the split lists first
    line = Ideal(t2.algebra, [SparseVector.from_list([0, 1, 0])])
    split = make_split_basis(line)
    result = find_local_left_unit(split, _ideal(split))
    assert isinstance(result, NoLocalUnit)
    assert result.witness_target == SparseVector.from_list([1, 0, 0])
    assert result.context is split
    assert split.from_split(result.witness_target) == SparseVector.from_list([0, 1, 0])


def test_targets_outside_ideal_rejected(t2):
    with pytest.raises(ValueError, match="target 0 does not lie"):
        find_local_left_unit(t2.split, [SparseVector.from_list([0, 0, 1])])
    # the first target outside the ideal is named, after ideal targets and
    # before a repeat of itself
    targets = [[1, 0, 0], [2, -1, 0], [0, 1, 0], [1, 0, 1], [0, 0, 3], [1, 0, 1]]
    with pytest.raises(ValueError, match="target 3 does not lie"):
        find_local_left_unit(t2.split, [SparseVector.from_list(t) for t in targets])


def test_unit_fixes_every_target_exactly(corpus):
    for demo in corpus:
        split = demo.split
        unit = find_local_left_unit(split, _ideal(split))
        for s in _ideal(split):
            assert split.mul(unit, s) == s
        # the same unit in parent coordinates, under the algebra's product
        for v in demo.ideal.basis_vectors:
            assert demo.algebra.mul(split.from_split(unit), v) == v


def test_success_on_full_basis_implies_success_on_subsets(corpus):
    for demo in corpus:
        basis = _ideal(demo.split)
        assert isinstance(
            find_local_left_unit(demo.split, basis), SparseVector
        )
        for size in range(1, len(basis) + 1):
            for subset in combinations(basis, size):
                result = find_local_left_unit(demo.split, subset)
                assert isinstance(result, SparseVector)


def test_schedule_single_tensor(t2):
    # degree 1, tensor E11 ⊗ E22: e_1 solves e·E11 = E11
    schedule = build_unit_schedule([(0, 2)], t2.split, 1)
    assert schedule.degree == 1
    assert schedule.units[0] == SparseVector.from_list([1, 0, 0])


def test_schedule_degree_zero_is_empty(t2):
    schedule = build_unit_schedule([(0,)], t2.split, 0)
    assert schedule.degree == 0
    assert schedule.units == ()


def test_schedule_descending_conditions(direct_sum):
    split = direct_sum.split
    tuples = [(0, 4, 1, 2), (3, 2, 0, 1)]
    schedule = build_unit_schedule(tuples, split, 3)
    # soundness: e_n fixes the initial slots, e_{i-1} fixes e_i and every
    # f_i e_i, all in split coordinates
    for tup in tuples:
        [f0] = split_vectors(split, [tup[0]])
        assert split.mul(schedule.units[-1], f0) == f0
    for i in range(3, 1, -1):
        e_i = schedule.units[i - 1]
        e_prev = schedule.units[i - 2]
        assert split.mul(e_prev, e_i) == e_i
        for tup in tuples:
            [f_i] = split_vectors(split, [tup[i]])
            prod = split.mul(f_i, e_i)
            assert split.mul(e_prev, prod) == prod


def test_schedule_is_deterministic(direct_sum):
    tuples = [(0, 4, 1, 2), (3, 2, 0, 1)]
    first = build_unit_schedule(tuples, _fresh(direct_sum.split), 3)
    second = build_unit_schedule(tuples, _fresh(direct_sum.split), 3)
    assert first == second


def test_a_second_schedule_reuses_the_units(direct_sum, monkeypatch):
    split = _fresh(direct_sum.split)
    tuples = [(0, 4, 1, 2), (3, 2, 0, 1)]
    first = build_unit_schedule(tuples, split, 3)

    def unreachable(ideal, targets):
        raise AssertionError("a unit system was solved twice")

    monkeypatch.setattr(units, "find_local_left_unit", unreachable)
    second = build_unit_schedule(tuples, split, 3)
    assert second == first
    assert all(a is b for a, b in zip(second.units, first.units))


def test_warm_and_cold_schedules_agree(corpus):
    splits = [demo.split for demo in corpus] + [dual_number_split()]
    for split in splits:
        warm = _fresh(split)
        for degree in (1, 2, 3):
            cycles = filtered_cycle_basis(split, degree, degree)
            for cycle in cycles:
                build_unit_schedule(sorted(cycle.terms), warm, degree)
            for cycle in cycles:
                tuples = sorted(cycle.terms)
                assert (build_unit_schedule(tuples, warm, degree)
                        == build_unit_schedule(tuples, _fresh(split), degree))


def test_schedule_rejects_bad_tuples(t2):
    with pytest.raises(ValueError):
        build_unit_schedule([(2, 0)], t2.split, 1)  # non-ideal initial slot
    with pytest.raises(ValueError):
        build_unit_schedule([(0, 0)], t2.split, 2)  # wrong degree


def test_schedule_propagates_no_local_unit(t2, monkeypatch):
    line = Ideal(t2.algebra, [SparseVector.from_list([0, 1, 0])])
    split = make_split_basis(line)
    solves = []
    real = units.find_local_left_unit
    monkeypatch.setattr(units, "find_local_left_unit",
                        lambda *args: solves.append(args) or real(*args))
    with pytest.raises(NoLocalUnitError) as info:
        build_unit_schedule([(0, 1)], split, 1)
    assert info.value.level == 1
    assert isinstance(info.value.failure, NoLocalUnit)
    assert len(solves) == 1
    # the failure is remembered too: raised again without another solve
    with pytest.raises(NoLocalUnitError) as again:
        build_unit_schedule([(0, 1)], split, 1)
    assert len(solves) == 1
    assert again.value.level == info.value.level
    assert again.value.failure.witness_target == info.value.failure.witness_target
    assert again.value.failure.detail == info.value.failure.detail


def test_right_units_reduce_to_left_units_of_the_opposite(t2):
    # in opposite(T2) the corner ideal has local right units but no left
    # ones; passing to the opposite again restores the left hypothesis
    from excisionlab.algebra import opposite_algebra

    flipped = opposite_algebra(t2.algebra)
    split = make_split_basis(Ideal(flipped, t2.ideal.basis_vectors))
    result = find_local_left_unit(split, _ideal(split))
    assert isinstance(result, NoLocalUnit)
    restored = make_split_basis(
        Ideal(opposite_algebra(flipped), t2.ideal.basis_vectors))
    unit = find_local_left_unit(restored, _ideal(restored))
    assert unit == SparseVector.from_list([1, 0, 0])


def test_solver_contradictions_raise_a_typed_error(t2, monkeypatch):
    def forge(answer):
        # the targets' membership is read from their coordinates, not a
        # solve; every unit system gets the forged answer
        monkeypatch.setattr(units, "solve", answer)

    # a "solution" e = E12 that fixes no target is caught by re-verification
    forge(lambda m, rhs: SparseVector(m.cols, {1: 1}))
    with pytest.raises(InvariantError, match="does not fix target 0"):
        find_local_left_unit(t2.split, _ideal(t2.split))
    # an unsolvable full system whose every prefix is solvable
    answers = iter([Unsolvable(row=0)])
    forge(lambda m, rhs: next(answers, SparseVector(m.cols)))
    with pytest.raises(InvariantError, match="every prefix solvable"):
        find_local_left_unit(t2.split, _ideal(t2.split))


def test_the_checker_accepts_every_schedule_the_builder_returns(corpus):
    for demo in corpus:
        for degree in (1, 2, 3):
            for cycle in filtered_cycle_basis(demo.split, degree, degree):
                schedule = build_unit_schedule(sorted(cycle.terms), demo.split, degree)
                check_schedule(cycle, schedule)


# Strict top-filtration cycles: E11⊗E12⊗E12 + E12⊗E11⊗E12 over t2-corner,
# E11⊗E21⊗E11⊗E11 + E11⊗E11⊗E21⊗E11 over direct-sum, whose built schedule
# is (E11+E22, E11, E11): the level-1 targets are E11 and E21·E11 = E21.
T2_CYCLE = {(0, 1, 1): 1, (1, 0, 1): 1}
SUM_CYCLE = {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1}
E12_T2 = [0, 1, 0]
E11_SUM, E12_SUM = [1, 0, 0, 0, 0], [0, 1, 0, 0, 0]


# One forged unit per failure kind.  t2-corner has no f·e_i case: a unit
# that fixes an initial slot has E11-coefficient 1, so either e_i is
# E11 + b·E12, whose products f·e_i are e_i or 0, or e_i is invertible and
# only the identity fixes it.
@pytest.mark.parametrize("name, terms, level, unit, text", [
    ("t2-corner", T2_CYCLE, 2, E12_T2, "e_2 does not fix the initial slot E11"),
    ("t2-corner", T2_CYCLE, 1, E12_T2, "e_1 does not fix e_2"),
    ("direct-sum", SUM_CYCLE, 3, E12_SUM, "e_3 does not fix the initial slot E11"),
    ("direct-sum", SUM_CYCLE, 2, E12_SUM, "e_2 does not fix e_3"),
    ("direct-sum", SUM_CYCLE, 1, E11_SUM, "e_1 does not fix E21·e_2"),
])
def test_a_forged_unit_is_named_by_the_checker_and_the_verifier(
        corpus, name, terms, level, unit, text):
    split = next(d for d in corpus if d.name == name).split
    degree = len(next(iter(terms))) - 1
    cycle = Chain(degree, split, terms)
    assert boundary_b(cycle).is_zero()
    schedule = build_unit_schedule(sorted(terms), split, degree)
    check_schedule(cycle, schedule)
    result = inverse_excision(cycle, schedule)
    forged = list(schedule.units)
    forged[level - 1] = SparseVector.from_list(unit)
    with pytest.raises(ScheduleMismatchError) as info:
        check_schedule(cycle, UnitSchedule(forged))
    assert str(info.value) == text
    mismatch = verify_certificate(replace(result, schedule=UnitSchedule(forged)))
    assert mismatch.reason == f"unit schedule does not fit the input: {text}"
