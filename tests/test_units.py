from dataclasses import replace
from itertools import combinations

import pytest

from excisionlab.algebra import Ideal
from excisionlab import units
from excisionlab.chains import Chain, boundary_b
from excisionlab.excision import inverse_excision, verify_certificate
from excisionlab.linalg import Echelon, SparseVector, Unsolvable
from excisionlab.units import (
    NoLocalUnit,
    NoLocalUnitError,
    ScheduleMismatchError,
    UnitInvariantError,
    UnitSchedule,
    build_unit_schedule,
    check_schedule,
    find_local_left_unit,
)

from support import filtered_cycle_basis


def test_corner_ideal_unit(t2):
    # e·E11 = E11 and e·E12 = E12 has the solution e = E11 with the free
    # E12-coordinate zeroed
    unit = find_local_left_unit(t2.ideal, t2.ideal.basis_vectors)
    assert unit == SparseVector.from_list([1, 0, 0])


def test_unital_ideal_unit_is_the_identity(matrix2):
    unit = find_local_left_unit(matrix2.ideal, matrix2.ideal.basis_vectors)
    assert unit == SparseVector.from_list([1, 0, 0, 1])


def test_nilpotent_line_has_no_unit(t2):
    # x·E12 = 0 for every x in span{E12}
    line = Ideal(t2.algebra, [SparseVector.from_list([0, 1, 0])])
    result = find_local_left_unit(line, line.basis_vectors)
    assert isinstance(result, NoLocalUnit)
    assert result.witness_target == SparseVector.from_list([0, 1, 0])


def test_targets_outside_ideal_rejected(t2):
    with pytest.raises(ValueError):
        find_local_left_unit(t2.ideal, [SparseVector.from_list([0, 0, 1])])


def test_unit_fixes_every_target_exactly(corpus):
    for demo in corpus:
        unit = find_local_left_unit(demo.ideal, demo.ideal.basis_vectors)
        for s in demo.ideal.basis_vectors:
            assert demo.algebra.mul(unit, s) == s


def test_success_on_full_basis_implies_success_on_subsets(corpus):
    for demo in corpus:
        basis = demo.ideal.basis_vectors
        assert isinstance(
            find_local_left_unit(demo.ideal, basis), SparseVector
        )
        for size in range(1, len(basis) + 1):
            for subset in combinations(basis, size):
                result = find_local_left_unit(demo.ideal, subset)
                assert isinstance(result, SparseVector)


def test_schedule_single_tensor(t2):
    # degree 1, tensor E11 ⊗ E22: e_1 solves e·E11 = E11
    schedule = build_unit_schedule([(0, 2)], t2.split, 1)
    assert schedule.degree == 1
    assert schedule.units[0] == SparseVector.from_list([1, 0, 0])
    assert schedule.provenance[0] == (SparseVector.from_list([1, 0, 0]),)


def test_schedule_degree_zero_is_empty(t2):
    schedule = build_unit_schedule([(0,)], t2.split, 0)
    assert schedule.degree == 0
    assert schedule.units == ()


def test_schedule_descending_conditions(direct_sum):
    split = direct_sum.split
    tuples = [(0, 4, 1, 2), (3, 2, 0, 1)]
    schedule = build_unit_schedule(tuples, split, 3)
    algebra = direct_sum.algebra
    assert schedule.verify(algebra)
    # soundness: e_{i-1} fixes e_i and every recorded f_i e_i
    for i in range(3, 1, -1):
        e_i = schedule.units[i - 1]
        e_prev = schedule.units[i - 2]
        assert algebra.mul(e_prev, e_i) == e_i
        for tup in tuples:
            prod = algebra.mul(algebra.basis_vector(tup[i]), e_i)
            assert algebra.mul(e_prev, prod) == prod


def test_schedule_is_deterministic(direct_sum):
    tuples = [(0, 4, 1, 2), (3, 2, 0, 1)]
    first = build_unit_schedule(tuples, direct_sum.split, 3)
    second = build_unit_schedule(tuples, direct_sum.split, 3)
    assert first == second


def test_schedule_rejects_bad_tuples(t2):
    with pytest.raises(ValueError):
        build_unit_schedule([(2, 0)], t2.split, 1)  # non-ideal initial slot
    with pytest.raises(ValueError):
        build_unit_schedule([(0, 0)], t2.split, 2)  # wrong degree


def test_schedule_propagates_no_local_unit(t2):
    from excisionlab.algebra import make_split_basis

    line = Ideal(t2.algebra, [SparseVector.from_list([0, 1, 0])])
    split = make_split_basis(line)
    with pytest.raises(NoLocalUnitError) as info:
        build_unit_schedule([(0, 1)], split, 1)
    assert info.value.level == 1
    assert isinstance(info.value.failure, NoLocalUnit)


def test_unit_schedule_requires_matching_provenance():
    with pytest.raises(ValueError):
        UnitSchedule((SparseVector.from_list([1]),), provenance=((), ()))


def test_right_units_reduce_to_left_units_of_the_opposite(t2):
    # in opposite(T2) the corner ideal has local right units but no left
    # ones; passing to the opposite again restores the left hypothesis
    from excisionlab.algebra import opposite_algebra

    flipped = opposite_algebra(t2.algebra)
    ideal = Ideal(flipped, t2.ideal.basis_vectors)
    result = find_local_left_unit(ideal, ideal.basis_vectors)
    assert isinstance(result, NoLocalUnit)
    restored = Ideal(opposite_algebra(flipped), t2.ideal.basis_vectors)
    unit = find_local_left_unit(restored, restored.basis_vectors)
    assert unit == SparseVector.from_list([1, 0, 0])


def test_solver_contradictions_raise_a_typed_error(t2, monkeypatch):
    real_solve = units.solve

    def forge(answer):
        # the targets are checked against the ideal's echelon record with the
        # real solver; every unit system gets the forged answer
        monkeypatch.setattr(units, "solve", lambda m, rhs: (
            real_solve(m, rhs) if isinstance(m, Echelon) else answer(m, rhs)))

    # a "solution" e = E12 that fixes no target is caught by re-verification
    forge(lambda m, rhs: SparseVector(m.cols, {1: 1}))
    with pytest.raises(UnitInvariantError):
        find_local_left_unit(t2.ideal, t2.ideal.basis_vectors)
    # an unsolvable full system whose every prefix is solvable
    answers = iter([Unsolvable(row=0)])
    forge(lambda m, rhs: next(answers, SparseVector(m.cols)))
    with pytest.raises(UnitInvariantError):
        find_local_left_unit(t2.ideal, t2.ideal.basis_vectors)


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
    # with no recorded equations only the replay of the rule catches it
    mismatch = verify_certificate(replace(result, schedule=UnitSchedule(forged)))
    assert mismatch.reason == f"unit schedule does not fit the input: {text}"
    # with the builder's targets recorded, a recorded equation fails first
    mismatch = verify_certificate(
        replace(result, schedule=UnitSchedule(forged, schedule.provenance))
    )
    assert mismatch.reason == "a unit fails an equation recorded in its schedule"
