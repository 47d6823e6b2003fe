from itertools import combinations

import pytest

from excisionlab.algebra import Ideal
from excisionlab import units
from excisionlab.linalg import Echelon, SparseVector, Unsolvable
from excisionlab.units import (
    NoLocalUnit,
    NoLocalUnitError,
    UnitInvariantError,
    UnitRequest,
    UnitSchedule,
    build_unit_schedule,
    find_local_left_unit,
)


def test_corner_ideal_unit(t2):
    # e·E11 = E11 and e·E12 = E12 has the solution e = E11 with the free
    # E12-coordinate zeroed
    unit = find_local_left_unit(UnitRequest(t2.ideal, t2.ideal.basis_vectors))
    assert unit == SparseVector.from_list([1, 0, 0])


def test_unital_ideal_unit_is_the_identity(matrix2):
    unit = find_local_left_unit(
        UnitRequest(matrix2.ideal, matrix2.ideal.basis_vectors)
    )
    assert unit == SparseVector.from_list([1, 0, 0, 1])


def test_nilpotent_line_has_no_unit(t2):
    # x·E12 = 0 for every x in span{E12}
    line = Ideal(t2.algebra, [SparseVector.from_list([0, 1, 0])])
    result = find_local_left_unit(UnitRequest(line, line.basis_vectors))
    assert isinstance(result, NoLocalUnit)
    assert result.witness_target == SparseVector.from_list([0, 1, 0])


def test_targets_outside_ideal_rejected(t2):
    with pytest.raises(ValueError):
        find_local_left_unit(
            UnitRequest(t2.ideal, [SparseVector.from_list([0, 0, 1])])
        )


def test_unit_fixes_every_target_exactly(corpus):
    for demo in corpus:
        unit = find_local_left_unit(
            UnitRequest(demo.ideal, demo.ideal.basis_vectors)
        )
        for s in demo.ideal.basis_vectors:
            assert demo.algebra.mul(unit, s) == s


def test_success_on_full_basis_implies_success_on_subsets(corpus):
    for demo in corpus:
        basis = demo.ideal.basis_vectors
        assert isinstance(
            find_local_left_unit(UnitRequest(demo.ideal, basis)), SparseVector
        )
        for size in range(1, len(basis) + 1):
            for subset in combinations(basis, size):
                result = find_local_left_unit(UnitRequest(demo.ideal, subset))
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
    result = find_local_left_unit(UnitRequest(ideal, ideal.basis_vectors))
    assert isinstance(result, NoLocalUnit)
    restored = Ideal(opposite_algebra(flipped), t2.ideal.basis_vectors)
    unit = find_local_left_unit(UnitRequest(restored, restored.basis_vectors))
    assert unit == SparseVector.from_list([1, 0, 0])


def test_solver_contradictions_raise_a_typed_error(t2, monkeypatch):
    request = UnitRequest(t2.ideal, t2.ideal.basis_vectors)
    real_solve = units.solve

    def forge(answer):
        # the targets are checked against the ideal's echelon record with the
        # real solver; every unit system gets the forged answer
        monkeypatch.setattr(units, "solve", lambda m, rhs: (
            real_solve(m, rhs) if isinstance(m, Echelon) else answer(m, rhs)))

    # a "solution" e = E12 that fixes no target is caught by re-verification
    forge(lambda m, rhs: SparseVector(m.cols, {1: 1}))
    with pytest.raises(UnitInvariantError):
        find_local_left_unit(request)
    # an unsolvable full system whose every prefix is solvable
    answers = iter([Unsolvable(row=0)])
    forge(lambda m, rhs: next(answers, SparseVector(m.cols)))
    with pytest.raises(UnitInvariantError):
        find_local_left_unit(request)
