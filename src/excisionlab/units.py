"""Local left units found by exact linear solving, and the unit schedules
the inverse formula consumes, built and checked by one rule, `level_targets`.

An element e of an ideal I is a local left unit for a finite target set S
when e·s = s for every s in S.  Units, targets and schedules are split
coordinates, as chains are, and products read the split's product table.
The solver is deterministic (free variables are zeroed), so the same
targets always yield the same unit, and every returned unit is
re-verified against its targets before being handed out.
`build_unit_schedule` therefore solves each target set once per split: it
keeps the unit, or the `NoLocalUnit`, in the split's `chain_cache`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .algebra import _product
from .linalg import InvariantError, SparseMatrix, SparseVector, Unsolvable, solve


@dataclass(frozen=True)
class NoLocalUnit:
    """No element of the ideal left-fixes all targets; `witness_target` is the
    first target whose equation makes the system inconsistent.  As in a
    chain, the vectors are split coordinates of `context`."""

    witness_target: SparseVector
    targets: tuple
    detail: str
    context: object


class ScheduleMismatchError(ValueError):
    """The unit schedule does not cover the slots of the given chain."""


class NoLocalUnitError(RuntimeError):
    """Raised when schedule construction hits a NoLocalUnit mid-pipeline."""

    def __init__(self, level, failure):
        self.level = level
        self.failure = failure
        super().__init__(
            f"no local left unit exists for the level-{level} target set "
            f"({len(failure.targets)} targets); the local-unit hypothesis fails"
        )


def _times(split, i, vector):
    """f_i·vector, read from the table row of the split basis element f_i."""
    return _product(split.product_table, ((i, 1),), vector.entries.items())


def _unit_system(split, targets):
    """Stack the equations e·s = s over the coordinates of e; only the ideal
    coordinates have columns, so a solution with free variables zero is e."""
    dim = split.dimension
    entries, rhs = {}, {}
    for t_index, s in enumerate(targets):
        base = t_index * dim
        for k in range(split.ideal_count):
            for r, v in _times(split, k, s).items():
                entries[(base + r, k)] = v
        for r, v in s.entries.items():
            rhs[base + r] = v
    matrix = SparseMatrix(len(targets) * dim, dim, entries)
    return matrix, SparseVector(len(targets) * dim, rhs)


def find_local_left_unit(split, targets):
    """Solve e·s = s (all s in `targets`) for e in the ideal of `split`.

    Targets and unit are split coordinates.  Returns the unit, or a
    NoLocalUnit witness.  A target with a coordinate at or above
    `ideal_count` lies outside the ideal: a caller error, which raises.
    """
    targets = list(targets)
    for index, s in enumerate(targets):
        if any(i >= split.ideal_count for i in s.entries):
            raise ValueError(f"target {index} does not lie in the ideal")
    matrix, rhs = _unit_system(split, targets)
    unit = solve(matrix, rhs)
    if isinstance(unit, Unsolvable):
        return NoLocalUnit(
            witness_target=_first_failing_target(split, targets),
            targets=tuple(targets),
            detail=f"inconsistent at echelon row {unit.row}",
            context=split,
        )
    # post-verification: the unit really fixes every target, exactly
    for idx, s in enumerate(targets):
        if split.mul(unit, s) != s:
            raise InvariantError(f"the solved unit does not fix target {idx}")
    return unit


def _first_failing_target(split, targets):
    """Smallest prefix of the target list that is already unsolvable ends at
    the witness target."""
    for end in range(1, len(targets) + 1):
        matrix, rhs = _unit_system(split, targets[:end])
        if isinstance(solve(matrix, rhs), Unsolvable):
            return targets[end - 1]
    raise InvariantError("full system unsolvable but every prefix solvable")


@dataclass(frozen=True)
class UnitSchedule:
    """Units (e_1, ..., e_n): units[i-1] is e_i in split coordinates.

    A schedule records no targets: `check_schedule` derives them, by
    `level_targets`, from the chain the schedule is applied to.
    """

    units: tuple

    @property
    def degree(self):
        return len(self.units)


def level_targets(context, tuples, level, above):
    """The descending unit rule: the targets e_level must fix for the index
    tuples `tuples`, as split-coordinate vectors.  With `above` None (level
    n) they are the initial slots f_i; else `above` (e_(level+1)), then the
    distinct nonzero products f_i·above over the slot-(level+1) entries."""
    dim = context.dimension
    if above is None:
        return [SparseVector.unit(dim, i) for i in _slot_indices(tuples, 0)]
    targets = dict.fromkeys([above])  # ordered: the first occurrence is kept
    for i in _slot_indices(tuples, level + 1):
        product = _times(context, i, above)
        if product:
            targets.setdefault(SparseVector(dim, product))
    return list(targets)


def _slot_indices(tuples, position):
    return sorted({t[position] for t in tuples})


def build_unit_schedule(tuples, context, degree):
    """Build the descending unit schedule for a family of pure tensors.

    `tuples` are index tuples over the split basis, each of the given degree
    with the initial slot in the ideal part.  Going down from e_n, e_level
    is a local left unit for the targets of `level_targets`, looked up by
    its ordered target list (levels share it) before it is solved; failure
    raises NoLocalUnitError carrying the level and the NoLocalUnit witness.
    """
    n = operator.index(degree)
    tuples = [tuple(t) for t in tuples]
    for t in tuples:
        if len(t) != n + 1:
            raise ValueError(f"tuple {t} does not have degree {n}")
        if not context.is_ideal_index(t[0]):
            raise ValueError(f"tuple {t} has a non-ideal initial slot")
    units, above = [], None
    for level in range(n, 0, -1):
        targets = level_targets(context, tuples, level, above)
        key = ("local_unit", tuple(targets))
        above = context.chain_cache.get(key)
        if above is None:
            above = find_local_left_unit(context, targets)
            context.chain_cache[key] = above
        if isinstance(above, NoLocalUnit):
            raise NoLocalUnitError(level, above)
        units.append(above)
    return UnitSchedule(tuple(units[::-1]))


def require_degree(schedule, degree):
    """Raise ScheduleMismatchError unless the schedule has `degree` units."""
    if schedule.degree != degree:
        raise ScheduleMismatchError(
            f"schedule has {schedule.degree} units but the chain has degree {degree}"
        )


def _unit_refusal(context, unit):
    """Why the split-coordinate `unit` is no element of the split's ideal
    ("has the wrong dimension", "lies outside the ideal"), or None."""
    if unit.dimension != context.dimension:
        return "has the wrong dimension"
    if any(i >= context.ideal_count for i in unit.entries):
        return "lies outside the ideal"
    return None


def check_schedule(chain, schedule):
    """Replay `level_targets` on the slots of `chain`, with each e_(level+1)
    read from the schedule, and raise ScheduleMismatchError unless the
    schedule has the chain's degree, each unit lies in the ideal, and each
    unit fixes its targets."""
    require_degree(schedule, chain.degree)
    context, tuples = chain.context, chain.terms
    for unit in schedule.units:
        if (refusal := _unit_refusal(context, unit)) is not None:
            raise ScheduleMismatchError(f"a unit of the schedule {refusal}")
    mul, label = context.mul, context.split_label
    above = None
    for level in range(chain.degree, 0, -1):
        unit = schedule.units[level - 1]
        for k, target in enumerate(level_targets(context, tuples, level, above)):
            if mul(unit, target) == target:
                continue
            # name the target only now, so the build path formats nothing
            if above is None:
                name = f"the initial slot {label(_slot_indices(tuples, 0)[k])}"
            elif k == 0:
                name = f"e_{level + 1}"
            else:  # by the first slot entry whose product it is
                index = next(i for i in _slot_indices(tuples, level + 1)
                             if _times(context, i, above) == target.entries)
                name = f"{label(index)}·e_{level + 1}"
            raise ScheduleMismatchError(f"e_{level} does not fix {name}")
        above = unit
