"""Local left units found by exact linear solving, and the unit schedules
the inverse formula consumes, built and checked by one rule, `level_targets`.

An element e of an ideal I is a local left unit for a finite target set S
when e·s = s for every s in S.  The solver is deterministic (free variables
are zeroed), so the same targets always yield the same unit, and every
returned unit is re-verified against its targets before being handed out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    SparseMatrix,
    SparseVector,
    Unsolvable,
    _combination,
    echelon,
    solve,
)


@dataclass(frozen=True)
class NoLocalUnit:
    """No element of the ideal left-fixes all targets; `witness_target` is the
    first target whose equation makes the system inconsistent."""

    witness_target: SparseVector
    targets: tuple
    detail: str


class ScheduleMismatchError(ValueError):
    """The unit schedule does not cover the slots of the given chain."""


class UnitInvariantError(RuntimeError):
    """The exact solver contradicted itself: a solved unit fails to fix a
    target, or an unsolvable system has only solvable prefixes.  A bug,
    never a property of the input."""


class NoLocalUnitError(RuntimeError):
    """Raised when schedule construction hits a NoLocalUnit mid-pipeline."""

    def __init__(self, level, failure):
        self.level = level
        self.failure = failure
        super().__init__(
            f"no local left unit exists for the level-{level} target set "
            f"({len(failure.targets)} targets); the local-unit hypothesis fails"
        )


def _unit_system(ideal, targets):
    """Stack the equations e·s = s over the unknown ideal coordinates of e."""
    algebra = ideal.parent
    dim = algebra.dimension
    m = len(ideal.basis_vectors)
    entries = {}
    rhs = {}
    for t_index, s in enumerate(targets):
        base = t_index * dim
        for k, w in enumerate(ideal.basis_vectors):
            for r, v in algebra.mul(w, s).entries.items():
                entries[(base + r, k)] = v
        for r, v in s.entries.items():
            rhs[base + r] = v
    matrix = SparseMatrix(len(targets) * dim, m, entries)
    return matrix, SparseVector(len(targets) * dim, rhs)


def find_local_left_unit(ideal, targets):
    """Solve e·s = s (all s in `targets`) for e in `ideal`.

    Returns the unit as a parent-coordinate vector, or a NoLocalUnit witness.
    Targets outside the ideal's span are a caller error and raise; the ideal
    basis is eliminated once and every target solved against that record.
    """
    targets = list(targets)
    span = echelon(
        SparseMatrix.from_columns(ideal.basis_vectors, rows=ideal.parent.dimension)
    )
    for idx, s in enumerate(targets):
        if isinstance(solve(span, s), Unsolvable):
            raise ValueError(f"target {idx} does not lie in the ideal")
    matrix, rhs = _unit_system(ideal, targets)
    result = solve(matrix, rhs)
    if isinstance(result, Unsolvable):
        witness = _first_failing_target(ideal, targets)
        return NoLocalUnit(
            witness_target=witness,
            targets=tuple(targets),
            detail=f"inconsistent at echelon row {result.row}",
        )
    basis = ideal.basis_vectors
    unit = _combination(
        ideal.parent.dimension, [(c, basis[k]) for k, c in result.entries.items()]
    )
    # post-verification: the unit really fixes every target, exactly
    for idx, s in enumerate(targets):
        if ideal.parent.mul(unit, s) != s:
            raise UnitInvariantError(f"the solved unit does not fix target {idx}")
    return unit


def _first_failing_target(ideal, targets):
    """Smallest prefix of the target list that is already unsolvable ends at
    the witness target."""
    for end in range(1, len(targets) + 1):
        matrix, rhs = _unit_system(ideal, targets[:end])
        if isinstance(solve(matrix, rhs), Unsolvable):
            return targets[end - 1]
    raise UnitInvariantError("full system unsolvable but every prefix solvable")


@dataclass(frozen=True)
class UnitSchedule:
    """Units (e_1, ..., e_n) with the target sets each one was solved against.

    units[i-1] is e_i in parent coordinates; provenance[i-1] is the exact
    target list for e_i, so a schedule can be replayed and re-verified.
    """

    units: tuple
    provenance: tuple = ()

    def __init__(self, units, provenance=None):
        units = tuple(units)
        if provenance is None:
            provenance = tuple(() for _ in units)
        else:
            provenance = tuple(tuple(p) for p in provenance)
        if len(provenance) != len(units):
            raise ValueError("one provenance entry per unit required")
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "provenance", provenance)

    @property
    def degree(self):
        return len(self.units)

    def verify(self, algebra):
        """Re-check every recorded equation e_i·s = s through the structure
        constants; returns True iff all hold exactly."""
        return all(algebra.mul(e, s) == s
                   for e, targets in zip(self.units, self.provenance) for s in targets)


def level_targets(context, tuples, level, above):
    """The descending unit rule: the targets e_level must fix for the index
    tuples `tuples`.  With `above` None (level n) they are the initial
    slots; else `above` (e_(level+1), parent coordinates), then the distinct
    nonzero products f·above over the slot-(level+1) entries f."""
    basis = context.ordered_basis
    if above is None:
        return [basis[i] for i in _slot_indices(tuples, 0)]
    targets = dict.fromkeys([above])  # ordered: the first occurrence is kept
    for i in _slot_indices(tuples, level + 1):
        product = context.parent.mul(basis[i], above)
        if not product.is_zero():  # not truth: every vector is truthy
            targets.setdefault(product)
    return list(targets)


def _slot_indices(tuples, position):
    return sorted({t[position] for t in tuples})


def build_unit_schedule(tuples, context, degree):
    """Build the descending unit schedule for a family of pure tensors.

    `tuples` are index tuples over the split basis, each of the given degree
    with the initial slot in the ideal part.  Going down from e_n, e_level
    is a local left unit for the targets of `level_targets`; failure raises
    NoLocalUnitError carrying the level and the NoLocalUnit witness.
    """
    n = int(degree)
    tuples = [tuple(t) for t in tuples]
    for t in tuples:
        if len(t) != n + 1:
            raise ValueError(f"tuple {t} does not have degree {n}")
        if not context.is_ideal_index(t[0]):
            raise ValueError(f"tuple {t} has a non-ideal initial slot")
    units, provenance, above = [], [], None
    for level in range(n, 0, -1):
        targets = level_targets(context, tuples, level, above)
        above = find_local_left_unit(context.ideal, targets)
        if isinstance(above, NoLocalUnit):
            raise NoLocalUnitError(level, above)
        units.append(above)
        provenance.append(targets)
    return UnitSchedule(units[::-1], provenance[::-1])


def require_degree(schedule, degree):
    """Raise ScheduleMismatchError unless the schedule has `degree` units."""
    if schedule.degree != degree:
        raise ScheduleMismatchError(
            f"schedule has {schedule.degree} units but the chain has degree {degree}"
        )


def check_schedule(chain, schedule):
    """Replay `level_targets` on the slots of `chain`, with each e_(level+1)
    read from the schedule, and raise ScheduleMismatchError unless the
    schedule has the chain's degree and each unit fixes its targets."""
    require_degree(schedule, chain.degree)
    context, tuples = chain.context, chain.terms
    mul, label = context.parent.mul, context.split_label
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
                             if mul(context.ordered_basis[i], above) == target)
                name = f"{label(index)}·e_{level + 1}"
            raise ScheduleMismatchError(f"e_{level} does not fix {name}")
        above = unit
