"""Local left units found by exact linear solving, and the unit schedules
consumed by the inverse excision formula.

An element e of an ideal I is a local left unit for a finite target set S
when e·s = s for every s in S.  The solver is deterministic (free variables
are zeroed), so the same request always yields the same unit, and every
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
class UnitRequest:
    """An ideal together with the finite target set a unit must fix."""

    ideal: object
    targets: tuple

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class NoLocalUnit:
    """No element of the ideal left-fixes all targets; `witness_target` is the
    first target whose equation makes the system inconsistent."""

    witness_target: SparseVector
    targets: tuple
    detail: str


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
    products = [
        [algebra.mul(w, s) for w in ideal.basis_vectors] for s in targets
    ]
    entries = {}
    rhs = {}
    for t_index, s in enumerate(targets):
        base = t_index * dim
        for k, w_s in enumerate(products[t_index]):
            for r, v in w_s.entries.items():
                entries[(base + r, k)] = v
        for r, v in s.entries.items():
            rhs[base + r] = v
    matrix = SparseMatrix(len(targets) * dim, m, entries)
    return matrix, SparseVector(len(targets) * dim, rhs)


def find_local_left_unit(request):
    """Solve e·s = s (all s in the targets) for e in the ideal.

    Returns the unit as a parent-coordinate vector, or a NoLocalUnit witness.
    Targets outside the ideal's span are a caller error and raise; the ideal
    basis is eliminated once and every target solved against that record.
    """
    ideal = request.ideal
    targets = list(request.targets)
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
        for e, targets in zip(self.units, self.provenance):
            for s in targets:
                if algebra.mul(e, s) != s:
                    return False
        return True


def build_unit_schedule(tuples, context, degree):
    """Build the descending unit schedule for a family of pure tensors.

    `tuples` are index tuples over the split basis, each of the given degree
    with the initial slot in the ideal part.  e_n is a local left unit for
    the set of all initial slots; then, going downward, e_{i-1} is a local
    left unit for {e_i} together with all products f_i·e_i over slot-i
    entries f_i.  Failure raises NoLocalUnitError carrying the level and the
    NoLocalUnit witness.
    """
    ideal = context.ideal
    algebra = context.parent
    n = int(degree)
    tuples = [tuple(t) for t in tuples]
    for t in tuples:
        if len(t) != n + 1:
            raise ValueError(f"tuple {t} does not have degree {n}")
        if not context.is_ideal_index(t[0]):
            raise ValueError(f"tuple {t} has a non-ideal initial slot")
    if n == 0:
        return UnitSchedule(())
    units = [None] * n
    provenance = [None] * n

    def slot_vectors(position):
        indices = sorted({t[position] for t in tuples})
        return [context.ordered_basis[i] for i in indices]

    targets = slot_vectors(0)
    result = find_local_left_unit(UnitRequest(ideal, targets))
    if isinstance(result, NoLocalUnit):
        raise NoLocalUnitError(n, result)
    units[n - 1] = result
    provenance[n - 1] = tuple(targets)
    for i in range(n, 1, -1):
        e_i = units[i - 1]
        targets = [e_i]
        seen = {e_i}
        for f in slot_vectors(i):
            prod = algebra.mul(f, e_i)
            if prod.is_zero() or prod in seen:
                continue
            seen.add(prod)
            targets.append(prod)
        result = find_local_left_unit(UnitRequest(ideal, targets))
        if isinstance(result, NoLocalUnit):
            raise NoLocalUnitError(i - 1, result)
        units[i - 2] = result
        provenance[i - 2] = tuple(targets)
    return UnitSchedule(tuple(units), tuple(provenance))
