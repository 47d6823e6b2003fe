"""The excision map, filtration descent, the closed inverse formula, and
machine-checkable certificates for every homology equality produced.

Certificates reify the homotopies of the underlying arguments: a descent
certificate holds input, output and a left unit e on the initial slots, and
claims the exact identity  input − output = b(G) + e ⊗ b(input)  for the
homotopy G = e ⊗ input, derived from them and never stored;
a boundary certificate records a degree-(n+1) witness η whose boundary equals
a claimed-homologous difference, and an inverse result bundles the unit
schedule with a boundary certificate for  ρ(output) ≡ input.  For a strict
cycle that witness is minus the summed homotopy of the n descent steps the
closed formula summarises, so the paper's inverse does no linear algebra.
Every other class is inverted by one boundary b(η) that cancels the terms of
its canonical form with a complement slot; since C(I) is the subcomplex of
all-ideal tuples, what remains is an ideal cycle.  η is found by an exact
linear solve on those rows of the relative differential, and a class with
no such term, all-ideal, is its own inverse image and solves nothing.
Verification re-expands every identity from scratch, so a tampered
certificate is caught by exact residual arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _product
from .chains import (
    SPACES,
    Chain,
    Variant,
    _check_degree,
    _signed_rotations,
    boundary_b,
    boundary_matrix,
    canonicalize_cyclic,
    homology,
    is_ideal_chain,
    tensor_prepend,
)
from .linalg import (
    InvariantError, SparseMatrix, SparseVector, Unsolvable, _accumulate, solve,
)
from .units import (
    ScheduleMismatchError, _unit_refusal, build_unit_schedule, check_schedule,
    require_degree,
)


class UnitActionError(ValueError):
    """The supplied element fails to act as a left unit on an initial slot."""

    def __init__(self, tail, head):
        self.tail = tail
        self.head = head
        super().__init__(
            f"element is not a left unit on the initial content {head!r} "
            f"(tensor tail {tail})"
        )


class CertificateSearchError(RuntimeError):
    """The system of `_invert_by_solve` has no solution: no boundary cancels
    the terms with a complement slot.

    For a relative cyclic cycle under the local-unit hypotheses this cannot
    happen — it would falsify the excision isomorphism — so the input was
    not such a cycle.  The system (the mixed rows of the relative
    differential), its right-hand side and its column tuples are attached
    for inspection.
    """

    def __init__(self, message, matrix, rhs, columns):
        self.matrix = matrix
        self.rhs = rhs
        self.columns = columns
        super().__init__(message)


@dataclass(frozen=True)
class DescentCertificate:
    """One descent step.

    The defining identity, valid whether or not the input is a cycle:
        input − output = b(homotopy) + e ⊗ b(input)
    where e is the unit, in the split coordinates of the chains, and the
    homotopy e ⊗ input is derived from the input and the unit.
    """

    input: Chain
    output: Chain
    unit: SparseVector

    @property
    def homotopy(self):
        return tensor_prepend(self.unit, self.input)


# the ops a boundary certificate can claim: strict, or modulo rotation
BOUNDARY_OPS = ("hh", "hc")


@dataclass(frozen=True)
class BoundaryCertificate:
    """Claim that lhs ≡ rhs, witnessed by η with b(η) = lhs − rhs.

    op "hh" compares strictly; op "hc" compares canonical forms modulo the
    signed rotation.  space names where the chains must live, as in
    `chains.SPACES`; an unknown op or space does not verify.
    """

    lhs: Chain
    rhs: Chain
    witness: Chain
    op: str
    space: str


@dataclass(frozen=True)
class InverseResult:
    """Inverse image of a relative cycle with its verification data."""

    input: Chain
    schedule: object
    output: Chain
    verification: BoundaryCertificate


@dataclass(frozen=True)
class Mismatch:
    """Verification failure: the exact residual of the claimed identity."""

    reason: str
    residual: Chain | None = None


def rho(chain):
    """The excision map: a chain over the ideal, read inside the ambient
    algebra.  On the standard tensor basis this is the identity on tuples."""
    if not is_ideal_chain(chain):
        raise ValueError("rho needs every slot inside the ideal")
    return chain


def rotate_to_ideal_initial(chain):
    """Rotate each term so its lowest-position ideal slot sits in slot 0.

    The output is a chain whose initial slots all lie in the ideal and whose
    canonical form (`canonicalize_cyclic`) is that of the input.
    """
    context = chain.context
    out = {}
    for tup, coeff in chain.terms.items():
        position = next(
            (q for q, i in enumerate(tup) if context.is_ideal_index(i)), None
        )
        if position is None:
            raise ValueError(
                f"tuple {tup} has no ideal slot; the chain is not relative"
            )
        # rotating by -position slots brings that slot to the front
        rotated, sign = _signed_rotations(tup)[-position]
        _accumulate(out, rotated, sign * coeff)
    return Chain(chain.degree, context, out)


def require_top_filtration(chain):
    """Reject a tuple whose initial slot is not ideal (ValueError): the rule
    of the top filtration step."""
    for tup in chain.terms:
        if not chain.context.is_ideal_index(tup[0]):
            raise ValueError(
                f"tuple {tup} has a non-ideal initial slot: the chain is not "
                "in the top filtration step"
            )


def _check_left_unit(chain, unit):
    """Check e·f0 = f0 for the initial content f0 of each tail, the exact
    shape of the left-unit hypothesis, or raise UnitActionError."""
    heads = {}
    for tup, coeff in chain.terms.items():
        _accumulate(heads.setdefault(tup[1:], {}), tup[0], coeff)
    for tail, head in sorted(heads.items()):
        if _product(chain.context.product_table, unit.entries.items(),
                    head.items()) != head:
            raise UnitActionError(tail, SparseVector(chain.context.dimension, head))


def descent_output(chain, unit):
    """The formal one-step descent representative.

    For each pure tensor f0 ⊗ ... ⊗ fn the output accumulates
        (-1)^(n+1) * ( e ⊗ fn·f0 ⊗ f1 ⊗ ... ⊗ f(n-1)
                       − fn·e ⊗ f0 ⊗ ... ⊗ f(n-1) ).
    No unit hypothesis enters here; this is pure multilinear bookkeeping,
    which is what makes the closed-formula comparison a real cross-check.
    """
    n = chain.degree
    if n < 1:
        raise ValueError("descent needs degree >= 1")
    context = chain.context
    table = context.product_table
    unit_terms = unit.entries.items()
    out = {}
    for tup, coeff in chain.terms.items():
        c = coeff if (n + 1) % 2 == 0 else -coeff
        last, middle, body = tup[-1], tup[1:-1], tup[:-1]
        wrapped = table[last, tup[0]]
        for ei, ce in unit_terms:
            # e ⊗ (fn · f0) ⊗ f1 ... f(n-1)
            for k, ck in wrapped:
                _accumulate(out, (ei, k) + middle, c * ce * ck)
            # − (fn · e) ⊗ f0 ... f(n-1)
            for k, ck in table[last, ei]:
                _accumulate(out, (k,) + body, -c * ce * ck)
    return Chain(n, context, out)


def descent_step(chain, unit):
    """One certified descent step.

    `unit`, in the split coordinates of the chain, must lie in the ideal
    (else ValueError: the output would leave the top filtration step) and must
    act as a left unit on the initial content of the chain (checked
    tail-by-tail; failure carries the offending slot as a witness).  Every
    initial slot must already be ideal.
    Returns a certificate whose identity holds even when the input is not a
    cycle; for cycles it reads  input − output = b(homotopy).
    """
    if chain.degree < 1:
        raise ValueError("descent needs degree >= 1")
    require_top_filtration(chain)
    if (refusal := _unit_refusal(chain.context, unit)) is not None:
        raise ValueError(f"the unit {refusal}")
    _check_left_unit(chain, unit)
    return DescentCertificate(
        input=chain, output=descent_output(chain, unit), unit=unit
    )


def closed_formula(chain, schedule):
    """Evaluate the closed inverse formula on a chain in the top filtration.

    Per pure tensor f0 ⊗ ... ⊗ fn and sign word s in {+,−}^n, the emitted
    term carries sign (−1)^(number of −) and is assembled left to right:
    block i contributes  e_i ⊗ f_i…  for +  and  f_i·e_i ⊗  for −, with the
    trailing factor multiplying into the next block, and f0 terminates the
    word.  Degree 0 is the empty word: the chain itself.

    Slot i depends only on s_(i−1) (is f_(i−1) pending?) and s_i, so the
    words are summed by a fold over the slots with two partial sums, prefix
    -> coefficient, `pending` and `free`: O(n) table products per tensor,
    in `int` where integral.  It shares no code with `descent_output`,
    against which `inverse_excision` checks it.
    """
    n = chain.degree
    context = chain.context
    require_degree(schedule, n)
    require_top_filtration(chain)
    table = context.product_table
    units = [u.entries.items() for u in schedule.units]

    def times(f, vector):  # f·vector for the split basis index f
        out = {}
        for k, c in vector:
            for m, cm in table[f, k]:
                _accumulate(out, m, c * cm)
        return out.items()

    def emit(target, states, slot, sign=1):
        for prefix, c in states.items():
            for k, ck in slot:
                _accumulate(target, prefix + (k,), sign * c * ck)

    out = {}
    for tup, coeff in chain.terms.items():
        free, pending = {(): coeff}, {}
        for i in range(1, n + 1):
            e = units[i - 1]
            fe = times(tup[i], e)
            next_free, next_pending = {}, {}
            emit(next_pending, free, e)
            emit(next_free, free, fe, -1)
            if pending:
                emit(next_pending, pending, times(tup[i - 1], e))
                emit(next_free, pending, times(tup[i - 1], fe), -1)
            free, pending = next_free, next_pending
        emit(out, free, [(tup[0], 1)])
        emit(out, pending, table[tup[n], tup[0]])
    return Chain(n, context, out)


def _invert_by_solve(chain):
    """Inverse image (ψ, η) of a non-strict relative cyclic cycle, with
    ψ = φ + b(η) a cyclic cycle over the ideal and φ the canonical form of
    `chain`.

    C(I) is the subcomplex of all-ideal tuples of the relative complex, so
    ψ lies over the ideal exactly when b(η) cancels the mixed terms of φ,
    those with a complement slot.  With none, ψ = φ and η = 0: ρ is the
    inclusion there, and nothing is assembled.  Otherwise η is the one
    solution, free variables zero, of  ∂η = −φ  on the mixed rows of the
    memoised relative differential, eliminated once with its right-hand
    side; such an η exists because the excision map is onto in homology.
    Like `homology`, the solve refuses a degree above the cap before it
    assembles anything.
    """
    context = chain.context
    n = chain.degree
    ideal_count = context.ideal_count
    phi = canonicalize_cyclic(chain)
    mixed = {t: c for t, c in phi.terms.items() if max(t) >= ideal_count}
    if not mixed:
        return phi, Chain(n + 1, context)
    _check_degree(n)
    matrix, cols, rows = boundary_matrix(context, Variant("hc", "relative"), n + 1)
    on_mixed = [max(t) >= ideal_count for t in rows]
    system = SparseMatrix._assembled(matrix.rows, matrix.cols, {
        (r, c): v for (r, c), v in matrix.entries.items() if on_mixed[r]})
    row_index = {t: r for r, t in enumerate(rows)}
    rhs = SparseVector(system.rows, {row_index[t]: -c for t, c in mixed.items()})
    solution = solve(system, rhs)
    if isinstance(solution, Unsolvable):
        raise CertificateSearchError(
            f"no inverse image exists for the degree-{n} class: the "
            f"{system.rows}x{system.cols} system is inconsistent (echelon row "
            f"{solution.row}); this contradicts the excision isomorphism "
            "under the local-unit hypotheses",
            system,
            rhs,
            cols,
        )
    eta = Chain(n + 1, context, {cols[c]: v for c, v in solution.entries.items()})
    return canonicalize_cyclic(phi + boundary_b(eta)), eta


def _descent_witness(chain, schedule, output):
    """Witness η with b(η) = output − chain for a strict cycle: minus the
    sum of the homotopies of the descent steps with e_n, …, e_1 that the
    closed formula summarises, accumulated in one pass."""
    terms = {}
    current = chain
    for unit in reversed(schedule.units):
        try:
            step = descent_step(current, unit)
        except UnitActionError as exc:
            raise InvariantError(
                f"a validated unit schedule failed a descent step: {exc}", current
            ) from exc
        for tup, coeff in step.homotopy.terms.items():
            _accumulate(terms, tup, -coeff)
        current = step.output
    if current != output:
        raise InvariantError(
            "the closed formula differs from the chained descent steps",
            output - current,
        )
    return Chain(chain.degree + 1, chain.context, terms)


def inverse_excision(chain, schedule):
    """Map a top-filtration relative cyclic cycle into the ideal's complex,
    with a boundary certificate for  ρ(output) ≡ input.

    The input must have every initial slot in the ideal (no rotation happens
    here: plain Hochschild-style inputs must arrive already in the top
    filtration step) and must be a cycle of the relative cyclic complex.
    It takes one of two paths:
      - strict cycles go through the closed formula, and are certified by
        the homotopy that proves it: the n descent steps with e_n, …, e_1
        must end at the formula's output, and the witness is minus the sum
        of their homotopies e_i ⊗ φ_i, so this path does no linear algebra;
      - every other cycle only closes up modulo the rotation action, where
        the formula carries no guarantee: `_invert_by_solve` cancels the
        terms of its canonical form that have a complement slot with one
        boundary, found by an exact linear solve, and an all-ideal cycle,
        with no such term, is its own preimage with witness 0.
    Both paths ship the same kind of independently checkable certificate,
    and both outputs must lie over the ideal and be cyclic cycles; a failed
    internal identity raises InvariantError.
    """
    n = chain.degree
    require_top_filtration(chain)
    strict = n == 0 or (boundary := boundary_b(chain)).is_zero()
    if not strict and not canonicalize_cyclic(boundary).is_zero():
        raise ValueError("input is not a cycle of the relative cyclic complex")
    check_schedule(chain, schedule)
    if strict:
        output = closed_formula(chain, schedule)
        witness = _descent_witness(chain, schedule, output)
    else:
        output, witness = _invert_by_solve(chain)
    if not is_ideal_chain(output):
        raise InvariantError(
            "inverse image escaped the ideal's tensor space", output
        )
    if n >= 1 and not canonicalize_cyclic(boundary_b(output)).is_zero():
        raise InvariantError(
            "inverse image is not a cyclic cycle over the ideal", output
        )
    certificate = BoundaryCertificate(
        lhs=output,
        rhs=chain,
        witness=witness,
        op="hc",
        space="relative",
    )
    return InverseResult(
        input=chain, schedule=schedule, output=output, verification=certificate
    )


def inverse_excision_class(classes):
    """Run the inverse on finitely many relative cyclic classes at once.

    All classes are rotated into the top filtration step, one unit schedule
    is built uniformly over every pure tensor that occurs, and each class is
    then inverted with that shared schedule.
    """
    classes = list(classes)
    if not classes:
        return []
    context = classes[0].context
    degree = classes[0].degree
    lifts = []
    for chain in classes:
        if chain.degree != degree or chain.context is not context and chain.context != context:
            raise ValueError("classes must share degree and split basis")
        lifts.append(rotate_to_ideal_initial(chain))
    all_tuples = sorted({t for lift in lifts for t in lift.terms})
    schedule = build_unit_schedule(all_tuples, context, degree)
    return [inverse_excision(lift, schedule) for lift in lifts]


def _certificate_chains(certificate):
    """Every chain a certificate holds, those of an inverse's inner
    certificate included."""
    if isinstance(certificate, DescentCertificate):
        return (certificate.input, certificate.output)
    if isinstance(certificate, BoundaryCertificate):
        return (certificate.lhs, certificate.rhs, certificate.witness)
    if isinstance(certificate, InverseResult):
        return (certificate.input, certificate.output,
                *_certificate_chains(certificate.verification))
    raise TypeError(f"not a certificate: {certificate!r}")


def verify_certificate(certificate):
    """Re-evaluate every claimed identity from scratch.

    Returns None when the certificate is sound, otherwise a Mismatch carrying
    the exact residual chain where the failed claim is an identity of chains.
    Chains over different split bases, or a unit of another dimension or
    outside the ideal, do not verify.  A descent certificate's identity is
    checked on its derived homotopy e ⊗ input, and e must be a left unit on
    every initial slot; an inverse result must claim `hc` over `relative`,
    the one claim the inverse makes, and its schedule must pass
    `check_schedule`, the one schedule check.  The verification path
    re-expands boundaries and canonical forms directly on chains; it never
    reuses the linear solve that produced the witness.
    """
    chains = _certificate_chains(certificate)
    context = chains[0].context
    if any(c.context is not context and c.context != context for c in chains):
        return Mismatch("chains live over different split bases")
    if isinstance(certificate, DescentCertificate):
        n = certificate.input.degree
        if certificate.output.degree != n:
            return Mismatch("output has the wrong degree")
        if (refusal := _unit_refusal(context, certificate.unit)) is not None:
            return Mismatch(f"the unit {refusal}")
        # any e has an output that meets the identity, so e must also fix
        # the initial slots
        try:
            _check_left_unit(certificate.input, certificate.unit)
        except UnitActionError as exc:
            return Mismatch(str(exc))
        residual = (certificate.input - certificate.output
                    - boundary_b(certificate.homotopy))
        if n >= 1:
            residual -= tensor_prepend(certificate.unit, boundary_b(certificate.input))
        if not residual.is_zero():
            return Mismatch("descent identity fails", residual)
        return None
    if isinstance(certificate, BoundaryCertificate):
        if certificate.op not in BOUNDARY_OPS or certificate.space not in SPACES:
            return Mismatch(f"unknown claim: op {certificate.op!r} in space "
                            f"{certificate.space!r}")
        member, violation = SPACES[certificate.space]
        for name, chain in (("lhs", certificate.lhs), ("rhs", certificate.rhs),
                            ("witness", certificate.witness)):
            if not member(chain):
                return Mismatch(f"{name} violates the {certificate.space} space: "
                                f"{violation}", chain)
        n = certificate.lhs.degree
        if (certificate.rhs.degree, certificate.witness.degree) != (n, n + 1):
            return Mismatch("rhs is not of the claim's degree, or the witness "
                            "not one above it")
        difference = certificate.lhs - certificate.rhs
        boundary = boundary_b(certificate.witness)
        if certificate.op == "hh":
            residual = boundary - difference
        else:
            residual = canonicalize_cyclic(boundary) - canonicalize_cyclic(difference)
        if not residual.is_zero():
            return Mismatch("boundary identity fails", residual)
        return None
    # an InverseResult, whose chains all lie over `context`
    inner = certificate.verification
    if (inner.op, inner.space) != ("hc", "relative"):
        return Mismatch(f"the inverse claims op {inner.op!r} in space "
                        f"{inner.space!r}, not 'hc' in 'relative'")
    try:
        check_schedule(certificate.input, certificate.schedule)
    except ScheduleMismatchError as exc:
        return Mismatch(f"unit schedule does not fit the input: {exc}")
    output = certificate.output
    if not is_ideal_chain(output):
        return Mismatch("output escapes the ideal's tensor space", output)
    if output.degree >= 1:
        cycle_residual = canonicalize_cyclic(boundary_b(output))
        if not cycle_residual.is_zero():
            return Mismatch("output is not a cyclic cycle", cycle_residual)
    if inner.lhs.terms != output.terms:
        return Mismatch("certificate lhs is not the stored output", None)
    if inner.rhs.terms != certificate.input.terms:
        return Mismatch("certificate rhs is not the stored input", None)
    return verify_certificate(inner)


@dataclass
class IsomorphismReport:
    """Desk-scale witness that the excision map is an isomorphism in one
    degree: equal dimensions plus verified certificates in both directions."""

    degree: int
    dim_ideal: int
    dim_relative: int
    onto: list  # InverseResult per relative homology basis class
    back: list  # (InverseResult, BoundaryCertificate over I) per ideal class

    @property
    def dimensions_match(self):
        return self.dim_ideal == self.dim_relative

    def all_certificates(self):
        for result in self.onto:
            yield result
        for result, cert in self.back:
            yield result
            yield cert


def isomorphism_witness(context, degree, max_degree=None):
    """Both directions of the excision isomorphism in one degree.

    "onto": every basis class of the relative cyclic homology is hit, with a
    certificate ρ(ψ) ≡ φ.  "back": for every basis class c of the ideal's
    cyclic homology, the inverse of ρ(c) lands back at c, certified inside
    the ideal's own complex by the inverse's own witness (0 when ψ = c):
    ρ(c) is all-ideal, so that witness is 0 or −Σ e_i ⊗ φ_i with every e_i
    and φ_i ideal, and it lies in C(I).
    """
    ideal_report = homology(context, Variant("hc", "I"), degree, max_degree)
    relative_report = homology(context, Variant("hc", "relative"), degree, max_degree)
    onto = inverse_excision_class(relative_report.representatives)
    back = []
    images = [rho(c) for c in ideal_report.representatives]
    results = inverse_excision_class(images)
    for cls, result in zip(ideal_report.representatives, results):
        witness = (Chain(degree + 1, context) if result.output == cls
                   else result.verification.witness)
        cert = BoundaryCertificate(
            lhs=result.output, rhs=cls, witness=witness, op="hc", space="I"
        )
        back.append((result, cert))
    return IsomorphismReport(
        degree=degree,
        dim_ideal=ideal_report.dimension,
        dim_relative=relative_report.dimension,
        onto=onto,
        back=back,
    )
