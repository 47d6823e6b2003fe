import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from excisionlab.algebra import Ideal, make_split_basis
from excisionlab.chains import (
    Chain,
    Variant,
    boundary_b,
    boundary_matrix,
    canonicalize_cyclic,
    cyclic_t,
    filtration_level,
    homology,
    is_ideal_chain,
    pure_tensor,
    tensor_prepend,
    tuple_boundary_terms,
)
from excisionlab.excision import (
    BoundaryCertificate,
    CertificateSearchError,
    DescentCertificate,
    InverseResult,
    Mismatch,
    UnitActionError,
    _invert_by_solve,
    closed_formula,
    descent_output,
    descent_step,
    inverse_excision,
    inverse_excision_class,
    isomorphism_witness,
    rho,
    rotate_to_ideal_initial,
    verify_certificate,
)
from excisionlab.fileio import RunReport, demo_by_name
from excisionlab.linalg import InvariantError, SparseVector
from excisionlab.units import (
    ScheduleMismatchError, UnitSchedule, build_unit_schedule, check_schedule,
    find_local_left_unit,
)

from dense_oracle import sign_word_closed_formula, stacked_inverse
from support import (
    WordAlgebra, cyclic_boundary_witness, dual_number_split,
    filtered_cycle_basis, mixed_boundary, rebased_split, split_vectors,
    stored_exactly, upper_triangular_split,
)


# ---------------------------------------------------------------- rho

def test_rho_is_inclusion_on_tuples(t2):
    cls = canonicalize_cyclic(pure_tensor(t2.split, (0, 1)))
    image = rho(cls)
    assert image.terms == cls.terms


def test_rho_rejects_non_ideal_slots(t2):
    cls = canonicalize_cyclic(pure_tensor(t2.split, (0, 2)))
    with pytest.raises(ValueError):
        rho(cls)


def test_rho_is_linear(t2):
    a = canonicalize_cyclic(pure_tensor(t2.split, (0, 1)))
    b = canonicalize_cyclic(pure_tensor(t2.split, (0, 0, 1)).scaled(0))
    assert rho(b).is_zero()
    two = canonicalize_cyclic(pure_tensor(t2.split, (0, 1)).scaled(2))
    assert rho(two) == rho(a).scaled(2)


# ----------------------------------------------- rotate_to_ideal_initial

def test_rotation_moves_first_ideal_slot_to_front(t2):
    chain = pure_tensor(t2.split, (2, 0))
    rotated = rotate_to_ideal_initial(chain)
    assert rotated.terms == {(0, 2): Fraction(-1)}


def test_rotation_keeps_top_filtration_chains(t2):
    chain = pure_tensor(t2.split, (0, 2))
    assert rotate_to_ideal_initial(chain) == chain


def test_rotation_preserves_the_class(corpus):
    rng = random.Random(6)
    from support import random_chain

    for demo in corpus:
        for degree in range(1, 4):
            chain = random_chain(demo.split, degree, rng, force_ideal_slot=True)
            rotated = rotate_to_ideal_initial(chain)
            assert canonicalize_cyclic(rotated) == canonicalize_cyclic(chain)
            for tup in rotated.terms:
                assert demo.split.is_ideal_index(tup[0])


def test_rotation_rejects_chains_without_ideal_slots(t2):
    with pytest.raises(ValueError):
        rotate_to_ideal_initial(pure_tensor(t2.split, (2, 2)))


# ------------------------------------------------------------- descent

def test_descent_output_symbolic_degree_one():
    # f0 ⊗ f1 ↦ e1 ⊗ f1·f0 − f1·e1 ⊗ f0
    w = WordAlgebra(1)
    phi = w.generator_tensor()
    unit_split = w.split.to_split(w.algebra.basis_vector(w.e(1)))
    out = descent_output(phi, unit_split)
    assert out.terms == {
        (w.word("e1"), w.word("f1", "f0")): Fraction(1),
        (w.word("f1", "e1"), w.word("f0")): Fraction(-1),
    }


def test_descent_step_on_corner_cycle(t2):
    # phi = E11 ⊗ E22 is a cycle; with unit E11 the output collapses to zero
    # and the homotopy is E11 ⊗ E11 ⊗ E22
    phi = pure_tensor(t2.split, (0, 2))
    cert = descent_step(phi, SparseVector.from_list([1, 0, 0]))
    assert cert.output.is_zero()
    assert cert.homotopy.terms == {(0, 0, 2): Fraction(1)}
    assert boundary_b(cert.homotopy) == phi
    assert verify_certificate(cert) is None


def test_descent_unit_check_carries_witness(t2):
    phi = pure_tensor(t2.split, (0, 2))
    with pytest.raises(UnitActionError) as info:
        descent_step(phi, SparseVector.from_list([0, 1, 0]))  # E12 fixes nothing
    assert info.value.tail == (2,)


def test_descent_requires_ideal_initial_slots(t2):
    with pytest.raises(ValueError):
        descent_step(pure_tensor(t2.split, (2, 0)), SparseVector.from_list([1, 0, 0]))


def test_descent_drops_filtration_and_certifies(corpus):
    for demo in corpus:
        split = demo.split
        for degree in range(1, 4):
            for p in range(1, degree + 1):
                for cycle in filtered_cycle_basis(split, degree, p):
                    heads = sorted({tup[0] for tup in cycle.terms})
                    unit = find_local_left_unit(split, split_vectors(split, heads))
                    cert = descent_step(cycle, unit)
                    assert filtration_level(cert.output) <= p - 1
                    assert boundary_b(cert.homotopy) == cycle - cert.output
                    assert boundary_b(cert.output).is_zero()
                    assert verify_certificate(cert) is None


def test_iterated_descent_reaches_the_ideal(t2):
    split = t2.split
    for cycle in filtered_cycle_basis(split, 2, 2):
        current = cycle
        steps = []
        while not is_ideal_chain(current):
            heads = sorted({tup[0] for tup in current.terms})
            unit = find_local_left_unit(split, split_vectors(split, heads))
            cert = descent_step(current, unit)
            steps.append(cert)
            current = cert.output
            assert len(steps) <= 2
        if steps:
            # the summed homotopies bound the whole descent
            homotopy = sum((s.homotopy for s in steps[1:]), steps[0].homotopy)
            assert boundary_b(homotopy) == cycle - current


# ------------------------------------------------------- closed formula

def test_closed_formula_degree_zero_is_identity(t2):
    phi = pure_tensor(t2.split, (0,))
    assert closed_formula(phi, UnitSchedule(())) == phi


def test_closed_formula_golden_degree_one():
    w = WordAlgebra(1)
    psi = closed_formula(w.generator_tensor(), w.unit_schedule())
    assert psi.terms == {
        (w.word("e1"), w.word("f1", "f0")): Fraction(1),
        (w.word("f1", "e1"), w.word("f0")): Fraction(-1),
    }


def test_closed_formula_golden_degree_two():
    w = WordAlgebra(2)
    psi = closed_formula(w.generator_tensor(), w.unit_schedule())
    assert psi.terms == {
        (w.word("e1"), w.word("f1", "e2"), w.word("f2", "f0")): Fraction(1),
        (w.word("f1", "e1"), w.word("e2"), w.word("f2", "f0")): Fraction(-1),
        (w.word("e1"), w.word("f1", "f2", "e2"), w.word("f0")): Fraction(-1),
        (w.word("f1", "e1"), w.word("f2", "e2"), w.word("f0")): Fraction(1),
    }


def test_closed_formula_golden_degree_three():
    w = WordAlgebra(3)
    psi = closed_formula(w.generator_tensor(), w.unit_schedule())
    expected = {
        (w.word("e1"), w.word("f1", "e2"), w.word("f2", "e3"), w.word("f3", "f0")): 1,
        (w.word("e1"), w.word("f1", "e2"), w.word("f2", "f3", "e3"), w.word("f0")): -1,
        (w.word("e1"), w.word("f1", "f2", "e2"), w.word("e3"), w.word("f3", "f0")): -1,
        (w.word("e1"), w.word("f1", "f2", "e2"), w.word("f3", "e3"), w.word("f0")): 1,
        (w.word("f1", "e1"), w.word("e2"), w.word("f2", "e3"), w.word("f3", "f0")): -1,
        (w.word("f1", "e1"), w.word("e2"), w.word("f2", "f3", "e3"), w.word("f0")): 1,
        (w.word("f1", "e1"), w.word("f2", "e2"), w.word("e3"), w.word("f3", "f0")): 1,
        (w.word("f1", "e1"), w.word("f2", "e2"), w.word("f3", "e3"), w.word("f0")): -1,
    }
    assert psi.terms == {k: Fraction(v) for k, v in expected.items()}


def test_closed_formula_emits_two_to_the_n_terms():
    for n in (1, 2, 3):
        w = WordAlgebra(n)
        psi = closed_formula(w.generator_tensor(), w.unit_schedule())
        assert len(psi.terms) == 2**n
        all_plus = tuple(
            [w.word("e1")]
            + [w.word(f"f{i}", f"e{i+1}") for i in range(1, n)]
            + [w.word(f"f{n}", "f0")]
        )
        assert psi.terms[all_plus] == Fraction(1)
        assert is_ideal_chain(psi)


def test_closed_formula_checks_schedule_length(t2):
    phi = pure_tensor(t2.split, (0, 2))
    from excisionlab.excision import ScheduleMismatchError

    with pytest.raises(ScheduleMismatchError):
        closed_formula(phi, UnitSchedule(()))


def _doubled_split(split):
    """`split` with its first ideal basis vector doubled: products of the
    other basis vectors that land on it, and the units, get non-integral
    split coordinates."""
    ideal = split.ideal.basis_vectors
    return make_split_basis(
        Ideal(split.parent, [ideal[0].scaled(2), *ideal[1:]]),
        split.ordered_basis[split.ideal_count:],
    )


@pytest.mark.parametrize("name, doubled", [
    ("t2-corner", False), ("matrix2", False), ("direct-sum", False),
    ("matrix2", True),
])
def test_closed_formula_matches_the_sign_word_oracle(corpus, monkeypatch, name, doubled):
    """The fold over the slots equals the word-by-word expansion, built on
    `Algebra.mul`, on every strict top-filtration cycle at degrees 1-4, and
    it runs no descent step: the two stay independent computations."""
    import excisionlab.excision as excision_module

    def forbidden(*args, **kwargs):
        raise AssertionError("the closed formula ran a descent step")

    for descent in ("descent_output", "descent_step"):
        monkeypatch.setattr(excision_module, descent, forbidden)
    split = next(d for d in corpus if d.name == name).split
    if doubled:
        split = _doubled_split(split)
    for degree in range(1, 5):
        cycles = filtered_cycle_basis(split, degree, degree)
        # the formula is multilinear algebra in the units: any schedule
        # of the right degree serves, so one covers all the cycles
        tuples = sorted({t for cycle in cycles for t in cycle.terms})
        schedule = build_unit_schedule(tuples, split, degree)
        oracle = sign_word_closed_formula(split, schedule)
        for cycle in cycles:
            assert closed_formula(cycle, schedule).terms == oracle(cycle)
        assert cycles
    rows = [c for row in split.product_table.values() for _, c in row]
    units = [c for u in schedule.units for c in u.entries.values()]
    # `int` exactly where integral, so a `Fraction` marks a true fraction
    assert stored_exactly(rows) and stored_exactly(units)
    assert any(type(c) is Fraction for c in rows) == doubled
    assert any(c.denominator > 1 for c in units) == doubled


# ------------------------------------------- closed formula vs iteration

def test_closed_formula_equals_iterated_descent(corpus, monkeypatch):
    """The closed formula equals n chained descent steps, and the strict
    inverse is certified by their homotopies without any linear algebra.
    The comparison is a real cross-check: a formula off by one ideal tuple
    fails it, and so does a certificate whose output is off by that tuple."""
    import excisionlab.excision as excision_module

    def forbidden(*args, **kwargs):
        raise AssertionError("the strict inverse ran linear algebra")

    for name in ("boundary_matrix", "solve"):
        monkeypatch.setattr(excision_module, name, forbidden)
    formula = excision_module.closed_formula

    def off_by_one(chain, schedule):
        return formula(chain, schedule) + pure_tensor(
            chain.context, (0,) * chain.degree + (1,))

    tested = 0
    for demo in corpus:
        split = demo.split
        for degree in range(1, 4):
            extra = pure_tensor(split, (0,) * degree + (1,))
            for cycle in filtered_cycle_basis(split, degree, degree):
                schedule = build_unit_schedule(sorted(cycle.terms), split, degree)
                result = inverse_excision(cycle, schedule)
                homotopies = Chain(degree + 1, split)
                current = cycle
                for unit in reversed(schedule.units):
                    step = descent_step(current, unit)
                    homotopies = homotopies + step.homotopy
                    current = step.output
                assert closed_formula(cycle, schedule) == current
                assert result.output == current
                witness = result.verification.witness
                assert witness == -homotopies
                assert verify_certificate(result) is None
                with monkeypatch.context() as patch:
                    patch.setattr(excision_module, "closed_formula", off_by_one)
                    with pytest.raises(InvariantError,
                                       match="differs from the chained descent"):
                        inverse_excision(cycle, schedule)
                inner = result.verification
                shifted = InverseResult(
                    input=cycle,
                    schedule=schedule,
                    output=result.output + extra,
                    verification=BoundaryCertificate(
                        lhs=inner.lhs + extra, rhs=inner.rhs, witness=witness,
                        op=inner.op, space=inner.space,
                    ),
                )
                assert isinstance(verify_certificate(shifted), Mismatch)
                # change one coefficient on a tuple whose boundary survives
                # the rotation quotient; where every witness tuple is a
                # cyclic cycle (E11⊗E11⊗E11 at degree 1), any coefficient
                # still certifies the claim
                key = next(
                    (t for t in sorted(witness.terms)
                     if not canonicalize_cyclic(
                         boundary_b(pure_tensor(split, t))
                     ).is_zero()),
                    None,
                )
                if key is None:
                    continue
                tampered_terms = dict(witness.terms)
                tampered_terms[key] += 1
                inner = result.verification
                tampered = InverseResult(
                    input=result.input,
                    schedule=result.schedule,
                    output=result.output,
                    verification=BoundaryCertificate(
                        lhs=inner.lhs,
                        rhs=inner.rhs,
                        witness=Chain(degree + 1, split, tampered_terms),
                        op=inner.op,
                        space=inner.space,
                    ),
                )
                assert isinstance(verify_certificate(tampered), Mismatch)
                tested += 1
    assert tested > 0


@pytest.mark.parametrize("kind", ["descent", "boundary", "inverse"])
def test_certificates_over_two_split_bases_are_mismatches(t2, direct_sum, kind):
    """A certificate built in code can mix split bases; it does not verify,
    and neither the check nor a run report raises."""
    def foreign(chain):
        return Chain(chain.degree, direct_sum.split)

    if kind == "descent":
        cycle = filtered_cycle_basis(t2.split, 2, 2)[0]
        heads = sorted({tup[0] for tup in cycle.terms})
        unit = find_local_left_unit(t2.split, split_vectors(t2.split, heads))
        step = descent_step(cycle, unit)
        certificate = dataclasses.replace(step, output=foreign(step.output))
    else:
        [result] = inverse_excision_class(
            [canonicalize_cyclic(pure_tensor(t2.split, (0, 2)))])
        inner = result.verification
        if kind == "boundary":
            certificate = dataclasses.replace(inner, rhs=foreign(inner.rhs))
        else:
            certificate = dataclasses.replace(
                result, verification=dataclasses.replace(
                    inner, witness=foreign(inner.witness)))
    mismatch = verify_certificate(certificate)
    assert isinstance(mismatch, Mismatch)
    assert mismatch.reason == "chains live over different split bases"
    assert RunReport("verify").add_certificate(kind, certificate) is False


# -------------------------------------------------------- full pipeline

def test_inverse_excision_corner_class(t2):
    phi = pure_tensor(t2.split, (0, 2))
    [result] = inverse_excision_class([canonicalize_cyclic(phi)])
    assert is_ideal_chain(result.output)
    assert verify_certificate(result) is None


def test_inverse_excision_empty_input():
    assert inverse_excision_class([]) == []


def test_inverse_excision_class_already_in_the_ideal(t2):
    cls = canonicalize_cyclic(pure_tensor(t2.split, (0, 0, 0)))
    [result] = inverse_excision_class([cls])
    assert verify_certificate(result) is None
    # the output stays in the class of the input
    difference = result.output - cls
    if not difference.is_zero():
        witness = cyclic_boundary_witness(difference, "I")
        assert witness is not None
        cert = BoundaryCertificate(
            lhs=result.output, rhs=cls, witness=witness, op="hc", space="I"
        )
        assert verify_certificate(cert) is None


@pytest.mark.parametrize("fault", [
    "leaves the ideal", "differs from descent", "not a cycle", "unit fails a step",
])
def test_inverse_invariant_failures_raise_a_typed_error(t2, monkeypatch, fault):
    import excisionlab.excision as excision_module

    split = t2.split
    phi = pure_tensor(split, (0, 2))
    e11, e12 = SparseVector.from_list([1, 0, 0]), SparseVector.from_list([0, 1, 0])
    formula = excision_module.closed_formula

    def zero_witness(chain, schedule, output):
        return Chain(chain.degree + 1, split)

    # fault -> (replaced names of `excision`, the unit, the error message)
    faults = {
        # E22 sits outside the corner ideal
        "leaves the ideal": ({"closed_formula": lambda chain, schedule: chain,
                              "_descent_witness": zero_witness},
                             e11, "escaped the ideal's tensor space"),
        "differs from descent": ({"closed_formula": lambda chain, schedule: (
            formula(chain, schedule) + pure_tensor(split, (0, 0)))},
            e11, "differs from the chained descent steps"),
        # b(E11⊗E12) = E12 is not zero modulo the rotation
        "not a cycle": ({"closed_formula": lambda chain, schedule: pure_tensor(split, (0, 1)),
                         "_descent_witness": zero_witness},
                        e11, "not a cyclic cycle over the ideal"),
        # E12 fixes no initial slot E11, but the schedule check is skipped
        "unit fails a step": ({"check_schedule": lambda chain, schedule: None},
                              e12, "a validated unit schedule failed a descent step"),
    }
    replaced, unit, message = faults[fault]
    for name, value in replaced.items():
        monkeypatch.setattr(excision_module, name, value)
    with pytest.raises(InvariantError, match=message) as info:
        inverse_excision(phi, UnitSchedule((unit,)))
    assert info.value.chain is not None and not info.value.chain.is_zero()


def test_inverse_excision_requires_top_filtration(t2):
    # a strict Hochschild cycle that is relative but not in the top step is
    # rejected rather than silently rotated
    phi = pure_tensor(t2.split, (2, 0))
    assert boundary_b(phi).is_zero()
    schedule = UnitSchedule((SparseVector.from_list([1, 0, 0]),))
    with pytest.raises(ValueError):
        inverse_excision(phi, schedule)


def test_inverse_excision_requires_a_cycle(t2):
    phi = pure_tensor(t2.split, (0, 1))  # b = E12 ≠ 0, not even cyclically
    schedule = UnitSchedule((SparseVector.from_list([1, 0, 0]),))
    with pytest.raises(ValueError):
        inverse_excision(phi, schedule)


def test_schedule_mismatch_is_reported(t2):
    from excisionlab.excision import ScheduleMismatchError

    phi = pure_tensor(t2.split, (0, 2))
    bad = UnitSchedule((SparseVector.from_list([0, 1, 0]),))  # E12 is no unit
    with pytest.raises(ScheduleMismatchError):
        inverse_excision(phi, bad)


def test_a_unit_outside_the_ideal_is_refused(t2):
    phi = pure_tensor(t2.split, (0, 2))  # E11 ⊗ E22
    [result] = inverse_excision_class([canonicalize_cyclic(phi)])
    assert verify_certificate(result) is None
    # the identity E11+E22 fixes every slot, but it is no unit of the
    # ideal span{E11, E12}: the one schedule check refuses it, so the
    # inverse never runs the formula with it
    identity = UnitSchedule((SparseVector.from_list([1, 0, 1]),))
    reason = "a unit of the schedule lies outside the ideal"
    with pytest.raises(ScheduleMismatchError, match=reason):
        check_schedule(result.input, identity)
    with pytest.raises(ScheduleMismatchError, match=reason):
        inverse_excision(result.input, identity)
    forged = dataclasses.replace(result, schedule=identity)
    mismatch = verify_certificate(forged)
    assert isinstance(mismatch, Mismatch)
    assert mismatch.reason == f"unit schedule does not fit the input: {reason}"


def test_a_descent_unit_outside_the_ideal_is_refused(t2):
    # E11+E22 is a left unit on E11 ⊗ E22, but not in the ideal: the step
    # would give −E22 ⊗ E11, which leaves the top filtration step
    phi = pure_tensor(t2.split, (0, 2))
    identity = SparseVector.from_list([1, 0, 1])
    assert filtration_level(descent_output(phi, t2.split.to_split(identity))) == 2
    with pytest.raises(ValueError, match="the unit lies outside the ideal"):
        descent_step(phi, identity)
    step = descent_step(phi, SparseVector.from_list([1, 0, 0]))
    forged = DescentCertificate(
        input=phi, output=descent_output(phi, t2.split.to_split(identity)),
        unit=identity,
    )
    assert verify_certificate(step) is None
    mismatch = verify_certificate(forged)
    assert isinstance(mismatch, Mismatch)
    assert mismatch.reason == "the unit lies outside the ideal"


@pytest.mark.parametrize("entries", [{0: 1, 4: 1}, {0: 1}],
                         ids=["entry-beyond-the-split", "entries-fit"])
def test_a_unit_of_another_dimension_is_refused(t2, entries):
    # only a certificate built in code can hold one: a document is read with
    # the algebra's dimension.  Its entries may reach past the split, or fit
    # and read as the sound unit E11
    unit = SparseVector(5, entries)
    phi = pure_tensor(t2.split, (0, 2))  # E11 ⊗ E22
    descent = descent_step(phi, SparseVector.from_list([1, 0, 0]))
    [result] = inverse_excision_class([canonicalize_cyclic(phi)])
    schedule = UnitSchedule((unit,))
    for certificate, reason in [
        (dataclasses.replace(descent, unit=unit),
         "the unit has the wrong dimension"),
        (dataclasses.replace(result, schedule=schedule),
         "unit schedule does not fit the input: a unit of the schedule has "
         "the wrong dimension"),
    ]:
        mismatch = verify_certificate(certificate)
        assert isinstance(mismatch, Mismatch)
        assert mismatch.reason == reason
        assert RunReport("verify").add_certificate(reason, certificate) is False


def test_round_trip_through_rho(corpus):
    for demo in corpus:
        for degree in range(3):
            report = homology(demo.split, Variant("hc", "I"), degree)
            if not report.representatives:
                continue
            images = [rho(c) for c in report.representatives]
            results = inverse_excision_class(images)
            for cls, result in zip(report.representatives, results):
                assert verify_certificate(result) is None
                difference = result.output - cls
                if difference.is_zero():
                    continue
                witness = cyclic_boundary_witness(difference, "I")
                assert witness is not None
                cert = BoundaryCertificate(
                    lhs=result.output,
                    rhs=cls,
                    witness=witness,
                    op="hc",
                    space="I",
                )
                assert verify_certificate(cert) is None


def test_all_ideal_classes_invert_as_themselves(corpus, monkeypatch):
    # every class isomorphism_witness inverts has all slots ideal, so the
    # inverse solves nothing and returns what the stacked system returns
    ut3 = upper_triangular_split()
    cases = [(demo.split, n) for demo in corpus for n in range(5)]
    cases += [(ut3, n) for n in range(4)]
    solved = _count_solves(monkeypatch)
    inverted = 0
    for split, degree in cases:
        report = isomorphism_witness(split, degree)
        for result in report.onto + [result for result, _ in report.back]:
            assert is_ideal_chain(result.input)
            again = inverse_excision(result.input, result.schedule)
            psi, eta = stacked_inverse(result.input)
            assert again.output.terms == psi.terms == result.output.terms
            assert again.verification.witness.is_zero() and eta.is_zero()
            assert _invert_by_solve(result.input)[1].is_zero()
            inverted += 1
    assert solved == []
    # one class each way at degrees 0, 2, 4 on the corpus and 0, 2 on ut3
    assert inverted == 2 * 3 * 3 + 2 * 2


def mixed_solve_inputs():
    """Relative `hc` cycles at degrees 1–3 on t2-corner, direct-sum, ut3,
    the dual-number split and three rebased splits: each representative φ,
    and each nonzero `mixed_boundary` B, first and last, and φ + B."""
    t2, direct_sum = demo_by_name("t2-corner"), demo_by_name("direct-sum")
    splits = [t2.split, direct_sum.split, upper_triangular_split(),
              dual_number_split(), rebased_split(t2, 1), rebased_split(t2, 2),
              rebased_split(direct_sum, 1)]
    for split in splits:
        for degree in (1, 2, 3):
            representatives = homology(
                split, Variant("hc", "relative"), degree).representatives
            yield from representatives
            for last in (False, True):
                boundary = mixed_boundary(split, degree, last)
                if not boundary.is_zero():
                    yield boundary
                for phi in representatives:
                    yield phi + boundary


def test_the_mixed_solve_matches_the_stacked_system(monkeypatch):
    # the solve on the mixed rows of ∂^rel returns the (ψ, η) of the full
    # stacked system [ρ | −∂^rel ; ∂^I | 0], whose RREF it shares
    solved = _count_solves(monkeypatch)
    count = 0
    for chain in mixed_solve_inputs():
        lift = rotate_to_ideal_initial(chain)
        psi, eta = _invert_by_solve(lift)
        reference = stacked_inverse(lift)
        assert (psi.terms, eta.terms) == (reference[0].terms, reference[1].terms)
        assert is_ideal_chain(psi)
        count += 1
    # 11 have no term with a complement slot and solve nothing
    assert (count, len(solved)) == (64, 53)


def test_identity_path_returns_the_canonical_form(corpus):
    for demo in corpus:
        split = demo.split
        for degree in (2, 4):
            [phi] = homology(split, Variant("hc", "relative"), degree).representatives
            # E11 ⊗ E12 ⊗ E11 ⊗ … is ideal on every corpus algebra
            tau = pure_tensor(split, (0, 1) + (0,) * degree)
            rotated = cyclic_t(phi + boundary_b(tau))
            assert is_ideal_chain(rotated) and not boundary_b(rotated).is_zero()
            assert rotated != canonicalize_cyclic(rotated)
            for chain in (rotated, phi.scaled(-3)):
                [result] = inverse_excision_class([chain])
                assert result.output == canonicalize_cyclic(chain)
                assert result.verification.witness.is_zero()
                assert verify_certificate(result) is None


def solve_fallback_inputs(t2, direct_sum):
    """(φ, φ + B) for every relative `hc` representative φ of t2-corner
    and direct-sum at degrees 2 and 4, with B the first `mixed_boundary`:
    cycles that are neither strict nor all-ideal, so their inverse takes
    the solve."""
    for demo in (t2, direct_sum):
        split = demo.split
        for degree in (2, 4):
            boundary = mixed_boundary(split, degree)
            for phi in homology(split, Variant("hc", "relative"), degree).representatives:
                yield phi, phi + boundary


def _count_solves(monkeypatch):
    """The list of right-hand sides the inverse's `solve` is called with
    from now on."""
    import excisionlab.excision as excision_module

    solved = []
    solve = excision_module.solve

    def counted(matrix, rhs):
        solved.append(rhs)
        return solve(matrix, rhs)

    monkeypatch.setattr(excision_module, "solve", counted)
    return solved


def test_classes_with_complement_slots_take_the_solve(t2, direct_sum, monkeypatch):
    solved = _count_solves(monkeypatch)
    for phi, chain in solve_fallback_inputs(t2, direct_sum):
        [plain] = inverse_excision_class([phi])
        assert solved == []
        [result] = inverse_excision_class([chain])
        assert len(solved) == 1
        solved.clear()
        assert not is_ideal_chain(chain)
        assert verify_certificate(result) is None
        witness = cyclic_boundary_witness(result.output - plain.output, "I")
        assert witness is not None
        cert = BoundaryCertificate(
            lhs=result.output, rhs=plain.output, witness=witness,
            op="hc", space="I",
        )
        assert verify_certificate(cert) is None


# sha256 over the `certificate_to_doc` JSON, witness included, of the
# inverse of every `solve_fallback_inputs` cycle: the one pin on the
# documents of `_invert_by_solve`.
SOLVE_FALLBACK_DOCS_SHA256 = "878ac29f092b8f1684c6a24de25c643ea8d99fa46602ce980d8be5b9a7b25c95"


def test_solve_fallback_documents_are_pinned(t2, direct_sum, monkeypatch):
    from excisionlab.fileio import certificate_to_doc

    solved = _count_solves(monkeypatch)
    digest = hashlib.sha256()
    count = 0
    for _, chain in solve_fallback_inputs(t2, direct_sum):
        [result] = inverse_excision_class([chain])
        doc = certificate_to_doc(result, chain.context)
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
        count += 1
    # every pinned document took the solve, once
    assert len(solved) == count == 4
    assert digest.hexdigest() == SOLVE_FALLBACK_DOCS_SHA256


def test_the_solve_refuses_a_degree_above_the_cap(
        t2, direct_sum, tmp_path, monkeypatch, capsys):
    import excisionlab.excision as excision_module
    from excisionlab.algebra import SplitBasis
    from excisionlab.chains import DegreeLimitError
    from excisionlab.cli import EXIT_ERROR, main
    from excisionlab.fileio import save_algebra, save_chain

    # φ + b(η) on t2-corner at degree 2, which takes the solve, read with
    # the cap at 1: like `homology`, the solve refuses before it assembles
    # hc/relative at degree 3
    _, chain = next(solve_fallback_inputs(t2, direct_sum))
    assert chain.degree == 2
    algebra, path = str(tmp_path / "t2.json"), str(tmp_path / "chain.json")
    save_algebra(algebra, t2.algebra, t2.ideal, t2.split)
    save_chain(path, chain)
    split = t2.split
    fresh = SplitBasis(split.ideal, split.ordered_basis, split.ideal_count)

    def assembled(*args):
        raise AssertionError("a complex was assembled above the degree cap")

    monkeypatch.setattr(excision_module, "boundary_matrix", assembled)
    monkeypatch.setenv("EXCISIONLAB_MAX_DEGREE", "1")
    with pytest.raises(DegreeLimitError, match="EXCISIONLAB_MAX_DEGREE"):
        inverse_excision_class([Chain(2, fresh, chain.terms)])
    assert main(["excise-inverse", "--algebra", algebra, "--chain", path]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "EXCISIONLAB_MAX_DEGREE" in captured.err


def test_an_inconsistent_solve_exits_with_the_no_witness_code(
        t2, direct_sum, tmp_path, monkeypatch, capsys):
    import excisionlab.excision as excision_module
    from excisionlab.cli import EXIT_NO_WITNESS, main
    from excisionlab.fileio import save_algebra, save_chain
    from excisionlab.linalg import Unsolvable

    # φ + b(η) on t2-corner at degree 2 takes the solve, made inconsistent
    _, chain = next(solve_fallback_inputs(t2, direct_sum))
    algebra, path = str(tmp_path / "t2.json"), str(tmp_path / "chain.json")
    save_algebra(algebra, t2.algebra, t2.ideal, t2.split)
    save_chain(path, chain)
    monkeypatch.setattr(excision_module, "solve", lambda matrix, rhs: Unsolvable(0))
    assert main(["excise-inverse", "--algebra", algebra, "--chain", path]) == EXIT_NO_WITNESS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: no inverse image exists for the degree-2 class: the ")
    assert "(echelon row 0)" in captured.err


def test_dual_number_extension_meets_nonzero_strict_classes(monkeypatch):
    import excisionlab.excision as excision_module

    split = dual_number_split()
    for op, dims in (("hh", [2, 1, 1, 1]), ("hc", [2, 0, 2, 0])):
        for space in ("I", "relative"):
            assert [homology(split, Variant(op, space), n).dimension
                    for n in range(4)] == dims
    formula = excision_module.closed_formula
    strict = []

    def counted(chain, schedule):
        strict.append(chain)
        return formula(chain, schedule)

    monkeypatch.setattr(excision_module, "closed_formula", counted)
    report = isomorphism_witness(split, 2)
    results = report.onto + [result for result, _ in report.back]
    assert len(results) == 4 and len(strict) == 2
    assert all(boundary_b(chain).is_zero() for chain in strict)
    assert all(verify_certificate(c) is None for c in report.all_certificates())


def test_the_solve_fails_on_a_chain_that_is_not_a_cycle(t2):
    # b(E11 ⊗ E22 ⊗ E22) = −E11 ⊗ E22 has a complement slot, so no boundary
    # cancels the mixed term and leaves a cycle over the ideal
    target = pure_tensor(t2.split, (0, 2, 2))
    assert canonicalize_cyclic(boundary_b(target)) == -pure_tensor(t2.split, (0, 2))
    with pytest.raises(CertificateSearchError) as info:
        _invert_by_solve(target)
    # the error carries the mixed rows of ∂^rel_3, its rhs and its columns
    matrix, cols, rows = boundary_matrix(t2.split, Variant("hc", "relative"), 3)
    system = info.value.matrix
    assert (system.rows, system.cols) == (matrix.rows, matrix.cols) == (10, 21)
    assert system.entries == {
        (r, c): v for (r, c), v in matrix.entries.items() if 2 in rows[r]}
    assert info.value.rhs == SparseVector(10, {rows.index((0, 2, 2)): -1})
    assert info.value.columns == cols


# --------------------------------------------------------- verification

def test_verify_rejects_tampered_boundary_witness(t2):
    phi = pure_tensor(t2.split, (0, 2))
    [result] = inverse_excision_class([canonicalize_cyclic(phi)])
    cert = result.verification
    tampered_terms = dict(cert.witness.terms)
    key = next(iter(tampered_terms), (0, 0, 2))
    tampered_terms[key] = tampered_terms.get(key, Fraction(0)) + 1
    tampered = BoundaryCertificate(
        lhs=cert.lhs,
        rhs=cert.rhs,
        witness=Chain(cert.witness.degree, t2.split, tampered_terms),
        op=cert.op,
        space=cert.space,
    )
    outcome = verify_certificate(tampered)
    assert isinstance(outcome, Mismatch)
    assert not outcome.residual.is_zero()


def test_verify_rejects_tampered_descent(t2):
    split = t2.split
    e11 = SparseVector.from_list([1, 0, 0])
    e12 = SparseVector.from_list([0, 1, 0])
    phi = pure_tensor(split, (0, 2))
    cert = descent_step(phi, e11)
    assert verify_certificate(cert) is None
    square = pure_tensor(split, (0, 0))  # E11⊗E11, a strict cycle
    h12 = tensor_prepend(e12, phi)  # split = parent coordinates on t2-corner
    forged = {
        "changed output": (DescentCertificate(
            cert.input, cert.output + pure_tensor(split, (1, 1)), cert.unit),
            "descent identity fails"),
        "input = output": (DescentCertificate(square, square, e11),
                           "descent identity fails"),
        # the output that makes the identity hold for the homotopy E12 ⊗ phi
        "E12 as the unit": (DescentCertificate(
            phi, phi - boundary_b(h12) - tensor_prepend(e12, boundary_b(phi)),
            e12), "element is not a left unit"),
    }
    for name, (tampered, reason) in forged.items():
        mismatch = verify_certificate(tampered)
        assert isinstance(mismatch, Mismatch), name
        assert mismatch.reason.startswith(reason), name


def test_verify_rejects_witness_outside_the_space(t2):
    lhs = pure_tensor(t2.split, (0,))
    cert = BoundaryCertificate(
        lhs=lhs,
        rhs=lhs,
        witness=pure_tensor(t2.split, (2, 2)),  # not relative
        op="hc",
        space="relative",
    )
    assert isinstance(verify_certificate(cert), Mismatch)


def test_strict_witnesses_verify_as_hh_claims(direct_sum):
    """The descent homotopies of a strict inverse telescope exactly, not
    only modulo the rotation: each strict inverse of direct-sum at degrees
    1–3, its claim restated as `hh`, still verifies, and fails once one
    witness coefficient with a nonzero boundary is changed."""
    split = direct_sum.split
    count = 0
    for degree in (1, 2, 3):
        for cycle in filtered_cycle_basis(split, degree, degree):
            schedule = build_unit_schedule(sorted(cycle.terms), split, degree)
            claim = dataclasses.replace(
                inverse_excision(cycle, schedule).verification, op="hh")
            assert verify_certificate(claim) is None
            witness = claim.witness
            key = next(t for t in sorted(witness.terms)
                       if tuple_boundary_terms(split, t))
            tampered = dataclasses.replace(
                claim, witness=witness + Chain(degree + 1, split, {key: 1}))
            mismatch = verify_certificate(tampered)
            assert isinstance(mismatch, Mismatch)
            assert mismatch.reason == "boundary identity fails"
            count += 1
    assert count == 517


def test_hh_compares_strictly_and_hc_modulo_rotation(t2, tmp_path, capsys):
    from excisionlab.cli import EXIT_MISMATCH, EXIT_OK, main
    from excisionlab.fileio import certificate_to_doc

    # E11⊗E22 and t(E11⊗E22) = −E22⊗E11 are one cyclic class, not one chain
    lhs = pure_tensor(t2.split, (0, 2))
    claims = {op: BoundaryCertificate(lhs=lhs, rhs=cyclic_t(lhs),
                                      witness=Chain(2, t2.split), op=op,
                                      space="relative")
              for op in ("hc", "hh")}
    assert verify_certificate(claims["hc"]) is None
    mismatch = verify_certificate(claims["hh"])
    assert isinstance(mismatch, Mismatch)
    assert mismatch.reason == "boundary identity fails"
    assert mismatch.residual == cyclic_t(lhs) - lhs
    # an `hh` boundary document through the command line
    [result] = inverse_excision_class([lhs])
    sound = dataclasses.replace(result.verification, op="hh")
    doc = certificate_to_doc(sound, t2.split)
    assert doc["kind"] == "boundary"
    path = tmp_path / "hh.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--certificate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "ok\n"
    doc["witness"]["terms"][0]["coeff"] = "17"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--certificate", str(path)]) == EXIT_MISMATCH
    assert capsys.readouterr().out.startswith("MISMATCH: boundary identity fails\n")


def test_descent_of_zero_chain_is_zero(t2):
    zero = Chain(1, t2.split)
    cert = descent_step(zero, SparseVector.from_list([1, 0, 0]))
    assert cert.output.is_zero()
    assert cert.homotopy.is_zero()
    assert verify_certificate(cert) is None


def test_pipeline_is_deterministic(t2):
    from excisionlab.fileio import certificate_to_doc

    def run():
        docs = []
        for degree in range(3):
            witness = isomorphism_witness(t2.split, degree)
            for result in witness.onto:
                docs.append(certificate_to_doc(result, t2.split))
            for result, cert in witness.back:
                docs.append(certificate_to_doc(result, t2.split))
                docs.append(certificate_to_doc(cert, t2.split))
        return docs

    assert run() == run()


def test_an_all_ideal_inverse_is_certified_inside_the_ideal(t2):
    """The witness of an all-ideal strict cycle's inverse is −Σ e_i ⊗ φ_i
    with every e_i and φ_i ideal, so its claim also holds in C(I): this is
    what lets the back certificates reuse it."""
    for split, moving in ((t2.split, 19), (dual_number_split(), 270)):
        moved = 0
        for degree in range(1, 4):
            for cycle in filtered_cycle_basis(split, degree, degree):
                if not is_ideal_chain(cycle):
                    continue
                schedule = build_unit_schedule(sorted(cycle.terms), split, degree)
                result = inverse_excision(cycle, schedule)
                moved += result.output != cycle
                claim = result.verification
                assert is_ideal_chain(claim.witness)
                assert verify_certificate(dataclasses.replace(claim, space="I")) is None
        assert moved == moving


def witness_cases(corpus):
    """(split, degree) of every `isomorphism_witness` the two tests below
    run: the corpus at degrees 0-4, ut3 at 0-3 and the dual numbers at 0-4."""
    ut3, dual = upper_triangular_split(), dual_number_split()
    return ([(demo.split, n) for demo in corpus for n in range(5)]
            + [(ut3, n) for n in range(4)] + [(dual, n) for n in range(5)])


def test_back_certificates_reuse_the_inverse_witness(corpus, monkeypatch):
    import excisionlab.excision as excision_module

    def forbidden(*args, **kwargs):
        raise AssertionError("the excision isomorphism ran a linear solve")

    monkeypatch.setattr(excision_module, "solve", forbidden)
    for split, degree in witness_cases(corpus):
        report = isomorphism_witness(split, degree)
        for result, cert in report.back:
            assert (cert.witness is result.verification.witness
                    or cert.witness.is_zero() and cert.lhs == cert.rhs)
        assert all(verify_certificate(c) is None for c in report.all_certificates())


# sha256 over the `certificate_to_doc` JSON, witnesses included, of every
# certificate of `witness_cases`.
ISOMORPHISM_DOCS_SHA256 = "afe0b30a0dff8123f4322e302dae99a9b1346b1e7da6680b752e8b2e52cc5c92"


def test_isomorphism_certificate_documents_are_pinned(corpus):
    from excisionlab.fileio import certificate_to_doc

    digest = hashlib.sha256()
    count = 0
    for split, degree in witness_cases(corpus):
        for cert in isomorphism_witness(split, degree).all_certificates():
            doc = certificate_to_doc(cert, split)
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
            count += 1
    assert count == 51
    assert digest.hexdigest() == ISOMORPHISM_DOCS_SHA256


def non_standard_splits(corpus):
    """Splits whose ordered basis is not the standard basis, unlike the
    corpus: t2-corner and direct-sum rebased by offsets 1 and 2, and
    matrix2 with its first ideal basis vector doubled."""
    demos = {demo.name: demo for demo in corpus}
    return ([rebased_split(demos[name], offset)
             for name in ("t2-corner", "direct-sum") for offset in (1, 2)]
            + [_doubled_split(demos["matrix2"].split)])


# count and sha256 of the strict documents at degrees 1-3, of the
# `isomorphism_witness` documents at degrees 0-2, and sha256 of one solve
# document, on `non_standard_splits`: a slip between parent and split
# coordinates, which the corpus's standard bases hide, moves them
NON_STANDARD_STRICT_DOCS = (
    2842, "9ac94cd20af370b4bfe5c0da33f89f23be0eb042fa913a6585be3fea9973a030")
NON_STANDARD_ISOMORPHISM_DOCS = (
    30, "2987dd15daa3a4e6ffc353d4aa892eebb254d77a6fe30d358aa2f731ffedeec1")
NON_STANDARD_SOLVE_DOC_SHA256 = (
    "26bdf074fe5d94d5dc716342436c3343c4d9b6ed82a2d38613581bfdf8b9a489")


def test_documents_on_non_standard_splits_are_pinned(corpus, monkeypatch):
    from excisionlab.fileio import certificate_to_doc
    from pin_strict_degree4 import strict_documents_digest

    def line(doc):
        return json.dumps(doc, sort_keys=True).encode() + b"\n"

    splits = non_standard_splits(corpus)
    assert strict_documents_digest((1, 2, 3), splits) == NON_STANDARD_STRICT_DOCS
    digest = hashlib.sha256()
    count = 0
    for split in splits:
        for degree in range(3):
            for cert in isomorphism_witness(split, degree).all_certificates():
                digest.update(line(certificate_to_doc(cert, split)))
                count += 1
    assert (count, digest.hexdigest()) == NON_STANDARD_ISOMORPHISM_DOCS
    # φ + b(η) on rebased t2-corner at degree 2 takes the solve
    solved = _count_solves(monkeypatch)
    split = splits[0]
    phi = homology(split, Variant("hc", "relative"), 2).representatives[0]
    [result] = inverse_excision_class([phi + mixed_boundary(split, 2)])
    assert len(solved) == 1
    doc = certificate_to_doc(result, split)
    assert hashlib.sha256(line(doc)).hexdigest() == NON_STANDARD_SOLVE_DOC_SHA256


def test_right_unit_extension_refuses_when_a_unit_is_missing(t2):
    # opposite(T2) with the same corner span only has local right units;
    # a class whose initial slot is E12 needs a left unit that cannot exist,
    # so the pipeline surfaces the hypothesis failure instead of guessing.
    # (The documented route for such extensions is opposite_algebra first.)
    from excisionlab.algebra import Ideal, make_split_basis, opposite_algebra
    from excisionlab.units import NoLocalUnitError

    flipped = opposite_algebra(t2.algebra)
    ideal = Ideal(flipped, t2.ideal.basis_vectors)
    split = make_split_basis(ideal)
    cycle = pure_tensor(split, (1, 0)) + pure_tensor(split, (1, 2))
    assert boundary_b(cycle).is_zero()
    with pytest.raises(NoLocalUnitError):
        inverse_excision_class([canonicalize_cyclic(cycle)])
    # the double opposite is the original extension, where everything works
    restored = make_split_basis(
        Ideal(opposite_algebra(flipped), t2.ideal.basis_vectors)
    )
    witness = isomorphism_witness(restored, 2)
    assert witness.dimensions_match
    for cert in witness.all_certificates():
        assert verify_certificate(cert) is None
