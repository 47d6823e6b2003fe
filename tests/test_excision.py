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
    basis_tuples,
    boundary_b,
    canonicalize_cyclic,
    cyclic_t,
    filtration_level,
    homology,
    is_ideal_chain,
    pure_tensor,
    tensor_prepend,
)
from excisionlab.excision import (
    BoundaryCertificate,
    CertificateSearchError,
    DescentCertificate,
    InverseInvariantError,
    InverseResult,
    Mismatch,
    UnitActionError,
    _invert_by_solve,
    _inverse_system,
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
from excisionlab.fileio import RunReport
from excisionlab.linalg import SparseVector
from excisionlab.units import (
    UnitSchedule, build_unit_schedule, find_local_left_unit,
)

from dense_oracle import sign_word_closed_formula
from support import (
    WordAlgebra, cyclic_boundary_witness, dual_number_split,
    filtered_cycle_basis, stored_exactly, upper_triangular_split,
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
                    unit = find_local_left_unit(
                        demo.ideal, [split.ordered_basis[i] for i in heads])
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
            unit = find_local_left_unit(
                t2.ideal, [split.ordered_basis[i] for i in heads])
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
    units = [c for u in schedule.units for c in split.to_split(u).entries.values()]
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
                    with pytest.raises(InverseInvariantError,
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
        unit = find_local_left_unit(
            t2.ideal, [t2.split.ordered_basis[i] for i in heads])
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


@pytest.mark.parametrize("fault", ["leaves the ideal", "differs from descent"])
def test_inverse_invariant_failures_raise_a_typed_error(t2, monkeypatch, fault):
    import excisionlab.excision as excision_module

    phi = pure_tensor(t2.split, (0, 2))
    schedule = UnitSchedule((SparseVector.from_list([1, 0, 0]),))
    formula = excision_module.closed_formula
    if fault == "leaves the ideal":
        def broken(chain, schedule):
            return chain  # E22 sits outside the corner ideal
    else:
        def broken(chain, schedule):
            return formula(chain, schedule) + pure_tensor(t2.split, (0, 0))
    monkeypatch.setattr(excision_module, "closed_formula", broken)
    with pytest.raises(InverseInvariantError) as info:
        inverse_excision(phi, schedule)
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
    # the identity E11+E22 fixes the recorded target E11 and every slot,
    # but it is no unit of the ideal span{E11, E12}
    identity = UnitSchedule([SparseVector.from_list([1, 0, 1])],
                            [[SparseVector.from_list([1, 0, 0])]])
    assert identity.verify(t2.algebra)
    forged = dataclasses.replace(result, schedule=identity)
    mismatch = verify_certificate(forged)
    assert isinstance(mismatch, Mismatch)
    assert mismatch.reason == "a unit of the schedule lies outside the ideal"


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
    schedule = UnitSchedule([unit], result.schedule.provenance)
    for certificate, reason in [
        (dataclasses.replace(descent, unit=unit),
         "the unit has the wrong dimension"),
        (dataclasses.replace(result, schedule=schedule),
         "a unit of the schedule has the wrong dimension"),
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


def test_all_ideal_classes_invert_as_themselves(corpus):
    # every class isomorphism_witness inverts has all slots ideal, and the
    # identity path returns exactly what the stacked solve returns
    ut3 = upper_triangular_split()
    cases = [(demo.split, n) for demo in corpus for n in range(5)]
    cases += [(ut3, n) for n in range(4)]
    inverted = 0
    for split, degree in cases:
        report = isomorphism_witness(split, degree)
        for result in report.onto + [result for result, _ in report.back]:
            assert is_ideal_chain(result.input)
            again = inverse_excision(result.input, result.schedule)
            psi, eta = _invert_by_solve(result.input)
            assert again.output.terms == psi.terms == result.output.terms
            assert again.verification.witness.is_zero() and eta.is_zero()
            inverted += 1
    # one class each way at degrees 0, 2, 4 on the corpus and 0, 2 on ut3
    assert inverted == 2 * 3 * 3 + 2 * 2


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


def test_classes_with_complement_slots_take_the_solve(t2, direct_sum, monkeypatch):
    import excisionlab.excision as excision_module

    solved = []
    solve = excision_module._invert_by_solve

    def counted(chain):
        solved.append(chain)
        return solve(chain)

    monkeypatch.setattr(excision_module, "_invert_by_solve", counted)
    variant = Variant("hc", "relative")
    for demo in (t2, direct_sum):
        split = demo.split
        for degree in (2, 4):
            mixed = [t for t in basis_tuples(split, variant, degree + 1)
                     if not all(split.is_ideal_index(i) for i in t)]
            eta = Chain(degree + 1, split,
                        {t: k + 1 for k, t in enumerate(mixed[:3])})
            for phi in homology(split, variant, degree).representatives:
                solved.clear()
                [plain] = inverse_excision_class([phi])
                [result] = inverse_excision_class([phi + boundary_b(eta)])
                assert len(solved) == 1
                assert not is_ideal_chain(solved[0])
                assert verify_certificate(result) is None
                witness = cyclic_boundary_witness(result.output - plain.output, "I")
                assert witness is not None
                cert = BoundaryCertificate(
                    lhs=result.output, rhs=plain.output, witness=witness,
                    op="hc", space="I",
                )
                assert verify_certificate(cert) is None


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
    # E12 ⊗ E22 has a complement slot and b of it is −E12 ≠ 0, so no cycle
    # over the ideal is homologous to it
    target = pure_tensor(t2.split, (1, 2))
    with pytest.raises(CertificateSearchError) as info:
        _invert_by_solve(target)
    # the error carries the stacked system, built once per split and degree
    system, _, cols_ideal, cols_up, _ = _inverse_system(t2.split, 1)
    assert info.value.matrix is system
    assert (system.rows, system.cols) == (5, 11)
    assert info.value.columns == cols_ideal + cols_up


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
    # b∘b = 0, so adding a boundary to the homotopy keeps the identity
    extra = boundary_b(pure_tensor(split, (0, 1, 2, 2)))
    assert not extra.is_zero()
    h12 = tensor_prepend(e12, phi)  # split = parent coordinates on t2-corner
    forged = {
        "changed output": DescentCertificate(
            cert.input, cert.output + pure_tensor(split, (1, 1)),
            cert.homotopy, cert.unit),
        "input = output, homotopy 0": DescentCertificate(
            square, square, Chain(2, split), e11),
        "changed homotopy": DescentCertificate(
            cert.input, cert.output, cert.homotopy + extra, cert.unit),
        # the homotopy E12 ⊗ phi, and the output that makes the identity hold
        "E12 as the unit": DescentCertificate(
            phi, phi - boundary_b(h12) - tensor_prepend(e12, boundary_b(phi)),
            h12, e12),
    }
    for name, tampered in forged.items():
        assert isinstance(verify_certificate(tampered), Mismatch), name


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
# certificate of `witness_cases`, taken while the back certificates were
# still built by a separate witness search.
ISOMORPHISM_DOCS_SHA256 = "37b981cc4a0f5cf451019fa1d19b0b2aac7aa0ef064aa19ae7089322cf5eceeb"


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
