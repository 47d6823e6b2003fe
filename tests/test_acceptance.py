"""Acceptance suite: every criterion is exercised at its stated tolerance
(everything here is exact arithmetic, so the tolerance is zero throughout)
and prints one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
from fractions import Fraction

from excisionlab.algebra import Ideal, make_split_basis
from excisionlab.chains import (
    Variant,
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
    closed_formula,
    descent_step,
    inverse_excision_class,
    isomorphism_witness,
    verify_certificate,
)
from excisionlab.fileio import demo_corpus
from excisionlab.linalg import SparseVector
from excisionlab.units import (
    NoLocalUnit,
    NoLocalUnitError,
    build_unit_schedule,
    find_local_left_unit,
)

from support import WordAlgebra, filtered_cycle_basis, random_chain
import dense_oracle

CORPUS = demo_corpus()


def _report(number, description, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} — {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_golden_formulas():
    """The closed inverse formula matches the displayed low-degree
    expansions term for term, signs included."""
    ok = True
    # n = 1: two terms
    w = WordAlgebra(1)
    psi = closed_formula(w.generator_tensor(), w.unit_schedule())
    ok &= psi.terms == {
        (w.word("e1"), w.word("f1", "f0")): Fraction(1),
        (w.word("f1", "e1"), w.word("f0")): Fraction(-1),
    }
    # n = 2: four terms
    w = WordAlgebra(2)
    psi = closed_formula(w.generator_tensor(), w.unit_schedule())
    ok &= psi.terms == {
        (w.word("e1"), w.word("f1", "e2"), w.word("f2", "f0")): Fraction(1),
        (w.word("f1", "e1"), w.word("e2"), w.word("f2", "f0")): Fraction(-1),
        (w.word("e1"), w.word("f1", "f2", "e2"), w.word("f0")): Fraction(-1),
        (w.word("f1", "e1"), w.word("f2", "e2"), w.word("f0")): Fraction(1),
    }
    # n = 3: eight terms
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
    ok &= psi.terms == {k: Fraction(v) for k, v in expected.items()}
    ok &= len(psi.terms) == 8
    _report(1, "golden inverse formulas at degrees 1, 2, 3 (2/4/8 terms)", ok)


def test_criterion_2_chain_complex_identities():
    """b∘b = 0, b'∘b' = 0, t^(n+1) = id and b descends to coinvariants on
    at least 200 randomized chains per demo algebra, degrees 1..4."""
    rng = random.Random(20240)
    ok = True
    for demo in CORPUS:
        checked = 0
        for degree in range(1, 5):
            for _ in range(52):
                c = random_chain(demo.split, degree, rng, nterms=3)
                if degree >= 2:
                    ok &= boundary_b(boundary_b(c)).is_zero()
                    ok &= boundary_b(boundary_b(c, wrap=False), wrap=False).is_zero()
                rotated = c
                for _ in range(degree + 1):
                    rotated = cyclic_t(rotated)
                ok &= rotated == c
                ok &= canonicalize_cyclic(boundary_b(c - cyclic_t(c))).is_zero()
                checked += 1
        ok &= checked >= 200
    _report(2, "chain-complex identities on 208 random chains per demo", ok)


def test_criterion_3_filtration_lemma():
    """The boundary never raises the filtration level."""
    rng = random.Random(777)
    ok = True
    for demo in CORPUS:
        for degree in range(1, 5):
            for _ in range(30):
                prefix = rng.randint(1, degree + 1)
                c = random_chain(
                    demo.split, degree, rng, nterms=3, force_prefix=prefix
                )
                ok &= filtration_level(boundary_b(c)) <= filtration_level(c)
    _report(3, "filtration is respected by the boundary (random chains)", ok)


def _descent_unit(demo, chain):
    heads = sorted({tup[0] for tup in chain.terms})
    vectors = [demo.split.ordered_basis[i] for i in heads]
    unit = find_local_left_unit(demo.ideal, vectors)
    assert isinstance(unit, SparseVector)
    return unit


def test_criterion_4_descent_certificates():
    """Every spanning cycle of ker(b) ∩ F_p descends with an exact
    certificate and reaches the ideal's complex after at most n steps."""
    ok = True
    for demo in CORPUS:
        for degree in range(1, 4):
            for p in range(1, degree + 1):
                for cycle in filtered_cycle_basis(demo.split, degree, p):
                    cert = descent_step(cycle, _descent_unit(demo, cycle))
                    ok &= filtration_level(cert.output) <= p - 1
                    ok &= boundary_b(cert.homotopy) == cycle - cert.output
                    ok &= verify_certificate(cert) is None
                    current, steps = cycle, []
                    for _ in range(degree):
                        if is_ideal_chain(current):
                            break
                        step = descent_step(current, _descent_unit(demo, current))
                        steps.append(step)
                        current = step.output
                    ok &= is_ideal_chain(current)
                    if steps:
                        # the summed homotopies bound the whole descent
                        homotopy = sum((s.homotopy for s in steps[1:]),
                                       steps[0].homotopy)
                        ok &= boundary_b(homotopy) == cycle - current
    _report(4, "descent certificates and iterated descent into C_n(I)", ok)


def test_criterion_5_excision_isomorphism():
    """Equal dimensions and verified round-trip certificates in both
    directions for every demo extension, degrees 0..3."""
    ok = True
    for demo in CORPUS:
        for degree in range(4):
            witness = isomorphism_witness(demo.split, degree)
            ok &= witness.dimensions_match
            for cert in witness.all_certificates():
                ok &= verify_certificate(cert) is None
            if demo.name == "t2-corner" and degree == 0:
                ok &= witness.dim_ideal == 1 and witness.dim_relative == 1
    _report(5, "dim HC_n(I) = dim HC_n(A,I) with certificates, n = 0..3", ok)


def test_criterion_6_closed_formula_equals_iterated_descent():
    """On every strict top-filtration cycle the 2^n-term formula equals n
    chained descent steps with the same unit schedule, exactly."""
    ok = True
    tested = 0
    for demo in CORPUS:
        for degree in range(1, 4):
            for cycle in filtered_cycle_basis(demo.split, degree, degree):
                schedule = build_unit_schedule(
                    sorted(cycle.terms), demo.split, degree
                )
                direct = closed_formula(cycle, schedule)
                current = cycle
                for step in range(degree):
                    current = descent_step(
                        current, schedule.units[degree - 1 - step]
                    ).output
                ok &= current == direct
                tested += 1
    ok &= tested > 0
    _report(6, f"closed formula ≡ iterated descent on {tested} cycles", ok)


def test_criterion_7_dense_oracle_cross_check():
    """Sparse-engine homology dimensions equal the dense brute-force
    recomputation, demo corpus, degrees 0..3."""
    ok = True
    for demo in CORPUS:
        for space in ("A", "I", "relative"):
            for degree in range(4):
                engine = homology(demo.split, Variant("hc", space), degree).dimension
                oracle = dense_oracle.homology_dimension(
                    demo.split, "hc", space, degree
                )
                ok &= engine == oracle
    # the Hochschild and bar variants on the two smaller demos
    for demo in CORPUS[:2]:
        for op in ("hh", "bar"):
            for space in ("A", "I", "relative"):
                for degree in range(4):
                    engine = homology(demo.split, Variant(op, space), degree).dimension
                    oracle = dense_oracle.homology_dimension(
                        demo.split, op, space, degree
                    )
                    ok &= engine == oracle
    _report(7, "sparse engine matches the dense oracle on the corpus", ok)


def test_criterion_8_no_local_unit_surfaces():
    """The nilpotent line inside the corner algebra has no local left units;
    the pipeline says so instead of producing a wrong answer."""
    t2 = CORPUS[0]
    line = Ideal(t2.algebra, [SparseVector.from_list([0, 1, 0])])
    split = make_split_basis(line)
    result = find_local_left_unit(line, line.basis_vectors)
    ok = isinstance(result, NoLocalUnit)
    ok &= result.witness_target == SparseVector.from_list([0, 1, 0])
    # a genuine cyclic cycle of the relative complex for this extension
    cycle = pure_tensor(split, (0, 1)) + pure_tensor(split, (0, 2))
    ok &= canonicalize_cyclic(boundary_b(cycle)).is_zero()
    raised = False
    try:
        inverse_excision_class([canonicalize_cyclic(cycle)])
    except NoLocalUnitError as exc:
        raised = isinstance(exc.failure, NoLocalUnit)
    ok &= raised
    _report(8, "missing local units surface as NoLocalUnit with a witness", ok)


def test_criterion_9_bar_acyclicity():
    """Bar homology of every demo ideal vanishes in degrees 1..3, and the
    left unit gives an exact contracting homotopy."""
    rng = random.Random(99)
    ok = True
    for demo in CORPUS:
        for degree in range(1, 4):
            ok &= homology(demo.split, Variant("bar", "I"), degree).dimension == 0
        unit = find_local_left_unit(demo.ideal, demo.ideal.basis_vectors)
        unit_split = demo.split.to_split(unit)
        for degree in range(1, 4):
            for _ in range(10):
                x = random_chain(
                    demo.split, degree, rng, nterms=3, force_prefix=degree + 1
                )
                homotoped = boundary_b(
                    tensor_prepend(unit_split, x), wrap=False
                ) + tensor_prepend(unit_split, boundary_b(x, wrap=False))
                ok &= homotoped == x
    _report(9, "bar complexes of the demo ideals are acyclic in degrees 1..3", ok)
