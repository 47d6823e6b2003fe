import hashlib
import json

import pytest

from excisionlab.chains import canonicalize_cyclic, pure_tensor
from excisionlab.excision import (
    descent_step,
    inverse_excision,
    Mismatch,
    inverse_excision_class,
    isomorphism_witness,
    verify_certificate,
)
from excisionlab.algebra import Algebra, Ideal, make_split_basis
from excisionlab.fileio import (
    DemoExtension,
    ParseError,
    RunReport,
    algebra_from_doc,
    algebra_to_doc,
    certificate_from_doc,
    certificate_to_doc,
    chain_from_doc,
    chain_to_doc,
    demo_by_name,
    demo_corpus,
    load_algebra,
    save_algebra,
    schedule_from_doc,
    schedule_to_doc,
)
from excisionlab.linalg import SparseVector
from excisionlab.units import build_unit_schedule

from support import filtered_cycle_basis


def test_algebra_round_trip(t2, tmp_path):
    path = tmp_path / "t2.json"
    save_algebra(path, t2.algebra, t2.ideal, t2.split)
    algebra, ideal, split = load_algebra(path)
    assert algebra == t2.algebra
    assert ideal == t2.ideal
    assert split == t2.split


def test_an_algebra_is_saved_with_its_ideal(t2, tmp_path):
    # the reader needs the ideal, so the writer cannot leave it out
    path = tmp_path / "t2.json"
    with pytest.raises(TypeError):
        save_algebra(path, t2.algebra)
    assert not path.exists()
    # the complement is optional: the reader completes the ideal basis
    save_algebra(path, t2.algebra, t2.ideal)
    _, ideal, split = load_algebra(path)
    assert ideal == t2.ideal
    assert split == make_split_basis(t2.ideal)


def test_all_demos_round_trip(corpus, tmp_path):
    for demo in corpus:
        path = tmp_path / f"{demo.name}.json"
        save_algebra(path, demo.algebra, demo.ideal, demo.split)
        algebra, ideal, split = load_algebra(path)
        assert algebra == demo.algebra and split == demo.split


def test_float_coefficients_rejected(t2):
    doc = algebra_to_doc(t2.algebra, t2.ideal)
    doc["products"][0]["result"][0]["coeff"] = "1.5"
    with pytest.raises(ParseError) as info:
        algebra_from_doc(doc)
    assert "coeff" in info.value.location


def test_empty_products_is_a_valid_zero_multiplication_algebra():
    doc = {
        "field": "rational",
        "dimension": 2,
        "basis": ["x", "y"],
        "products": [],
        "ideal": {"basis_vectors": [["1", "0"]]},
    }
    algebra, ideal, split = algebra_from_doc(doc)
    e0, e1 = algebra.basis_vector(0), algebra.basis_vector(1)
    assert algebra.mul(e0, e1).is_zero()
    assert split.ideal_count == 1


def test_dimension_mismatch_rejected(t2):
    doc = algebra_to_doc(t2.algebra, t2.ideal)
    doc["ideal"]["basis_vectors"][0] = ["1", "0"]
    with pytest.raises(ParseError):
        algebra_from_doc(doc)


def test_non_associative_document_rejected():
    doc = {
        "field": "rational",
        "dimension": 2,
        "basis": ["a", "b"],
        "products": [
            {"left": 0, "right": 0, "result": [{"index": 1, "coeff": "1"}]},
            {"left": 0, "right": 1, "result": [{"index": 0, "coeff": "1"}]},
        ],
        "ideal": {"basis_vectors": []},
    }
    with pytest.raises(ParseError) as info:
        algebra_from_doc(doc)
    assert "associative" in str(info.value)


@pytest.mark.parametrize("first, second", [
    (["1"], []),
    ([], ["1"]),
    (["1", "-1"], ["1"]),
    (["1"], ["1"]),
])
def test_a_second_record_for_a_product_is_rejected(first, second):
    """Also when one of the two results is zero, or sums to zero."""
    def record(coeffs):
        result = [{"index": 0, "coeff": c} for c in coeffs]
        return {"left": 0, "right": 0, "result": result}

    doc = {
        "field": "rational",
        "dimension": 1,
        "basis": ["e"],
        "products": [record(first), record(second)],
        "ideal": {"basis_vectors": []},
    }
    with pytest.raises(ParseError) as info:
        algebra_from_doc(doc)
    assert info.value.location == "products[1]"
    assert info.value.message == "duplicate product record for (0, 0)"


def test_chain_round_trip(t2):
    chain = pure_tensor(t2.split, (0, 2)).scaled(3) - pure_tensor(t2.split, (1, 1))
    doc = chain_to_doc(chain)
    assert chain_from_doc(doc, t2.split) == chain


def test_chain_expansion_distributes(t2):
    # a slot holding E11+E22 expands onto the standard tensor basis
    doc = {
        "degree": 1,
        "terms": [{"coeff": "2", "slots": [["1", "0", "1"], ["0", "1", "0"]]}],
    }
    chain = chain_from_doc(doc, t2.split)
    assert sorted(chain.terms) == [(0, 1), (2, 1)]
    assert chain.terms[(0, 1)] == 2 and chain.terms[(2, 1)] == 2


def test_chain_slot_count_enforced(t2):
    doc = {"degree": 2, "terms": [{"coeff": "1", "slots": [["1", "0", "0"]]}]}
    with pytest.raises(ParseError):
        chain_from_doc(doc, t2.split)


@pytest.mark.parametrize(
    "slot, location",
    [
        (["1", ["0"], "0"], "terms[1].slots[1][1]"),
        (["1", 0, "0"], "terms[1].slots[1][1]"),
        ("100", "terms[1].slots[1]"),
    ],
)
def test_chain_malformed_slot_names_its_path(t2, slot, location):
    # the first term puts well-formed slots in the parse memo
    doc = {"degree": 1, "terms": [
        {"coeff": "1", "slots": [["1", "0", "0"], ["0", "0", "1"]]},
        {"coeff": "1", "slots": [["1", "0", "0"], slot]},
    ]}
    with pytest.raises(ParseError) as info:
        chain_from_doc(doc, t2.split)
    assert info.value.location == location


def test_chain_repeated_and_cancelling_terms(t2):
    chain = pure_tensor(t2.split, (0, 2)).scaled(3) - pure_tensor(t2.split, (1, 1))
    terms = chain_to_doc(chain)["terms"]
    # (E11+E22) ⊗ E22 expands to E11⊗E22 + E22⊗E22; the next two terms
    # cancel it again
    cancelling = [
        {"coeff": "2", "slots": [["1", "0", "1"], ["0", "0", "1"]]},
        {"coeff": "-2", "slots": [["1", "0", "0"], ["0", "0", "1"]]},
        {"coeff": "-2", "slots": [["0", "0", "1"], ["0", "0", "1"]]},
    ]
    doubled = {"degree": 1, "terms": terms + cancelling + terms}
    assert chain_from_doc(doubled, t2.split) == chain.scaled(2)
    negated = chain_to_doc(-chain)["terms"]
    zero = {"degree": 1, "terms": terms + negated}
    assert chain_from_doc(zero, t2.split).is_zero()


def test_strict_inverse_certificate_round_trips_and_verifies(matrix2):
    split = matrix2.split
    cycle = next(c for c in filtered_cycle_basis(split, 3, 3) if len(c.terms) > 1)
    result = inverse_excision(cycle, build_unit_schedule(sorted(cycle.terms), split, 3))
    doc = json.loads(json.dumps(certificate_to_doc(result, split)))
    restored, restored_split = certificate_from_doc(doc)
    assert restored_split == split
    assert restored.input == result.input
    assert restored.output == result.output
    assert restored.schedule == result.schedule
    assert restored.verification == result.verification
    assert verify_certificate(restored) is None


def test_verify_replays_the_unit_schedule(t2):
    phi = pure_tensor(t2.split, (0, 2))
    [result] = inverse_excision_class([canonicalize_cyclic(phi)])
    saved = json.dumps(certificate_to_doc(result, t2.split))
    restored, _ = certificate_from_doc(json.loads(saved))
    assert verify_certificate(restored) is None
    e12 = ["0", "1", "0"]
    forged = {
        # e_1 = E12 fails its recorded equation E12·E11 = E11
        "E12 as the unit": {"units": [e12]},
        # no recorded equation, but E12 does not fix the initial slot E11
        "E12 with no targets": {"units": [e12], "targets": [[]]},
        "no units": {"degree": 0, "units": [], "targets": []},
    }
    for name, schedule in forged.items():
        doc = json.loads(saved)
        doc["schedule"].update(schedule)
        certificate, _ = certificate_from_doc(doc)
        assert isinstance(verify_certificate(certificate), Mismatch), name


def test_schedule_round_trip(t2):
    schedule = build_unit_schedule([(0, 2), (1, 2)], t2.split, 1)
    doc = schedule_to_doc(schedule)
    restored = schedule_from_doc(doc, t2.split.dimension)
    assert restored == schedule


def test_certificate_round_trips(t2):
    phi = pure_tensor(t2.split, (0, 2))
    descent = descent_step(phi, SparseVector.from_list([1, 0, 0]))
    doc = certificate_to_doc(descent, t2.split)
    restored, split = certificate_from_doc(doc)
    assert restored.input == descent.input
    assert restored.homotopy == descent.homotopy
    assert split == t2.split

    [inverse] = inverse_excision_class([canonicalize_cyclic(phi)])
    doc = certificate_to_doc(inverse, t2.split)
    restored, _ = certificate_from_doc(doc)
    assert restored.output == inverse.output
    assert restored.verification.witness == inverse.verification.witness
    assert restored.schedule == inverse.schedule

    boundary = inverse.verification
    doc = certificate_to_doc(boundary, t2.split)
    restored, _ = certificate_from_doc(doc)
    assert restored == boundary


def test_unknown_certificate_kind_rejected(t2):
    doc = {"kind": "mystery", "algebra": algebra_to_doc(t2.algebra, t2.ideal)}
    with pytest.raises(ParseError):
        certificate_from_doc(doc)


def test_demo_corpus_contents():
    names = [demo.name for demo in demo_corpus()]
    assert names == ["t2-corner", "matrix2", "direct-sum"]
    corner = demo_by_name("t2-corner")
    assert "left unit" in corner.notes
    with pytest.raises(KeyError):
        demo_by_name("missing")


def test_run_report_tracks_verification(t2):
    phi = pure_tensor(t2.split, (0, 2))
    cert = descent_step(phi, SparseVector.from_list([1, 0, 0]))
    report = RunReport(command="test")
    assert report.add_certificate("descent", cert)
    assert report.success
    doc = report.finish().to_doc()
    assert doc["all_verified"] is True
    assert "descent" in report.render_text()


def test_run_report_flags_failures(t2):
    from excisionlab.excision import DescentCertificate

    phi = pure_tensor(t2.split, (0, 2))
    cert = descent_step(phi, SparseVector.from_list([1, 0, 0]))
    broken = DescentCertificate(
        input=cert.input,
        output=cert.output + pure_tensor(t2.split, (0, 0)),
        homotopy=cert.homotopy,
        unit=cert.unit,
    )
    report = RunReport(command="test")
    assert not report.add_certificate("broken descent", broken)
    assert not report.success
    assert "MISMATCH" in report.render_text()


def test_json_decode_errors_carry_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": "rational",')
    with pytest.raises(json.JSONDecodeError):
        load_algebra(path)


def test_demo_extension_rejects_broken_hypotheses(t2):
    def extension(algebra, ideal):
        return DemoExtension("broken", algebra, ideal, make_split_basis(ideal), "")

    # x·x = y, y·x = x, x·y = 0: (x·x)·x = x but x·(x·x) = x·y = 0
    loose = Algebra(2, ["x", "y"], {
        (0, 0): SparseVector(2, {1: 1}),
        (1, 0): SparseVector(2, {0: 1}),
    })
    with pytest.raises(ValueError, match="not associative"):
        extension(loose, Ideal(loose, [loose.basis_vector(0)]))
    # span{E12, E22} is an ideal, but nothing in it fixes E12 from the left
    one_sided = Ideal(t2.algebra, [t2.algebra.basis_vector(1), t2.algebra.basis_vector(2)])
    with pytest.raises(ValueError, match="local left unit"):
        extension(t2.algebra, one_sided)
    corner = Ideal(t2.algebra, [t2.algebra.basis_vector(0)])
    with pytest.raises(ValueError, match="not two-sided"):
        extension(t2.algebra, corner)


# sha256 over the `certificate_to_doc` JSON, witnesses included, of every
# certificate `isomorphism_witness` returns on the corpus at degrees 0-3.
# The library's answers are meant to be bit-identical across optimisations;
# a new digest is a change of output and must be explained as one.
CERTIFICATE_DOCS_SHA256 = "e9e75c90cf3cf4c1dbcfa3a1641b5e7c4131660de3e97348ff3a5b79f018f541"


def test_certificate_documents_are_pinned(corpus):
    digest = hashlib.sha256()
    count = 0
    for demo in corpus:
        for degree in range(4):
            for cert in isomorphism_witness(demo.split, degree).all_certificates():
                doc = certificate_to_doc(cert, demo.split)
                digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
                count += 1
    assert count == 18
    assert digest.hexdigest() == CERTIFICATE_DOCS_SHA256


# sha256 of the strict-path documents below, taken before the product table
# and the accumulate primitive were shared by every chain computation.
STRICT_CERTIFICATE_DOCS_SHA256 = "7795fbb9298dd857e464b43c69dddc45da28891e2aa5654e39445a436a864f80"


def test_strict_certificate_documents_are_pinned(corpus):
    """The closed formula and the descent output run only on strict cycles,
    which the end-to-end pin above never reaches."""
    digest = hashlib.sha256()
    count = 0
    for demo in corpus:
        split = demo.split
        for degree in range(1, 4):
            for cycle in filtered_cycle_basis(split, degree, degree):
                schedule = build_unit_schedule(sorted(cycle.terms), split, degree)
                for cert in (
                    inverse_excision(cycle, schedule),
                    descent_step(cycle, schedule.units[-1]),
                ):
                    doc = certificate_to_doc(cert, split)
                    digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
                    count += 1
    assert count == 1690
    assert digest.hexdigest() == STRICT_CERTIFICATE_DOCS_SHA256
