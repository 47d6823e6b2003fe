"""Malformed certificate documents: every field of every certificate kind,
of the wrong JSON type or missing, is a ParseError that names its path from
the document root, and a chain swapped for another still gets a verdict.
The random-subtree counterpart is in `test_fuzz_documents.py`.
"""

import copy
import json
import time
from functools import cache

import pytest

from excisionlab.chains import canonicalize_cyclic, pure_tensor
from excisionlab.cli import EXIT_ERROR, main
from excisionlab.excision import (
    BoundaryCertificate,
    Mismatch,
    descent_step,
    inverse_excision_class,
    verify_certificate,
)
from excisionlab.fileio import (
    ParseError,
    certificate_from_doc,
    certificate_to_doc,
    chain_from_doc,
    chain_to_doc,
    demo_by_name,
)
from excisionlab.linalg import SparseVector

# one value of each JSON type; a field gets every one not of its own type
SAMPLES = {"null": None, "bool": True, "int": 7, "str": "x", "list": [], "object": {}}
REMOVED = object()


@cache
def documents():
    """{kind: document} for one certificate of each kind on t2-corner."""
    t2 = demo_by_name("t2-corner")
    phi = pure_tensor(t2.split, (0, 2))
    [inverse] = inverse_excision_class([canonicalize_cyclic(phi)])
    certificates = {
        "descent": descent_step(phi, SparseVector.from_list([1, 0, 0])),
        "boundary": inverse.verification,
        "inverse": inverse,
    }
    return {
        kind: json.loads(json.dumps(certificate_to_doc(cert, t2.split)))
        for kind, cert in certificates.items()
    }


def _chain_fields(doc, key):
    """(path, type, required) of the fields of the chain document `key`."""
    fields = [(key, dict, True), (key + ("degree",), int, True),
              (key + ("terms",), list, True)]
    if doc_at(doc, key)["terms"]:
        term = key + ("terms", 0)
        fields += [(term, dict, None), (term + ("coeff",), str, True),
                   (term + ("slots",), list, True),
                   (term + ("slots", 0), list, None),
                   (term + ("slots", 0, 0), str, None)]
    return fields


def fields(kind):
    """(path, JSON type, required) for each typed field of a document of
    `kind`; `required` is None for list elements, which cannot be removed."""
    doc = documents()[kind]
    product = ("algebra", "products", 0)
    found = [
        ((), dict, None),
        (("kind",), str, True),
        (("algebra",), dict, True),
        (("algebra", "field"), str, True),
        (("algebra", "dimension"), int, True),
        (("algebra", "basis"), list, True),
        (("algebra", "basis", 0), str, None),
        (("algebra", "products"), list, True),
        (product, dict, None),
        (product + ("left",), int, True),
        (product + ("right",), int, True),
        (product + ("result",), list, True),
        (product + ("result", 0), dict, None),
        (product + ("result", 0, "index"), int, True),
        (product + ("result", 0, "coeff"), str, True),
        (("algebra", "ideal"), dict, True),
        (("algebra", "ideal", "basis_vectors"), list, True),
        (("algebra", "ideal", "basis_vectors", 0), list, None),
        (("algebra", "ideal", "basis_vectors", 0, 0), str, None),
        (("algebra", "complement"), list, False),
        (("algebra", "complement", 0), list, None),
        (("algebra", "complement", 0, 0), str, None),
        (("degree",), int, True),
    ]
    if kind == "descent":
        for key in ("input", "output"):
            found += _chain_fields(doc, (key,))
        found += [(("unit",), list, True), (("unit", 0), str, None)]
    if kind == "inverse":
        for key in ("input", "output"):
            found += _chain_fields(doc, (key,))
        found += [
            (("schedule",), dict, True),
            (("schedule", "units"), list, True),
            (("schedule", "units", 0), list, None),
            (("schedule", "units", 0, 0), str, None),
            (("certificate",), dict, True),
        ]
    claim = {"boundary": (), "inverse": ("certificate",)}.get(kind)
    if claim is not None:
        for key in ("lhs", "rhs", "witness"):
            found += _chain_fields(doc, claim + (key,))
        found += [(claim + ("op",), str, True), (claim + ("space",), str, True)]
    return found


def written_paths(doc, path=()):
    """The root, and the path of each key of an object and of the first
    element of each list in `doc`."""
    yield path
    if isinstance(doc, dict):
        for key, child in doc.items():
            yield from written_paths(child, path + (key,))
    elif isinstance(doc, list) and doc:
        yield from written_paths(doc[0], path + (0,))


@pytest.mark.parametrize("kind", ["descent", "boundary", "inverse"])
def test_every_written_field_is_listed(kind):
    """Every field the writer writes is one of `fields(kind)`, and so
    required and typed; a derived field written again fails here."""
    written = list(written_paths(documents()[kind]))
    assert len(written) == len(set(written))
    assert set(written) == {path for path, _, _ in fields(kind)}


def doc_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def path_text(path):
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text or "document"


def mutations():
    for kind in ("descent", "boundary", "inverse"):
        for path, kind_type, required in fields(kind):
            for name, value in SAMPLES.items():
                wrong = not isinstance(value, kind_type) or (
                    kind_type is int and isinstance(value, bool))
                if wrong:
                    yield pytest.param(kind, path, value, id=f"{kind}:{path_text(path)}={name}")
            if required:
                yield pytest.param(kind, path, REMOVED, id=f"{kind}:{path_text(path)} removed")


def mutate(kind, path, value):
    """A copy of the `kind` document with the field at `path` set to `value`
    (or deleted, for REMOVED)."""
    doc = copy.deepcopy(documents()[kind])
    if not path:
        return value
    parent = doc_at(doc, path[:-1])
    if value is REMOVED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind, path, value", list(mutations()))
def test_malformed_field_names_its_path(kind, path, value, tmp_path, capsys):
    doc = mutate(kind, path, value)
    target = tmp_path / "certificate.json"
    target.write_text(json.dumps(doc))
    assert main(["verify", "--certificate", str(target)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path_text(path)}: "), captured.err


# the list and claim fields: the writer always writes them, even empty, so
# the reader requires them as it does every other field but `complement`
LISTS_AND_CLAIMS = {"products", "result", "basis_vectors", "terms", "units",
                    "op", "space"}


@pytest.mark.parametrize("kind, path", [
    pytest.param(kind, path, id=f"{kind}:{path_text(path)}")
    for kind in ("descent", "boundary", "inverse")
    for path, _, _ in fields(kind) if path and path[-1] in LISTS_AND_CLAIMS
])
def test_a_dropped_list_or_claim_field_is_missing(kind, path):
    with pytest.raises(ParseError) as info:
        certificate_from_doc(mutate(kind, path, REMOVED))
    assert (info.value.location, info.value.message) == (path_text(path), "missing field")


def coeff_fields():
    for kind in ("descent", "boundary", "inverse"):
        for path, _, _ in fields(kind):
            if path[-1:] == ("coeff",):
                yield pytest.param(kind, path, id=f"{kind}:{path_text(path)}")


@pytest.mark.parametrize("kind, path", list(coeff_fields()))
def test_a_coefficient_with_a_trailing_newline_names_its_path(kind, path):
    doc = mutate(kind, path, doc_at(documents()[kind], path) + "\n")
    with pytest.raises(ParseError) as info:
        certificate_from_doc(doc)
    assert info.value.location == path_text(path)
    assert "not an exact rational literal" in info.value.message


def parent_format(kind, doc):
    """`doc` with the fields the writer derives added back: a descent's
    `homotopy`, and an inverse schedule's `degree` and `targets` (e_1 fixes
    the initial slot E11 of E11⊗E22)."""
    doc = copy.deepcopy(doc)
    if kind == "descent":
        certificate, _ = certificate_from_doc(documents()[kind])
        doc["homotopy"] = chain_to_doc(certificate.homotopy)
    else:
        doc["schedule"].update(degree=1, targets=[[["1", "0", "0"]]])
    return doc


@pytest.mark.parametrize("kind", ["descent", "inverse"])
@pytest.mark.parametrize("tampered", [False, True], ids=["sound", "tampered"])
def test_a_document_with_the_derived_fields_gets_the_same_verdict(
        kind, tampered, tmp_path, capsys):
    doc = copy.deepcopy(documents()[kind])
    if tampered:
        doc["output"]["terms"].append(copy.deepcopy(doc["input"]["terms"][0]))
    verdicts = []
    for version in (doc, parent_format(kind, doc)):
        target = tmp_path / "certificate.json"
        target.write_text(json.dumps(version))
        verdicts.append((main(["verify", "--certificate", str(target)]),
                         capsys.readouterr()))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][1].out.startswith("MISMATCH" if tampered else "ok")


def test_the_unmangled_documents_verify():
    for doc in documents().values():
        certificate, _ = certificate_from_doc(copy.deepcopy(doc))
        assert verify_certificate(certificate) is None


@pytest.mark.parametrize("key", ["op", "space"])
def test_unknown_claims_are_refused(key):
    boundary = copy.deepcopy(documents()["boundary"])
    boundary[key] = "xx"
    with pytest.raises(ParseError) as info:
        certificate_from_doc(boundary)
    assert info.value.location == key
    inverse = copy.deepcopy(documents()["inverse"])
    inverse["certificate"][key] = "xx"
    with pytest.raises(ParseError) as info:
        certificate_from_doc(inverse)
    assert info.value.location == f"certificate.{key}"
    # a claim built in code is not recognised either
    sound, _ = certificate_from_doc(documents()["boundary"])
    forged = BoundaryCertificate(**{**vars(sound), key: "xx"})
    mismatch = verify_certificate(forged)
    assert isinstance(mismatch, Mismatch)
    assert "unknown claim" in mismatch.reason


@pytest.mark.parametrize("kind, key", [("descent", "input"), ("boundary", "lhs"),
                                       ("inverse", "input")])
def test_a_certificate_degree_other_than_its_chains_is_refused(kind, key):
    doc = copy.deepcopy(documents()[kind])
    assert doc["degree"] == doc[key]["degree"] == 1
    doc["degree"] = 7
    with pytest.raises(ParseError) as info:
        certificate_from_doc(doc)
    assert info.value.location == "degree"
    assert f"that of the {key}" in info.value.message


def subtree_paths(doc, path=()):
    yield path
    children = ()
    if isinstance(doc, (dict, list)):
        children = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, child in children:
        yield from subtree_paths(child, path + (key,))


def test_every_chain_swapped_for_every_other_gets_a_verdict():
    """A chain of another degree or space in place of each chain field: the
    verifier must answer with a Mismatch, never by raising."""
    docs = documents()
    chains = [
        (kind, path) for kind, doc in docs.items() for path in subtree_paths(doc)
        if path and path[-1] in ("input", "output", "lhs", "rhs", "witness")
    ]
    verdicts = set()
    for kind, path in chains:
        for donor_kind, donor in chains:
            doc = mutate(kind, path, copy.deepcopy(doc_at(docs[donor_kind], donor)))
            if path in (("input",), ("lhs",)):  # the chain the degree names
                doc["degree"] = doc_at(doc, path)["degree"]
            certificate, _ = certificate_from_doc(doc)
            verdict = verify_certificate(certificate)
            assert verdict is None or isinstance(verdict, Mismatch)
            verdicts.add(verdict is None)
    assert verdicts == {True, False}


E11, E12, E22 = ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]
NO_COMPLEMENT = object()


@pytest.mark.parametrize("ideal, complement, location", [
    pytest.param([E11, ["2", "0", "0"]], NO_COMPLEMENT, "ideal", id="dependent ideal"),
    pytest.param([E11, ["2", "0", "0"]], [E22], "ideal",
                 id="dependent ideal with a complement"),
    pytest.param([E22], NO_COMPLEMENT, "ideal", id="one-sided ideal"),
    pytest.param([E11], [E12, E22], "ideal", id="one-sided ideal with a complement"),
    pytest.param([E11, E12], [["1", "1", "0"]], "complement",
                 id="complement dependent on the ideal"),
])
def test_an_ideal_or_complement_the_split_refuses_names_its_field(
        ideal, complement, location):
    """The reader's one check of the ideal, `make_split_basis`, is refused
    at the field it concerns, whatever its message says."""
    doc = copy.deepcopy(documents()["descent"])
    doc["algebra"]["ideal"]["basis_vectors"] = ideal
    if complement is NO_COMPLEMENT:
        del doc["algebra"]["complement"]
    else:
        doc["algebra"]["complement"] = complement
    with pytest.raises(ParseError) as info:
        certificate_from_doc(doc)
    assert info.value.location == f"algebra.{location}"


def _dense_chain(degree, slot):
    """A chain document of one term with every slot `slot`."""
    return {"degree": degree, "terms": [{"coeff": "1", "slots": [slot] * (degree + 1)}]}


def test_a_term_that_would_expand_past_the_cap_is_refused(tmp_path, capsys):
    """One term of degree 10 whose slots have three coordinates each would
    expand to 3^11 tuples, more than the 3^5 of the whole tensor space at
    the default cap 4: the reader counts before it expands, so `verify` and
    `excise-inverse` refuse the 800-byte file at once."""
    doc = copy.deepcopy(documents()["boundary"])
    doc["lhs"] = _dense_chain(10, ["1", "1", "1"])
    certificate, algebra, chain = (tmp_path / f"{name}.json"
                                   for name in ("certificate", "algebra", "chain"))
    certificate.write_text(json.dumps(doc))
    algebra.write_text(json.dumps(doc["algebra"]))
    chain.write_text(json.dumps(doc["lhs"]))
    start = time.perf_counter()
    assert main(["verify", "--certificate", str(certificate)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: lhs.terms[0].slots: the slots expand to 177147 ")
    assert "more than 3^5 at the degree cap 4" in err and "EXCISIONLAB_MAX_DEGREE" in err
    assert main(["excise-inverse", "--algebra", str(algebra),
                 "--chain", str(chain)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: terms[0].slots: the slots expand")
    assert time.perf_counter() - start < 1


def test_terms_within_the_bound_still_load():
    """Two coordinates per slot at degree 5 expand to 2^6 = 64 ≤ 243 tuples;
    a document `chain_to_doc` wrote has one tuple per term, so it loads above
    the cap too."""
    split = demo_by_name("t2-corner").split
    assert len(chain_from_doc(_dense_chain(5, ["1", "1", "0"]), split).terms) == 64
    above = pure_tensor(split, (0, 1, 2, 0, 1, 2, 0))
    assert chain_from_doc(chain_to_doc(above), split) == above
