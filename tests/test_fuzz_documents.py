"""Fuzzed certificate documents: a random subtree of a stored certificate
swapped for random JSON, or for another stored subtree, gets a verdict or a
ParseError, never another exception.  Needs `hypothesis`; skipped without it.
"""

import copy
from functools import cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from excisionlab.excision import Mismatch, verify_certificate  # noqa: E402
from excisionlab.fileio import ParseError, certificate_from_doc  # noqa: E402
from test_malformed_documents import (  # noqa: E402
    doc_at,
    documents,
    mutate,
    subtree_paths,
)


# the document's own keys and values, so that a fuzzed subtree is often
# nearly well-formed and gets past the first check
KEYS = ["degree", "terms", "coeff", "slots", "op", "space", "units", "lhs",
        "rhs", "witness", "basis_vectors", "left", "right", "result", "index"]
LEAVES = (st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=3)
          | st.sampled_from(["0", "1", "-1", "1/2", "hc", "hh", "I", "relative", "A"]))
JSON = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


@cache
def stored_subtrees():
    """Every subtree of every stored document: a chain of another degree in
    place of a chain, a vector in place of a scalar, and so on."""
    return [doc_at(doc, path) for doc in documents().values()
            for path in subtree_paths(doc)]


@st.composite
def fuzzed_documents(draw):
    kind = draw(st.sampled_from(["descent", "boundary", "inverse"]))
    path = draw(st.sampled_from(list(subtree_paths(documents()[kind]))))
    value = draw(st.sampled_from(stored_subtrees()) | JSON)
    return mutate(kind, path, copy.deepcopy(value))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(fuzzed_documents())
def test_fuzzed_documents_get_a_verdict_or_a_parse_error(doc):
    try:
        certificate, _ = certificate_from_doc(doc)
    except ParseError:
        return
    verdict = verify_certificate(certificate)
    assert verdict is None or isinstance(verdict, Mismatch)
