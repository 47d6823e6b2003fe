"""Pin of the degree-4 strict certificate documents.

`tests/test_fileio.py::test_strict_certificate_documents_are_pinned` pins
degrees 1-3 in the tier-1 suite.  This script does the same at degree 4,
which takes too long for tier-1: for every strict top-filtration cycle
`filtered_cycle_basis(split, 4, 4)` of each corpus split it emits the
inverse and the descent certificate documents, and checks their count and
the sha256 of their canonical JSON.  Not collected by pytest; run it as

    python tests/pin_strict_degree4.py

It exits non-zero, naming the pin, when the count or the digest moves.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from excisionlab.excision import descent_step, inverse_excision  # noqa: E402
from excisionlab.fileio import certificate_to_doc, demo_corpus  # noqa: E402
from excisionlab.units import build_unit_schedule  # noqa: E402
from support import filtered_cycle_basis  # noqa: E402

DEGREE = 4
DOCUMENTS = 6046
DIGEST = "4ce359b7a785dd285d292bcf22f9b497ad8e69a2e9740f9c69f1b5281648f9a1"


def strict_documents_digest(degree=DEGREE):
    """(document count, sha256 hex digest) over the documents of the strict
    cycles of `degree`, in corpus and basis order."""
    digest = hashlib.sha256()
    count = 0
    for demo in demo_corpus():
        split = demo.split
        for cycle in filtered_cycle_basis(split, degree, degree):
            schedule = build_unit_schedule(sorted(cycle.terms), split, degree)
            for cert in (
                inverse_excision(cycle, schedule),
                descent_step(cycle, schedule.units[-1]),
            ):
                doc = certificate_to_doc(cert, split)
                digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
                count += 1
    return count, digest.hexdigest()


def main():
    count, digest = strict_documents_digest()
    print(f"{count} documents, sha256 {digest}")
    if count != DOCUMENTS:
        sys.exit(f"expected {DOCUMENTS} documents, got {count}")
    if digest != DIGEST:
        sys.exit(f"expected sha256 {DIGEST}, got {digest}")


if __name__ == "__main__":
    main()
