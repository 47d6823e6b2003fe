"""Pin of the degree-4 strict certificate documents.

`tests/test_fileio.py::test_strict_certificate_documents_are_pinned` pins
degrees 1-3 in the tier-1 suite through `strict_documents_digest`.  This
script runs it at degree 4, which takes too long for tier-1: for every
strict top-filtration cycle `filtered_cycle_basis(split, 4, 4)` of each
corpus split it emits the inverse and the descent certificate documents,
and checks their count and the sha256 of their canonical JSON.  A second
pin does the same on t2-corner and matrix2 rebased by offset 1
(`support.rebased_split`), whose ordered bases are not the standard basis,
so that a slip between parent and split coordinates moves it.  Not
collected by pytest; run it as

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
from excisionlab.fileio import (  # noqa: E402
    certificate_to_doc, demo_by_name, demo_corpus,
)
from excisionlab.units import build_unit_schedule  # noqa: E402
from support import filtered_cycle_basis, rebased_split  # noqa: E402

DEGREES = (4,)
DOCUMENTS = 6046
DIGEST = "c60f4ca786e259ba72f76f091fc2cb9d49f03896cc35a6035f12516e0d9af794"
REBASED = (("t2-corner", 1), ("matrix2", 1))
REBASED_DOCUMENTS = 1880
REBASED_DIGEST = "c059082ccdd617bc17206f9c612c1e2500116146e3495912a60f1d25fac48b45"


def strict_documents_digest(degrees, splits=None):
    """(document count, sha256 hex digest) over the documents of the strict
    cycles of each of `degrees`, by split (the corpus splits when `splits`
    is None), then degree, then basis order."""
    digest = hashlib.sha256()
    count = 0
    if splits is None:
        splits = [demo.split for demo in demo_corpus()]
    for split in splits:
        for degree in degrees:
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
    rebased = [rebased_split(demo_by_name(name), offset) for name, offset in REBASED]
    for label, splits, documents, expected in (
        ("corpus", None, DOCUMENTS, DIGEST),
        ("rebased", rebased, REBASED_DOCUMENTS, REBASED_DIGEST),
    ):
        count, digest = strict_documents_digest(DEGREES, splits)
        print(f"{label}: {count} documents, sha256 {digest}")
        if count != documents:
            sys.exit(f"{label}: expected {documents} documents, got {count}")
        if digest != expected:
            sys.exit(f"{label}: expected sha256 {expected}, got {digest}")


if __name__ == "__main__":
    main()
