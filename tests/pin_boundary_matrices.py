"""Pin of every boundary matrix, in the order its entries were stored.

`tests/test_chains.py::test_boundary_matrices_match_the_dense_oracle`
compares the matrices with a dense oracle as dicts, which ignores the order
of `entries`; elimination, the ∂∂ = 0 check and the logs iterate it, so
this script pins that order too.  For the corpus, `ut3`, the dual-number
split and the six rebased splits (offsets 1 and 2), each on a fresh split,
it hashes `boundary_matrix` for hh/hc/bar × I/relative/A at degrees 1-4
(`ut3` 1-3): the shape, the column and row bases, and the entries in
insertion order with the type name of each value.  Every split is hashed
twice, once requesting the spaces in the order I, relative, A and once
A, relative, I, so a complex built from another one is pinned whichever
is asked for first.  Not collected by pytest; run it as

    python tests/pin_boundary_matrices.py

It exits non-zero, naming the pin, when the count or the digest moves.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from excisionlab.chains import VARIANT_OPS, Variant, boundary_matrix  # noqa: E402
from excisionlab.fileio import demo_corpus  # noqa: E402
from support import (  # noqa: E402
    dual_number_split, rebased_split, upper_triangular_split,
)

ORDERS = (("I", "relative", "A"), ("A", "relative", "I"))
MATRICES = 774
DIGEST = "449010abed76e3121e53e3d9594224904e3daa6b36abc0d74b7d90d8f3d703e2"


def fresh_splits():
    """(name, split, top degree) for every pinned input, built anew."""
    corpus = demo_corpus()
    cases = [(demo.name, demo.split, 4) for demo in corpus]
    cases.append(("ut3", upper_triangular_split(), 3))
    cases.append(("dual-number", dual_number_split(), 4))
    for demo in corpus:
        for offset in (1, 2):
            cases.append((f"{demo.name}+{offset}", rebased_split(demo, offset), 4))
    return cases


def boundary_matrices_digest():
    """(matrix count, sha256 hex digest) over every pinned matrix, in input,
    order, space, op and degree order."""
    digest = hashlib.sha256()
    count = 0
    for order in ORDERS:
        for name, split, top in fresh_splits():
            for space in order:
                for op in VARIANT_OPS:
                    for degree in range(1, top + 1):
                        matrix, cols, rows = boundary_matrix(
                            split, Variant(op, space), degree)
                        record = [
                            name, op, space, degree, matrix.rows, matrix.cols,
                            cols, rows,
                            [[r, c, type(v).__name__, str(v)]
                             for (r, c), v in matrix.entries.items()],
                        ]
                        digest.update(json.dumps(record).encode() + b"\n")
                        count += 1
    return count, digest.hexdigest()


def main():
    count, digest = boundary_matrices_digest()
    print(f"{count} matrices, sha256 {digest}")
    if count != MATRICES:
        sys.exit(f"expected {MATRICES} matrices, got {count}")
    if digest != DIGEST:
        sys.exit(f"expected sha256 {DIGEST}, got {digest}")


if __name__ == "__main__":
    main()
