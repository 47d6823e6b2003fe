"""Pin of every boundary matrix, in the order its entries were stored.

`tests/cross_check_oracles.py` compares the matrices with a dense oracle
as dicts, which ignores the order of `entries`; elimination, the ∂∂ = 0
check and the logs iterate it, so this script pins that order too.  For
the corpus, `ut3`, the dual-number split and the six rebased splits
(offsets 1 and 2), each on a fresh split, it hashes `boundary_matrix` for
hh/hc/bar × I/relative/A at degrees 1-4 (`ut3` 1-3): the shape, the column
and row bases, and the entries in insertion order with the type name of
each value.  Every split is hashed
twice, once requesting the spaces in the order I, relative, A and once
A, relative, I, so a complex built from another one is pinned whichever
is asked for first.

A second pin covers the largest matrices the benchmark assembles, which
the first stops short of: the hc I and relative matrices of the corpus at
degree 5 (direct-sum's relative one is 628 × 2590), and of t2-corner
rebased by offsets 1 and 2 at degrees 5 and 6.  Not collected by pytest;
run it as

    python tests/pin_boundary_matrices.py

It exits non-zero, naming the pin, when a count or a digest moves.
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
LARGE_MATRICES = 14
LARGE_DIGEST = "ad81b85f8f6962f8f3e902866c7ca3803d2341522474f16d706c5fd23669b07e"


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


def _digest(cases):
    """(matrix count, sha256 hex digest) over the matrices of `cases`, each
    (name, split, space, op, degree), in their order."""
    digest = hashlib.sha256()
    count = 0
    for name, split, space, op, degree in cases:
        matrix, cols, rows = boundary_matrix(split, Variant(op, space), degree)
        record = [
            name, op, space, degree, matrix.rows, matrix.cols, cols, rows,
            [[r, c, type(v).__name__, str(v)]
             for (r, c), v in matrix.entries.items()],
        ]
        digest.update(json.dumps(record).encode() + b"\n")
        count += 1
    return count, digest.hexdigest()


def boundary_matrices_digest():
    """(matrix count, sha256 hex digest) over every pinned matrix, in input,
    order, space, op and degree order."""
    return _digest(
        (name, split, space, op, degree)
        for order in ORDERS
        for name, split, top in fresh_splits()
        for space in order
        for op in VARIANT_OPS
        for degree in range(1, top + 1)
    )


def large_matrices_digest():
    """(matrix count, sha256 hex digest) over the second pin's hc matrices,
    in input, degree and space order."""
    corpus = demo_corpus()
    splits = [(demo.name, demo.split, (5,)) for demo in corpus]
    t2 = next(demo for demo in corpus if demo.name == "t2-corner")
    for offset in (1, 2):
        splits.append((f"t2-corner+{offset}", rebased_split(t2, offset), (5, 6)))
    return _digest(
        (name, split, space, "hc", degree)
        for name, split, degrees in splits
        for degree in degrees
        for space in ("I", "relative")
    )


def main():
    failures = []
    for label, (count, digest), expected_count, expected_digest in (
        ("degrees 1-4", boundary_matrices_digest(), MATRICES, DIGEST),
        ("large hc", large_matrices_digest(), LARGE_MATRICES, LARGE_DIGEST),
    ):
        print(f"{label}: {count} matrices, sha256 {digest}")
        if count != expected_count:
            failures.append(f"{label}: expected {expected_count} matrices, got {count}")
        elif digest != expected_digest:
            failures.append(f"{label}: expected sha256 {expected_digest}, got {digest}")
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
