"""Cross-checks of the chain complexes and their homology against the
test oracles of `dense_oracle.py`, too slow for the tier-1 suite.

1. Every boundary matrix equals the dense oracle's, as a dict: for the
   corpus at degrees 1-4, t2-corner with its ideal basis halved (the one
   split with non-integral constants) at degrees 1-3, the corpus on fresh
   splits with the relative complex requested first at degrees 1-4, and
   the six rebased splits at degrees 1-3, for hh/hc/bar over every space.
   Each entry is stored as an `int` exactly where it is integral (405
   matrices).
2. Every homology group, dimension and representatives, equals that of the
   incremental-span reference on the full complex, while homology reads
   only the weight-0 block of a graded split: the corpus at degrees 0-4,
   `ut3` at 0-2, the six rebased splits, the dual-number split, t2-corner
   with its ideal basis halved (weights 1/2) and demo 04's split (no local
   units, no grading) at 0-3, for every op and space (486 cases).
   `tests/test_weights.py` runs a subset of these in tier-1.
3. At the frontier sizes tier-1 skips, the pruned walk lists the weight-0
   tuples that filtering the whole chain group keeps (`filtered_tuples`),
   and the closed-form count of each chain group equals the length of its
   basis list: the full 3×3 matrices (ideal = whole) in hc at degree 6 and
   hh at degree 5, direct-sum relative at degree 7 and ut3 (the first-row
   ideal of the upper-triangular 3×3) relative at degree 6, in hh and hc;
   where the lists are small enough, the whole basis list equals the
   filter's too (18 cases).

Not collected by pytest; run it as

    python tests/cross_check_oracles.py

It exits non-zero, naming the case, when a matrix, a homology group or a
case count differs.
"""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from excisionlab.algebra import Ideal, make_split_basis  # noqa: E402
from excisionlab.chains import (  # noqa: E402
    VARIANT_OPS, VARIANT_SPACES, Variant, _tuple_count, _weight_zero_tuples,
    basis_tuples, boundary_matrix, homology,
)
from excisionlab.fileio import demo_by_name, demo_corpus  # noqa: E402
from excisionlab.linalg import SparseVector  # noqa: E402
from dense_oracle import (  # noqa: E402
    _dense_boundary, filtered_tuples, incremental_span_homology, split_products,
)
from support import (  # noqa: E402
    dual_number_split, fresh_split, full_matrix_split, halved_ideal_split,
    rebased_split, stored_exactly, upper_triangular_split,
)

BOUNDARY_MATRICES = 405
HOMOLOGY_CASES = 486
FRONTIER_CASES = 18


def expect(holds, case):
    if not holds:
        sys.exit(f"mismatch: {case}")


def check_boundary_matrices(corpus):
    """The count of matrices compared with the dense oracle."""
    t2 = demo_by_name("t2-corner")
    cases = [(demo.name, demo.split, 4, ("A", "I", "relative")) for demo in corpus]
    cases.append(("t2-corner, ideal basis halved", halved_ideal_split(t2), 3,
                  ("A", "I", "relative")))
    # the relative complex copies its all-ideal columns from ∂^I: request it
    # first on fresh splits, and on rebased splits, whose products gain
    # terms, so that the copy meets a non-trivial row re-indexing
    cases += [(f"{demo.name}, relative first", fresh_split(demo), 4,
               ("relative", "I", "A")) for demo in corpus]
    cases += [(f"{demo.name} rebased {offset}", rebased_split(demo, offset), 3,
               ("relative", "I", "A")) for demo in corpus for offset in (1, 2)]
    non_integral = set()
    count = 0
    for name, split, top, spaces in cases:
        mult = split_products(split)
        for op in VARIANT_OPS:
            for space in spaces:
                for degree in range(1, top + 1):
                    case = (name, op, space, degree)
                    variant = Variant(op, space)
                    matrix, cols, rows = boundary_matrix(split, variant, degree)
                    dense, ncols = _dense_boundary(
                        mult, split.dimension, split.ideal_count, space, op, degree
                    )
                    expected = {
                        (r, c): v
                        for r, row in enumerate(dense)
                        for c, v in enumerate(row)
                        if v
                    }
                    expect((matrix.rows, matrix.cols) == (len(dense), ncols), case)
                    expect(matrix.entries == expected, case)
                    expect(cols == basis_tuples(split, variant, degree), case)
                    expect(rows == basis_tuples(split, variant, degree - 1), case)
                    # every entry is `int` exactly where integral
                    expect(stored_exactly(matrix.entries.values()), case)
                    if any(type(v) is Fraction for v in matrix.entries.values()):
                        non_integral.add(name)
                    count += 1
    expect(non_integral == {"t2-corner, ideal basis halved"},
           f"non-integral matrices on {sorted(non_integral)}")
    return count


def check_homology(corpus):
    """The count of homology groups compared with the reference."""
    splits = [(demo.name, demo.split, 4) for demo in corpus]
    splits.append(("ut3", upper_triangular_split(), 2))
    for demo in corpus:
        for offset in (1, 2):
            splits.append((f"{demo.name} rebased {offset}", rebased_split(demo, offset), 3))
    t2 = demo_by_name("t2-corner")
    line = Ideal(t2.algebra, [SparseVector.from_list([0, 1, 0])])
    splits += [("dual-number", dual_number_split(), 3),
               ("t2-corner, ideal basis halved", halved_ideal_split(t2), 3),
               ("demo 04, span{E12} in t2-corner", make_split_basis(line), 3)]
    count = 0
    for name, split, top in splits:
        for op in VARIANT_OPS:
            for space in VARIANT_SPACES:
                variant = Variant(op, space)
                for degree in range(top + 1):
                    case = (name, op, space, degree)
                    report = homology(split, variant, degree)
                    dimension, representatives = incremental_span_homology(
                        split, variant, degree)
                    expect(report.dimension == dimension == len(representatives), case)
                    expect([r.terms for r in report.representatives] == representatives,
                           case)
                    count += 1
    return count


def check_frontier(_corpus):
    """The count of walk, count and basis checks at the frontier sizes.
    Each split is built afresh and dropped after its cases, so that its
    memoised lists are freed."""
    cases = [
        # (name, split, op, spaces, degree, whole list compared too)
        ("full 3×3", full_matrix_split, "hc", ("I", "relative"), 6, False),
        ("full 3×3", full_matrix_split, "hh", ("I",), 5, False),
        ("direct-sum", lambda: demo_by_name("direct-sum").split, "hc", ("relative",), 7, True),
        ("direct-sum", lambda: demo_by_name("direct-sum").split, "hh", ("relative",), 7, True),
        ("ut3", upper_triangular_split, "hc", ("relative",), 6, True),
        ("ut3", upper_triangular_split, "hh", ("relative",), 6, True),
    ]
    count = 0
    for name, make, op, spaces, degree, whole in cases:
        split = make()
        for space in spaces:
            variant = Variant(op, space)
            case = (name, op, space, degree)
            expect(_weight_zero_tuples(split, variant, degree)
                   == filtered_tuples(split, variant, degree), ("walk",) + case)
            expect(_tuple_count(split, variant, degree)
                   == len(basis_tuples(split, variant, degree)), ("count",) + case)
            count += 2
            if whole:
                expect(basis_tuples(split, variant, degree) == filtered_tuples(
                    split, variant, degree, weighted=False), ("basis",) + case)
                count += 1
        del split
    return count


def main():
    corpus = demo_corpus()
    for label, check, expected in (
        ("boundary matrices", check_boundary_matrices, BOUNDARY_MATRICES),
        ("homology", check_homology, HOMOLOGY_CASES),
        ("frontier walks and counts", check_frontier, FRONTIER_CASES),
    ):
        count = check(corpus)
        print(f"{label}: {count} cases match the oracle")
        if count != expected:
            sys.exit(f"{label}: expected {expected} cases, got {count}")


if __name__ == "__main__":
    main()
