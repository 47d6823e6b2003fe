"""The four benchmark workloads: inputs made from a seed, one timed operation
per input, and the untimed correctness check of each operation's output.

Every call into the library goes through a module attribute
(`excision.isomorphism_witness`, not a copied name), so the span recorder in
`spans.py` sees it.

    pipeline  isomorphism_witness, then verify and serialize every certificate
    deep      isomorphism_witness at odd degrees (HC = 0) after a change of basis
    strict    build_unit_schedule + inverse_excision on strict cycles
    verify    `excisionlab verify` on stored certificates, some tampered
"""

import contextlib
import hashlib
import io
import json
import os
import random
from itertools import product

from excisionlab import algebra, chains, cli, excision, fileio, linalg, units

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")

# (algebra, degree) per operation; "tiny" is the smoke-test size.
PIPELINE_CASES = {
    "full": [("t2-corner", 4), ("matrix2", 4), ("direct-sum", 4), ("ut3", 2)],
    "tiny": [("t2-corner", 2), ("ut3", 0)],
}
# (algebra, degree, offset of the change of basis); see rebased_split
DEEP_CASES = {
    "full": [("t2-corner", 5, 1), ("t2-corner", 5, 2), ("matrix2", 3, 1),
             ("matrix2", 3, 2), ("direct-sum", 3, 1)],
    "tiny": [("t2-corner", 3, 1), ("matrix2", 1, 1)],
}
# (algebra, degree, number of classes)
STRICT_CASES = {
    "full": [("direct-sum", 4, 3), ("matrix2", 4, 4), ("direct-sum", 3, 6),
             ("t2-corner", 4, 6)],
    "tiny": [("t2-corner", 2, 2), ("matrix2", 2, 2)],
}
VERIFY_PIPELINE_CASES = {
    "full": [("t2-corner", 0), ("t2-corner", 2), ("t2-corner", 4), ("matrix2", 0),
             ("matrix2", 2), ("direct-sum", 0), ("direct-sum", 2), ("ut3", 0),
             ("ut3", 2)],
    "tiny": [("t2-corner", 2)],
}
VERIFY_STRICT_CASES = {
    "full": [("matrix2", 3, 6), ("direct-sum", 3, 6)],
    "tiny": [("matrix2", 2, 1)],
}
TAMPER_SHARE = 0.25
CLASS_TERMS = 3  # strict cycles combined into one class
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def upper_triangular_3x3():
    """Upper-triangular 3x3 matrices with the first-row ideal span{E11, E12,
    E13}; E11 is a left unit for the ideal."""
    pairs = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    index = {p: i for i, p in enumerate(pairs)}
    products = {}
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c:
                products[(i, j)] = linalg.SparseVector(6, {index[(a, d)]: 1})
    alg = algebra.Algebra(6, [f"E{a}{b}" for a, b in pairs], products)
    ideal = algebra.Ideal(alg, [alg.basis_vector(i) for i in range(3)])
    _require_valid(alg, ideal, "ut3")
    return algebra.make_split_basis(ideal)


def _require_valid(alg, ideal, name):
    if algebra.validate_algebra(alg) is not None:
        raise ValueError(f"{name}: structure constants are not associative")
    if algebra.validate_ideal(ideal) is not None:
        raise ValueError(f"{name}: the ideal is not two-sided")


def shipped_splits():
    splits = {demo.name: demo.split for demo in fileio.demo_corpus()}
    splits["ut3"] = upper_triangular_3x3()
    return splits


def _bidiagonal(n, offset):
    """Unitriangular integer matrix with ones on the diagonal `offset` away."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        if 0 <= i + offset < n:
            rows[i][i + offset] = 1
    return rows


def rebased_split(demo, offset):
    """The demo extension after a unitriangular integer change of basis.

    The algebra basis becomes the columns of P = 1 + (ones on the diagonal
    `offset` above the main one), and the ideal basis is mixed by a lower
    bidiagonal matrix R = 1 + (ones just below the diagonal), so products
    of ideal and complement elements gain extra terms and the boundary
    matrices fuse into fewer, larger blocks.  Homology does not change.
    """
    alg, dim = demo.algebra, demo.algebra.dimension
    p = _bidiagonal(dim, offset)
    columns = [linalg.SparseVector(dim, {i: p[i][k] for i in range(dim) if p[i][k]})
               for k in range(dim)]
    back = linalg.invert(linalg.SparseMatrix.from_columns(columns, rows=dim))
    products = {}
    for i in range(dim):
        for j in range(dim):
            product_ij = back.matvec(alg.mul(columns[i], columns[j]))
            if not product_ij.is_zero():
                products[(i, j)] = product_ij
    new = algebra.Algebra(dim, [f"f{k}" for k in range(dim)], products)
    old_ideal = [back.matvec(v) for v in demo.ideal.basis_vectors]
    m = len(old_ideal)
    r = _bidiagonal(m, -1)
    ideal_basis = []
    for j in range(m):
        vector = linalg.SparseVector(dim)
        for i in range(m):
            if r[i][j]:
                vector = vector + old_ideal[i].scaled(r[i][j])
        ideal_basis.append(vector)
    ideal = algebra.Ideal(new, ideal_basis)
    _require_valid(new, ideal, f"rebased {demo.name}")
    return algebra.make_split_basis(ideal)


def strict_cycles(split, degree):
    """Basis of the strict Hochschild cycles whose initial slot is in the
    ideal: the kernel of b on those tuples (the top filtration step)."""
    dim, ideal_count = split.dimension, split.ideal_count
    columns = [t for t in product(range(dim), repeat=degree + 1) if t[0] < ideal_count]
    rows = list(product(range(dim), repeat=degree))
    row_index = {t: r for r, t in enumerate(rows)}
    entries = {}
    for c, tup in enumerate(columns):
        for t, v in chains.tuple_boundary_terms(split, tup, wrap=True).items():
            entries[(row_index[t], c)] = v
    matrix = linalg.SparseMatrix(len(rows), len(columns), entries)
    return [chains.Chain(degree, split, {columns[i]: v for i, v in vec.entries.items()})
            for vec in linalg.kernel_basis(matrix)]


def unit_schedule(chain):
    return units.build_unit_schedule(sorted(chain.terms), chain.context, chain.degree)


def strict_classes(rng, split, degree, count):
    """`count` seeded integer combinations of CLASS_TERMS strict cycles."""
    basis = strict_cycles(split, degree)
    classes = []
    while len(classes) < count:
        chain = chains.Chain(degree, split)
        for index in rng.sample(range(len(basis)), min(CLASS_TERMS, len(basis))):
            chain = chain + basis[index].scaled(rng.choice(COEFFICIENTS))
        if not chain.is_zero():
            classes.append(chain)
    return classes


def _chain_key(chain):
    return [[list(t), str(c)] for t, c in sorted(chain.terms.items())]


def report_digest(report):
    """Digest of dimensions, representatives and inverse images ψ.

    Witnesses are left out: a different but valid witness is not a change
    of answer.
    """
    doc = {
        "degree": report.degree,
        "dims": [report.dim_ideal, report.dim_relative],
        "onto": [[_chain_key(r.input), _chain_key(r.output)] for r in report.onto],
        "back": [[_chain_key(c.rhs), _chain_key(r.output)] for r, c in report.back],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def load_pinned():
    with open(PINNED_PATH) as handle:
        return json.load(handle)


def tamper(doc, split):
    """Add one canonical ideal tuple t to the claimed side of a certificate.

    The boundary identity then fails with residual exactly -t, so a sound
    verifier must reject the document.
    """
    degree = doc["degree"]
    extra = chains.Chain(degree, split, {(0,) + (1,) * degree: 1})
    terms = fileio.chain_to_doc(extra)["terms"]
    if doc["kind"] == "inverse":
        doc["output"]["terms"].extend(terms)
        doc["certificate"]["lhs"]["terms"].extend(terms)
    else:
        doc["lhs"]["terms"].extend(terms)


class Workload:
    """`ops` is the operation list of one pass; `run` performs one operation
    (timed), `check` judges its result (untimed) and returns None or a
    reason.  `counters` holds counts the operations add outside any
    library call."""

    def __init__(self):
        self.ops = []
        self.counters = {}

    def describe(self, op):
        return repr(op)


class Pipeline(Workload):
    def __init__(self, rng, size):
        super().__init__()
        self.splits = shipped_splits()
        self.pinned = load_pinned()["pipeline"]
        self.ops = list(PIPELINE_CASES[size])
        rng.shuffle(self.ops)

    def run(self, op):
        name, degree = op
        split = self.splits[name]
        report = excision.isomorphism_witness(split, degree, max_degree=degree)
        certificates = list(report.all_certificates())
        verdicts = [excision.verify_certificate(c) for c in certificates]
        docs = [json.dumps(fileio.certificate_to_doc(c, split)) for c in certificates]
        self.counters["cert_bytes"] = (self.counters.get("cert_bytes", 0)
                                       + sum(len(d) for d in docs))
        return report, verdicts

    def check(self, op, result):
        report, verdicts = result
        bad = [v.reason for v in verdicts if v is not None]
        if bad:
            return f"{len(bad)} certificates fail to verify: {bad[0]}"
        if not verdicts:
            return "no certificates produced"
        if report_digest(report) != self.pinned[f"{op[0]}/{op[1]}"]:
            return "dimensions, representatives or inverse images changed"
        return None


class Deep(Workload):
    def __init__(self, rng, size):
        super().__init__()
        demos = {demo.name: demo for demo in fileio.demo_corpus()}
        self.pinned = load_pinned()["deep"]
        self.ops = [(name, degree, offset, rebased_split(demos[name], offset))
                    for name, degree, offset in DEEP_CASES[size]]
        rng.shuffle(self.ops)

    def describe(self, op):
        return f"{op[0]}/{op[1]} offset {op[2]}"

    def run(self, op):
        degree, split = op[1], op[3]
        return excision.isomorphism_witness(split, degree, max_degree=degree)

    def check(self, op, report):
        expected = self.pinned[f"{op[0]}/{op[1]}"]
        found = [report.dim_ideal, report.dim_relative]
        if found != expected:
            return f"dimensions {found} differ from the shipped-basis values {expected}"
        return None


class Strict(Workload):
    def __init__(self, rng, size):
        super().__init__()
        splits = shipped_splits()
        for name, degree, count in STRICT_CASES[size]:
            for chain in strict_classes(rng, splits[name], degree, count):
                self.ops.append((name, chain))
        rng.shuffle(self.ops)

    def describe(self, op):
        return f"{op[0]}/{op[1].degree} class with {len(op[1].terms)} terms"

    def run(self, op):
        chain = op[1]
        schedule = unit_schedule(chain)
        return excision.inverse_excision(chain, schedule)

    def check(self, op, result):
        chain = op[1]
        current = chain
        for step in range(chain.degree):
            unit = result.schedule.units[chain.degree - 1 - step]
            current = excision.descent_step(current, unit).output
        if current != result.output:
            return "closed formula differs from the chained descent steps"
        mismatch = excision.verify_certificate(result)
        if mismatch is not None:
            return f"inverse certificate fails: {mismatch.reason}"
        return None


class Verify(Workload):
    def __init__(self, rng, size, workdir, inject_fault=False):
        super().__init__()
        splits = shipped_splits()
        stored = []
        for name, degree in VERIFY_PIPELINE_CASES[size]:
            split = splits[name]
            report = excision.isomorphism_witness(split, degree, max_degree=degree)
            stored.extend((split, c) for c in report.all_certificates())
        # Fixed classes: the size of a certificate sets the cost of loading
        # it, so seeded classes would make the work differ from seed to seed.
        fixed = random.Random("verify-classes")
        for name, degree, count in VERIFY_STRICT_CASES[size]:
            split = splits[name]
            for chain in strict_classes(fixed, split, degree, count):
                result = excision.inverse_excision(chain, unit_schedule(chain))
                stored.append((split, result))
        chosen = set(rng.sample(range(len(stored)), max(1, round(TAMPER_SHARE * len(stored)))))
        tampered = [index in chosen for index in range(len(stored))]
        faulty = tampered.index(False) if inject_fault and not all(tampered) else None
        for index, (split, certificate) in enumerate(stored):
            doc = fileio.certificate_to_doc(certificate, split)
            if tampered[index] or index == faulty:
                tamper(doc, split)
            path = os.path.join(workdir, f"cert-{index:03d}.json")
            with open(path, "w") as handle:
                json.dump(doc, handle)
            # an injected fault is stored as if it were sound
            self.ops.append((path, tampered[index]))
        rng.shuffle(self.ops)

    def describe(self, op):
        return os.path.basename(op[0]) + (" (tampered)" if op[1] else "")

    def run(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--certificate", op[0]])
        return code, out.getvalue()

    def check(self, op, result):
        code, text = result
        if op[1]:
            if code != cli.EXIT_MISMATCH or not text.startswith("MISMATCH"):
                return f"tampered certificate accepted (exit {code})"
        elif code != cli.EXIT_OK or text != "ok\n":
            return f"sound certificate rejected (exit {code}): {text.strip()[:200]}"
        return None


WORKLOADS = ("pipeline", "deep", "strict", "verify")


def make(name, seed, size, workdir, inject_fault=False):
    rng = random.Random(f"{name}:{seed}")
    if name == "pipeline":
        return Pipeline(rng, size)
    if name == "deep":
        return Deep(rng, size)
    if name == "strict":
        return Strict(rng, size)
    if name == "verify":
        return Verify(rng, size, workdir, inject_fault)
    raise ValueError(f"unknown workload {name!r}")
