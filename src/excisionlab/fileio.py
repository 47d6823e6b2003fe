"""File formats (JSON documents with exact-rational string coefficients),
the built-in demo corpus, and run reports.

Every vector in a document is a parent-coordinate list of rational strings
like "2" or "-3/2"; floats are rejected at parse time.  Parse errors carry
the offending field path; JSON syntax errors already carry line/column.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .algebra import (
    Algebra,
    Ideal,
    make_split_basis,
    validate_algebra,
    validate_ideal,
)
from .chains import Chain, CyclicChain, _expand_tensor, canonicalize_cyclic
from .excision import (
    BoundaryCertificate,
    DescentCertificate,
    InverseResult,
    verify_certificate,
)
from .linalg import SparseVector, _accumulate, format_scalar, parse_scalar
from .units import UnitRequest, UnitSchedule, find_local_left_unit


class ParseError(ValueError):
    """Malformed document; `location` is the field path."""

    def __init__(self, message, location=""):
        self.location = location
        prefix = f"{location}: " if location else ""
        super().__init__(prefix + message)


def _vector_from_list(values, dimension, location):
    if not isinstance(values, list):
        raise ParseError("expected a list of coordinates", location)
    if len(values) != dimension:
        raise ParseError(
            f"expected {dimension} coordinates, got {len(values)}", location
        )
    entries = {}
    for i, text in enumerate(values):
        try:
            value = parse_scalar(text)
        except ValueError as exc:
            raise ParseError(str(exc), f"{location}[{i}]") from None
        if value:
            entries[i] = value
    return SparseVector(dimension, entries)


def _vector_to_list(vector):
    return [format_scalar(vector.get(i)) for i in range(vector.dimension)]


def algebra_to_doc(algebra, ideal=None, split=None):
    doc = {
        "field": "rational",
        "dimension": algebra.dimension,
        "basis": list(algebra.basis_labels),
        "products": [
            {
                "left": i,
                "right": j,
                "result": [
                    {"index": k, "coeff": format_scalar(v)}
                    for k, v in vec.items()
                ],
            }
            for (i, j), vec in sorted(algebra.structure_constants.items())
        ],
    }
    if ideal is not None:
        doc["ideal"] = {
            "basis_vectors": [_vector_to_list(v) for v in ideal.basis_vectors]
        }
    if split is not None:
        doc["complement"] = [
            _vector_to_list(v) for v in split.ordered_basis[split.ideal_count :]
        ]
    return doc


def algebra_from_doc(doc, validate=True):
    """(Algebra, Ideal, SplitBasis) from a document; fully validated."""
    if doc.get("field") != "rational":
        raise ParseError('the "field" entry must be "rational"', "field")
    try:
        dimension = int(doc["dimension"])
    except (KeyError, TypeError, ValueError):
        raise ParseError("missing or malformed dimension", "dimension") from None
    labels = doc.get("basis")
    if not isinstance(labels, list) or len(labels) != dimension:
        raise ParseError(
            f"basis must list exactly {dimension} labels", "basis"
        )
    constants = {}
    for p, record in enumerate(doc.get("products", [])):
        where = f"products[{p}]"
        try:
            i, j = int(record["left"]), int(record["right"])
        except (KeyError, TypeError, ValueError):
            raise ParseError("left/right indices required", where) from None
        if not (0 <= i < dimension and 0 <= j < dimension):
            raise ParseError(f"product indices ({i}, {j}) out of range", where)
        entries = {}
        for r, item in enumerate(record.get("result", [])):
            spot = f"{where}.result[{r}]"
            try:
                k = int(item["index"])
            except (KeyError, TypeError, ValueError):
                raise ParseError("result index required", spot) from None
            if not 0 <= k < dimension:
                raise ParseError(f"result index {k} out of range", spot)
            try:
                value = parse_scalar(item.get("coeff"))
            except ValueError as exc:
                raise ParseError(str(exc), f"{spot}.coeff") from None
            _accumulate(entries, k, value)
        vec = SparseVector(dimension, entries)
        if not vec.is_zero():
            if (i, j) in constants:
                raise ParseError(f"duplicate product record for ({i}, {j})", where)
            constants[(i, j)] = vec
    algebra = Algebra(dimension, labels, constants)
    if validate:
        failure = validate_algebra(algebra)
        if failure is not None:
            raise ParseError(
                f"structure constants are not associative at triple "
                f"({failure.i}, {failure.j}, {failure.k})",
                "products",
            )
    ideal_doc = doc.get("ideal")
    if ideal_doc is None:
        raise ParseError("an ideal is required", "ideal")
    vectors = [
        _vector_from_list(v, dimension, f"ideal.basis_vectors[{q}]")
        for q, v in enumerate(ideal_doc.get("basis_vectors", []))
    ]
    ideal = Ideal(algebra, vectors)
    if validate:
        failure = validate_ideal(ideal)
        if failure is not None:
            raise ParseError(
                f"not a two-sided ideal: basis product ({failure.side}, "
                f"algebra index {failure.algebra_index}, ideal index "
                f"{failure.ideal_index}) escapes the span",
                "ideal",
            )
    hint = None
    if "complement" in doc:
        hint = [
            _vector_from_list(v, dimension, f"complement[{q}]")
            for q, v in enumerate(doc["complement"])
        ]
    split = make_split_basis(ideal, hint)
    return algebra, ideal, split


def load_algebra(path, validate=True):
    with open(path) as handle:
        doc = json.load(handle)
    return algebra_from_doc(doc, validate=validate)


def save_algebra(path, algebra, ideal=None, split=None):
    with open(path, "w") as handle:
        json.dump(algebra_to_doc(algebra, ideal, split), handle, indent=1)
        handle.write("\n")


def chain_to_doc(chain):
    context = chain.context
    return {
        "degree": chain.degree,
        "terms": [
            {
                "coeff": format_scalar(coeff),
                "slots": [
                    _vector_to_list(context.ordered_basis[i]) for i in tup
                ],
            }
            for tup, coeff in chain.items()
        ],
    }


def chain_from_doc(doc, context):
    """Expand a term list onto the standard tensor basis of the split."""
    try:
        degree = int(doc["degree"])
    except (KeyError, TypeError, ValueError):
        raise ParseError("missing or malformed degree", "degree") from None
    dimension = context.dimension
    # split coordinates per slot text: a document repeats few distinct slots
    slot_memo = {}
    terms = {}
    for t, record in enumerate(doc.get("terms", [])):
        where = f"terms[{t}]"
        try:
            coeff = parse_scalar(record.get("coeff"))
        except ValueError as exc:
            raise ParseError(str(exc), f"{where}.coeff") from None
        slots = record.get("slots")
        if not isinstance(slots, list) or len(slots) != degree + 1:
            raise ParseError(
                f"expected {degree + 1} slots", f"{where}.slots"
            )
        vectors = []
        for q, slot in enumerate(slots):
            # only lists of strings are hashable and can be memoised; any
            # other slot is parsed afresh so it fails with its own path
            text = (
                tuple(slot)
                if isinstance(slot, list) and all(isinstance(x, str) for x in slot)
                else None
            )
            vec = slot_memo.get(text) if text is not None else None
            if vec is None:
                vec = context.to_split(
                    _vector_from_list(slot, dimension, f"{where}.slots[{q}]")
                )
                if text is not None:
                    slot_memo[text] = vec
            vectors.append(vec)
        _expand_tensor(terms, vectors, coeff)
    return Chain(degree, context, terms)


def load_chain(path, context):
    with open(path) as handle:
        return chain_from_doc(json.load(handle), context)


def save_chain(path, chain):
    with open(path, "w") as handle:
        json.dump(chain_to_doc(chain), handle, indent=1)
        handle.write("\n")


def schedule_to_doc(schedule):
    return {
        "degree": schedule.degree,
        "units": [_vector_to_list(u) for u in schedule.units],
        "targets": [
            [_vector_to_list(s) for s in targets]
            for targets in schedule.provenance
        ],
    }


def schedule_from_doc(doc, dimension):
    units = [
        _vector_from_list(u, dimension, f"units[{q}]")
        for q, u in enumerate(doc.get("units", []))
    ]
    provenance = [
        [
            _vector_from_list(s, dimension, f"targets[{q}][{r}]")
            for r, s in enumerate(targets)
        ]
        for q, targets in enumerate(doc.get("targets", []))
    ]
    return UnitSchedule(units, provenance)


def certificate_to_doc(certificate, context):
    algebra_doc = algebra_to_doc(context.parent, context.ideal, context)
    if isinstance(certificate, DescentCertificate):
        return {
            "kind": "descent",
            "algebra": algebra_doc,
            "degree": certificate.input.degree,
            "input": chain_to_doc(certificate.input),
            "output": chain_to_doc(certificate.output),
            "homotopy": chain_to_doc(certificate.homotopy),
            "unit": _vector_to_list(certificate.unit),
        }
    if isinstance(certificate, BoundaryCertificate):
        return {
            "kind": "boundary",
            "algebra": algebra_doc,
            "degree": certificate.lhs.degree,
            "op": certificate.op,
            "space": certificate.space,
            "lhs": chain_to_doc(certificate.lhs),
            "rhs": chain_to_doc(certificate.rhs),
            "witness": chain_to_doc(certificate.witness),
        }
    if isinstance(certificate, InverseResult):
        inner = certificate.verification
        return {
            "kind": "inverse",
            "algebra": algebra_doc,
            "degree": certificate.input.degree,
            "input": chain_to_doc(certificate.input),
            "output": chain_to_doc(certificate.output),
            "schedule": schedule_to_doc(certificate.schedule),
            "certificate": {
                "op": inner.op,
                "space": inner.space,
                "lhs": chain_to_doc(inner.lhs),
                "rhs": chain_to_doc(inner.rhs),
                "witness": chain_to_doc(inner.witness),
            },
        }
    raise TypeError(f"not a certificate: {certificate!r}")


def certificate_from_doc(doc):
    """(certificate object, split basis) reconstructed from a document."""
    kind = doc.get("kind")
    if "algebra" not in doc:
        raise ParseError("certificate documents embed their algebra", "algebra")
    _, _, split = algebra_from_doc(doc["algebra"])
    if kind == "descent":
        return (
            DescentCertificate(
                input=chain_from_doc(doc["input"], split),
                output=chain_from_doc(doc["output"], split),
                homotopy=chain_from_doc(doc["homotopy"], split),
                unit=_vector_from_list(doc["unit"], split.dimension, "unit"),
            ),
            split,
        )
    if kind == "boundary":
        return (
            BoundaryCertificate(
                lhs=chain_from_doc(doc["lhs"], split),
                rhs=chain_from_doc(doc["rhs"], split),
                witness=chain_from_doc(doc["witness"], split),
                op=doc.get("op", "hc"),
                space=doc.get("space", "relative"),
            ),
            split,
        )
    if kind == "inverse":
        inner = doc.get("certificate", {})
        verification = BoundaryCertificate(
            lhs=chain_from_doc(inner["lhs"], split),
            rhs=chain_from_doc(inner["rhs"], split),
            witness=chain_from_doc(inner["witness"], split),
            op=inner.get("op", "hc"),
            space=inner.get("space", "relative"),
        )
        return (
            InverseResult(
                input=chain_from_doc(doc["input"], split),
                schedule=schedule_from_doc(
                    doc.get("schedule", {}), split.dimension
                ),
                output=chain_from_doc(doc["output"], split),
                verification=verification,
            ),
            split,
        )
    raise ParseError(f"unknown certificate kind {kind!r}", "kind")


def load_certificate(path):
    with open(path) as handle:
        return certificate_from_doc(json.load(handle))


def save_certificate(path, certificate, context):
    with open(path, "w") as handle:
        json.dump(certificate_to_doc(certificate, context), handle, indent=1)
        handle.write("\n")


def targets_from_doc(doc, dimension):
    return [
        _vector_from_list(v, dimension, f"targets[{q}]")
        for q, v in enumerate(doc.get("targets", []))
    ]


@dataclass
class DemoExtension:
    """A ready-made algebra extension satisfying the local-left-unit
    hypotheses, checked at construction time."""

    name: str
    algebra: Algebra
    ideal: Ideal
    split: object
    notes: str

    def __post_init__(self):
        if validate_algebra(self.algebra) is not None:
            raise ValueError(f"demo {self.name!r}: the product is not associative")
        if validate_ideal(self.ideal) is not None:
            raise ValueError(f"demo {self.name!r}: the ideal is not two-sided")
        unit = find_local_left_unit(
            UnitRequest(self.ideal, self.ideal.basis_vectors)
        )
        if not isinstance(unit, SparseVector):
            raise ValueError(f"demo {self.name!r}: the ideal lacks a local left unit")


def _matrix_unit_product(pairs, dim, index):
    """Structure constants for a family of matrix units E_ab inside a basis.

    `pairs` lists (a, b) per basis element in the block; `index` maps a pair
    to its basis position.  E_ab · E_cd = E_ad when b == c, else 0.
    """
    constants = {}
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c and (a, d) in index:
                constants[(i, j)] = SparseVector(dim, {index[(a, d)]: 1})
    return constants


def _upper_triangular_2x2():
    labels = ["E11", "E12", "E22"]
    pairs = [(1, 1), (1, 2), (2, 2)]
    index = {p: i for i, p in enumerate(pairs)}
    algebra = Algebra(3, labels, _matrix_unit_product(pairs, 3, index))
    ideal = Ideal(
        algebra,
        [SparseVector.from_list([1, 0, 0]), SparseVector.from_list([0, 1, 0])],
    )
    return algebra, ideal


def _full_matrix_2x2():
    labels = ["E11", "E12", "E21", "E22"]
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    index = {p: i for i, p in enumerate(pairs)}
    algebra = Algebra(4, labels, _matrix_unit_product(pairs, 4, index))
    ideal = Ideal(algebra, [algebra.basis_vector(i) for i in range(4)])
    return algebra, ideal


def _matrix_plus_line():
    labels = ["E11", "E12", "E21", "E22", "P"]
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    index = {p: i for i, p in enumerate(pairs)}
    constants = _matrix_unit_product(pairs, 5, index)
    constants[(4, 4)] = SparseVector(5, {4: 1})
    algebra = Algebra(5, labels, constants)
    ideal = Ideal(algebra, [algebra.basis_vector(i) for i in range(4)])
    return algebra, ideal


# name -> (builder of (algebra, ideal), notes), in corpus order
_DEMOS = {
    "t2-corner": (
        _upper_triangular_2x2,
        "Upper-triangular 2x2 matrices with the corner ideal "
        "span{E11, E12}.  E11 is a left unit for the whole ideal "
        "(E11·E11 = E11, E11·E12 = E12) but no right unit exists "
        "(x·E12 = 0 for every x in the ideal), so the one-sidedness "
        "of the hypothesis is genuinely exercised.",
    ),
    "matrix2": (
        _full_matrix_2x2,
        "Full 2x2 matrices with the whole algebra as the ideal; the "
        "identity E11+E22 is a two-sided unit, the quotient is zero "
        "and the relative theory collapses onto the absolute one.",
    ),
    "direct-sum": (
        _matrix_plus_line,
        "2x2 matrices direct-sum a line with an idempotent generator; "
        "the matrix block is the ideal and its identity E11+E22 is a "
        "left (indeed two-sided) unit for it.",
    ),
}

DEMO_NAMES = tuple(_DEMOS)


def demo_by_name(name):
    """Build and validate one shipped extension; KeyError for unknown names."""
    if name not in _DEMOS:
        raise KeyError(f"unknown demo {name!r}")
    build, notes = _DEMOS[name]
    algebra, ideal = build()
    return DemoExtension(
        name=name,
        algebra=algebra,
        ideal=ideal,
        split=make_split_basis(ideal),
        notes=notes,
    )


def demo_corpus():
    """The shipped extensions, each satisfying the local-left-unit hypotheses."""
    return [demo_by_name(name) for name in DEMO_NAMES]


@dataclass
class RunReport:
    """What a command did: echo, findings, certificate verdicts, timing.

    `success` can only be True when every embedded certificate verified, so a
    report claiming success never smuggles in an unchecked certificate.
    """

    command: str
    details: dict = field(default_factory=dict)
    certificates: list = field(default_factory=list)
    started: float = field(default_factory=time.perf_counter)
    elapsed_seconds: float = 0.0

    def add_certificate(self, description, certificate):
        mismatch = verify_certificate(certificate)
        self.certificates.append(
            {
                "description": description,
                "verified": mismatch is None,
                "mismatch": None if mismatch is None else mismatch.reason,
            }
        )
        return mismatch is None

    def finish(self):
        self.elapsed_seconds = time.perf_counter() - self.started
        return self

    @property
    def success(self):
        return all(c["verified"] for c in self.certificates)

    def to_doc(self):
        return {
            "command": self.command,
            "details": self.details,
            "certificates": self.certificates,
            "all_verified": self.success,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    def render_text(self):
        lines = [f"command: {self.command}"]
        for key, value in self.details.items():
            lines.append(f"{key}: {value}")
        for cert in self.certificates:
            verdict = "ok" if cert["verified"] else f"MISMATCH ({cert['mismatch']})"
            lines.append(f"certificate {cert['description']}: {verdict}")
        if self.certificates:
            lines.append(
                "all certificates verified"
                if self.success
                else "SOME CERTIFICATES FAILED"
            )
        lines.append(f"elapsed: {self.elapsed_seconds:.3f}s")
        return "\n".join(lines)


def render_chain(chain):
    """Human-readable exact form of a chain over its split labels."""
    target = chain.chain if isinstance(chain, CyclicChain) else chain
    if not target.terms:
        return "0"
    bits = []
    for tup, coeff in target.items():
        word = "⊗".join(target.context.split_label(i) for i in tup)
        bits.append(f"({format_scalar(coeff)})·{word}")
    return " + ".join(bits)


def class_from_chain(chain):
    return canonicalize_cyclic(chain)
