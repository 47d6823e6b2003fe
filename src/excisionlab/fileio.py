"""File formats (JSON documents with exact-rational string coefficients),
the built-in demo corpus, and run reports.

Every vector in a document is a parent-coordinate list of rational strings
like "2" or "-3/2"; floats are rejected at parse time.  A parse error names
its field by the path from the root; JSON syntax errors carry line/column.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import product as iter_product

from .algebra import (
    Algebra,
    Ideal,
    make_split_basis,
    validate_algebra,
    validate_ideal,
)
from .chains import SPACES, Chain
from .excision import (
    BOUNDARY_OPS,
    BoundaryCertificate,
    DescentCertificate,
    InverseResult,
    verify_certificate,
)
from .linalg import SparseVector, _accumulate, format_scalar, parse_scalar
from .units import UnitSchedule, find_local_left_unit


class ParseError(ValueError):
    """Malformed document; `location` is the field path."""

    def __init__(self, message, location=""):
        self.message, self.location = message, location
        prefix = f"{location}: " if location else ""
        super().__init__(prefix + message)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _join(where, key):
    return f"{where}.{key}" if where else key


def _typed(value, kind, path):
    """`value` when it has the JSON type `kind`, else a ParseError at `path`
    ("document" for the root itself)."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ParseError(f"expected {_JSON_TYPES[kind]}", path or "document")


def _get(doc, key, kind, where=""):
    """Field `key` of the object `doc` at path `where` within a document, of
    JSON type `kind`; a ParseError when it is absent."""
    if key not in doc:
        raise ParseError("missing field", _join(where, key))
    return _typed(doc[key], kind, _join(where, key))


def _each(doc, key, kind, where=""):
    """(path, element) for each element, of JSON type `kind`, of the list
    field `key` of `doc`."""
    path = _join(where, key)
    return [
        (f"{path}[{i}]", _typed(item, kind, f"{path}[{i}]"))
        for i, item in enumerate(_get(doc, key, list, where))
    ]


def _nested(doc, key, parse, *args):
    """`parse(sub, *args)` for the object field `key` of `doc`; the paths of
    its ParseErrors, relative to the sub-document, gain the prefix `key.`."""
    sub = _get(doc, key, dict)
    try:
        return parse(sub, *args)
    except ParseError as exc:
        raise ParseError(exc.message, f"{key}.{exc.location}") from None


def _scalar(text, path):
    try:
        return parse_scalar(text)
    except ValueError as exc:
        raise ParseError(str(exc), path) from None


def _vector_from_list(values, dimension, location):
    _typed(values, list, location)
    if len(values) != dimension:
        raise ParseError(
            f"expected {dimension} coordinates, got {len(values)}", location
        )
    entries = {}
    for i, text in enumerate(values):
        value = _scalar(text, f"{location}[{i}]")
        if value:
            entries[i] = value
    return SparseVector(dimension, entries)


def vector_to_list(vector):
    return [format_scalar(vector.get(i)) for i in range(vector.dimension)]


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _write_json(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")


def algebra_to_doc(algebra, ideal, split=None):
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
                    for k, v in row
                ],
            }
            for (i, j), row in sorted(algebra.structure_table.items())
        ],
        "ideal": {
            "basis_vectors": [vector_to_list(v) for v in ideal.basis_vectors]
        },
    }
    if split is not None:
        doc["complement"] = [
            vector_to_list(v) for v in split.ordered_basis[split.ideal_count :]
        ]
    return doc


def algebra_from_doc(doc):
    """(Algebra, Ideal, SplitBasis) from a document; fully validated."""
    _typed(doc, dict, "")
    if doc.get("field") != "rational":
        raise ParseError('the "field" entry must be "rational"', "field")
    dimension = _get(doc, "dimension", int)
    labels = _get(doc, "basis", list)
    if len(labels) != dimension or not all(isinstance(x, str) for x in labels):
        raise ParseError(f"basis must list exactly {dimension} labels", "basis")
    constants = {}
    for spot, record in _each(doc, "products", dict):
        i, j = _get(record, "left", int, spot), _get(record, "right", int, spot)
        if not (0 <= i < dimension and 0 <= j < dimension):
            raise ParseError(f"product indices ({i}, {j}) out of range", spot)
        if (i, j) in constants:
            raise ParseError(f"duplicate product record for ({i}, {j})", spot)
        entries = {}
        for item_spot, item in _each(record, "result", dict, spot):
            k = _get(item, "index", int, item_spot)
            if not 0 <= k < dimension:
                raise ParseError(f"result index {k} out of range", item_spot)
            _accumulate(entries, k, _scalar(item.get("coeff"), f"{item_spot}.coeff"))
        constants[(i, j)] = SparseVector(dimension, entries)
    # `Algebra` drops the pairs whose product is zero
    algebra = Algebra(dimension, labels, constants)
    failure = validate_algebra(algebra)
    if failure is not None:
        raise ParseError(
            f"structure constants are not associative at triple "
            f"({failure.i}, {failure.j}, {failure.k})",
            "products",
        )
    ideal = Ideal(algebra, [
        _vector_from_list(v, dimension, spot)
        for spot, v in _each(_get(doc, "ideal", dict), "basis_vectors",
                             list, "ideal")
    ])
    try:
        failure = validate_ideal(ideal)
    except ValueError as exc:  # dependent basis vectors
        raise ParseError(str(exc), "ideal") from None
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
            _vector_from_list(v, dimension, spot)
            for spot, v in _each(doc, "complement", list)
        ]
    try:
        split = make_split_basis(ideal, hint)
    except ValueError as exc:  # a dependent complement (or ideal) vector
        raise ParseError(str(exc), "ideal" if hint is None else "complement") from None
    return algebra, ideal, split


def load_algebra(path):
    return algebra_from_doc(_read_json(path))


def save_algebra(path, algebra, ideal, split=None):
    _write_json(path, algebra_to_doc(algebra, ideal, split))


def chain_to_doc(chain):
    context = chain.context
    return {
        "degree": chain.degree,
        "terms": [
            {
                "coeff": format_scalar(coeff),
                "slots": [
                    vector_to_list(context.ordered_basis[i]) for i in tup
                ],
            }
            for tup, coeff in chain.items()
        ],
    }


def chain_from_doc(doc, context):
    """Expand the term list of a chain document onto the standard tensor
    basis of the split."""
    _typed(doc, dict, "")
    degree = _get(doc, "degree", int)
    if degree < 0:
        raise ParseError("the degree must be non-negative", "degree")
    dimension = context.dimension
    # the sorted split coordinates per slot text: a document repeats few
    # distinct slots
    slot_memo = {}
    terms = {}
    for spot, record in _each(doc, "terms", dict):
        coeff = _scalar(record.get("coeff"), f"{spot}.coeff")
        slots = record.get("slots")
        if not isinstance(slots, list) or len(slots) != degree + 1:
            raise ParseError(f"expected {degree + 1} slots", f"{spot}.slots")
        factors = []
        for q, slot in enumerate(slots):
            # only lists of strings are memoised, so a hit is a slot already
            # read; any other slot misses (a tuple holding a non-string never
            # equals one of strings, and an unhashable one cannot be looked
            # up) and is parsed afresh, so it fails with its own path
            text = tuple(slot) if type(slot) is list else None
            try:
                items = slot_memo.get(text)
            except TypeError:
                items = text = None
            if items is None:
                at = f"{spot}.slots[{q}]"
                vec = context.to_split(_vector_from_list(slot, dimension, at))
                items = vec.items()
                if text is not None and all(isinstance(x, str) for x in text):
                    slot_memo[text] = items
            factors.append(items)
        # coeff · (factors[0] ⊗ factors[1] ⊗ ...) on the tensor basis
        for combo in iter_product(*factors):
            c = coeff
            for _, v in combo:
                c *= v
            _accumulate(terms, tuple(i for i, _ in combo), c)
    return Chain(degree, context, terms)


def load_chain(path, context):
    return chain_from_doc(_read_json(path), context)


def save_chain(path, chain):
    _write_json(path, chain_to_doc(chain))


def schedule_to_doc(schedule):
    return {
        "degree": schedule.degree,
        "units": [vector_to_list(u) for u in schedule.units],
        "targets": [
            [vector_to_list(s) for s in targets]
            for targets in schedule.provenance
        ],
    }


def schedule_from_doc(doc, dimension):
    _typed(doc, dict, "")
    units = [
        _vector_from_list(u, dimension, spot)
        for spot, u in _each(doc, "units", list)
    ]
    provenance = [
        [_vector_from_list(s, dimension, f"{spot}[{r}]") for r, s in enumerate(targets)]
        for spot, targets in _each(doc, "targets", list)
    ]
    if len(provenance) != len(units):
        raise ParseError("one target list per unit required", "targets")
    if _get(doc, "degree", int) != len(units):
        raise ParseError(f"expected the degree {len(units)}, the number of units",
                         "degree")
    return UnitSchedule(units, provenance)


def _boundary_to_doc(certificate):
    """The fields of a boundary claim, shared by boundary and inverse
    documents; their order is part of the document bytes."""
    return {
        "op": certificate.op,
        "space": certificate.space,
        "lhs": chain_to_doc(certificate.lhs),
        "rhs": chain_to_doc(certificate.rhs),
        "witness": chain_to_doc(certificate.witness),
    }


def _boundary_from_doc(doc, split):
    claim = {}
    for key, known in (("op", BOUNDARY_OPS), ("space", SPACES)):
        claim[key] = _get(doc, key, str)
        if claim[key] not in known:
            raise ParseError(f"unknown {key} {claim[key]!r}", key)
    return BoundaryCertificate(
        **{key: _nested(doc, key, chain_from_doc, split)
           for key in ("lhs", "rhs", "witness")},
        **claim,
    )


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
            "unit": vector_to_list(certificate.unit),
        }
    if isinstance(certificate, BoundaryCertificate):
        return {
            "kind": "boundary",
            "algebra": algebra_doc,
            "degree": certificate.lhs.degree,
            **_boundary_to_doc(certificate),
        }
    if isinstance(certificate, InverseResult):
        return {
            "kind": "inverse",
            "algebra": algebra_doc,
            "degree": certificate.input.degree,
            "input": chain_to_doc(certificate.input),
            "output": chain_to_doc(certificate.output),
            "schedule": schedule_to_doc(certificate.schedule),
            "certificate": _boundary_to_doc(certificate.verification),
        }
    raise TypeError(f"not a certificate: {certificate!r}")


def certificate_from_doc(doc):
    """(certificate object, split basis) reconstructed from a document,
    whose `degree` must be that of its input (its lhs, for a boundary)."""
    _typed(doc, dict, "")
    kind = doc.get("kind")
    _, _, split = _nested(doc, "algebra", algebra_from_doc)
    if kind == "descent":
        certificate = DescentCertificate(
            **{key: _nested(doc, key, chain_from_doc, split)
               for key in ("input", "output", "homotopy")},
            unit=_vector_from_list(_get(doc, "unit", list), split.dimension, "unit"),
        )
    elif kind == "boundary":
        certificate = _boundary_from_doc(doc, split)
    elif kind == "inverse":
        certificate = InverseResult(
            input=_nested(doc, "input", chain_from_doc, split),
            schedule=_nested(doc, "schedule", schedule_from_doc, split.dimension),
            output=_nested(doc, "output", chain_from_doc, split),
            verification=_nested(doc, "certificate", _boundary_from_doc, split),
        )
    else:
        raise ParseError(f"unknown certificate kind {kind!r}", "kind")
    key = "lhs" if kind == "boundary" else "input"
    degree = getattr(certificate, key).degree
    if _get(doc, "degree", int) != degree:
        raise ParseError(f"expected the degree {degree}, that of the {key}",
                         "degree")
    return certificate, split


def load_certificate(path):
    return certificate_from_doc(_read_json(path))


def save_certificate(path, certificate, context):
    _write_json(path, certificate_to_doc(certificate, context))


def load_targets(path, dimension):
    """The vectors listed under "targets" in the JSON file at `path`."""
    doc = _typed(_read_json(path), dict, "")
    return [_vector_from_list(v, dimension, spot)
            for spot, v in _each(doc, "targets", list)]


def load_element(path, dimension):
    """The vector stored under "element" in the JSON file at `path`."""
    element = _get(_typed(_read_json(path), dict, ""), "element", list)
    return _vector_from_list(element, dimension, "element")


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
        unit = find_local_left_unit(self.ideal, self.ideal.basis_vectors)
        if not isinstance(unit, SparseVector):
            raise ValueError(f"demo {self.name!r}: the ideal lacks a local left unit")


def _matrix_demo(pairs, idempotent, ideal_count):
    """(algebra, ideal): the matrix units E_ab for (a, b) in `pairs`, with
    E_ab · E_cd = E_ad when b == c and (a, d) is listed, else 0; then, when
    `idempotent`, one more basis element P with P·P = P and P·E = E·P = 0.
    The ideal is spanned by the first `ideal_count` basis vectors."""
    dim = len(pairs) + idempotent
    index = {p: i for i, p in enumerate(pairs)}
    constants = {}
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if b == c and (a, d) in index:
                constants[(i, j)] = SparseVector(dim, {index[(a, d)]: 1})
    labels = [f"E{a}{b}" for a, b in pairs]
    if idempotent:
        constants[(dim - 1, dim - 1)] = SparseVector(dim, {dim - 1: 1})
        labels.append("P")
    algebra = Algebra(dim, labels, constants)
    return algebra, Ideal(algebra, [algebra.basis_vector(i) for i in range(ideal_count)])


_UPPER_2X2 = ((1, 1), (1, 2), (2, 2))
_FULL_2X2 = ((1, 1), (1, 2), (2, 1), (2, 2))

# name -> (matrix units, idempotent, ideal_count, notes), in corpus order
_DEMOS = {
    "t2-corner": (
        _UPPER_2X2, False, 2,
        "Upper-triangular 2x2 matrices with the corner ideal "
        "span{E11, E12}.  E11 is a left unit for the whole ideal "
        "(E11·E11 = E11, E11·E12 = E12) but no right unit exists "
        "(x·E12 = 0 for every x in the ideal), so the one-sidedness "
        "of the hypothesis is genuinely exercised.",
    ),
    "matrix2": (
        _FULL_2X2, False, 4,
        "Full 2x2 matrices with the whole algebra as the ideal; the "
        "identity E11+E22 is a two-sided unit, the quotient is zero "
        "and the relative theory collapses onto the absolute one.",
    ),
    "direct-sum": (
        _FULL_2X2, True, 4,
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
    *shape, notes = _DEMOS[name]
    algebra, ideal = _matrix_demo(*shape)
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

