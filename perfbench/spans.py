"""Span recorder for the traced benchmark run.

`Recorder.install` wraps the public functions of the excisionlab modules at
every name they are bound to: `from .chains import boundary_matrix` copies the
function into `excision`, so `chains.boundary_matrix` and
`excision.boundary_matrix` are both replaced.  Nothing under `src/` changes.

While `active` is set, each wrapped call appends a span (name, parent, start,
end, counters) to an in-memory list.  A span's self time is its duration
minus the durations of its direct children, so the self times of all spans
add up to the duration of the root spans the harness opens around each
operation.  Outside the traced window a wrapper costs one attribute check.
"""

import functools
import importlib
import inspect
import json
import os
from collections import Counter
from time import perf_counter

MODULES = ("linalg", "algebra", "chains", "units", "excision", "fileio", "cli")

# Their time counts as self time of the caller.  The first five are called
# once per tuple or per coefficient, and wrapping them would cost more than
# the work they do; `rref` is left inside `kernel_basis` and `image_basis`,
# so their self time includes the elimination they ask for.
UNWRAPPED = frozenset({
    "chains.canonical_rotation",
    "chains.is_canonical_tuple",
    "chains.tuple_boundary_terms",
    "linalg.format_scalar",
    "linalg.parse_scalar",
    "linalg.rref",
})

# Public methods worth a span of their own: (class, method, span name).
METHODS = (("linalg", "IncrementalSpan", "add", "linalg.span_add"),)

ROOT = "bench.op"


def _witness_terms(certificate):
    terms = getattr(certificate, "witness", None) or getattr(certificate, "homotopy", None)
    return len(terms.terms) if terms is not None else 0


def _size_hooks(recorder):
    """Counters recorded per span, from the call's arguments and result."""

    def boundary_matrix(args, result):
        context, variant, degree = args[:3]
        recorder.complexes.add((id(context), variant, degree))
        return {"nnz": len(result[0].entries)}

    return {
        "chains.boundary_matrix": boundary_matrix,
        "chains.basis_tuples": lambda args, result: {"tuples": len(result)},
        "linalg.solve": lambda args, result: {
            "nnz": len(args[0].entries), "elim_cols": args[0].cols + 1},
        "linalg.kernel_basis": lambda args, result: {"elim_cols": args[0].cols},
        "linalg.image_basis": lambda args, result: {"elim_cols": args[0].cols},
        "excision.closed_formula": lambda args, result: {"terms": len(result.terms)},
        "excision.verify_certificate": lambda args, result: {
            "witness_terms": _witness_terms(args[0])},
        "fileio.load_certificate": lambda args, result: {
            "cert_bytes": os.path.getsize(args[0])},
    }


class Recorder:
    def __init__(self):
        self.active = False
        self.spans = []
        self.complexes = set()
        self._stack = []
        self._hooks = _size_hooks(self)

    def wrap(self, name, fn):
        hook = self._hooks.get(name)
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack
            index = len(recorder.spans)
            parent = stack[-1] if stack else -1
            recorder.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans[index] = (name, parent, start, end, None)
            if hook is not None:
                recorder.spans[index] = (name, parent, start, end, hook(args, result))
            return result

        return traced

    def install(self):
        """Replace every binding of each public function with its wrapper."""
        modules = {m: importlib.import_module(f"excisionlab.{m}") for m in MODULES}
        bindings = [importlib.import_module("excisionlab"), *modules.values()]
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(name, fn)
                for target in bindings:
                    for bound, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, bound, wrapped)
        for short, cls_name, method, name in METHODS:
            cls = getattr(modules[short], cls_name)
            setattr(cls, method, self.wrap(name, cls.__dict__[method]))

    def reset(self):
        self.spans = []
        self.complexes = set()

    def layer_totals(self):
        """{span name: Counter(calls, self_s, size counters...)}."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for index, (name, _, start, end, counters) in enumerate(self.spans):
            entry = totals.setdefault(name, Counter())
            entry["calls"] += 1
            entry["self_s"] += end - start - child_time[index]
            if counters:
                entry.update(counters)
        return totals

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _get(totals, name, key):
    return totals.get(name, {}).get(key, 0)


def layer_metrics(totals, pass_s, extra_counts, scale=1.0):
    """The per-layer metrics of one traced pass, by benchmark metric name.
    Times are multiplied by `scale` (reference seconds per raw second)."""
    metrics = {}
    timed = {
        "chains.boundary_matrix": ("nnz",),
        "linalg.solve": ("nnz",),
        "linalg.image_basis": (),
        "linalg.kernel_basis": (),
        "linalg.span_add": (),
        "chains.basis_tuples": ("tuples",),
        "chains.homology": (),
        "excision.closed_formula": ("terms",),
        "excision.find_boundary_witness": (),
        "excision.inverse_excision": (),
        "units.build_unit_schedule": (),
        "units.find_local_left_unit": (),
        "excision.verify_certificate": (),
        "chains.boundary_b": (),
        "chains.canonicalize_cyclic": (),
        "fileio.load_certificate": (),
        "fileio.certificate_to_doc": (),
        "algebra.validate_algebra": (),
        "algebra.validate_ideal": (),
        "algebra.make_split_basis": (),
        "cli.main": (),
    }
    for name, sizes in timed.items():
        metrics[f"{name}.calls"] = _get(totals, name, "calls")
        metrics[f"{name}.self_s"] = _get(totals, name, "self_s") * scale
        for size in sizes:
            metrics[f"{name}.{size}"] = _get(totals, name, size)
    builds = _get(totals, "chains.boundary_matrix", "calls")
    distinct = extra_counts.get("distinct_complexes", 0)
    metrics["chains.boundary_matrix.reuse"] = builds / distinct if distinct else 0
    metrics["linalg.elim_cols"] = sum(
        _get(totals, f"linalg.{name}", "elim_cols")
        for name in ("kernel_basis", "image_basis", "solve"))
    formula = _get(totals, "excision.closed_formula", "calls")
    metrics["excision.path_formula"] = formula
    metrics["excision.path_solve"] = _get(totals, "excision.inverse_excision", "calls") - formula
    metrics["excision.witness_terms"] = _get(totals, "excision.verify_certificate", "witness_terms")
    metrics["fileio.cert_bytes"] = (_get(totals, "fileio.load_certificate", "cert_bytes")
                                    + extra_counts.get("cert_bytes", 0))
    module_self = Counter()
    for name, entry in totals.items():
        module_self[name.split(".")[0]] += entry["self_s"]
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self[module] * scale
    metrics["bench.self_s"] = module_self["bench"] * scale
    metrics["trace.pass_s"] = pass_s * scale
    metrics["trace.self_coverage"] = sum(module_self.values()) / pass_s if pass_s else 0
    return metrics

