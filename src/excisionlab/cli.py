"""Command-line interface.

All outputs are exact-rational structured text (`--format structured` emits
JSON).  The exit code is 0 only when every certificate produced by the run
verifies; usage errors, hypothesis failures and verification mismatches
use distinct nonzero codes so scripts can tell them apart.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .chains import (
    DegreeLimitError, Variant, boundary_b, canonicalize_cyclic, homology, render_chain,
)
from .excision import (
    CertificateSearchError,
    Mismatch,
    descent_step,
    inverse_excision_class,
    isomorphism_witness,
    require_top_filtration,
    verify_certificate,
)
from .fileio import (
    DEMO_NAMES,
    ParseError,
    RunReport,
    certificate_to_doc,
    chain_to_doc,
    demo_by_name,
    load_algebra,
    load_certificate,
    load_chain,
    load_element,
    load_targets,
    save_certificate,
    vector_to_list,
)
from .units import (
    NoLocalUnit, NoLocalUnitError, find_local_left_unit, level_targets,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2
EXIT_NO_WITNESS = 3
EXIT_NO_LOCAL_UNIT = 4


def _emit(report, fmt):
    report.finish()
    if fmt == "structured":
        print(json.dumps(report.to_doc(), indent=1))
    else:
        print(report.render_text())
    return EXIT_OK if report.success else EXIT_MISMATCH


def _no_local_unit(args, failure, lines, file=None):
    """Report a missing local unit, as one structured document for every
    subcommand or as `lines` on `file`, and return the exit code."""
    if args.format == "structured":
        doc = {
            "command": args.command,
            "status": "no-local-unit",
            "witness_target": vector_to_list(failure.witness_target),
            "detail": failure.detail,
        }
        print(json.dumps(doc, indent=1))
    else:
        print("\n".join(lines), file=file)
    return EXIT_NO_LOCAL_UNIT


def cmd_homology(args):
    _, _, split = load_algebra(args.algebra)
    report = RunReport(command=f"homology {args.variant}/{args.space} degree {args.degree}")
    result = homology(split, Variant(args.variant, args.space), args.degree)
    report.details["dimension"] = result.dimension
    report.details["chain_space_dimension"] = result.space_dimension
    show = chain_to_doc if args.format == "structured" else render_chain
    for idx, rep in enumerate(result.representatives):
        report.details[f"representative[{idx}]"] = show(rep)
    return _emit(report, args.format)


def cmd_excise_inverse(args):
    _, _, split = load_algebra(args.algebra)
    chain = load_chain(args.chain, split)
    if chain.degree != args.degree:
        raise ParseError(
            f"chain has degree {chain.degree}, expected {args.degree}", "degree"
        )
    report = RunReport(command=f"excise-inverse degree {args.degree}")
    cls = canonicalize_cyclic(chain)
    [result] = inverse_excision_class([cls])
    report.details["input"] = render_chain(cls)
    report.details["output"] = render_chain(result.output)
    if result.output.degree >= 1:
        report.details["output_strict_boundary"] = render_chain(
            boundary_b(result.output)
        )
    report.add_certificate("inverse image with rho(psi) ≡ phi witness", result)
    if args.emit_certificate:
        save_certificate(args.emit_certificate, result, split)
        report.details["certificate_file"] = args.emit_certificate
    return _emit(report, args.format)


def cmd_descend(args):
    _, ideal, split = load_algebra(args.algebra)
    chain = load_chain(args.chain, split)
    # name a tuple with a non-ideal initial slot before looking for a unit
    require_top_filtration(chain)
    if args.unit == "auto":
        targets = level_targets(split, chain.terms, chain.degree, None)
        unit = find_local_left_unit(ideal, targets)
        if isinstance(unit, NoLocalUnit):
            return _no_local_unit(args, unit, [
                "no local left unit exists for the initial slots; witness "
                f"target: {_vector_text(unit.witness_target)}"], sys.stderr)
    else:
        unit = load_element(args.unit, split.dimension)
    report = RunReport(command="descend")
    certificate = descent_step(chain, unit)
    report.details["unit"] = _vector_text(unit)
    report.details["output"] = render_chain(certificate.output)
    report.add_certificate("descent homotopy identity", certificate)
    if args.format == "structured":
        report.details["certificate"] = certificate_to_doc(certificate, split)
    return _emit(report, args.format)


def cmd_verify(args):
    certificate, _ = load_certificate(args.certificate)
    mismatch = verify_certificate(certificate)
    residual = mismatch.residual if isinstance(mismatch, Mismatch) else None
    if args.format == "structured":
        doc = {
            "command": "verify",
            "status": "ok" if mismatch is None else "mismatch",
            "reason": None if mismatch is None else mismatch.reason,
            "residual": None if residual is None else chain_to_doc(residual),
        }
        print(json.dumps(doc, indent=1))
    elif mismatch is None:
        print("ok")
    else:
        print(f"MISMATCH: {mismatch.reason}")
        if residual is not None:
            print(f"residual: {render_chain(residual)}")
    return EXIT_OK if mismatch is None else EXIT_MISMATCH


def cmd_local_unit(args):
    _, ideal, split = load_algebra(args.algebra)
    targets = load_targets(args.targets, split.dimension)
    result = find_local_left_unit(ideal, targets)
    if isinstance(result, NoLocalUnit):
        return _no_local_unit(args, result, [
            "no local left unit exists for the given targets",
            f"witness target: {_vector_text(result.witness_target)}",
            f"detail: {result.detail}"])
    if args.format == "structured":
        doc = {"command": "local-unit", "status": "ok", "unit": vector_to_list(result)}
        print(json.dumps(doc, indent=1))
    else:
        print(f"unit: {_vector_text(result)}")
    return EXIT_OK


def cmd_demo(args):
    if args.degree < 0:
        raise ValueError("degree must be non-negative")
    demo = demo_by_name(args.name)
    report = RunReport(command=f"demo {args.name} up to degree {args.degree}")
    report.details["notes"] = demo.notes
    for degree in range(args.degree + 1):
        witness = isomorphism_witness(demo.split, degree)
        report.details[f"dim HC_{degree}(I)"] = witness.dim_ideal
        report.details[f"dim HC_{degree}(A,I)"] = witness.dim_relative
        if not witness.dimensions_match:
            report.details[f"degree {degree} dimension mismatch"] = True
        for idx, result in enumerate(witness.onto):
            report.add_certificate(
                f"degree {degree} onto[{idx}]: rho(psi) ≡ phi", result
            )
        for idx, (result, cert) in enumerate(witness.back):
            report.add_certificate(
                f"degree {degree} back[{idx}]: inverse image", result
            )
            report.add_certificate(
                f"degree {degree} back[{idx}]: psi ≡ c inside the ideal", cert
            )
    return _emit(report, args.format)


def _vector_text(vector):
    return "[" + ", ".join(vector_to_list(vector)) + "]"


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_ERROR: argparse's own 2 is EXIT_MISMATCH."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    """The one parser of the process; `parse_args` keeps no state in it."""
    parser = _Parser(
        prog="excisionlab",
        description=(
            "Exact cyclic/Hochschild homology of finite-dimensional algebras "
            "over Q with certified inverse excision"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "structured"), default="text",
            help="human-readable text or JSON output",
        )

    p = sub.add_parser("homology", help="homology of one complex in one degree")
    p.add_argument("--algebra", required=True)
    p.add_argument("--variant", choices=("hh", "hc", "bar"), default="hc")
    p.add_argument("--space", choices=("A", "I", "relative"), default="A")
    p.add_argument("--degree", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser(
        "excise-inverse",
        help="inverse image of a relative cyclic class, with certificate",
    )
    p.add_argument("--algebra", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--emit-certificate", default=None, metavar="OUT")
    add_format(p)
    p.set_defaults(func=cmd_excise_inverse)

    p = sub.add_parser("descend", help="one certified filtration descent step")
    p.add_argument("--algebra", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--unit", default="auto", help='"auto" or a JSON file with {"element": [...]}')
    add_format(p)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("verify", help="re-check a stored certificate")
    p.add_argument("--certificate", required=True)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("local-unit", help="solve for a local left unit")
    p.add_argument("--algebra", required=True)
    p.add_argument("--targets", required=True)
    add_format(p)
    p.set_defaults(func=cmd_local_unit)

    p = sub.add_parser("demo", help="run the full pipeline on a shipped extension")
    p.add_argument("--name", choices=DEMO_NAMES, required=True)
    p.add_argument("--degree", type=int, default=2)
    add_format(p)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a ParseError or a JSONDecodeError is a ValueError
    except (ValueError, OSError, KeyError, DegreeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except NoLocalUnitError as exc:
        return _no_local_unit(args, exc.failure, [
            f"error: {exc}",
            f"witness target: {_vector_text(exc.failure.witness_target)}"],
            sys.stderr)
    except CertificateSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_WITNESS


if __name__ == "__main__":
    sys.exit(main())
