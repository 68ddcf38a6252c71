"""Command-line interface.

Subcommands:
  classify --m {2,3,6} [--format json|md]
  verify-table {orbits,cases} [--format json|md]
  lattice-info [--gram JSON | --file PATH]
  orbits --norm N [--gram JSON | --file PATH] [--full-group] [--format json|md]

Exit codes: 0 success / all verified, 1 verification mismatch, 2 usage or
input error (including inconsistent golden data).  All output is UTF-8 and
byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import sys

from .discforms import GlueError
from .lattices import IntegerLattice, LatticeError
from .report import (
    classify_markdown,
    classify_report,
    lattice_info_report,
    orbit_markdown,
    orbit_report,
    render_json,
    verify_cases_report,
    verify_markdown,
    verify_orbits_report,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _lattice_from_args(args) -> IntegerLattice | None:
    if args.gram is not None:
        return IntegerLattice.from_json(args.gram)
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise LatticeError(f"{args.file} is not UTF-8: {exc}") from None
        return IntegerLattice.from_json(text)
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latglue",
        description="Exact integer-lattice toolkit and polarization classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="derive the polarization classes for an order-m action"
    )
    p_classify.add_argument("--m", type=int, choices=(2, 3, 6), required=True)

    p_verify = sub.add_parser(
        "verify-table", help="diff recomputed values against the printed tables"
    )
    p_verify.add_argument("which", choices=("orbits", "cases"))

    p_info = sub.add_parser("lattice-info", help="invariants of a Gram matrix")

    p_orbits = sub.add_parser("orbits", help="orbit table for vectors of one norm")
    p_orbits.add_argument("--norm", type=int, required=True)
    for p, suffix in ((p_info, ""), (p_orbits, " (default: the fixed lattice)")):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--gram", help="inline JSON Gram matrix" + suffix)
        source.add_argument("--file", help="path to a JSON Gram matrix")
    p_orbits.add_argument(
        "--full-group",
        action="store_true",
        help="use the full orthogonal group instead of the printed-table symmetry",
    )
    # added last, so that every usage line keeps its option order
    for p in (p_classify, p_verify, p_orbits):
        p.add_argument("--format", choices=("json", "md"), default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            report, markdown = classify_report(args.m), classify_markdown
        elif args.command == "verify-table":
            report = (
                verify_orbits_report() if args.which == "orbits" else verify_cases_report()
            )
            markdown = verify_markdown
        elif args.command == "lattice-info":
            lattice = _lattice_from_args(args)
            if lattice is None:
                parser.error("lattice-info needs --gram or --file")
            report, markdown = lattice_info_report(lattice), None
        else:
            lattice = _lattice_from_args(args)
            report = orbit_report(args.norm, lattice, full_group=args.full_group)
            markdown = orbit_markdown
        sys.stdout.write(
            markdown(report) if markdown and args.format == "md" else render_json(report)
        )
    except (LatticeError, GlueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return EXIT_MISMATCH if report.get("status") == "mismatch" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
