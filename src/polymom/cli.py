"""Command-line interface.

Exit codes follow from what a command raises or returns: 0 success; 2 an
`InputError` (unreadable or malformed input, a non-integer dimension or
simplex index included) or an `OSError` (an output path that cannot be
written); 3 any `PreconditionError` (not spanning, incomplete moments, a
negative order, degenerate input, not weakly non-degenerate); 4 returned by
`invert` on a singular reconstruction (output is still written); 5 anything
else, an internal error, reported in one line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import SUITE_NAMES, jsonio
from .errors import DimensionError, PolymomError, PreconditionError
from .geometry import density

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SINGULAR = 4
EXIT_INTERNAL = 5


class InputError(Exception):
    """Unreadable or malformed input: exit 2."""


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _decode(convert, path):
    """Convert a JSON input file; a wrong shape or value type is malformed input, and so is a file
    `json.load` rejects with a plain ValueError (not UTF-8, or an integer past the digit limit).
    Either way the message names the file, and so does a failed precondition's, which keeps its
    type and with it exit 3."""
    try:
        return convert(_load_json(path))
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}")
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"{path}: {exc}")
    except PreconditionError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _write_json(path, data):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_moments(args):
    from . import oracle

    measure = _decode(jsonio.measure_from_json, args.measure)
    table = oracle.measure_moments(measure, args.order)
    _write_json(args.out, jsonio.moment_table_to_json(table))
    return EXIT_OK


def cmd_genfunc(args):
    from . import genfunc

    measure = _decode(jsonio.measure_from_json, args.measure)
    f = genfunc.measure_genfunc(measure)
    _write_json(args.out, jsonio.ratfun_to_json(f))
    if args.out not in (None, "-"):
        print(f"F(u) = {f}")
    return EXIT_OK


def _parse_columns(text, all_columns):
    """Translate the 1-based column numbers of the worked examples."""
    try:
        numbers = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"--columns takes comma-separated integers, got {text!r}")
    for number in numbers:
        if not 1 <= number <= len(all_columns):
            raise DimensionError(f"column number {number} out of range")
    return [all_columns[number - 1] for number in numbers]


def cmd_invert(args):
    from . import inverse

    vs = _decode(jsonio.vertex_set_from_json, args.vertices)
    table = _decode(jsonio.moment_table_from_json, args.moments)
    columns = _parse_columns(args.columns, inverse.extended_columns(vs)) if args.columns else None
    if args.svg and vs.dim != 2:
        raise DimensionError("--svg requires a 2-d vertex set")
    rec = inverse.reconstruct(table, vs, args.pivot, columns)
    _write_json(args.out, jsonio.reconstruction_to_json(rec))
    if rec.is_singular:
        simplices = rec.singular_simplices
        print(
            f"error: singular reconstruction (degenerate weight on {simplices}); no SVG"
            if args.svg
            else f"singular: nonzero weight on degenerate simplices {simplices}",
            file=sys.stderr,
        )
        return EXIT_SINGULAR
    if args.svg:
        from . import chambers  # on demand: an invert without --svg never draws

        cm = chambers.chamber_densities(chambers.build_chambers(vs), density(rec.to_measure()))
        chambers.write_svg(cm, args.svg)
    return EXIT_OK


def cmd_chambers(args):
    from . import chambers

    vs = _decode(jsonio.vertex_set_from_json, args.vertices)
    measure = _decode(jsonio.measure_from_json, args.measure)
    if measure.vertex_set != vs:
        raise DimensionError("measure vertex set differs from the vertices file")
    cm = chambers.chamber_densities(chambers.build_chambers(vs), density(measure))
    chambers.write_svg(cm, args.svg)
    summary = [
        {"point": [str(c) for c in ch.point], "density": str(ch.density)} for ch in cm.chambers
    ]
    _write_json(args.out, {"chambers": summary})
    return EXIT_OK


def cmd_verify(args):
    from . import verify

    report = verify.run_suite(args.suite, args.seed)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_INTERNAL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polymom",
        description="Exact moments, generating functions and inverse moment problem on polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="moment table of a measure file")
    p.add_argument("measure")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("genfunc", help="rational generating function of a measure file")
    p.add_argument("measure")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_genfunc)

    p = sub.add_parser("invert", help="recover a measure from vertices and moments")
    p.add_argument("vertices")
    p.add_argument("moments")
    p.add_argument("--pivot", type=int, default=None)
    p.add_argument("--columns", default=None, help="1-based extended-matrix column numbers")
    p.add_argument("--svg", default=None, help="write the chamber map here (d = 2)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("chambers", help="chamber map of a 2-d measure")
    p.add_argument("vertices")
    p.add_argument("measure")
    p.add_argument("--svg", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("suite", choices=sorted(SUITE_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PolymomError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug: one line and exit 5, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
