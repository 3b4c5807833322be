"""Command-line frontend: search, certify, replay, build, verify, factor.

Exit codes: 0 success, 1 certified rejection or failed verification,
2 undecided or out of precision, 3 usage error. All reports are JSON
with sorted keys; fixed seeds give byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# only the exact layers load here; each verb imports the rest of what it
# reaches, so a cold certify never loads numpy before it needs it
from .intpoly import IntPolynomial, PolyParseError, factor_oracle, parse_poly
from .rootcert import DEFAULT_PRECISION_CEILING
from .spectra import (
    REJECTED,
    UNDECIDED,
    classify,
    replay_case_even,
    replay_case_odd,
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3
_VERDICT_EXIT = {REJECTED: EXIT_REJECTED, UNDECIDED: EXIT_UNDECIDED}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this toolkit reserves 2 for undecided."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _parse_optional(self, arg_string):
        # no option starts with a digit: "-1,-1,0,1" is a comma-form polynomial
        if arg_string[:1] == "-" and arg_string[1:2].isdigit():
            return None
        return super()._parse_optional(arg_string)


def _max_precision_bits(flag: int | None = None) -> int:
    """Precision ceiling: the flag when given, else SPECTORUS_MAX_PRECISION, else 4096.

    A value that is not an integer raises ValueError here; classify and search
    raise it for a ceiling below the first rung of the precision ladder.
    """
    if flag is not None:
        return flag
    raw = os.environ.get("SPECTORUS_MAX_PRECISION", "")
    try:
        return int(raw) if raw else DEFAULT_PRECISION_CEILING
    except ValueError:
        raise ValueError(
            f"SPECTORUS_MAX_PRECISION must be an integer, got {raw!r}"
        ) from None


def _emit(parser: _Parser, text: str, output: str | None) -> None:
    """Write text to the file output, else to stdout; an unwritable file is a usage error."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write {output}: {exc.strerror or exc}")


def _check_writable(parser: _Parser, path: str) -> None:
    """A usage error unless path opens for writing; creates and changes no file."""
    try:
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(path)
        except FileExistsError:
            os.close(os.open(path, os.O_WRONLY))  # no O_TRUNC: the file keeps its bytes
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc.strerror or exc}")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_poly_arg(parser: _Parser, text: str) -> IntPolynomial:
    try:
        return parse_poly(text)
    except PolyParseError as exc:
        parser.error(f"cannot parse polynomial: {exc}")
        raise AssertionError("unreachable")


def build_parser() -> _Parser:
    parser = _Parser(prog="spectorus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", parents=[], help="exhaustive certified search over a coefficient box")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--gl", action="store_true", help="allow constant term -1 or +1")
    p.add_argument("--max-precision-bits", type=int, default=None)
    p.add_argument("--cross-check", action="store_true", help="append oracle comparison")
    p.add_argument("--output", help="write JSON report here instead of stdout")
    p.add_argument("--csv", help="also write the accepted-set CSV here")

    p = sub.add_parser("certify", help="classify one polynomial")
    p.add_argument("poly")
    p.add_argument("--gl", action="store_true")
    p.add_argument(
        "--force-interval",
        action="store_true",
        help="decide degrees 2 and 3 by the sign screens and root counts, not the exact tests",
    )
    p.add_argument("--max-precision-bits", type=int, default=None)
    p.add_argument("--output")

    p = sub.add_parser("replay", help="re-run the case argument on a polynomial")
    p.add_argument("poly")
    p.add_argument("--output")

    p = sub.add_parser("build", help="splitting certificate and torus model")
    p.add_argument("poly")
    p.add_argument("--output")

    p = sub.add_parser("verify-torus", help="metric, deck and curvature checks")
    p.add_argument("poly")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("verify-ot", help="potential formula suite on C x H^s")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-rel", type=float, default=None)  # HESS_STEP_REL, set in _cmd_verify_ot
    p.add_argument("--output")

    p = sub.add_parser("factor", help="exhaustive integer factor oracle")
    p.add_argument("poly")
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--output")
    # handlers report a bad value through their own subcommand's usage
    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


def _cmd_search(parser: _Parser, args) -> int:
    from .searchkit import CROSS_CHECK_MAX_DEGREE, acceptance_discrepancies, cross_check, search

    if args.cross_check and args.degree > CROSS_CHECK_MAX_DEGREE:
        parser.error(f"--cross-check supports degree <= {CROSS_CHECK_MAX_DEGREE}")
    # refuse a bad path now, not after a search that may take minutes
    for path in (args.output, args.csv):
        if path:
            _check_writable(parser, path)
    try:
        report = search(
            args.degree,
            args.bound,
            workers=args.workers,
            det_one=not args.gl,
            max_precision_bits=_max_precision_bits(args.max_precision_bits),
        )
    except ValueError as exc:
        parser.error(str(exc))
    payload = report.canonical_json() + "\n"
    _emit(parser, payload, args.output)
    if args.csv:
        _emit(parser, report.to_csv(), args.csv)
    if args.cross_check:
        disc = cross_check(report)
        sys.stderr.write(
            f"cross-check: {len(disc)} discrepancies, "
            f"{len(acceptance_discrepancies(disc))} forbidden\n"
        )
    sys.stderr.write(
        f"search degree={report.degree} bound={report.coeff_bound}: "
        f"{len(report.accepted)} accepted, {len(report.undecided)} undecided, "
        f"{report.candidate_count} candidates in {report.wall_time:.2f}s\n"
    )
    return EXIT_UNDECIDED if report.undecided else EXIT_OK


def _classify(parser: _Parser, P: IntPolynomial, flag: int | None = None, **flags):
    """classify(P) at the precision ceiling; a bad ceiling is a usage error, and
    so is a profile whose report cannot be written: it carries lambda and the
    real root lambda**q as doubles."""
    try:
        prof = classify(P, max_precision_bits=_max_precision_bits(flag), **flags)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        prof.to_json()
    except OverflowError:
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: lambda**q is beyond the float range\n")
    return prof


def _cmd_certify(parser: _Parser, args) -> int:
    P = _parse_poly_arg(parser, args.poly)
    prof = _classify(
        parser, P, args.max_precision_bits, allow_gl=args.gl, force_interval=args.force_interval
    )
    _emit(parser, _dump(prof.to_json()), args.output)
    return _VERDICT_EXIT.get(prof.certification, EXIT_OK)


def _cmd_replay(parser: _Parser, args) -> int:
    P = _parse_poly_arg(parser, args.poly)
    prof = _classify(parser, P)
    try:
        report = replay_case_even(P, prof) if prof.q % 2 == 0 else replay_case_odd(P, prof)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {"profile": prof.to_json(), "replay": report.to_json()}
    _emit(parser, _dump(payload), args.output)
    return EXIT_OK


def _classify_accepted(parser: _Parser, args):
    """Parse and classify args.poly: (P, profile, exit code).

    Unless the profile is accepted, the error payload is already written and
    the exit code is that of the verdict; otherwise it is EXIT_OK.
    """
    P = _parse_poly_arg(parser, args.poly)
    prof = _classify(parser, P)
    code = _VERDICT_EXIT.get(prof.certification, EXIT_OK)
    if code != EXIT_OK:
        error = "rejected" if code == EXIT_REJECTED else "undecided"
        _emit(parser, _dump({"error": error, "profile": prof.to_json()}), args.output)
    return P, prof, code


def _geometry_failed(parser: _Parser, exc: Exception) -> int:
    # nothing was verified or refuted: exit 1 would claim a failed gate
    sys.stderr.write(f"{parser.prog}: undecided: the float geometry failed: {exc}\n")
    return EXIT_UNDECIDED


def _cmd_build(parser: _Parser, args) -> int:
    P, prof, code = _classify_accepted(parser, args)
    if code != EXIT_OK:
        return code
    from .geomlab import build_model

    try:
        model = build_model(P, prof)
    except (ArithmeticError, ValueError) as exc:
        return _geometry_failed(parser, exc)
    payload = {
        "certificate": model.cert.to_json(),
        "model": {
            "q": model.q,
            "phi_exponent": model.phi_exponent,
            "chart": "(x_1..x_{q+1}, t), t > 0",
        },
        "profile": prof.to_json(),
    }
    _emit(parser, _dump(payload), args.output)
    return EXIT_OK


def _cmd_verify_torus(parser: _Parser, args) -> int:
    if args.samples < 1:
        parser.error("--samples must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    P, prof, code = _classify_accepted(parser, args)
    if code != EXIT_OK:
        return code
    from .geomlab import verify_torus_report

    try:
        report = verify_torus_report(P, samples=args.samples, seed=args.seed, profile=prof)
    except (ArithmeticError, ValueError) as exc:
        return _geometry_failed(parser, exc)
    _emit(parser, _dump(report), args.output)
    return EXIT_OK if all(report["passes"].values()) else EXIT_REJECTED


def _cmd_verify_ot(parser: _Parser, args) -> int:
    from .otkahler import HESS_STEP_REL, verify_ot_report

    if args.s < 1 or args.samples < 1:
        parser.error("--s and --samples must be positive")
    step_rel = HESS_STEP_REL if args.step_rel is None else args.step_rel
    try:
        report = verify_ot_report(args.s, samples=args.samples, seed=args.seed, step_rel=step_rel)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(parser, _dump(report), args.output)
    return EXIT_OK if all(report["passes"].values()) else EXIT_REJECTED


def _cmd_factor(parser: _Parser, args) -> int:
    P = _parse_poly_arg(parser, args.poly)
    try:
        factors = factor_oracle(P, max_degree=args.max_degree)
    except ValueError as exc:
        parser.error(str(exc))
    payload = {
        "poly": P.to_json(),
        "factors": [f.to_json() for f in factors],
        "rendered": [f.render() for f in factors],
        "irreducible": len(factors) == 1,
    }
    _emit(parser, _dump(payload), args.output)
    return EXIT_OK


_HANDLERS = {
    "search": _cmd_search,
    "certify": _cmd_certify,
    "replay": _cmd_replay,
    "build": _cmd_build,
    "verify-torus": _cmd_verify_torus,
    "verify-ot": _cmd_verify_ot,
    "factor": _cmd_factor,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _HANDLERS[args.command](args.subparser, args)


if __name__ == "__main__":
    sys.exit(main())
