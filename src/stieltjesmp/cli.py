"""Command-line front end with JSON input and output.

Subcommands: check, classify, resolvent, solve, verify, transform,
moments.  Complex numbers are always serialized as two-element arrays
[re, im]; exit code 0 means success or a positive verdict, 1 a usage or
parse error, 2 a negative mathematical verdict.
"""

import argparse
import json
import sys

import numpy as np

from . import jsonio
# Re-exported for callers of ``cli.matrix_to_json`` and friends.  The
# commands below call them through ``jsonio``: perfbench's tracer wraps
# every package function it finds in this namespace by the layer of its
# defining module, and it has no ``jsonio`` layer.
from .jsonio import (  # noqa: F401
    complex_to_json,
    json_to_complex,
    json_to_matrix,
    matrix_to_json,
)
from .matcore import ToleranceConfig
from .momentseq import MomentSequence, class_membership
from .potapov import _IM_GUARD, potapov_report
from .resolvent import build_resolvent, standard_grid, theta_coeffs_json
from .solver import (
    classify,
    lft_solution,
    lift_pair,
    unique_solution,
    verify_solution,
)
from .stieltjespairs import (
    AtomicMeasure,
    StieltjesFunction,
    StieltjesPair,
    moments_of,
    transform,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2

# What indexing a JSON document of the wrong shape raises.
_MALFORMED = (KeyError, TypeError, AttributeError)


def load_moment_file(path, tol):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        alpha = jsonio.json_to_real(doc["alpha"], "alpha")
        q = jsonio.json_to_real(doc["q"], "q", integer=True)
        moments = [jsonio.json_to_matrix(m, f"moments[{j}]")
                   for j, m in enumerate(doc["moments"])]
    except _MALFORMED as exc:
        raise ValueError(f"moment file {path}: {exc}") from exc
    return MomentSequence(alpha, q, moments, tol)


def load_measure_file(path, tol):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        alpha = jsonio.json_to_real(doc["alpha"], "alpha")
        q = jsonio.json_to_real(doc["q"], "q", integer=True)
        atoms = [(jsonio.json_to_real(a["t"], "t"),
                  jsonio.json_to_matrix(a["weight"], "atom weight"))
                 for a in doc["atoms"]]
    except _MALFORMED as exc:
        raise ValueError(f"measure file {path}: {exc}") from exc
    return AtomicMeasure(alpha, q, atoms, tol)


def load_pair_file(path, tol, alpha):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        kind = doc.get("kind")
        if kind == "constant":
            phi = jsonio.json_to_matrix(doc["phi"], "phi")
            psi = jsonio.json_to_matrix(doc["psi"], "psi")
            return StieltjesPair.constant(phi, psi, tol)
        if kind == "stieltjes_function":
            alpha = jsonio.json_to_real(doc.get("alpha", alpha), "alpha")
            q = jsonio.json_to_real(doc["q"], "q", integer=True)
            atoms = [(jsonio.json_to_real(a["t"], "t"),
                      jsonio.json_to_matrix(a["weight"], "atom weight"))
                     for a in doc.get("atoms", [])]
            mu = AtomicMeasure(alpha, q, atoms, tol)
            gamma = jsonio.json_to_matrix(doc["gamma"], "gamma") \
                if "gamma" in doc else np.zeros((q, q))
            return StieltjesPair.from_function(StieltjesFunction(gamma, mu))
    except _MALFORMED as exc:
        raise ValueError(f"pair file {path}: {exc}") from exc
    raise ValueError(f"pair file {path}: unknown kind {kind!r}")


def _emit(doc, args):
    if args.pretty:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(json.dumps(doc, sort_keys=True))


def _tol(args):
    kwargs = {}
    if args.tol_psd is not None:
        kwargs["tol_psd"] = args.tol_psd
    if args.tol_rank is not None:
        kwargs["tol_rank"] = args.tol_rank
    return ToleranceConfig(**kwargs)


def _complex_list(text, flag):
    """The comma-separated complex numbers of ``text``; a token that is
    not a finite complex number is refused, naming ``flag``."""
    points = []
    for tok in text.split(","):
        try:
            points.append(complex(tok))
        except ValueError:
            raise ValueError(
                f"{flag}: '{tok}' is not a complex number") from None
    for z in points:
        if not np.isfinite(z):
            raise ValueError(f"{flag}: point {z} is not finite")
    return points


def _points(args):
    return _complex_list(args.points, "--points")


def cmd_check(args):
    tol = _tol(args)
    seq = load_moment_file(args.moments, tol)
    report = class_membership(seq)
    _emit(report.to_dict(), args)
    return EXIT_OK if report.in_Kgeq else EXIT_NEGATIVE


def cmd_classify(args):
    tol = _tol(args)
    seq = load_moment_file(args.moments, tol)
    report = classify(seq, args.n)
    _emit(report.to_dict(), args)
    return EXIT_OK


def cmd_resolvent(args):
    tol = _tol(args)
    seq = load_moment_file(args.moments, tol)
    R = build_resolvent(seq, args.n)
    _emit(theta_coeffs_json(R), args)
    return EXIT_OK


def cmd_solve(args):
    tol = _tol(args)
    seq = load_moment_file(args.moments, tol)
    n = args.n
    report = classify(seq, n)
    if report.case == "CompletelyDegenerate":
        if args.pair is not None:
            print("warning: completely degenerate data, the parameter "
                  "pair is ignored", file=sys.stderr)
        S = unique_solution(seq, n)
    else:
        if args.pair is None:
            raise ValueError("a pair file is required unless the data is "
                             "completely degenerate")
        pair = lift_pair(report, load_pair_file(args.pair, tol, seq.alpha))
        S = lft_solution(build_resolvent(seq, n), pair)
    points = _points(args) if args.points is not None else \
        [z for z in standard_grid(seq.alpha) if z.imag > 0][:4]
    entries = [{"z": jsonio.complex_to_json(z)} for z in points]
    solved = []
    for z, entry in zip(points, entries):
        try:
            val = S(z)
        except ValueError as exc:   # a singular denominator or an atom of f
            entry["singular"] = str(exc)
            continue
        entry["S"] = jsonio.matrix_to_json(val)
        # The Potapov report is defined off R only; a real point keeps
        # its S and is left out of the one report on the others.
        if abs(z.imag) >= _IM_GUARD:
            solved.append((z, entry, val))
    if solved:
        # S is finite (|S| < 1/tol_rank): only a subnormal --tol-rank fails
        zs, rows, vals = zip(*solved)
        rep = potapov_report(seq, n, list(vals), list(zs))
        for entry, lo, hi in zip(rows, rep.smin_even, rep.smin_odd):
            entry["sigma_min_even"], entry["sigma_min_odd"] = lo, hi
    _emit({"case": report.case, "values": entries}, args)
    return EXIT_OK


def cmd_verify(args):
    tol = _tol(args)
    seq = load_moment_file(args.moments, tol)
    mu = load_measure_file(args.measure, tol)
    report = verify_solution(seq, args.n, mu)
    _emit(report, args)
    return EXIT_OK if report["valid"] else EXIT_NEGATIVE


def cmd_transform(args):
    tol = _tol(args)
    mu = load_measure_file(args.measure, tol)
    points = _points(args)
    values = transform(mu, np.array(points))
    out = [{"z": jsonio.complex_to_json(z), "S": jsonio.matrix_to_json(S)}
           for z, S in zip(points, values)]
    _emit({"values": out}, args)
    return EXIT_OK


def cmd_moments(args):
    tol = _tol(args)
    mu = load_measure_file(args.measure, tol)
    seq = moments_of(mu, args.order)
    _emit({
        "alpha": mu.alpha,
        "q": mu.q,
        "moments": [jsonio.matrix_to_json(s) for s in seq.moments],
    }, args)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stieltjesmp",
        description="Truncated half-line matrix moment problems: "
                    "solvability, resolvent matrices, and solutions.")
    parser.add_argument("--tol-psd", type=float, default=None)
    parser.add_argument("--tol-rank", type=float, default=None)
    parser.add_argument("--pretty", action="store_true",
                        help="indented JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="class membership of a moment file")
    p.add_argument("moments")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="degeneracy classification")
    p.add_argument("moments")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("resolvent", help="resolvent matrix coefficients")
    p.add_argument("moments")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_resolvent)

    p = sub.add_parser("solve", help="evaluate an LFT solution")
    p.add_argument("moments")
    p.add_argument("pair", nargs="?", default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", default=None,
                   help="comma-separated complex points, e.g. 1+2j,3j")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a candidate measure")
    p.add_argument("moments")
    p.add_argument("measure")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", help="Stieltjes transform of a measure")
    p.add_argument("measure")
    p.add_argument("--points", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("moments", help="moments of a measure")
    p.add_argument("measure")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_moments)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
