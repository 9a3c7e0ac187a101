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
from .resolvent import build_resolvent, standard_grid, theta_coeffs_json
from .solver import (
    classify,
    lft_solution,
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
        alpha = float(doc["alpha"])
        q = int(doc["q"])
        moments = [jsonio.json_to_matrix(m, f"moments[{j}]")
                   for j, m in enumerate(doc["moments"])]
    except _MALFORMED as exc:
        raise ValueError(f"moment file {path}: {exc}") from exc
    return MomentSequence(alpha, q, moments, tol)


def load_measure_file(path, tol):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        alpha = float(doc["alpha"])
        q = int(doc["q"])
        atoms = [(float(a["t"]),
                  jsonio.json_to_matrix(a["weight"], "atom weight"))
                 for a in doc["atoms"]]
    except _MALFORMED as exc:
        raise ValueError(f"measure file {path}: {exc}") from exc
    return AtomicMeasure(alpha, q, atoms, tol)


def load_pair_file(path, tol):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        kind = doc.get("kind")
        if kind == "constant":
            phi = jsonio.json_to_matrix(doc["phi"], "phi")
            psi = jsonio.json_to_matrix(doc["psi"], "psi")
            return StieltjesPair.constant(phi, psi, tol)
        if kind == "stieltjes_function":
            alpha = float(doc.get("alpha", 0.0))
            q = int(doc["q"])
            atoms = [(float(a["t"]),
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
    if getattr(args, "pretty", False):
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(json.dumps(doc, sort_keys=True))


def _tol(args):
    kwargs = {}
    if getattr(args, "tol_psd", None) is not None:
        kwargs["tol_psd"] = args.tol_psd
    if getattr(args, "tol_rank", None) is not None:
        kwargs["tol_rank"] = args.tol_rank
    return ToleranceConfig(**kwargs)


def _grid(args, alpha):
    spec = getattr(args, "grid", None)
    if spec in (None, "standard"):
        return standard_grid(alpha)
    return [complex(tok) for tok in spec.split(",")]


def _points(args):
    return [complex(tok) for tok in args.points.split(",")]


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
        pair = load_pair_file(args.pair, tol)
        from .solver import lift_pair
        if report.case == "Degenerate":
            pair = lift_pair(report, pair)
        R = build_resolvent(seq, n)
        S = lft_solution(R, pair, seq=seq, n=n)
    points = _points(args) if args.points else \
        [z for z in standard_grid(seq.alpha) if z.imag > 0][:4]
    from .potapov import FunctionSamples, potapov_report
    entries = [{"z": jsonio.complex_to_json(z)} for z in points]
    solved, value = [], {}
    for z, entry, val in zip(points, entries,
                             _at_points(FunctionSamples(S, seq.q), points)):
        if isinstance(val, ValueError):
            entry["singular"] = str(val)
        else:
            entry["S"] = jsonio.matrix_to_json(val)
            solved.append((z, entry))
            value[z] = val
    # The report reads the finite values found above instead of
    # evaluating S again, and the Hankel data of the resolvent.
    f = FunctionSamples(value.__getitem__, seq.q)

    def sigma_mins(zs):
        rep = potapov_report(S.resolvent.data, n, f, zs)
        return list(zip(rep.smin_even, rep.smin_odd))

    for (_, entry), lam in zip(solved, _at_points(
            sigma_mins, [z for z, _ in solved])):
        if isinstance(lam, ValueError):
            entry["singular"] = str(lam)
        else:
            entry["sigma_min_even"], entry["sigma_min_odd"] = lam
    _emit({"case": report.case, "values": entries}, args)
    return EXIT_OK


def _at_points(fn, points):
    """``fn(points)`` as a list with one result per point.  When the
    batch raises ``ValueError``, ``fn`` runs point by point instead, and
    a point that raises gets its error in place of a result."""
    if not points:
        return []
    try:
        return list(fn(points))
    except ValueError:
        out = []
        for z in points:
            try:
                out.append(fn([z])[0])
            except ValueError as exc:
                out.append(exc)
        return out


def cmd_verify(args):
    tol = _tol(args)
    seq = load_moment_file(args.moments, tol)
    mu = load_measure_file(args.measure, tol)
    grid = _grid(args, seq.alpha)
    report = verify_solution(seq, args.n, mu, grid)
    report.pop("potapov", None)
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
    p.add_argument("--grid", default=None)
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
