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


def _read(path, what, parse, *extra):
    """``parse(doc, *extra)`` of the JSON document ``doc`` in the file
    ``path``; a document of the wrong shape is refused as ``<what> file
    <path>: ...``."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return parse(doc, *extra)
    except _MALFORMED as exc:
        raise ValueError(f"{what} file {path}: {exc}") from exc


def _moments(doc, tol):
    return MomentSequence(
        jsonio.json_to_real(doc["alpha"], "alpha"),
        jsonio.json_to_real(doc["q"], "q", integer=True),
        [jsonio.json_to_matrix(m, f"moments[{j}]")
         for j, m in enumerate(doc["moments"])], tol)


def _measure(doc, tol):
    return AtomicMeasure(
        jsonio.json_to_real(doc["alpha"], "alpha"),
        jsonio.json_to_real(doc["q"], "q", integer=True),
        [(jsonio.json_to_real(a["t"], "t"),
          jsonio.json_to_matrix(a["weight"], "atom weight"))
         for a in doc["atoms"]], tol)


def _pair(doc, tol, alpha):
    """A ``constant`` pair (phi, psi), or the pair of a
    ``stieltjes_function`` f = gamma + sum M_i / (t_i - z), whose
    ``alpha`` is the moment file's, its atoms none and gamma 0 where the
    document names none; another kind is a document of the wrong shape."""
    kind = doc.get("kind")
    if kind == "constant":
        return StieltjesPair.constant(jsonio.json_to_matrix(doc["phi"], "phi"),
                                      jsonio.json_to_matrix(doc["psi"], "psi"),
                                      tol)
    if kind != "stieltjes_function":
        raise TypeError(f"unknown kind {kind!r}")
    mu = _measure({"alpha": alpha, "atoms": [], **doc}, tol)
    gamma = jsonio.json_to_matrix(doc["gamma"], "gamma") if "gamma" in doc \
        else np.zeros((mu.q, mu.q))
    return StieltjesPair.from_function(StieltjesFunction(gamma, mu))


def _tol(args):
    """The tolerances of --tol-psd and --tol-rank, the defaults where
    they are not given."""
    given = {"tol_psd": args.tol_psd, "tol_rank": args.tol_rank}
    return ToleranceConfig(**{k: v for k, v in given.items() if v is not None})


def _complex_list(text):
    """The comma-separated complex numbers of --points; a token that is
    not a finite complex number is refused, naming the flag."""
    points = []
    for tok in text.split(","):
        try:
            points.append(complex(tok))
        except ValueError:
            raise ValueError(
                f"--points: '{tok}' is not a complex number") from None
    for z in points:
        if not np.isfinite(z):
            raise ValueError(f"--points: point {z} is not finite")
    return points


# Each command takes the parsed arguments and the tolerance and returns
# its JSON document and exit code, which ``main`` writes.

def cmd_check(args, tol):
    report = class_membership(_read(args.moments, "moment", _moments, tol))
    return report.to_dict(), EXIT_OK if report.in_Kgeq else EXIT_NEGATIVE


def cmd_classify(args, tol):
    seq = _read(args.moments, "moment", _moments, tol)
    return classify(seq, args.n).to_dict(), EXIT_OK


def cmd_resolvent(args, tol):
    seq = _read(args.moments, "moment", _moments, tol)
    return theta_coeffs_json(build_resolvent(seq, args.n)), EXIT_OK


def cmd_solve(args, tol):
    seq = _read(args.moments, "moment", _moments, tol)
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
        pair = lift_pair(report, _read(args.pair, "pair", _pair, tol,
                                       seq.alpha))
        S = lft_solution(build_resolvent(seq, n), pair)
    points = _complex_list(args.points) if args.points is not None else \
        [z for z in standard_grid(seq.alpha) if z.imag > 0][:4]
    entries = [{"z": jsonio.complex_to_json(z)} for z in points]
    solved = []
    for z, entry in zip(points, entries):
        try:
            val = S(z)
        except ValueError as exc:   # a singular denominator or an atom
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
    return {"case": report.case, "values": entries}, EXIT_OK


def cmd_verify(args, tol):
    seq = _read(args.moments, "moment", _moments, tol)
    report = verify_solution(seq, args.n,
                             _read(args.measure, "measure", _measure, tol))
    return report, EXIT_OK if report["valid"] else EXIT_NEGATIVE


def cmd_transform(args, tol):
    mu = _read(args.measure, "measure", _measure, tol)
    points = _complex_list(args.points)
    values = transform(mu, np.array(points))
    return {"values": [{"z": jsonio.complex_to_json(z),
                        "S": jsonio.matrix_to_json(S)}
                       for z, S in zip(points, values)]}, EXIT_OK


def cmd_moments(args, tol):
    mu = _read(args.measure, "measure", _measure, tol)
    return {"alpha": mu.alpha, "q": mu.q,
            "moments": [jsonio.matrix_to_json(s)
                        for s in moments_of(mu, args.order).moments]}, EXIT_OK


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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        doc, code = args.func(args, _tol(args))
        print(json.dumps(doc, indent=2 if args.pretty else None,
                         sort_keys=True))
        return code
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
