"""The three workloads: the timed pipeline per problem and its oracle.

Each workload has a list ``items`` (one pass), ``run(item)`` (the timed
pipeline, calling the library only through module attributes so the
tracer can see every call), ``oracle(item, output)`` (the ground-truth
check, run outside the timed region; it returns the reasons the output
is wrong, empty when it is right) and ``same(a, b)`` (whether a repeated
run gave the output that was checked).

A point the library rejects as singular is recorded as NaN and the
pipeline goes on, as the CLI's ``solve`` does; the oracle then fails the
problem.  So a failing problem still does close to the work of a passing
one.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import fixtures
from stieltjesmp import cli, momentseq, resolvent, solver
from stieltjesmp.stieltjespairs import StieltjesPair

CD = "CompletelyDegenerate"
# The completely degenerate solution is unique, so it must equal the
# transform of the generating measure; a mislabel shows as a difference
# of 1e-4 to 1e-2.  Sums of a few dozen well-scaled terms agree to 1e-10.
RTOL_UNIQUE = 1e-6
# Repeated runs of the same problem must give the checked output.
RTOL_SAME = 1e-9


def exact_transform(mu, z):
    """S_mu(z) = sum M / (t - z), summed here rather than by the library."""
    return sum(M / (t - z) for t, M in mu.atoms)


def exact_moments(mu, m):
    return [sum((t ** j) * M for t, M in mu.atoms) for j in range(m + 1)]


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def close(a, b, rtol=RTOL_SAME):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    if not np.array_equal(nan_a, nan_b):
        return False
    return bool(np.allclose(a[~nan_a], b[~nan_b], rtol=rtol, atol=1e-12))


def evaluate(S, points, q):
    """S at each point; NaN where the library rejects the point."""
    out = np.empty((len(points), q, q), dtype=complex)
    for k, z in enumerate(points):
        try:
            out[k] = S(z)
        except ValueError:
            out[k] = np.nan
    return out


def verified(seq, n, candidate):
    """True/False from ``verify_solution``, or the error it raised."""
    try:
        return bool(solver.verify_solution(seq, n, candidate)["valid"])
    except ValueError as exc:
        return f"ValueError: {exc}"


def ground_truth(p, in_kge, case, points, values, mu_ok, s_ok):
    """The checks every in-process problem must pass; returns reasons."""
    reasons = []
    if not in_kge:
        reasons.append("class_membership: moments of a measure reported "
                       "outside K>=e")
    if p.nondegenerate and case != "NonDegenerate":
        reasons.append(f"labelled {case}, non-degenerate by construction")
    bad = int(np.isnan(values).any(axis=(1, 2)).sum())
    if bad:
        reasons.append(f"{bad} of {len(points)} points rejected as singular")
    if case == CD:
        err = max((rel_err(v, exact_transform(p.mu, z))
                   for z, v in zip(points, values) if not np.isnan(v).any()),
                  default=0.0)
        if err > RTOL_UNIQUE:
            reasons.append(f"unique solution differs from the transform of "
                           f"mu by {err:.1e} (relative)")
    if mu_ok is not True:
        reasons.append("verify_solution rejects the generating measure"
                       + ("" if mu_ok is False else f" ({mu_ok})"))
    if s_ok is not True:
        reasons.append("canonical solution fails verify_solution"
                       + ("" if s_ok is False else f" ({s_ok})"))
    return reasons


class _InProcess:
    """Shared parts of the two in-process workloads."""

    warmup = True

    def __init__(self):
        self._pairs = {}

    def pairs(self, p, r):
        """The parameter pairs of size r for problem p, built once."""
        key = (p.pid, r)
        if key not in self._pairs:
            self._pairs[key] = fixtures.inner_pairs(p, r)
        return self._pairs[key]

    def solutions(self, p, rep, R, npairs):
        """unique_solution, or lift_pair + lft_solution per pair."""
        if rep.case == CD:
            return [solver.unique_solution(p.seq, p.n)]
        return [solver.lft_solution(R, solver.lift_pair(rep, pair),
                                    seq=p.seq, n=p.n)
                for pair in self.pairs(p, rep.r)[:npairs]]


@dataclass
class Parametrized:
    in_kge: bool
    case: str
    canonical: object
    values: np.ndarray       # (solutions, points, q, q)


class Parametrize(_InProcess):
    """Many small problems; construction dominates.  See README.md."""

    name = "parametrize"

    def __init__(self, seed):
        super().__init__()
        self.items = fixtures.parametrize_problems(seed)

    def run(self, p):
        in_kge = momentseq.class_membership(p.seq).in_Kgeq_e
        rep = solver.classify(p.seq, p.n)
        R = resolvent.build_resolvent(p.seq, p.n)
        sols = self.solutions(p, rep, R, npairs=3)
        values = np.array([evaluate(S, p.points, p.q) for S in sols])
        return Parametrized(in_kge, rep.case, sols[0], values)

    def oracle(self, p, out):
        return ground_truth(p, out.in_kge, out.case, p.points, out.values[0],
                            verified(p.seq, p.n, p.mu),
                            verified(p.seq, p.n, out.canonical))

    def same(self, a, b):
        return (a.in_kge == b.in_kge and a.case == b.case
                and close(a.values, b.values))


@dataclass
class Verified:
    case: str
    values: np.ndarray       # (points, q, q)
    mu_ok: object
    s_ok: object


class VerifyDense(_InProcess):
    """Fewer, larger problems; point evaluation and verification dominate."""

    name = "verify_dense"
    # No warm-up pass: one pass takes about 9 s, against first-call costs
    # that are small beside problems of 30 to 400 ms.  The first timed
    # pass is the one the oracle checks.
    warmup = False

    def __init__(self, seed):
        super().__init__()
        self.items = fixtures.verify_dense_problems(seed)
        self.points = {p.pid: fixtures.dense_points(p.alpha)
                       for p in self.items}

    def run(self, p):
        rep = solver.classify(p.seq, p.n)
        R = resolvent.build_resolvent(p.seq, p.n)
        S = self.solutions(p, rep, R, npairs=1)[0]
        values = evaluate(S, self.points[p.pid], p.q)
        return Verified(rep.case, values, verified(p.seq, p.n, p.mu),
                        verified(p.seq, p.n, S))

    def oracle(self, p, out):
        in_kge = momentseq.class_membership(p.seq).in_Kgeq_e
        return ground_truth(p, in_kge, out.case, self.points[p.pid],
                            out.values, out.mu_ok, out.s_ok)

    def same(self, a, b):
        return (a.case == b.case and a.mu_ok == b.mu_ok and a.s_ok == b.s_ok
                and close(a.values, b.values))


# -- cli_cold -----------------------------------------------------------

SUBCOMMANDS = ("check", "classify", "resolvent", "solve", "verify",
               "transform", "moments")


@dataclass
class CliCall:
    pid: str
    sub: str
    problem: fixtures.Problem
    argv: list


@dataclass
class CliResult:
    code: int
    doc: object


def _complex_arg(z):
    return f"{z.real!r}{z.imag:+}j"


def _matrix(rows):
    return np.array([[complex(*x) for x in row] for row in rows])


def _json_close(a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_close, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=RTOL_SAME, abs_tol=1e-12))
    return a == b


class CliCold:
    """Fresh ``python -m stieltjesmp.cli`` processes on small files."""

    name = "cli_cold"
    warmup = False

    def __init__(self, seed, workdir, root):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.root = root
        rng = np.random.default_rng([seed, 3])
        self.items = []
        # q = 2, n = 1 gives one fixture per case label.
        for tag, pattern in (("nd", "full"), ("dg", "rankdef"),
                             ("cd", "fewatoms")):
            p = fixtures.make_problem(rng, f"c-{tag}", 2, 1, 0.0, pattern)
            files = self._write(p, workdir, tag)
            points = ",".join(_complex_arg(z) for z in p.points)
            argvs = {
                "check": ["check", files["moments"]],
                "classify": ["classify", files["moments"], "--n", "1"],
                "resolvent": ["resolvent", files["moments"], "--n", "1"],
                "solve": ["solve", files["moments"]] + files["pair"]
                         + ["--n", "1", "--points", points],
                "verify": ["verify", files["moments"], files["measure"],
                           "--n", "1"],
                "transform": ["transform", files["measure"],
                              "--points", points],
                "moments": ["moments", files["measure"], "--order", "3"],
            }
            for sub in SUBCOMMANDS:
                self.items.append(CliCall(f"c-{tag}-{sub}", sub, p,
                                          argvs[sub]))

    def _write(self, p, workdir, tag):
        def dump(name, doc):
            path = os.path.join(workdir, f"{tag}-{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            return path

        files = {
            "moments": dump("moments", {
                "alpha": p.alpha, "q": p.q,
                "moments": [cli.matrix_to_json(s) for s in p.seq.moments]}),
            "measure": dump("measure", {
                "alpha": p.alpha, "q": p.q,
                "atoms": [{"t": t, "weight": cli.matrix_to_json(M)}
                          for t, M in p.mu.atoms]}),
            "pair": [],
        }
        rep = solver.classify(p.seq, p.n)
        if rep.case != CD:
            files["pair"] = [dump("pair", {
                "kind": "constant",
                "phi": cli.matrix_to_json(np.zeros((rep.r, rep.r))),
                "psi": cli.matrix_to_json(np.eye(rep.r))})]
        return files

    def run(self, item):
        proc = subprocess.run(
            [sys.executable, "-m", "stieltjesmp.cli"] + item.argv,
            capture_output=True, text=True, env=self.env, cwd=self.root,
            timeout=120)
        return CliResult(proc.returncode, json.loads(proc.stdout))

    def in_process(self, argv):
        """The same subcommand through ``cli.main`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return CliResult(code, json.loads(out.getvalue()))

    def oracle(self, item, out):
        reasons = []
        if out.code != 0:
            reasons.append(f"exit code {out.code}")
        if not self.same(out, self.in_process(item.argv)):
            reasons.append("JSON differs from the in-process result")
        reasons += self._ground_truth(item, out.doc)
        return reasons

    def _ground_truth(self, item, doc):
        p, sub = item.problem, item.sub
        if sub == "check":
            return [] if doc["in_Kgeq_e"] else ["moments of a measure "
                                                "reported outside K>=e"]
        if sub == "classify":
            if p.nondegenerate and doc["case"] != "NonDegenerate":
                return [f"labelled {doc['case']}, non-degenerate by "
                        "construction"]
            return []
        if sub == "verify":
            return [] if doc["valid"] else ["verify rejects the generating "
                                            "measure"]
        if sub == "transform":
            err = max(rel_err(_matrix(v["S"]), exact_transform(p.mu, z))
                      for v, z in zip(doc["values"], p.points))
            return [] if err <= RTOL_UNIQUE else [
                f"transform differs from the exact sum by {err:.1e}"]
        if sub == "moments":
            err = max(rel_err(_matrix(got), want) for got, want in
                      zip(doc["moments"], exact_moments(p.mu, 3)))
            return [] if err <= RTOL_UNIQUE else [
                f"moments differ from the exact sums by {err:.1e}"]
        if sub == "solve":
            return self._check_solve(p, doc)
        return []

    def _check_solve(self, p, doc):
        if any("singular" in v for v in doc["values"]):
            return ["solve rejected a point as singular"]
        got = [_matrix(v["S"]) for v in doc["values"]]
        if doc["case"] == CD:
            err = max(rel_err(g, exact_transform(p.mu, z))
                      for g, z in zip(got, p.points))
            return [] if err <= RTOL_UNIQUE else [
                f"unique solution differs from the transform of mu by "
                f"{err:.1e} (relative)"]
        # Rebuild the canonical solution the CLI evaluated and verify it.
        rep = solver.classify(p.seq, p.n)
        R = resolvent.build_resolvent(p.seq, p.n)
        eye, zero = np.eye(rep.r), np.zeros((rep.r, rep.r))
        pair = solver.lift_pair(rep, StieltjesPair.constant(zero, eye))
        S = solver.lft_solution(R, pair, seq=p.seq, n=p.n)
        reasons = []
        if not close(evaluate(S, p.points, p.q), np.array(got)):
            reasons.append("solve values differ from the canonical solution")
        ok = verified(p.seq, p.n, S)
        if ok is not True:
            reasons.append("canonical solution fails verify_solution"
                           + ("" if ok is False else f" ({ok})"))
        return reasons

    def same(self, a, b):
        return a.code == b.code and _json_close(a.doc, b.doc)


def make(name, seed, workdir, root):
    if name == "parametrize":
        return Parametrize(seed)
    if name == "verify_dense":
        return VerifyDense(seed)
    if name == "cli_cold":
        return CliCold(seed, workdir, root)
    raise ValueError(f"unknown workload {name!r}")
