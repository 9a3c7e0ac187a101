#!/usr/bin/env python3
"""Compare the outputs of two source trees of stieltjesmp on the
benchmark's problems.

Run from the repository root, with two ``src`` roots, for example a
checkout of the parent commit against this one:

    python3 tools/compare_outputs.py /path/to/parent/src src --seeds 1 2 3

Each tree runs in its own process (``PYTHONPATH=<src root>``) on the
seeded problems of ``perfbench/fixtures.py``, which is read and never
changed, through the calls that ``perfbench/workloads.py`` times:

- ``parametrize`` and ``verify_dense``: class membership and its
  witness extension, the classification, Theta and Theta-tilde, the
  solutions at the workload's points (three pairs, or one, as the
  workload takes them, or the unique solution), the transform of the
  generating measure at those points, its moments up to order 2n + 1
  (through which the benchmark builds its sequences), and
  ``verify_solution`` of the generating measure and of the canonical
  solution;
- ``cli_cold``: every subcommand call of the workload, through
  ``cli.main`` in the process.

It prints the largest deviation of each quantity over all problems,
where it occurs, and the distribution of the deviation of S.  Each
solution is also evaluated on its points as one array, and within each
tree the largest deviation of that array from S at each point alone
is reported, with how many solutions are bit-identical both ways.  S is also
reported per kind of pair (constant, function, or the unique solution
of completely degenerate data; lifted pairs count by their inner pair),
with how many solutions of each kind are bit-identical.  It exits
with status 1 when a label, rank, class verdict, ``valid``, boolean
check, error message, singular point, CLI exit code, CLI message,
non-float CLI JSON value, key set of the checks, of the Potapov lists or
of the resolvent's ``self_check``, or set of CLI JSON paths differs, or
when the moments of a measure or the witness extension are not
bit-identical, and with 0 otherwise; the float deviations are
reported, not judged.  Values are compared on the keys and JSON paths
that both trees have; a key or path that only one tree has is reported
as removed or added.  The differences are counted per quantity.  The
defect bases ``U_basis`` and ``V_basis`` and the frame ``W`` of each
classification must be bit-identical too.

For ``parametrize`` and ``verify_dense`` it also prints, per tree, the
``np.linalg.eigh``, ``np.linalg.svd`` and ``np.linalg.cholesky`` calls
(the last the Cholesky certificate that every Hankel factor tries) of one
pass of the workload as ``perfbench/workloads.py`` runs it (``run`` over
its items, no output kept; this first pass also builds the workload's
parameter pairs), reported and not judged.
"""

import argparse
import collections
import contextlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("parametrize", "verify_dense", "cli_cold")
LAPACK = ("eigh", "svd", "cholesky")


# -- one tree: run the pipeline and record its outputs ------------------

def _verify(solver, p, candidate):
    """The verdicts, checks and Potapov lists of ``verify_solution`` (no
    lists where it returns no report, as for a measure), or the message
    of the ``ValueError`` it raised."""
    try:
        out = solver.verify_solution(p.seq, p.n, candidate)
    except ValueError as exc:
        return {"error": str(exc)}
    sigma = {key: np.array([np.nan if x is None else x for x in vals])
             for key, vals in out.get("potapov", {}).items()
             if key.startswith("sigma_min")}
    return {"valid": out["valid"], "checks": out["checks"], "sigma": sigma}


def _kind(rep, S):
    """The kind of pair a solution is built on: the unique solution of
    completely degenerate data, or a constant or function pair (lifted
    or not)."""
    if rep.case == "CompletelyDegenerate":
        return "unique solution"
    return "constant pair" if S.pair.f is None else "function pair"


def _at_once(S, points, q):
    """S over the points as one array, all NaN when the call refuses."""
    try:
        return S(np.array(points))
    except ValueError:
        return np.full((len(points), q, q), np.nan, dtype=complex)


def _problem(modules, workload, p):
    fixtures, momentseq, resolvent, solver, stieltjespairs, workloads = \
        modules
    if workload == "parametrize":
        points, npairs = p.points, 3
    else:
        points, npairs = fixtures.dense_points(p.alpha), 1
    cm = momentseq.class_membership(p.seq)
    rep = solver.classify(p.seq, p.n)
    R = resolvent.build_resolvent(p.seq, p.n)
    sols = workloads._InProcess().solutions(p, rep, R, npairs)
    return {
        "kinds": [_kind(rep, S) for S in sols],
        "class": (cm.in_Hgeq, cm.in_Hgeq_e, cm.in_Kgeq, cm.in_Kgeq_e),
        "witness": cm.witness_extension,
        "label": (rep.case, rep.m, rep.ell, rep.r),
        "frame": {"U_basis": rep.U, "V_basis": rep.V, "W": rep.W},
        "theta": R.theta.coeffs,
        "theta_tilde": R.theta_tilde.coeffs,
        "self_check": dict(R.self_check),
        "S": np.array([workloads.evaluate(S, points, p.q) for S in sols]),
        "S_array": np.array([_at_once(S, points, p.q) for S in sols]),
        "transform": stieltjespairs.transform(p.mu, np.array(points)),
        "moments": np.array(
            stieltjespairs.moments_of(p.mu, 2 * p.n + 1).moments),
        "measure": _verify(solver, p, p.mu),
        "solution": _verify(solver, p, sols[0]),
    }


def _cli_calls(seed, workdir):
    import workloads
    from stieltjesmp import cli
    out = []
    for item in workloads.CliCold(seed, workdir, str(ROOT)).items:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(list(item.argv))
        text = stdout.getvalue()
        out.append((item.pid, {"code": code, "stderr": stderr.getvalue(),
                               "doc": json.loads(text) if text else None}))
    return out


def _lapack_pass(workloads, workload, seed):
    """The ``np.linalg`` calls named in ``LAPACK`` of one pass of the
    workload, counted by name."""
    wl = workloads.make(workload, seed, None, str(ROOT))
    calls = collections.Counter()
    originals = {name: getattr(np.linalg, name) for name in LAPACK}

    def counting(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return call

    try:
        for name in LAPACK:
            setattr(np.linalg, name, counting(name))
        for item in wl.items:
            wl.run(item)
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)
    return calls


def dump(workload, seed, path):
    """Record the outputs of the tree on PYTHONPATH, and for an
    in-process workload the LAPACK calls of one pass, into ``path``."""
    sys.path.insert(0, str(PERFBENCH))
    import fixtures
    import workloads
    from stieltjesmp import momentseq, resolvent, solver, stieltjespairs
    calls = None
    if workload == "cli_cold":
        with tempfile.TemporaryDirectory() as workdir:
            records = _cli_calls(seed, workdir)
    else:
        calls = _lapack_pass(workloads, workload, seed)
        problems = (fixtures.parametrize_problems(seed)
                    if workload == "parametrize"
                    else fixtures.verify_dense_problems(seed))
        modules = (fixtures, momentseq, resolvent, solver, stieltjespairs,
                   workloads)
        records = [(p.pid, _problem(modules, workload, p)) for p in problems]
    with open(path, "wb") as fh:
        pickle.dump((calls, records), fh)


def run_tree(src, workload, seed, path):
    """(LAPACK calls of one pass or None, records) of the tree at
    ``src``, dumped by a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    subprocess.run([sys.executable, __file__, "--dump", workload, str(seed),
                    str(path)], env=env, cwd=ROOT, check=True)
    with open(path, "rb") as fh:
        return pickle.load(fh)


# -- two trees: compare ------------------------------------------------

class Tally:
    """Largest deviation per quantity, with where it occurred, and the
    differences in discrete outputs."""

    def __init__(self):
        self.worst = {}
        self.samples = {}
        self.diffs = []
        self.differing = collections.Counter()
        self.counts = {}

    def float(self, name, dev, where):
        dev = float(dev)
        self.samples.setdefault(name, []).append(dev)
        if name not in self.worst or dev > self.worst[name][0]:
            self.worst[name] = (dev, where)

    def _differ(self, name, line):
        self.diffs.append(line)
        self.differing[name] += 1

    def same(self, name, a, b, where):
        if a != b:
            self._differ(name, f"{where}: {name} {a!r} -> {b!r}")

    def keys(self, name, a, b, where):
        """A difference unless the dicts a and b have the same keys,
        reported as the keys removed and the keys added."""
        if a.keys() != b.keys():
            self._differ(name, f"{where}: {name} removed "
                         f"{sorted(a.keys() - b.keys())}, added "
                         f"{sorted(b.keys() - a.keys())}")

    def count(self, name, yes):
        """Count the yes and no answers to the question ``name``."""
        self.counts.setdefault(name, [0, 0])[not yes] += 1

    def identical(self, name, a, b, where):
        """A difference unless the arrays a and b are bit-identical."""
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            self._differ(name, f"{where}: {name} not bit-identical")


def _rel(a, b):
    """|a - b| / |a| over whole arrays (0 when both are zero)."""
    scale = np.linalg.norm(a)
    diff = np.linalg.norm(a - b)
    return diff / scale if scale else diff


def _per_one(a, b):
    """max |a - b| / (1 + |a|) over finite entries."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ok = np.isfinite(a) & np.isfinite(b)
    return float(np.max(np.abs(a - b)[ok] / (1.0 + np.abs(a[ok])),
                        initial=0.0))


def _compare_verify(tally, who, a, b, where):
    tally.same(f"{who} error", a.get("error"), b.get("error"), where)
    if "error" in a or "error" in b:
        return
    tally.same(f"{who} valid", a["valid"], b["valid"], where)
    for name in ("checks", "sigma"):
        tally.keys(f"{who} {name}", a[name], b[name], where)
    for key, x in a["checks"].items():
        if key not in b["checks"]:
            continue
        y = b["checks"][key]
        if isinstance(x, bool):
            tally.same(f"{who} {key}", x, y, where)
        else:
            tally.float(f"{who} {key} (/(1+|x|))", _per_one(x, y), where)
    for key, x in a["sigma"].items():
        if key not in b["sigma"]:
            continue
        y = b["sigma"][key]
        tally.same(f"{who} {key} present", np.isnan(x).tolist(),
                   np.isnan(y).tolist(), where)
        tally.float(f"{who} {key} (/(1+|x|))", _per_one(x, y), where)


def compare_problem(tally, a, b, where):
    tally.same("class verdicts", a["class"], b["class"], where)
    wa, wb = a["witness"], b["witness"]
    tally.same("witness present", wa is not None, wb is not None, where)
    if wa is not None and wb is not None:
        tally.identical("witness extension", wa, wb, where)
    tally.same("label and ranks", a["label"], b["label"], where)
    for key, x in a["frame"].items():
        tally.identical(key, x, b["frame"][key], where)
    for key in ("theta", "theta_tilde"):
        tally.float(f"{key} (rel)", _rel(a[key], b[key]), where)
    tally.keys("self_check", a["self_check"], b["self_check"], where)
    for key, x in a["self_check"].items():
        if key in b["self_check"]:
            tally.float(f"self_check {key} (abs)",
                        abs(x - b["self_check"][key]), where)
    Sa, Sb = a["S"], b["S"]
    singular = np.isnan(Sa).any(axis=(-2, -1))
    tally.same("singular points", singular.tolist(),
               np.isnan(Sb).any(axis=(-2, -1)).tolist(), where)
    ok = ~singular & ~np.isnan(Sb).any(axis=(-2, -1))
    dev = (np.linalg.norm(Sa[ok] - Sb[ok], axis=(-2, -1))
           / np.linalg.norm(Sa[ok], axis=(-2, -1)))
    tally.float("S (rel, per point)", dev.max(initial=0.0), where)
    for kind, sa, sb, good in zip(a["kinds"], Sa, Sb, ok):
        tally.float(f"S {kind} (rel, per point)", np.max(
            np.linalg.norm(sa[good] - sb[good], axis=(-2, -1))
            / np.linalg.norm(sa[good], axis=(-2, -1)), initial=0.0), where)
        tally.count(f"S {kind} bit-identical",
                    sa[good].tobytes() == sb[good].tobytes())
    for tree, rec in (("old", a), ("new", b)):
        pt, arr = rec["S"], rec["S_array"]
        both = ~(np.isnan(pt) | np.isnan(arr)).any(axis=(-2, -1))
        tally.float(f"S point vs array, {tree} tree (rel)", np.max(
            np.linalg.norm(pt[both] - arr[both], axis=(-2, -1))
            / np.linalg.norm(pt[both], axis=(-2, -1)), initial=0.0), where)
        for sp, sa, good in zip(pt, arr, both):
            tally.count(f"S point vs array bit-identical, {tree} tree",
                        sp[good].tobytes() == sa[good].tobytes())
    Ta, Tb = a["transform"], b["transform"]
    tally.float("transform (rel, per point)", np.max(
        np.linalg.norm(Ta - Tb, axis=(-2, -1))
        / np.linalg.norm(Ta, axis=(-2, -1)), initial=0.0), where)
    tally.identical("measure moments", a["moments"], b["moments"], where)
    for who in ("measure", "solution"):
        _compare_verify(tally, who, a[who], b[who], where)


def _json_leaves(doc, path=""):
    if isinstance(doc, dict):
        for key in doc:
            yield from _json_leaves(doc[key], f"{path}/{key}")
    elif isinstance(doc, list):
        for i, x in enumerate(doc):
            yield from _json_leaves(x, f"{path}/{i}")
    else:
        yield path, doc


def compare_cli(tally, a, b, where):
    tally.same("cli exit code", a["code"], b["code"], where)
    tally.same("cli stderr", a["stderr"], b["stderr"], where)
    la, lb = dict(_json_leaves(a["doc"])), dict(_json_leaves(b["doc"]))
    if la.keys() == lb.keys():
        tally.same("cli JSON path order", list(la), list(lb), where)
    else:
        tally.keys("cli JSON paths", la, lb, where)
    for path, x in la.items():
        if path not in lb:
            continue
        y = lb[path]
        if isinstance(x, float) and isinstance(y, float):
            tally.float("cli float (/max(|x|,|y|,1))",
                        abs(x - y) / max(abs(x), abs(y), 1.0),
                        f"{where}{path}")
        else:
            tally.same("cli JSON value", x, y, f"{where}{path}")


def report(tally):
    print(f"{'quantity':<44} {'largest':>9}  where")
    for name in sorted(tally.worst):
        dev, where = tally.worst[name]
        print(f"{name:<44} {dev:9.2e}  {where}")
    if "S (rel, per point)" in tally.samples:
        dev = np.array(tally.samples["S (rel, per point)"])
        print(f"S: {dev.size} problems; median {np.median(dev):.1e}, "
              f"99th percentile {np.quantile(dev, 0.99):.1e}; "
              + ", ".join(f"{int((dev > c).sum())} above {c:.0e}"
                          for c in (1e-14, 1e-12, 1e-10, 1e-8)))
    for name, (same, differ) in sorted(tally.counts.items()):
        print(f"{name}: {same} solutions yes, {differ} no")
    print(f"discrete differences: {len(tally.diffs)}")
    for name, count in sorted(tally.differing.items()):
        print(f"  {name}: {count}")
    for line in tally.diffs[:40]:
        print("  " + line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dump", nargs=3, metavar=("WORKLOAD", "SEED", "FILE"),
                    help=argparse.SUPPRESS)
    ap.add_argument("old", nargs="?", help="src root of the reference tree")
    ap.add_argument("new", nargs="?", help="src root of the tree compared")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    if args.dump:
        workload, seed, path = args.dump
        dump(workload, int(seed), path)
        return 0
    if not (args.old and args.new):
        ap.error("give the two src roots")
    tally = Tally()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in WORKLOADS:
                old_calls, old = run_tree(args.old, workload, seed,
                                          Path(tmp, "old"))
                new_calls, new = run_tree(args.new, workload, seed,
                                          Path(tmp, "new"))
                tally.same("problems", [pid for pid, _ in old],
                           [pid for pid, _ in new], f"{workload} {seed}")
                compare = compare_cli if workload == "cli_cold" \
                    else compare_problem
                for (pid, a), (_, b) in zip(old, new):
                    compare(tally, a, b, f"seed {seed} {pid}")
                print(f"seed {seed} {workload}: {len(old)} compared",
                      flush=True)
                if old_calls is not None:
                    print("  calls in one pass: " + "; ".join(
                        f"{name} {old_calls[name]} -> {new_calls[name]}"
                        for name in LAPACK), flush=True)
    report(tally)
    return 1 if tally.diffs else 0


if __name__ == "__main__":
    sys.exit(main())
