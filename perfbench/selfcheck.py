"""The benchmark's own check: tiny runs and negative controls.

1. A tiny run of every workload, untraced and traced, must print a last
   line with exactly the keys ``correct``, ``attempted``, ``failed`` and
   ``metrics``, and every metric BENCHMARK.json names, each a finite
   number with its unit.
2. The oracle must be able to fail.  Each control pairs a problem the
   oracle accepts with a corrupted copy it must reject:
   - s_{2n} perturbed: the generating measure no longer matches the
     data, so ``verify_solution`` must reject it;
   - mu swapped for another measure: the unique solution of completely
     degenerate data no longer equals its transform;
   - a CLI output altered in one entry, or with a wrong exit code.

Run it as ``python3 perfbench/run.py --self-check``; it exits 0 only when
every check holds.
"""

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np

import fixtures
import workloads
from stieltjesmp import MomentSequence

TINY = ["--seconds", "0.5", "--limit", "8", "--seed", "3"]


def tiny_runs(here, root, bench):
    failures = []
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(here / "run.py"), "--workload", name,
                   "--trace", str(trace)] + TINY
            proc = subprocess.run(cmd, cwd=root, capture_output=True,
                                  text=True, timeout=170)
            tag = f"tiny run {name} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: keys {sorted(doc)}")
                continue
            if doc["attempted"] < 1:
                failures.append(f"{tag}: nothing attempted")
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                failures.append(f"{tag}: metrics differ from BENCHMARK.json "
                                f"(missing {missing}, extra {extra}, or a "
                                f"unit)")
            bad = [k for k, v in doc["metrics"].items()
                   if not isinstance(v["value"], (int, float))
                   or not math.isfinite(v["value"])]
            if bad:
                failures.append(f"{tag}: non-finite values for {bad}")
            print(f"  {tag}: {len(got)} metrics, attempted "
                  f"{doc['attempted']}, failed {doc['failed']}")
    return failures


def expect(failures, label, reasons, needle):
    """A control must yield a reason that contains ``needle``."""
    if not any(needle in r for r in reasons):
        failures.append(f"{label}: expected a reason with {needle!r}, got "
                        f"{reasons}")
    print(f"  {label}: {'; '.join(reasons) or 'accepted'}")


def controls(here):
    failures = []
    rng = np.random.default_rng(2024)
    wl = workloads.Parametrize(seed=0)

    # Non-degenerate q = 2, n = 1 data: accepted as drawn ...
    p = fixtures.make_problem(rng, "control-nd", 2, 1, 0.0, "full")
    reasons = wl.oracle(p, wl.run(p))
    if reasons:
        failures.append(f"positive control rejected: {reasons}")
    print(f"  positive control {p.pid}: {'; '.join(reasons) or 'accepted'}")
    # ... and rejected once s_{2n} moves: mu no longer has these moments.
    moments = [s.copy() for s in p.seq.moments]
    moments[2 * p.n] = moments[2 * p.n] + 1e-3 * np.linalg.norm(
        moments[2 * p.n]) * np.eye(p.q)
    bent = dataclasses.replace(p, pid="control-s2n-perturbed",
                               seq=MomentSequence(p.alpha, p.q, moments))
    expect(failures, "perturbed s_2n", wl.oracle(bent, wl.run(bent)),
           "rejects the generating measure")

    # Completely degenerate data: the unique solution is S_mu ...
    cd = fixtures.make_problem(rng, "control-cd", 2, 1, 0.0, "fewatoms")
    reasons = wl.oracle(cd, wl.run(cd))
    if reasons:
        failures.append(f"positive control rejected: {reasons}")
    print(f"  positive control {cd.pid}: {'; '.join(reasons) or 'accepted'}")
    # ... so pairing the data with another measure must show.
    other = fixtures.make_problem(rng, "other", 2, 1, 0.0, "fewatoms").mu
    swapped = dataclasses.replace(cd, pid="control-mu-swapped", mu=other)
    expect(failures, "swapped mu", wl.oracle(swapped, wl.run(swapped)),
           "unique solution differs")

    # CLI: the real output passes; an altered entry or exit code fails.
    workdir = here / "out" / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cw = workloads.CliCold(0, str(workdir), str(here.parent))
        item = next(i for i in cw.items if i.pid == "c-nd-transform")
        out = cw.run(item)
        reasons = cw.oracle(item, out)
        if reasons:
            failures.append(f"positive control rejected: {reasons}")
        print(f"  positive control {item.pid}: "
              f"{'; '.join(reasons) or 'accepted'}")
        doc = copy.deepcopy(out.doc)
        doc["values"][0]["S"][0][0][0] += 1e-3
        expect(failures, "altered CLI output",
               cw.oracle(item, workloads.CliResult(out.code, doc)),
               "differs from the in-process result")
        expect(failures, "wrong CLI exit code",
               cw.oracle(item, workloads.CliResult(2, out.doc)), "exit code")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return failures


def main(here, root):
    bench = json.loads((root / "BENCHMARK.json").read_text())
    print("negative controls:")
    failures = controls(here)
    print("tiny runs:")
    failures += tiny_runs(here, root, bench)
    for f in failures:
        print(f"FAIL {f}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0
