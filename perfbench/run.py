#!/usr/bin/env python3
"""Benchmark for stieltjesmp: end-to-end metrics, or per-layer metrics
from a traced run, for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload parametrize --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload verify_dense --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check

The library is imported from ``src/`` of the checkout that holds this
file, never from site-packages.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  End-to-end
times are scaled to a reference machine speed (calibrate.py); the raw
times are printed above the result.  Results, the failure list and the
environment are also written to ``perfbench/out/``.  See README.md for
the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("parametrize", "verify_dense", "cli_cold")
CALIBRATE_EVERY_S = 0.25  # at most this often the kernel runs in a loop
SETUP_PROBES = 7        # fresh-process set-ups per run; setup_s is their median
SETUP_KERNEL_RUNS = 3   # calibration kernel runs before and after each probe
STARTUP_PROBES = 5      # bare-interpreter and import probes in a traced run
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics.  Function timings cover every call the benchmark
# process makes while traced: one pass of the pipeline and of the oracle.
TIMED_FUNCTIONS = (
    "momentseq.class_membership",
    "solver.classify",
    "resolvent.build_resolvent",
    "solver.lift_pair",
    "solver.lft_solution",
    "solver.unique_solution",
    "solver.solution_eval",
    "solver.verify_solution.measure",
    "solver.verify_solution.function",
)
MICROSECOND_FUNCTIONS = ("solver.solution_eval",)
COUNTED = (
    "matcore.pseudo_inverse",
    "matcore.is_psd",
    "matcore.mrank",
    "matcore.one_two_inverse",
    "momentseq.block_hankel",
    "momentseq.schur_ladder",
    "potapov.potapov_matrix",
    "stieltjespairs.pair_eval",
)
SELF_TIMED_LAYERS = ("matcore", "momentseq", "resolvent", "stieltjespairs",
                     "solver", "potapov")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="use only this many problems of a pass, spread "
                         "over it (for the self-check)")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate the inputs, then exit "
                         "(one set-up probe)")
    ap.add_argument("--self-check", action="store_true",
                    help="tiny runs of every workload plus negative "
                         "controls of the oracle")
    args = ap.parse_args(argv)
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    return args


def load_library():
    """Import stieltjesmp from this checkout's src/ and nowhere else."""
    pkg = SRC / "stieltjesmp"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no stieltjesmp sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import stieltjesmp
    if Path(stieltjesmp.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: stieltjesmp imported from "
                         f"{stieltjesmp.__file__}, not from {pkg}")


def make_workload(args, workdir):
    import workloads
    wl = workloads.make(args.workload, args.seed, str(workdir), str(ROOT))
    if args.limit:
        step = max(1, len(wl.items) // args.limit)
        wl.items = wl.items[::step][:args.limit]
    return wl


# -- measurement -------------------------------------------------------

@dataclass
class Sample:
    pid: str
    ms: float
    reasons: list


class Checker:
    """The oracle runs on the first output of each problem (outside the
    timed region); a later output must equal that checked one.  A
    problem whose output changes between runs is recorded in
    ``changed``: its measured outputs are not the ones the oracle saw."""

    def __init__(self, wl):
        self.wl = wl
        self.first = {}
        self.failures = {}
        self.changed = set()

    def verdict(self, item, out, err):
        if err is not None:
            reasons = [err]
        elif item.pid not in self.first:
            reasons = self.wl.oracle(item, out)
            self.first[item.pid] = (out, reasons)
        else:
            ref, ref_reasons = self.first[item.pid]
            reasons = list(ref_reasons)
            if not self.wl.same(out, ref):
                reasons.append("output differs from the first, checked run")
                self.changed.add(item.pid)
        if reasons:
            self.failures[item.pid] = reasons
        return reasons


def attempt(fn, item):
    """(output, None), or (None, reason) when the library raised."""
    try:
        return fn(item), None
    except Exception as exc:  # a failed problem is data; the loop goes on
        return None, f"{type(exc).__name__}: {exc}"


def timed_loop(wl, checker, seconds, cal=None):
    """Closed loop, one problem at a time, in whole passes until
    ``seconds`` have gone by (at least one pass).  Whole passes keep the
    mix of problem sizes the same in every run.  Between problems, at
    most every CALIBRATE_EVERY_S, the calibration kernel runs (untimed
    for the problems)."""
    samples, k = [], 0
    t_end = time.perf_counter() + seconds
    t_cal = 0.0
    while not k or k % len(wl.items) or time.perf_counter() < t_end:
        if cal is not None and time.perf_counter() >= t_cal:
            cal.sample()
            t_cal = time.perf_counter() + CALIBRATE_EVERY_S
        item = wl.items[k % len(wl.items)]
        k += 1
        t0 = time.perf_counter_ns()
        out, err = attempt(wl.run, item)
        ms = (time.perf_counter_ns() - t0) / 1e6
        samples.append(Sample(item.pid, ms, checker.verdict(item, out, err)))
    return samples


def traced_pass(wl, checker, tracer):
    """One pass of pipeline and oracle per problem, each under a root span."""
    samples = []
    tracer.install()
    try:
        for item in wl.items:
            out, err = tracer.run_root(item.pid, "pipeline", wl.run, item)
            if err is None:
                reasons, oerr = tracer.run_root(item.pid, "oracle",
                                                wl.oracle, item, out)
                reasons = [f"oracle raised {oerr}"] if oerr else reasons
            else:
                reasons = [err]
            if reasons:
                checker.failures[item.pid] = reasons
            samples.append(Sample(item.pid, None, reasons))
    finally:
        tracer.uninstall()
    pipeline_ms = tracer.root_ms("pipeline")
    for s in samples:
        s.ms = pipeline_ms[s.pid]
    return samples


def spawn_ms(cmd, env=None):
    """Wall time of one child process from spawn to exit, in ms.

    The output goes through pipes: ``communicate`` then returns when the
    child closes them.  Waiting with a timeout and no pipes polls the
    child with sleeps of up to 50 ms, which would round every time up to
    the next poll."""
    t0 = time.perf_counter_ns()
    subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True,
                   timeout=120)
    return (time.perf_counter_ns() - t0) / 1e6


def setup_probes(args, cal):
    """Fresh-process set-up times in s, with the calibration kernel run
    before each probe and after the last, so that ``cal`` measures the
    machine's speed while the probes ran."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        cal.sample(SETUP_KERNEL_RUNS)
        setups.append(spawn_ms(cmd) / 1e3)
    cal.sample(SETUP_KERNEL_RUNS)
    return setups


def peak_rss_mb():
    """Peak RSS of this process or any child it waited for (Linux: KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- environment -------------------------------------------------------

def environment(args):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "stieltjesmp").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    threads = {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS}
    return {
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- metrics -----------------------------------------------------------

def end_to_end(samples, setups, cal, setup_cal):
    """Timings scaled to the reference speed (see calibrate.py), each by
    the kernel runs of its own phase."""
    ms = [s.ms for s in samples]
    f = cal.factor()
    return {
        "setup_s": (statistics.median(setups) * setup_cal.factor(), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "problem_ms_p50": (statistics.median(ms) * f, "ms"),
        "problems_per_s": (len(ms) / (sum(ms) / 1e3) / f, "1/s"),
    }


def per_layer(tracer, untraced, traced, cli_ms, startup_ms, import_ms):
    out = {}
    stats = tracer.function_stats()
    for name in TIMED_FUNCTIONS:
        st = stats.get(name, {"calls": 0, "ns_total": 0, "ns_p50": 0,
                              "failed": 0})
        unit, div = ("us", 1e3) if name in MICROSECOND_FUNCTIONS \
            else ("ms", 1e6)
        out[f"{name}.calls"] = (st["calls"], "count")
        out[f"{name}.{unit}_total"] = (st["ns_total"] / div, unit)
        out[f"{name}.{unit}_p50"] = (st["ns_p50"] / div, unit)
        out[f"{name}.failed"] = (st["failed"], "count")
    counts, work = tracer.counts()
    for name in COUNTED:
        out[f"{name}.calls"] = (counts.get(name, 0), "count")
    out["matcore.factor_work"] = (work, "count")
    self_ms = tracer.layer_self_ms()
    for layer in SELF_TIMED_LAYERS:
        out[f"layer.{layer}.self_ms"] = (self_ms[layer], "ms")
    out["cli.python_startup_ms"] = (startup_ms, "ms")
    out["cli.import_ms"] = (import_ms, "ms")
    import workloads
    for sub in workloads.SUBCOMMANDS:
        out[f"cli.{sub}.ms_p50"] = (statistics.median(cli_ms[sub]), "ms")
    out["trace.overhead_pct"] = (overhead_pct(untraced, traced), "%")
    return out


def overhead_pct(untraced, traced):
    """Traced against untraced pipeline time, over the same problems."""
    by_pid = {}
    for s in untraced:
        by_pid.setdefault(s.pid, []).append(s.ms)
    pairs = [(s.ms, statistics.median(by_pid[s.pid]))
             for s in traced if s.pid in by_pid]
    return 100.0 * (sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0)


def cli_layer(args, wl, samples, workdir):
    """Bare interpreter start, import of stieltjesmp.cli, and the wall
    time of each subcommand: from cli_cold's own calls, else from one
    checked round of the seven subcommands (returned as extra samples)."""
    import workloads
    env = dict(os.environ, PYTHONPATH=str(SRC))
    startup = statistics.median(
        spawn_ms([sys.executable, "-c", "pass"]) for _ in range(STARTUP_PROBES))
    imported = statistics.median(
        spawn_ms([sys.executable, "-c", "import stieltjesmp.cli"], env)
        for _ in range(STARTUP_PROBES))
    extra = []
    if not isinstance(wl, workloads.CliCold):
        probe = workloads.CliCold(args.seed, str(workdir), str(ROOT))
        probe.items = probe.items[:len(workloads.SUBCOMMANDS)]
        extra = timed_loop(probe, Checker(probe), 0.0)
        samples = extra
    cli_ms = {sub: [] for sub in workloads.SUBCOMMANDS}
    for s in samples:
        cli_ms[s.pid.split("-", 2)[2]].append(s.ms)
    return cli_ms, startup, imported - startup, extra


# -- run ---------------------------------------------------------------

def run(args):
    from calibrate import Calibration
    from tracer import Tracer

    env = environment(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        cal, setup_cal = Calibration(), Calibration()
        setups = [] if args.trace else setup_probes(args, setup_cal)
        wl = make_workload(args, workdir)
        checker = Checker(wl)
        if wl.warmup:
            for item in wl.items:
                checker.verdict(item, *attempt(wl.run, item))
        samples = timed_loop(wl, checker, args.seconds, cal)
        extra, lines = [], []
        if args.trace:
            tracer = Tracer()
            traced = traced_pass(wl, checker, tracer)
            cli_ms, startup, imported, probe = cli_layer(
                args, wl, samples + traced, workdir)
            extra = traced + probe
            metrics = per_layer(tracer, samples, traced, cli_ms, startup,
                                imported)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
            lines += phase_breakdown(tracer)
        else:
            metrics = end_to_end(samples, setups, cal, setup_cal)
        lines += report(wl, samples, setups, checker, cal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Each problem counts once, however often the loop repeated it: the
    # oracle checked its first output and every repeat had to reproduce
    # it.  So the counts depend on the seed only, not on how many
    # repeats the machine's speed allowed.
    outcome = {}
    for s in samples + extra:
        outcome[s.pid] = outcome.get(s.pid, False) or bool(s.reasons)
    attempted = len(outcome)
    failed = sum(outcome.values())
    result = {
        "correct": not checker.changed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(f"stieltjesmp benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    detail = {"env": env, "result": result, "report": lines,
              "failures": checker.failures,
              "samples_ms": [[s.pid, s.ms] for s in samples],
              "kernel_ms": cal.samples_ms,
              "setup_kernel_ms": setup_cal.samples_ms}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def report(wl, samples, setups, checker, cal):
    """Raw times, and the metrics that are printed but not bounded."""
    ms = sorted(s.ms for s in samples)
    problems = len({s.pid for s in samples})
    failed = len({s.pid for s in samples if s.reasons})
    lines = [f"timed problems: {len(samples)} runs of {problems} problems in "
             f"{sum(ms) / 1e3:.2f} s of pipeline time ({len(wl.items)} "
             f"problems per pass)",
             f"calibration kernel: mean {cal.kernel_ms():.3f} ms over "
             f"{len(cal.samples_ms)} runs; scale factor {cal.factor():.4f} "
             f"(times below are raw, the metrics are scaled)",
             f"raw problem p50: {statistics.median(ms):.4f} ms (n={len(ms)})",
             "raw setup_s samples: " + (", ".join(f"{s:.4f}" for s in setups)
                                        or "not taken in a traced run")]
    if len(ms) >= 100:
        lines.append(f"raw problem_ms_p90: {percentile(ms, 90):.4f} ms "
                     f"(n={len(ms)})")
    else:
        lines.append(f"problem_ms_p90: n/a, {len(ms)} samples (needs 100 "
                     f"for 10 beyond it)")
    lines.append(f"fail_frac: {failed / problems:.4f} ({failed} of "
                 f"{problems} problems)")
    if wl.name == "cli_cold":
        lines.append(f"raw cli_ms_p50: {statistics.median(ms):.4f} ms "
                     f"(n={len(ms)} fresh processes)")
    lines.append(f"failed fixtures: {len(checker.failures)}")
    for pid in sorted(checker.failures):
        lines.append(f"  {pid}: " + "; ".join(checker.failures[pid]))
    return lines


def phase_breakdown(tracer):
    lines = ["traced counts by phase (pipeline / oracle):"]
    pipe, pipe_work = tracer.counts("pipeline")
    orac, orac_work = tracer.counts("oracle")
    for name in COUNTED:
        lines.append(f"  {name}.calls: {pipe.get(name, 0)} / "
                     f"{orac.get(name, 0)}")
    lines.append(f"  matcore.factor_work: {pipe_work} / {orac_work}")
    bench_ms = tracer.layer_self_ms()["bench"]
    lines.append(f"benchmark's own self time while traced: {bench_ms:.3f} ms")
    return lines


def main(argv=None):
    args = parse_args(argv)
    # One BLAS thread unless the caller chose otherwise.  The matrices are
    # at most 96 x 96, where a second thread gave no speed-up (q = 32 on a
    # 2-core machine) but half again the CPU time, taken from whatever
    # else shares the machine.  Children (set-up probes, CLI processes)
    # inherit the setting; it is recorded with every result.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    load_library()
    if args.self_check:
        import selfcheck
        return selfcheck.main(HERE, ROOT)
    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"work-{os.getpid()}"
        workdir.mkdir()
        try:
            make_workload(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
