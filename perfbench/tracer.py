"""In-memory spans and call counts around the library's layers.

The tracer records from outside the library: it replaces every public
function of each ``stieltjesmp`` module in every module namespace that
holds it (so calls between modules are caught too), plus
``SolutionFunction.__call__``, with a wrapper that appends one span per
call.  ``uninstall`` puts the originals back.  Nothing in the library
is edited.

A span is ``[name, parent, t0_ns, t1_ns, failed, root, work]``.  Root
spans are opened by the benchmark itself, one per problem and phase
(``pipeline`` or ``oracle``), and every span under them carries the
root's index, so all spans of one problem share its id.
"""

import functools
import gzip
import json
import statistics
import time
import types

from stieltjesmp import cli, matcore, momentseq, potapov, resolvent, \
    solver, stieltjespairs
from stieltjesmp.stieltjespairs import AtomicMeasure

MODULES = (matcore, momentseq, resolvent, potapov, stieltjespairs, solver, cli)
LAYERS = ("matcore", "momentseq", "resolvent", "stieltjespairs", "solver",
          "potapov", "cli")

# Helpers whose inputs are factorized: their Sum(rows * cols * min(rows,
# cols)) over the first argument (dim^3 for a square matrix) is the
# ``matcore.factor_work`` count.
FACTOR_HELPERS = {"matcore.pseudo_inverse", "matcore.is_psd", "matcore.mrank",
                  "matcore.one_two_inverse"}

NAME, PARENT, T0, T1, FAILED, ROOT, WORK = range(7)


def _verify_name(args, kwargs):
    candidate = args[2] if len(args) > 2 else kwargs["candidate"]
    kind = "measure" if isinstance(candidate, AtomicMeasure) else "function"
    return f"solver.verify_solution.{kind}"


def _factor_work(args):
    shape = getattr(args[0], "shape", None) if args else None
    if shape is None or len(shape) != 2:
        return 0
    rows, cols = shape
    return rows * cols * min(rows, cols)


class Tracer:
    """Collects spans while installed; keeps them until the run ends."""

    def __init__(self):
        self.spans = []
        self.roots = []          # (pid, phase) per root span
        self._stack = []
        self._root = -1
        self._patches = []

    # -- installation -------------------------------------------------
    def install(self):
        wrappers = {}
        for mod in MODULES:
            for attr, fn in list(vars(mod).items()):
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__.startswith("stieltjesmp.")
                        and not fn.__name__.startswith("_")):
                    if fn not in wrappers:
                        layer = fn.__module__.rsplit(".", 1)[1]
                        name = f"{layer}.{fn.__name__}"
                        if name == "solver.verify_solution":
                            name = _verify_name
                        wrappers[fn] = self._wrap(fn, name)
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[fn])
        call = solver.SolutionFunction.__call__
        self._patches.append((solver.SolutionFunction, "__call__", call))
        solver.SolutionFunction.__call__ = self._wrap(call,
                                                      "solver.solution_eval")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        work = name in FACTOR_HELPERS
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, stack[-1] if stack else -1, clock(), 0, False,
                   self._root, _factor_work(args) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                stack.pop()
                rec[T1] = clock()
        return wrapper

    # -- root spans ---------------------------------------------------
    def run_root(self, pid, phase, fn, *args):
        """Call ``fn(*args)`` under a root span; returns (result, error)."""
        self.roots.append((pid, phase))
        self._root = len(self.roots) - 1
        rec = [phase, -1, time.perf_counter_ns(), 0, False, self._root, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args), None
        except Exception as exc:  # a failed problem is data, not a crash
            rec[FAILED] = True
            return None, f"{type(exc).__name__}: {exc}"
        finally:
            self._stack.pop()
            rec[T1] = time.perf_counter_ns()
            self._root = -1

    # -- statistics ---------------------------------------------------
    def self_times(self):
        """Self time in ns of every span: its duration minus the time its
        direct children cover (children never overlap: one thread)."""
        own = [s[T1] - s[T0] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[T1] - s[T0]
        return own

    def function_stats(self):
        """Per span name: calls, failed, the median duration, and the total
        duration of the outermost calls (a call nested in a call of the
        same name, as in recursion, is not added twice)."""
        by_name = {}
        for s in self.spans:
            if s[PARENT] < 0:
                continue
            d = s[T1] - s[T0]
            st = by_name.setdefault(s[NAME], [[], 0, 0])
            st[0].append(d)
            st[2] += s[FAILED]
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] != s[NAME]:
                p = self.spans[p][PARENT]
            if p < 0:
                st[1] += d
        return {name: {"calls": len(durs), "ns_total": total,
                       "ns_p50": statistics.median(durs), "failed": failed}
                for name, (durs, total, failed) in by_name.items()}

    def counts(self, phase=None):
        """Calls per span name, and the summed factor work, optionally
        restricted to one phase."""
        out, work = {}, 0
        for s in self.spans:
            if s[PARENT] < 0:
                continue
            if phase is not None and self.roots[s[ROOT]][1] != phase:
                continue
            out[s[NAME]] = out.get(s[NAME], 0) + 1
            work += s[WORK]
        return out, work

    def layer_self_ms(self):
        """Self time per layer (and for the benchmark's own root spans)."""
        own = self.self_times()
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for s, ns in zip(self.spans, own):
            layer = "bench" if s[PARENT] < 0 else s[NAME].split(".", 1)[0]
            out[layer] += ns / 1e6
        return out

    def root_ms(self, phase):
        """Duration in ms of each root span of ``phase``, keyed by pid."""
        return {self.roots[s[ROOT]][0]: (s[T1] - s[T0]) / 1e6
                for s in self.spans
                if s[PARENT] < 0 and self.roots[s[ROOT]][1] == phase}

    def write(self, path):
        """Write all spans, column-wise, as gzip-compressed JSON."""
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_origin = self.spans[0][T0] if self.spans else 0
        doc = {
            "format": "columns; times in ns from the first span",
            "names": names,
            "roots": [{"pid": pid, "phase": phase}
                      for pid, phase in self.roots],
            "name": [index[s[NAME]] for s in self.spans],
            "parent": [s[PARENT] for s in self.spans],
            "root": [s[ROOT] for s in self.spans],
            "t0": [s[T0] - t_origin for s in self.spans],
            "t1": [s[T1] - t_origin for s in self.spans],
            "failed": [int(s[FAILED]) for s in self.spans],
            "self_ns": self.self_times(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
