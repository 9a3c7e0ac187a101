"""A fixed reference kernel that measures how fast the machine is right now.

On a shared machine other jobs slow a whole run down, often for tens of
seconds at a time: back-to-back 25 s windows of the same parametrize
passes took 2.28 to 3.04 s per pass.  The benchmark therefore times this
kernel between the problems it measures, in the same process, and
reports every end-to-end time scaled to a reference speed:

    reported = measured * NOMINAL_MS / (mean kernel time of the phase)

A slowdown that hits the library hits the kernel too and cancels; a
change to the library does not touch the kernel and shows in full.  In
those windows the scaled pass time stayed within 6% while the raw one
moved by 33%.  The raw figures are printed next to the scaled ones.

The kernel does the kind of work the library does: complex Hermitian
matrices of the sizes the workloads factor (4 to 64) through LAPACK
(eigvalsh, pinv, solve) and Python loops over their entries.  It uses
only NumPy, never the library, and its inputs are fixed, so its work is
the same in every run.
"""

import statistics
import time

import numpy as np

# The kernel's mean time, in ms, on the reference machine (2-core
# x86_64, Python 3.11.7, NumPy 2.4.6, one OpenBLAS thread).  Reported
# times are "ms at the speed where the kernel takes NOMINAL_MS".
NOMINAL_MS = 20.0
SIZES = (4, 8, 16, 32, 64)
ROUNDS = 6


class Calibration:
    """Kernel timings of one run and the scale factor they give."""

    def __init__(self):
        rng = np.random.default_rng(1712)
        self.mats = []
        for k in SIZES:
            A = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            self.mats.append(A @ A.conj().T + np.eye(k))
        self.rhs = [np.ones(k, dtype=complex) for k in SIZES]
        self.samples_ms = []
        self.sample()       # the first run pays for cold caches
        self.samples_ms.clear()

    def sample(self, times=1):
        """Run the kernel ``times`` times and record each wall time."""
        for _ in range(times):
            self._run()

    def _run(self):
        t0 = time.perf_counter_ns()
        for _ in range(ROUNDS):
            for M, b in zip(self.mats, self.rhs):
                np.linalg.eigvalsh(M)
                np.linalg.pinv(M)
                np.linalg.solve(M, b)
                sum(abs(complex(x)) for x in M[0])
        self.samples_ms.append((time.perf_counter_ns() - t0) / 1e6)

    def kernel_ms(self):
        """Mean kernel time.  A mean of kernel runs spread over a phase
        weights each slow spell by its length, as the phase's own total
        time does; across runs, mean problem time over mean kernel time
        spread 3% on verify_dense where the medians' ratio spread 9%."""
        return statistics.fmean(self.samples_ms)

    def factor(self):
        """Multiply a measured time by this to get reference-speed time."""
        return NOMINAL_MS / self.kernel_ms()
