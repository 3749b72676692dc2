"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of one core swings by up to 2x within a
tenth of a second, and stays slow or fast for seconds to minutes, as
other tenants come and go; a wall time taken in a slow spell says more
about the host than about the program. So the speed is sampled with a
fixed kernel (small numpy products, indexing and interpreter work, in
the proportions of the chain's own inner loops, and no cvqec code): once
before and once after each timed step, and every ``SAMPLE_INTERVAL_S``
during it from a timer signal. The step's wall time, less the time spent
sampling, is scaled by ``REFERENCE_S / mean kernel time``. A reported
second is therefore a second at the speed where one kernel repetition
takes ``REFERENCE_S``; the raw wall times are kept in the result file.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

# Time of one kernel repetition on an uncontended 2.1 GHz Xeon core with
# Python 3.11 and numpy 2.4; only the scale of reported times depends on it.
REFERENCE_S = 12.5e-6
PROBE_REPS = 400
SAMPLE_REPS = 20
SAMPLE_INTERVAL_S = 0.02


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._f = rng.normal(size=(12, 12))
        self._keep = [0, 2, 3, 5, 7, 8, 9, 11]
        self.samples: list[float] = []
        self.sampled_s = 0.0

    def _kernel(self, reps: int) -> float:
        """Wall time per repetition of the calibration kernel."""
        f, keep = self._f, self._keep
        t0 = time.perf_counter()
        for _ in range(reps):
            g = f @ f[:, 0]
            h = f - np.outer(g, f[0]) / 3.0
            m = h[keep][:, keep]
            e = np.einsum("ij,ij->i", m, m)
            z = np.zeros(12)
            z[:8] = e
            float(z @ z)
        return (time.perf_counter() - t0) / reps

    def probe(self) -> float:
        return self._kernel(PROBE_REPS)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every SAMPLE_INTERVAL_S of wall time while the body runs.

        The samples land in ``samples`` and the time they took in ``sampled_s``.
        """
        self.samples, self.sampled_s = [], 0.0

        def on_alarm(signum, frame):
            t0 = time.perf_counter()
            self.samples.append(self._kernel(SAMPLE_REPS))
            self.sampled_s += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def scale(kernel_times: list[float]) -> float:
        """Factor turning a wall time into reference seconds, given the kernel times around it."""
        return REFERENCE_S * len(kernel_times) / sum(kernel_times)
