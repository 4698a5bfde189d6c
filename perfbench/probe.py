"""Machine-speed probe: times a fixed reference kernel on a timer tick.

The benchmark's VM is shared, and its single-thread speed drifts. A fixed
pure-Python loop ran up to 20% slower or faster for stretches of seconds
to minutes, and raw wall times of identical runs spread by as much. While
the probe is active, SIGALRM runs the kernel every PERIOD_S seconds in the
main thread, between bytecodes of whatever kpem is doing. An interval's
time at reference speed is its wall time without the probe's own time,
scaled by REFERENCE_S / (mean probe time inside the interval, 10% trimmed
at each end).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.2
# median kernel time on the 2-vCPU Intel Xeon VM that golden.json was made on
REFERENCE_S = 4.0e-3


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        self._state = rng.standard_normal(4 ** 7) + 1j * rng.standard_normal(4 ** 7)

    def sample(self) -> float:
        """Run the kernel once: the work kpem does, in small.  A party
        transpose of a 7-ququart state, the SVD and purity Gram product of
        its 64 x 256 split, and dict and tuple bookkeeping."""
        t0 = perf_counter()
        split = self._state.reshape((4,) * 7).transpose(3, 1, 0, 2, 4, 5, 6).reshape(64, 256)
        np.linalg.svd(split, compute_uv=False)
        gram = split @ split.conj().T
        float(np.real(np.sum(gram * gram.conj())))
        table = {}
        for i in range(1500):
            key = (i, i + 1, i + 2)
            table[key] = sum(key)
        took = perf_counter() - t0
        self.samples.append(took)
        return took

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """(fn(), wall s without probe time, the same at reference speed).
        An interval too short for a tick gets one sample right after it."""
        n0 = len(self.samples)
        t0 = perf_counter()
        result = fn()
        net = perf_counter() - t0
        inside = sorted(self.samples[n0:])
        net -= sum(inside)
        # wall time integrates 1/speed, so average the probe times; the
        # trim drops one-off stalls such as page faults
        cut = len(inside) // 10
        probe_s = statistics.fmean(inside[cut:len(inside) - cut] or [self.sample()])
        return result, net, net * REFERENCE_S / probe_s
