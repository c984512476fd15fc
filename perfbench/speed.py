"""Host-speed probe: a fixed calibration kernel sampled through a timed pass.

The machines this benchmark was sized on are shared virtual machines whose
speed swings by up to 2x within seconds and drifts over minutes, with no
steal time to show for it (process CPU time tracks wall time).  Wall times
of the same pass then spread by 25-45% between runs, more than any bound a
regression check can use.

:class:`SpeedProbe` interrupts the pass every ``interval`` seconds of wall
time (``SIGALRM``) and times one run of :func:`kernel`, a fixed piece of
interpreter and LAPACK work that does not touch the library.  Its clock
excludes the time spent in the probe, and :meth:`SpeedProbe.speed` is the
mean of ``REFERENCE_KERNEL_S / duration`` over the samples: the host's
speed relative to the reference, averaged over the pass.  A worker's
``setup_s`` and ``solve_s`` are its probe-clock times multiplied by that
speed, i.e. the wall times it would have taken on a host running the kernel
in exactly ``REFERENCE_KERNEL_S``.  A change to the library moves the pass
time and not the kernel, so it moves these times as it would move wall time
on a steady host.

Python runs a signal handler between bytecodes, so a sample that falls due
during a long C call (a dense ``eig``) is taken when the call returns.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg

#: the kernel's duration at the reference speed: roughly its median on the
#: 2-vCPU machine the benchmark was sized on (Python 3.11.7, OpenBLAS
#: 0.3.31, one BLAS thread).  Only the unit of ``solve_s`` depends on it.
REFERENCE_KERNEL_S = 0.4e-3
#: wall time between samples; the probe costs about 1.5% of the pass
INTERVAL_S = 0.05

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))


def kernel() -> float:
    """A fixed mix of interpreter work (float arithmetic, dict stores) and
    one small dense complex ``eig``, the two kinds of work the workloads do."""
    s = 0.0
    table = {}
    for i in range(600):
        s += (i * 0.5) ** 0.5 - i % 7
        table[i & 63] = s
    return s + float(scipy.linalg.eigvals(_MATRIX).real.sum())


class SpeedProbe:
    """Samples :func:`kernel` while the ``with`` block runs.

    ``clock()`` is ``time.perf_counter()`` minus the time spent in the probe.
    A sample is also taken on entry and on exit, so a pass shorter than the
    interval still has two.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.spent = 0.0
        self.samples: list[float] = []
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        # the first run brings the kernel back into the caches the pass
        # evicted it from; only the second is a sample of the host's speed
        kernel()
        middle = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - middle)
        self.spent += end - start

    def speed(self) -> float:
        """Mean host speed over the samples, relative to the reference."""
        return statistics.fmean(REFERENCE_KERNEL_S / d for d in self.samples)

    def __enter__(self) -> "SpeedProbe":
        start = time.perf_counter()
        for _ in range(5):  # warm the kernel's code paths before timing it
            kernel()
        self.spent += time.perf_counter() - start
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
