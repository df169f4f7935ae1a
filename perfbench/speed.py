"""Host-speed calibration for ``wall_s``.

On a shared virtual machine the speed of a vCPU changes by up to two times
within seconds, while the process's CPU time still equals its wall time (see
README.md, "Why wall_s is calibrated"). So the benchmark times a fixed
reference computation while the workload runs, every ``INTERVAL_S`` seconds
from a ``SIGALRM`` handler on the main thread, and rescales the wall time of
each command to the host speed at which the reference takes ``REF_S`` seconds.
The samples are taken on the main thread, which runs the commands, because
the machine's vCPUs change speed independently of each other. The reference does not touch ``visco_pt``, so a change to the program cannot
change it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

REF_S = 0.0006  # nominal seconds of one reference computation
INTERVAL_S = 0.025  # seconds between two reference samples while commands run
_MATRIX = np.eye(8) * 4.0 + 0.1


def reference():
    """Fixed work in the program's manner: a scalar Newton iteration in Python
    floats, interpreted dict and integer work, and small NumPy and LAPACK calls."""
    total = 0.0
    for k in range(30):
        f, g = 1.3 + k * 1e-3, 1.1
        for _ in range(8):
            s = f / g - 1.0
            df = s / g + 0.2 * s ** 3 / g - 0.1
            dg = -s * f / (g * g) + (g - 1.0) + 0.01 * math.log(g)
            f, g = f - 0.3 * df, g - 0.3 * dg
        total += f + g
    table = {}
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i * 3 % 7
    x = np.ones(8)
    for _ in range(10):
        x = np.linalg.solve(_MATRIX, np.sqrt(_MATRIX @ x + 1.0))
    return total + sum(table.values()) + float(x[0])


def time_reference():
    """CPU seconds of one reference run on this thread: waiting for another
    thread that holds the interpreter lock does not count, a slower CPU does."""
    start = time.thread_time()
    reference()
    return time.thread_time() - start


class Sampler:
    """Samples the reference every INTERVAL_S seconds while it is entered."""

    def __init__(self):
        self.samples = []  # CPU seconds of each reference run
        self.spent = 0.0  # wall seconds spent inside the handler
        self._previous = None
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(time_reference())
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples), self.spent, time.perf_counter()

    def since(self, mark):
        """(raw wall seconds, reference-speed seconds) since ``mark``, without
        the time spent sampling. The work done at reference speed is the raw
        time times the mean of REF_S / sample, over the samples taken in
        between and the last one before."""
        k, spent, start = mark
        raw = time.perf_counter() - start - (self.spent - spent)
        during = self.samples[max(k - 1, 0):]
        return raw, raw * statistics.fmean(REF_S / t for t in during)
