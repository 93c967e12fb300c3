"""Host-speed correction for wall times measured on a shared machine.

On a shared 2-CPU KVM guest the same code runs up to ~1.8x slower for
stretches of 0.1 s to minutes; CPU time slows with wall time, so the CPU itself
is slower, not just busy.  `SpeedSampler` times two fixed probes right before,
every `TICK_S` during (in turn), and right after a measured interval, and
`estimate` turns them into a slowdown: the geometric mean, over the probes, of
the mean probe time during the interval over the probe's reference time.
`corrected` divides the interval's wall time by it: seconds at the host speed
where each probe takes its reference time.  The probes do no sigclass work,
so the same host speed gives the same slowdown on every commit.
"""

import gc
import math
import random
import signal
import statistics
import time

import numpy as np

TICK_S = 0.02  # probe interval during a measurement (a tick takes ~0.3 ms)
BRACKET_PROBES = 5  # probes of each kind right before and right after a measurement
MIN_TICKS = 3  # fewer ticks of a probe than this and its bracket probes are used
_RNG = random.Random(0)
_FLOATS = [_RNG.gauss(0.0, 1.0) for _ in range(100)]
_NP_RNG = np.random.default_rng(0)
_A = _NP_RNG.normal(size=(64, 40))
_B = _NP_RNG.normal(size=(40, 80))


def _csv_text():
    """Interpreter-bound: format 100 floats as CSV text."""
    ",".join(repr(v) for v in _FLOATS)


def _numpy_kernel():
    """Small-array numpy: a matmul and a masked logistic on its 5120 outputs."""
    z = _A @ _B
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)


# name: (work, reference seconds: its warm median on an idle CPU of that guest)
PROBES = {"csv_text": (_csv_text, 100e-6), "numpy_kernel": (_numpy_kernel, 180e-6)}


def probe(name):
    """Wall seconds of one run of probe `name`, with the garbage collector held
    off so the time does not depend on how many objects the measured code keeps
    alive."""
    work = PROBES[name][0]
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        work()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """Probe times around and during one measurement, ticks from SIGALRM.

    The handler runs on the main thread between bytecodes, so in-process work
    is probed on the CPU it is running on.  Ticks take the probes in turn.
    """

    def __init__(self):
        self.ticks = {name: [] for name in PROBES}
        self.bracket = {name: [] for name in PROBES}
        self._turn = 0

    def _tick(self, signum, frame):
        name = list(PROBES)[self._turn % len(PROBES)]
        self._turn += 1
        probe(name)  # the measured code has evicted the probe from cache; time it warm
        self.ticks[name].append(probe(name))

    def _bracket(self):
        for name in PROBES:
            self.bracket[name] += [probe(name) for _ in range(BRACKET_PROBES)]

    def __enter__(self):
        self._bracket()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._bracket()

    def estimate(self):
        """Slowdown of the host during the interval; 1.0 is the reference speed.

        Per probe a mean, not a median: a probe that the host preempts reads
        long, and the measured code lost that time too.  The two probes slow
        differently (interpreter-bound and numpy-bound work), and stages mix
        both kinds, so their ratios are combined by a geometric mean.
        """
        logs = []
        for name, (_, ref_s) in PROBES.items():
            times = self.ticks[name] if len(self.ticks[name]) >= MIN_TICKS else self.bracket[name]
            logs.append(math.log(statistics.fmean(times) / ref_s))
        return math.exp(statistics.fmean(logs))


def corrected(wall_s, slowdown):
    """Wall seconds rescaled to the reference host speed."""
    return wall_s / slowdown
