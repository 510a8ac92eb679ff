"""Host-speed reference for the gfs benchmark.

The benchmark shares its host with other machines' work.  Measured on a
2-vCPU guest, passes over task lists of the same size took 1.5 s in one run
and 3.7 s in a run a minute later, and such speed regimes last tens of
seconds, so no statistic taken inside one run removes them.  The benchmark
therefore runs a fixed reference kernel, which never touches gfs, between
its tasks (every INTERVAL_S of task time) and around each set-up probe, and
rescales each measured time by NOMINAL_S / (median of the reference times
within WINDOW_S of it).  The rescaled times read as seconds on the host at
the reference's nominal speed; a change to gfs scales them by the same
factor as it scales raw times.
"""

import time

import numpy as np

# About the median duration of `kernel` on the reference host (2-vCPU Xeon
# guest, Python 3.11, numpy 2.4), in seconds.
NOMINAL_S = 0.003
# Task time between two reference samples.
INTERVAL_S = 0.05
# A task is rescaled by the samples taken within this many seconds of it.
WINDOW_S = 1.5


class HostSpeed:
    """Reference samples, each stored as (midpoint time, seconds)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(12, 12)) + 5.0 * np.eye(12)
        self._big = rng.normal(size=400_000)
        self._floats = [float(x) for x in self._big[:25_000]]
        self._busy = 0.0

    def kernel(self):
        """Fixed mix of interpreter loops, small dense solves and a sweep
        over a few megabytes, like a gfs task."""
        acc = 0
        for i in range(20000):
            acc += i * i
        a = self._a
        for _ in range(40):
            np.linalg.solve(a, a @ a[:, 0])
        total = 0.0
        for x in self._floats:
            total += x
        return acc, total + float(np.dot(self._big, self._big))

    def sample(self):
        """Run the kernel once; returns (midpoint time, seconds)."""
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self._busy = 0.0
        return 0.5 * (t0 + t1), t1 - t0

    def after_task(self, seconds, samples):
        """Account one task's seconds; append a sample to `samples` once
        INTERVAL_S of task time has passed since the last one."""
        self._busy += seconds
        if self._busy >= INTERVAL_S:
            samples.append(self.sample())


def factor(samples):
    """Multiplier that rescales raw seconds to the nominal host speed."""
    return NOMINAL_S / float(np.median([s for _, s in samples]))


def task_factors(midpoints, samples):
    """Multiplier for each task (given by its midpoint time): from the
    samples within WINDOW_S of it, or the two nearest when fewer are."""
    when = np.array([t for t, _ in samples])
    secs = np.array([s for _, s in samples])
    out = []
    for t in midpoints:
        gap = np.abs(when - t)
        near = secs[gap <= WINDOW_S]
        if len(near) < 2:
            near = secs[np.argsort(gap)[:2]]
        out.append(NOMINAL_S / float(np.median(near)))
    return out
