"""Sampling of the host's current speed on the core a workload runs on.

The benchmark shares a host whose cores switch, every few seconds, between
their full speed and about 1/1.65 of it (another tenant on the same
physical core, most likely). Each core switches on its own, so only a
probe on the workload's own core sees the speed the workload gets.

``SpeedSampler`` is a thread on that core that wakes every ``INTERVAL_S``,
runs a fixed probe of about 0.3 ms of CPU (a small stencil einsum and a
scalar loop, the kinds of work the workloads do) and records the probe's
thread CPU time. CPU time, not wall time, so that time the workload holds
the core is not counted, while a slower core is. The probe uses no thinvolt
code, so no change to the program moves it; it costs the workload about 1%
of its core.

``speed(t0, t1)`` is the mean of ``REFERENCE_PROBE_S / probe time`` over the
samples in ``[t0, t1]``: the share of full speed the core ran at. A time
measured over that interval, multiplied by it, reads in seconds at full
speed.
"""

import bisect
import threading
import time

import numpy as np

INTERVAL_S = 0.1
# The probe's CPU time on an uncontended core of the machine the benchmark was
# defined on (2-vCPU Xeon KVM guest): the scale of "full speed".
REFERENCE_PROBE_S = 0.30e-3

_CELLS = (8, 8, 4)
_KLOC = np.linspace(0.5, 1.5, int(np.prod(_CELLS)) * 64).reshape(_CELLS + (8, 8))
_PHI = np.linspace(0.0, 1.0, 9 * 9 * 5).reshape(9, 9, 5)


def _work():
    phi = _PHI
    for _ in range(8):
        corners = [phi[i : i + 8, j : j + 8, k : k + 4] for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        local = np.einsum("...ab,...b->...a", _KLOC, np.stack(corners, axis=-1))
    s = 0.0
    for i in range(1500):
        s += i * 0.5
    return float(local[0, 0, 0, 0]) + s


def probe():
    """CPU seconds of one probe, run right after an untimed one that warms the caches."""
    _work()
    start = time.thread_time()
    _work()
    return time.thread_time() - start


class SpeedSampler(threading.Thread):
    """Probes the speed of the core this thread runs on until ``stop``."""

    def __init__(self):
        super().__init__(daemon=True)
        self._halt = threading.Event()
        self._samples = []  # (perf_counter time, speed), in time order

    def run(self):
        while True:
            speed = REFERENCE_PROBE_S / probe()
            self._samples.append((time.perf_counter(), speed))
            if self._halt.wait(INTERVAL_S):
                return

    def stop(self):
        self._halt.set()
        self.join()

    def speed(self, t0, t1):
        """Mean sampled speed over [t0, t1]; the nearest sample when none falls inside."""
        samples = self._samples[:]
        times = [t for t, _ in samples]
        inside = samples[bisect.bisect_left(times, t0) : bisect.bisect_right(times, t1)]
        if inside:
            return sum(speed for _, speed in inside) / len(inside)
        return min(samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]

