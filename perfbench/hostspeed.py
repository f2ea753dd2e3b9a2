"""Host speed, sampled while an interval is timed.

The host this benchmark is meant for changes speed by up to 1.5-2x, in
states that last from seconds to minutes, and a whole run can fall into a
slow state. So the judged times are scaled to the host's reference speed:
an interval is multiplied by REF_PROBE_S / (median duration of a fixed
pure-Python loop of float arithmetic and math calls, the probe, sampled over
that interval; the median, because a probe the OS interrupts reads several
times too slow). Of the probes tried (an integer loop, this float loop, a
pointer chase through a large list, a dict chase, numpy on a 4 MB array),
this one tracked the slowdown of the package's ops best.

`Speed.start()` takes BRACKET probes, then arms a timer that takes one
probe every SAMPLE_PERIOD_S (SIGALRM; the handler runs in the main thread
between bytecodes, so a probe never runs inside a C call).
`Speed.stop()` disarms it, takes BRACKET more probes and returns the scale
factor. Time spent in probes while the timer was armed is kept in
`Speed.spent`, so a caller that ran the probes in its own thread can take it
off the interval.

A probe is slowed by the host, but also by the process's own other threads
(a worker or a spinning BLAS pool that an op leaves running). Scaling then
would hide the program's own cost, so an interval during whose probes other
threads of this process used more than a tenth of the probe time is not
scaled (factor 1) and `Speed.disturbed` says so.
"""

from __future__ import annotations

import signal
import statistics
import time
from math import cos, exp
from time import perf_counter

PROBE_LOOP = 6000
REF_PROBE_S = 0.00100  # one probe on the reference host (2-vCPU Xeon VM) at its fast speed
SAMPLE_PERIOD_S = 0.05
BRACKET = 5


class Speed:
    def __init__(self):
        self.samples: list[float] = []
        self.others = 0.0  # CPU time of other threads of this process during probes
        self.spent = 0.0  # time in probes taken by the timer
        self.disturbed = False

    def probe(self) -> float:
        cpu, own = time.process_time(), time.thread_time()
        t0 = perf_counter()
        s = 0.0
        for i in range(PROBE_LOOP):
            s += exp(-1e-4 * i) * cos(0.5 * i)
        elapsed = perf_counter() - t0
        self.others += (time.process_time() - cpu) - (time.thread_time() - own)
        self.samples.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.probe()
        self.spent += perf_counter() - t0

    def start(self, timer: bool = True) -> None:
        """Probe, then arm the timer unless the interval runs in another
        process (there the probes would measure that process's load on
        the shared CPUs rather than the host)."""
        self.samples.clear()
        self.others = 0.0
        for _ in range(BRACKET):
            self.probe()
        self._armed = timer
        if timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> float:
        """Disarm the timer; the scale factor of the interval since start()."""
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(BRACKET):
            self.probe()
        self.disturbed = self.others > 0.1 * sum(self.samples)
        if self.disturbed:
            return 1.0
        return REF_PROBE_S / statistics.median(self.samples)
