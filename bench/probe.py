"""Machine-speed probes: fixed pieces of work timed a few times a second
while the workload runs, to tell the program's speed from the machine's.

The shared host this benchmark runs on changes speed by up to 1.8x for
seconds at a time, and for tens of seconds now and then, so the same code
measured 15% to 35% apart from run to run whatever statistic of raw unit
times was taken. A SIGALRM timer runs the probes every INTERVAL_S seconds,
between two bytecodes of whatever the program is doing; ``clock()`` leaves
their time out, so units timed with it cost what the program costs. There
are two probes, timed separately: ``python``, dict and tuple operations,
and ``array``, a float32 GEMM of the paper's batch and width that streams
an 8 MiB matrix. Each phase of a workload is set against the one that does
its kind of work (``Workload.array_phases``), over the probes around each
unit (``probe_s``). The probes belong to the
benchmark, not to the program: a change to the program moves the
unit/probe ratio in full, a change of machine state far less than it moves
the unit's time.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25


class Probe:
    """The probes, a few milliseconds each on the reference machine."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((32, 1000)).astype(np.float32)
        self.w = rng.standard_normal((1000, 2000)).astype(np.float32) * 0.01
        self.kinds = {"python": self.python, "array": self.array}
        for _ in range(3):   # warm caches and the allocator
            for work in self.kinds.values():
                work()

    def python(self) -> float:
        """Dict and tuple operations, like the n-gram tables and the tape."""
        counts: dict[tuple[int, int, int], int] = {}
        for i in range(10000):
            key = (i % 977, i % 331, i % 17)
            counts[key] = counts.get(key, 0) + 1
        return len(counts)

    def array(self) -> float:
        """A float32 GEMM of the paper's batch and width, like large-model
        training and loading large arrays."""
        return float((self.x @ self.w)[0, 0])


class SpeedSampler:
    """Runs a Probe from a SIGALRM interval timer while started."""

    def __init__(self):
        self.probe = Probe()
        self.starts: list[float] = []   # perf_counter at each firing
        self.durations: dict[str, list[float]] = {kind: [] for kind in self.probe.kinds}
        self.probe_total = 0.0

    def _run(self, signum, frame):
        fired = time.perf_counter()
        started = fired
        for kind, work in self.probe.kinds.items():
            work()
            done = time.perf_counter()
            self.durations[kind].append(done - started)
            started = done
        self.starts.append(fired)
        self.probe_total += started - fired

    def start(self):
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter() without the time spent in the probe so far."""
        while True:
            total = self.probe_total
            now = time.perf_counter()
            if total == self.probe_total:   # no probe ran between the two reads
                return now - total

    def probe_s(self, kind: str, start: float, end: float) -> float:
        """Median time of one kind of probe from one interval before ``start``
        to one interval after ``end`` (perf_counter times), asked once the run
        is over."""
        near = [d for s, d in zip(self.starts, self.durations[kind])
                if start - INTERVAL_S <= s <= end + INTERVAL_S]
        if not near:   # a long C call held the signal back: take the closest probe
            middle = (start + end) / 2
            near = [min(zip(self.starts, self.durations[kind]),
                        key=lambda probe: abs(probe[0] - middle))[1]]
        return statistics.median(near)
