"""Host-speed probe: times at a reference host speed on a shared, noisy host.

On a shared machine the same code runs up to ~60% slower for seconds at a
time (other tenants; CPU time tracks wall time, so it is throughput, not
scheduling). A fixed probe kernel of small NumPy operations and Python
arithmetic, independent of featalign, slows down with the workload:
timing both alternately for a minute gave a coefficient of variation of
14.5% for each but 3% for their ratio.

The probe runs between benchmark items at most every ``interval_s`` (and,
through ``polling``, between calls inside a long item). Each measured
interval is reported as ``raw / factor``, where the factor is the median
probe time around the interval over ``REFERENCE_MS``: seconds at the
reference host speed. Probe time inside an interval is subtracted first.
Raw times are kept in the result record.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import statistics
import time

import numpy as np

REFERENCE_MS = 2.1  # probe time on an uncontended host of the reference machine


class SpeedProbe:
    def __init__(self, interval_s: float = 0.1, window_s: float = 0.5):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 3))
        self._b = rng.normal(size=(64, 3, 6))
        self.interval_s = interval_s
        self.window_s = window_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples_ms: list[float] = []

    def _kernel(self) -> float:
        acc = 0.0
        for i in range(40):
            x = self._a * (1.0 + 1e-3 * i)
            n = np.linalg.norm(x, axis=1)
            w = np.where(n < 1.0, 1.0, 1.0 / n)
            h = np.einsum("ncx,n,ncy->xy", self._b, w, self._b)
            acc += float(np.linalg.solve(h + np.eye(6), h[0]).sum())
            acc += sum(k * 0.5 for k in range(20))
        return acc

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.samples_ms.append(1000.0 * (end - start))

    def poll(self) -> None:
        """Sample if the last sample is older than the interval."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.interval_s:
            self.sample()

    @contextlib.contextmanager
    def polling(self, module, names):
        """Poll before every call of ``module.<name>`` while the block runs.

        Names the module does not bind are skipped. Yields a dict that maps
        each wrapped name to the (start, end) times of its calls, taken
        after the poll.
        """
        originals = {name: getattr(module, name) for name in names if hasattr(module, name)}
        calls = {name: [] for name in originals}

        def polled(original, spans):
            @functools.wraps(original)
            def call(*args, **kwargs):
                self.poll()
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    spans.append((start, time.perf_counter()))

            return call

        for name, original in originals.items():
            setattr(module, name, polled(original, calls[name]))
        try:
            yield calls
        finally:
            for name, original in originals.items():
                setattr(module, name, original)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Median probe time around [start, end] (whole run if omitted)
        over the reference: > 1 means the host ran slow."""
        if not self.samples_ms:
            self.sample()
        if start is None:
            return statistics.median(self.samples_ms) / REFERENCE_MS
        lo = bisect.bisect_left(self.ends, start - self.window_s)
        hi = bisect.bisect_right(self.starts, end + self.window_s)
        near = self.samples_ms[lo:hi]
        if not near:
            nearest = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - start))
            near = [self.samples_ms[nearest]]
        return statistics.median(near) / REFERENCE_MS

    def probe_seconds(self, start: float, end: float) -> float:
        """Probe time spent inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(seconds at reference speed, raw seconds) of one interval."""
        raw = end - start - self.probe_seconds(start, end)
        return raw / self.factor(start, end), raw
