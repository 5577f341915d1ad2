"""Host-speed sampler: a tiny fixed kernel timed every few milliseconds.

On a shared VM other tenants slow this CPU down, by up to about 1.8x, in
stretches that last from milliseconds to minutes; a secure call's wall and
CPU time move with them, so two 40 s runs of the same code can differ by a
third. While the benchmark measures, a background thread of its process
(and so on its CPU) times ``tick`` every ``PERIOD_S``; a secure call's
times are divided by the mean slowdown of the ticks taken during the call.
The tick is interpreter work on a list that stays in the first-level
cache, like most of a secure call, and uses nothing from ``vsmm``, so a
change to the library changes the call times and not the scale. It holds
the interpreter lock for about 40 µs in every 20 ms.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.02
# The mean tick taken during secure calls while a 2-vCPU Xeon VM was quiet
# (back to back, with the list in cache, a tick takes about 30 µs there);
# a tick that takes this long reads 1.0.
TICK_REF_S = 34e-6
# A tick slower than this was descheduled, not slowed down.
MAX_SLOWDOWN = 4.0


def tick() -> float:
    """Seconds taken by a fixed run of interpreter work on a 64-item list."""
    items = list(range(64))
    t0 = time.perf_counter()
    for i in range(400):
        j = (i * 40503) & 63
        items[i & 63], items[j] = items[j], items[i & 63]
    return time.perf_counter() - t0


class HostSampler:
    """Context manager running the tick thread; ``slowdown`` reads it."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []   # (end time, slowdown)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-sampler",
                                        daemon=True)

    def _run(self) -> None:
        while True:
            self.ticks.append((time.perf_counter(),
                               min(tick() / TICK_REF_S, MAX_SLOWDOWN)))
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> HostSampler:
        self._thread.start()
        while not self.ticks:
            time.sleep(PERIOD_S / 4)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the ticks that ended in ``[start, end]``
        (``time.perf_counter`` values), or of the last tick before ``end``
        if none did."""
        ticks = list(self.ticks)
        inside = [s for t, s in ticks if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        return next(s for t, s in reversed(ticks) if t <= end)
