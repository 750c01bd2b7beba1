"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared host the CPU speed a process gets moves by up to ~1.7x, in
spells of a fraction of a second to minutes, with no idle time to show for
it: process time and wall time move together, so neither best-of-N nor CPU
time removes it. The benchmark therefore samples this kernel, which never
changes and uses no code of the library, every few milliseconds while the
programs run, and reports each program's times in *reference seconds*:
each measured time times ``REF_S`` over the kernel's mean time while it
ran. A slower library reads slower; a slower machine slows the kernel and
the program alike and cancels out.

The kernel does what the engine does most: it walks a tree of small frozen
dataclasses, dispatching on ``isinstance``, and rebuilds it with renamed
leaves through a dict. Its recursion is shallow, because it also runs from
a signal handler on top of the library's own stack.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

# About the median kernel time on the 2-core shared x86-64 host the
# benchmark was tuned on; reported times are seconds at that speed.
REF_S = 0.2e-3
PERIOD_S = 0.01  # one kernel sample every 10 ms of work (~4% overhead)
SPAN_S = 0.05  # shorter spans take their speed from the 50 ms around them


@dataclass(frozen=True)
class _Leaf:
    name: str


@dataclass(frozen=True)
class _Node:
    tag: int
    left: object
    right: object


def _tree(depth: int, i: int):
    if depth == 0:
        return _Leaf(f"v{i % 7}")
    return _Node(i % 3, _tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1))


def _rename(t, env: dict):
    if isinstance(t, _Leaf):
        return _Leaf(env.get(t.name, t.name))
    left = _rename(t.left, env)
    right = _rename(t.right, env)
    if t.tag == 2:
        left, right = right, left
    return _Node(t.tag, left, right)


def _size(t) -> int:
    if isinstance(t, _Leaf):
        return 1
    return 1 + _size(t.left) + _size(t.right)


_TREES = [_tree(4, i) for i in range(8)]
_ENV = {f"v{i}": f"w{i}" for i in range(0, 7, 2)}


def kernel() -> int:
    """The fixed unit of reference work; returns a checksum."""
    return sum(_size(_rename(t, _ENV)) for t in _TREES)


def kernel_s() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Meter:
    """Kernel samples taken from an interval timer while work runs.

    ``clock`` is ``time.perf_counter`` minus the time spent in samples, so
    work timed with it does not pay for the sampling. Sample times are on
    the same clock.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()  # warms the caches the interrupted work left cold
        took = kernel_s()
        self.at.append(t0 - self.stolen)
        self.took.append(took)
        self.stolen += time.perf_counter() - t0
        self._busy = False

    @contextmanager
    def running(self):
        """Sample now, every PERIOD_S seconds, and when the block ends."""
        self._sample(None, None)
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        self._sample(None, None)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second for work that ran from
        ``start`` to ``end`` on ``clock``: ``REF_S`` over the mean of the
        samples taken in that span, widened evenly to SPAN_S if it is
        shorter (the nearest samples if there are none)."""
        pad = max(0.0, SPAN_S - (end - start)) / 2
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.took), hi + 1)
        return REF_S / statistics.fmean(self.took[lo:hi])
