"""Host speed reference: a fixed pure-Python loop timed next to the program.

The same Python code runs up to twice as fast at one moment as at another
on the shared 2-vCPU machine the reference figures come from, in phases
that last from seconds to a minute; CPU time swings with wall time, so
the cause is a slower CPU, not a descheduled process.  A fixed loop of
simulator-like work (named tuples, nested dicts, slotted objects, numpy
byte updates), run for an eighth of a call's time right before and right
after each program call, swings with it: over 150 s of alternating samples the
simulator's time per sample spread by 39% (interquartile over median)
and its ratio to the loop's by 16%, and medians of 8 samples by 23% and
8%.  Dividing each round's host times by the loop's slowdown takes most
of the swing out.

``factor()`` is the loop's measured time per chunk over REF_CHUNK_S:
above 1 when the host ran slower than the reference.  Host times are
reported divided by it, that is in seconds of a host running at the
reference speed; the raw figures and the factor go to standard error.
"""

import time
from collections import namedtuple

import numpy as np

CHUNK_ITERS = 500
REF_CHUNK_S = 0.001  # one chunk's time at the reference speed
SHARE = 0.25  # calibration time per second of program time

_Event = namedtuple("_Event", "slot bank row")


class _Entry:
    __slots__ = ("row", "byte", "n")

    def __init__(self, row, byte):
        self.row = row
        self.byte = byte
        self.n = 0


class Meter:
    """The reference loop and its workspace, allocated once per run."""

    def __init__(self):
        self._values = np.zeros((64, 64, 1024), dtype=np.uint8)
        self._position = 0

    def _chunk(self) -> None:
        """A fixed slice of simulator-like work: events, dicts, slots, numpy bytes."""
        values = self._values
        p = self._position
        rows = {}
        for i in range(CHUNK_ITERS):
            x = (p + i) * 2654435761 % 4194304
            ev = _Event(i, x % 64, x // 64)
            r, b = divmod(ev.row, 1024)
            entries = rows.get(r)
            if entries is None:
                entries = rows[r] = {}
            entry = entries.get(b)
            if entry is None:
                entry = entries[b] = _Entry(r, b)
            entry.n += 1
            v = int(values[ev.bank, r % 64, b])
            values[ev.bank, r % 64, b] = (v + 1) & 255
            if len(entries) >= 4:
                sorted(entries.values(), key=lambda e: e.n)
                rows.pop(r)
        self._position = (p + CHUNK_ITERS) % 4194304

    def calibrate(self, seconds: float):
        """Run about ``seconds`` worth of chunks at the reference speed.

        Returns (chunks run, seconds they took).
        """
        n = max(1, round(seconds / REF_CHUNK_S))
        t0 = time.perf_counter()
        for _ in range(n):
            self._chunk()
        return n, time.perf_counter() - t0


def factor(chunks: int, seconds: float) -> float:
    """Slowdown against the reference speed seen over the given chunks."""
    return seconds / chunks / REF_CHUNK_S
