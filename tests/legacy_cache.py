"""The counter cache as it was before it found lines and sketch slots by dict.

``CounterCache`` is a verbatim copy, with ``_Line`` and ``_mix``, of the
cache from when ``access``, ``fill_clean`` and ``reset`` scanned a set's
ways for the counter's flat index, and the frequency sketch rehashed a
counter's slots on every access and every estimate.

Tests run it beside ``pracsim.cache`` as a reference for differential
tests; nothing under ``src/`` imports this module.
"""

from typing import Callable, List

from pracsim.cache import ASSOC, SKETCH_CAP, CacheConfig
from pracsim.errors import ConfigError
from pracsim.geometry import DramGeometry

_M64 = (1 << 64) - 1
_SEED_BASE = 0xA0761D6478BD642F
_SEED_STEP = 0xE7037ED1A0B428DB


class _Line:
    __slots__ = ("flat", "value", "dirty")

    def __init__(self, flat, value):
        self.flat = flat
        self.value = value
        self.dirty = False


def _mix(x: int) -> int:
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class CounterCache:
    """Per-bank counter cache; the engine raises the alerts of cached copies.

    A hit returns the live value, so the caller can alert when it reaches
    the back-off threshold; the mitigation that follows resets the line
    through ``reset``.
    """

    def __init__(self, bank: int, config: CacheConfig, geometry: DramGeometry):
        if config.kind == "none":
            raise ConfigError("cannot instantiate a cache of kind 'none'")
        self.bank = bank
        self.config = config
        self._cpc = geometry.counters_per_counter_row
        self.num_sets = config.entries // ASSOC
        self.sets: List[List[_Line]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.admission_rejects = 0
        self.fills_rejected = 0
        self._lfu = config.kind == "tinylfu"
        if self._lfu:
            self._sketch = [
                [0] * config.sketch_width for _ in range(config.sketch_rows)
            ]
            self._seeds = [
                (_SEED_BASE + r * _SEED_STEP) & _M64 for r in range(config.sketch_rows)
            ]
            self._halve_every = config.halving_period or 10 * config.entries
            self._accesses = 0

    def _flat(self, row_id: int, byte_id: int) -> int:
        return row_id * self._cpc + byte_id

    def access(self, row_id: int, byte_id: int) -> int:
        """Look up one activation's counter: a hit absorbs the increment and
        returns the live value, at least 1; a miss returns 0."""
        flat = self._flat(row_id, byte_id)
        if self._lfu:
            self._sketch_add(flat)
        ways = self.sets[flat % self.num_sets]
        for i, line in enumerate(ways):
            if line.flat != flat:
                continue
            self.hits += 1
            value = min(255, line.value + 1)
            line.value = value
            line.dirty = True
            if i != 0:
                ways.insert(0, ways.pop(i))
            return value
        self.misses += 1
        return 0

    def fill_clean(
        self,
        row_id: int,
        byte_id: int,
        value: int,
        wb_sink: Callable[[int, int, int], bool],
    ) -> bool:
        """Install a clean copy of a just-serviced counter, best effort.

        A dirty victim's value goes through ``wb_sink``; if the sink
        refuses, the fill is abandoned and the victim stays put.
        """
        flat = self._flat(row_id, byte_id)
        ways = self.sets[flat % self.num_sets]
        for i, line in enumerate(ways):
            if line.flat == flat:
                line.value = value
                line.dirty = False
                if i != 0:
                    ways.insert(0, ways.pop(i))
                return True
        if len(ways) < ASSOC:
            ways.insert(0, _Line(flat, value))
            return True
        victim = ways[-1]
        if self._lfu and self._estimate(flat) <= self._estimate(victim.flat):
            self.admission_rejects += 1
            return False
        if victim.dirty:
            vrow, vbyte = divmod(victim.flat, self._cpc)
            if not wb_sink(vrow, vbyte, victim.value):
                self.fills_rejected += 1
                return False
            self.writebacks += 1
        ways.pop()
        ways.insert(0, _Line(flat, value))
        return True

    def reset(self, row_id: int, byte_id: int) -> None:
        """Zero a cached copy, if any, whose stored counter was mitigated.

        The line turns clean, so no later writeback restores the value
        the mitigation removed.  Its LRU position is kept.
        """
        flat = self._flat(row_id, byte_id)
        for line in self.sets[flat % self.num_sets]:
            if line.flat == flat:
                line.value = 0
                line.dirty = False
                return

    def dirty_lines(self) -> List[tuple]:
        """All dirty lines as (row_id, byte_id, value), sorted by location."""
        out = []
        for ways in self.sets:
            for line in ways:
                if line.dirty:
                    row_id, byte_id = divmod(line.flat, self._cpc)
                    out.append((row_id, byte_id, line.value))
        out.sort()
        return out

    # Frequency sketch: small saturating counters, periodically halved so
    # stale popularity ages out.

    def _sketch_add(self, flat: int) -> None:
        for row, seed in zip(self._sketch, self._seeds):
            idx = _mix(flat * 0x9E3779B97F4A7C15 + seed) % self.config.sketch_width
            if row[idx] < SKETCH_CAP:
                row[idx] += 1
        self._accesses += 1
        if self._accesses % self._halve_every == 0:
            for row in self._sketch:
                for i, v in enumerate(row):
                    row[i] = v >> 1

    def _estimate(self, flat: int) -> int:
        return min(
            row[_mix(flat * 0x9E3779B97F4A7C15 + seed) % self.config.sketch_width]
            for row, seed in zip(self._sketch, self._seeds)
        )
