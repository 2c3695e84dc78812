"""Optional byte-granular counter cache in front of the request buffer.

A hit absorbs the increment entirely inside the cache (no buffer
insertion, no counter-row activation); the cached copy is the live
value and the stored counter goes stale until the line is written back.
Lines are installed only when a serviced counter already proved warm,
i.e. after its batch applies, never on the miss itself.  Fills are best
effort: if the displaced dirty line's writeback cannot take a buffer
slot, the fill is abandoned rather than losing the delta.

Two kinds are provided: plain 4-way set-associative LRU, and the same
structure gated by a frequency-sketch admission filter that only evicts
a line for a candidate that has been seen more often.

Each set is one dict from a resident counter's flat index to its line,
oldest first: the dict is both the set's index and its LRU order.  A
counter's sketch slots come from one read-only table per sketch shape
and bank size, built on the first TinyLFU cache of that shape and
shared by every later one; a process keeps the tables of its four
latest shapes.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .counters import COUNTER_MAX
from .errors import ConfigError
from .geometry import DramGeometry

CACHE_KINDS = ("none", "lru4way", "tinylfu")
ASSOC = 4
SKETCH_CAP = 15
_M64 = (1 << 64) - 1
_SEED_BASE = 0xA0761D6478BD642F
_SEED_STEP = 0xE7037ED1A0B428DB
_HALVE = bytes(v >> 1 for v in range(256))
_CHUNK = 4096
# The counts every CounterCache keeps, which ``totals`` sums over banks.
TALLIES = ("hits", "misses", "writebacks", "admission_rejects", "fills_rejected")


@dataclass(frozen=True)
class CacheConfig:
    """Cache shape; ``kind`` "none" disables the cache entirely."""

    kind: str = "none"
    entries: int = 64
    sketch_width: int = 1024
    sketch_rows: int = 2
    halving_period: int = 0

    def __post_init__(self):
        if self.kind not in CACHE_KINDS:
            raise ConfigError(
                f"unknown cache kind {self.kind!r}, expected one of {CACHE_KINDS}"
            )
        if self.kind == "none":
            return
        if self.entries < ASSOC or self.entries % ASSOC != 0:
            raise ConfigError(
                f"cache entries must be a positive multiple of {ASSOC}, got {self.entries}"
            )
        if self.sketch_width < 1:
            raise ConfigError(f"sketch_width must be positive, got {self.sketch_width}")
        if self.sketch_rows < 1:
            raise ConfigError(f"sketch_rows must be positive, got {self.sketch_rows}")
        if self.halving_period < 0:
            raise ConfigError(
                f"halving_period must be non-negative, got {self.halving_period}"
            )


@lru_cache(maxsize=4)
def _slot_table(width: int, rows: int, counters: int) -> Tuple[memoryview, ...]:
    """One read-only view per sketch row: entry ``flat`` of view ``r`` is
    ``r * width + splitmix64(flat * 0x9E3779B97F4A7C15 + seed_r) % width``.

    numpy's uint64 arithmetic wraps mod 2**64, as the hash is defined.
    Entries take the fewest bytes that hold ``width * rows - 1``, at most
    2 at every shape ``config.resolve`` accepts; chunks of ``_CHUNK``
    counters keep the temporaries small.
    """
    table = np.empty((rows, counters), np.min_scalar_type(width * rows - 1))
    for r, row in enumerate(table):
        seed = np.uint64((_SEED_BASE + r * _SEED_STEP) & _M64)
        for lo in range(0, counters, _CHUNK):
            x = np.arange(lo, min(lo + _CHUNK, counters), dtype=np.uint64)
            x *= np.uint64(0x9E3779B97F4A7C15)
            x += seed
            x ^= x >> np.uint64(30)
            x *= np.uint64(0xBF58476D1CE4E5B9)
            x ^= x >> np.uint64(27)
            x *= np.uint64(0x94D049BB133111EB)
            x ^= x >> np.uint64(31)
            x %= np.uint64(width)
            x += np.uint64(r * width)
            row[lo : lo + _CHUNK] = x
    table.flags.writeable = False
    return tuple(memoryview(row) for row in table)


class CounterCache:
    """Per-bank counter cache; the engine raises the alerts of cached copies.

    A hit returns the live value, so the caller can alert when it reaches
    the back-off threshold; the mitigation that follows resets the line
    through ``reset``.  ``sets[s]`` maps the flat index,
    ``row_id * counters_per_counter_row + byte_id``, of each counter
    resident in set ``s`` to its line, ``value << 1 | dirty``, in LRU
    order with the oldest first.  Callers pass counters inside the
    geometry (the engine range-checks each activation first): the sketch's
    slot table has an entry for those alone.
    """

    def __init__(self, bank: int, config: CacheConfig, geometry: DramGeometry):
        if config.kind == "none":
            raise ConfigError("cannot instantiate a cache of kind 'none'")
        self.bank = bank
        self._cpc = geometry.counters_per_counter_row
        self.num_sets = config.entries // ASSOC
        self.sets: List[Dict[int, int]] = [{} for _ in range(self.num_sets)]
        for name in TALLIES:
            setattr(self, name, 0)
        self._lfu = config.kind == "tinylfu"
        if self._lfu:
            # Row r of the count-min sketch is sketch[r * width:(r + 1) * width].
            self._sketch = bytearray(config.sketch_width * config.sketch_rows)
            self._table = _slot_table(
                config.sketch_width,
                config.sketch_rows,
                geometry.counter_rows_per_bank * self._cpc,
            )
            self._halve_every = config.halving_period or 10 * config.entries
            self._until_halving = self._halve_every

    def access(self, row_id: int, byte_id: int) -> int:
        """Look up one activation's counter: a hit absorbs the increment and
        returns the live value, at least 1; a miss returns 0."""
        flat = row_id * self._cpc + byte_id
        if self._lfu:
            sketch = self._sketch
            for slots in self._table:
                i = slots[flat]
                v = sketch[i]
                if v < SKETCH_CAP:
                    sketch[i] = v + 1
            self._until_halving -= 1
            if not self._until_halving:
                self._sketch = sketch.translate(_HALVE)
                self._until_halving = self._halve_every
        ways = self.sets[flat % self.num_sets]
        line = ways.pop(flat, None)
        if line is None:
            self.misses += 1
            return 0
        self.hits += 1
        value = line >> 1
        if value < COUNTER_MAX:
            value += 1
        ways[flat] = value << 1 | 1
        return value

    def fill_clean(
        self,
        row_id: int,
        byte_id: int,
        value: int,
        wb_sink: Callable[[int, int, int], bool],
    ) -> bool:
        """Install a clean copy of a just-serviced counter, best effort.

        A resident copy is replaced.  Otherwise, in a full set, a dirty
        victim's value goes through ``wb_sink``; if the sink refuses, the
        fill is abandoned and the victim stays put.
        """
        flat = row_id * self._cpc + byte_id
        ways = self.sets[flat % self.num_sets]
        ways.pop(flat, None)
        if len(ways) == ASSOC:
            victim = next(iter(ways))
            if self._lfu and self._estimate(flat) <= self._estimate(victim):
                self.admission_rejects += 1
                return False
            line = ways[victim]
            if line & 1:
                if not wb_sink(*divmod(victim, self._cpc), line >> 1):
                    self.fills_rejected += 1
                    return False
                self.writebacks += 1
            del ways[victim]
        ways[flat] = value << 1
        return True

    def reset(self, row_id: int, byte_id: int) -> None:
        """Zero a cached copy, if any, whose stored counter was mitigated.

        The line turns clean, so no later writeback restores the value
        the mitigation removed.  Its LRU position is kept.
        """
        flat = row_id * self._cpc + byte_id
        ways = self.sets[flat % self.num_sets]
        if flat in ways:
            ways[flat] = 0

    def dirty_lines(self) -> List[tuple]:
        """All dirty lines as (row_id, byte_id, value), sorted by location."""
        return sorted(
            (*divmod(flat, self._cpc), line >> 1)
            for ways in self.sets
            for flat, line in ways.items()
            if line & 1
        )

    # Frequency sketch: small saturating counters, periodically halved so
    # stale popularity ages out.

    def _estimate(self, flat: int) -> int:
        sketch = self._sketch
        estimate = SKETCH_CAP
        for slots in self._table:
            v = sketch[slots[flat]]
            if v < estimate:
                estimate = v
        return estimate


def totals(caches: Sequence[CounterCache]) -> dict:
    """Each tally summed over ``caches``, and the hit rate of their
    accesses (None if there were none)."""
    out = {name: sum(getattr(c, name) for c in caches) for name in TALLIES}
    accesses = out["hits"] + out["misses"]
    out["hit_rate"] = out["hits"] / accesses if accesses else None
    return out
