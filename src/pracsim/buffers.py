"""Counter-request buffers: per-activation baseline and coalescing designs.

Counter updates queue in a small buffer and are serviced in batches, one
batch at most in the shadow of each data activation.  An entry holds the
updates pending for its counter, one per activation it has absorbed; a
row holds at most the per-row burst size M entries, so a row's batch
fits in one burst.  Three conditions trigger service, in priority order:

  k_limit      an entry's pending updates reached the staleness limit K,
               so its whole row is flushed before counters drift too far
  buffer_full  an insertion found no free slot; a victim row chosen by
               the design is flushed to make room
  m_ready      a row accumulated M entries and is serviced as one batch

A row that reaches M entries while the current shadow is already taken
(the insertion that filled it also evicted a victim, or a cache
writeback landed in it) is held and serviced at the next opportunity.

The designs differ only in victim selection, so one class serves all
four and a per-design function picks the victim: per-row buffers never
fill a shared pool, FCFS evicts the row of the oldest entry, sorted
eviction picks the row with the most entries, and approx-max tracks a
running (row, count) pair instead of sorting.
"""

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .errors import ConfigError

TRIG_M_READY = "m_ready"
TRIG_BUFFER_FULL = "buffer_full"
TRIG_K_LIMIT = "k_limit"
TRIG_DRAIN = "drain"

TRIGGERS = (TRIG_M_READY, TRIG_BUFFER_FULL, TRIG_K_LIMIT, TRIG_DRAIN)

DESIGNS = ("chronus", "perrow", "unified_fcfs", "unified_sorted", "unified_approxmax")

K_TRIGGER_MODES = ("pending", "repcount")


@dataclass(frozen=True)
class BufferConfig:
    """Shared buffer parameters; ``capacity`` is ignored by per-row buffers."""

    design: str = "unified_approxmax"
    capacity: int = 64
    m_batch: int = 4
    k_limit: int = 4
    k_trigger: str = "pending"

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ConfigError(f"unknown design {self.design!r}, expected one of {DESIGNS}")
        if self.m_batch < 1:
            raise ConfigError(f"m_batch must be positive, got {self.m_batch}")
        if self.k_limit < 1:
            raise ConfigError(f"k_limit must be positive, got {self.k_limit}")
        if self.capacity < self.m_batch:
            raise ConfigError(
                f"capacity {self.capacity} must be at least m_batch {self.m_batch}"
            )
        if self.k_trigger not in K_TRIGGER_MODES:
            raise ConfigError(
                f"unknown k_trigger {self.k_trigger!r}, expected one of {K_TRIGGER_MODES}"
            )

    @property
    def pending_limit(self) -> int:
        """Pending updates at which an entry forces a row flush.

        It is also the staleness bound a replay of the service log must
        see hold: K, or K + 1 when K counts repeats after the first.
        """
        return self.k_limit + 1 if self.k_trigger == "repcount" else self.k_limit


class BatchItem(NamedTuple):
    """One serviced counter: pending increments and an optional absolute write.

    A writeback that coalesced with queued increments yields a single
    item; the absolute value is written first, then the increments.
    """

    byte_id: int
    increments: int
    wb_value: Optional[int] = None


class ServiceBatch(NamedTuple):
    """One counter-row activation worth of work."""

    bank: int
    row_id: int
    items: Tuple[BatchItem, ...]
    trigger: str


class ChronusBuffer:
    """Baseline: every activation's counter update is serviced on the spot."""

    def __init__(self, bank: int):
        self.bank = bank

    def insert(self, row_id: int, byte_id: int) -> ServiceBatch:
        return ServiceBatch(
            self.bank, row_id, (BatchItem(byte_id, 1),), TRIG_M_READY
        )

    def drain(self) -> List[ServiceBatch]:
        return []

    def __len__(self):
        return 0


class _BufferedBase:
    """The coalescing buffer of every design but the baseline; one per bank.

    Entries are kept per row as {(byte_id, is_wb): value}, where the
    value of an increment entry is its pending updates and that of a
    writeback entry the absolute value to write.  ``_capacity`` None
    means no shared pool (per-row design).  ``_full_rows`` holds rows at
    M entries whose service had to be deferred.

    Both dict levels stay in arrival order: a row enters ``_rows`` with
    its first entry and leaves only whole, and entries are never removed
    from a row on their own.  So the first row of ``_rows`` holds the
    oldest buffered entry, and a row's entries iterate oldest first.

    ``(_meta_row, _meta_count)`` is approx-max's tracked pair, kept for
    every design.  An insertion promotes its row when the row's entry
    count beats the tracked count; when the tracked row's entries leave,
    the pair falls back to the oldest remaining entry's row, so it can
    go stale low until later insertions catch it up.
    """

    def __init__(self, bank: int, config: BufferConfig):
        self.bank = bank
        self.config = config
        self._rows: Dict[int, Dict[tuple, int]] = {}
        self._total = 0
        self._full_rows = set()
        self._pick_victim = _VICTIM_PICKS[config.design]
        self._capacity = None if self._pick_victim is None else config.capacity
        self._pending_limit = config.pending_limit
        self._meta_row: Optional[int] = None
        self._meta_count = 0

    def __len__(self):
        return self._total

    def insert(self, row_id: int, byte_id: int) -> Optional[ServiceBatch]:
        """Queue one activation's counter update; maybe service a batch."""
        entries = self._rows.get(row_id)
        if entries is not None:
            key = (byte_id, False)
            pending = entries.get(key)
            if pending is not None:
                pending += 1
                entries[key] = pending
                count = len(entries)
                if count > self._meta_count:
                    self._meta_row = row_id
                    self._meta_count = count
                if pending >= self._pending_limit:
                    return self._flush_row(row_id, TRIG_K_LIMIT)
                return self._service_deferred()
        if row_id in self._full_rows:
            # Deferred from an earlier shadow; service it before growing it.
            batch = self._flush_row(row_id, TRIG_M_READY)
            self._allocate(row_id, byte_id)
            return batch
        if self._capacity is not None and self._total >= self._capacity:
            batch = self._flush_row(self._pick_victim(self), TRIG_BUFFER_FULL)
            self._allocate(row_id, byte_id)
            return batch
        self._allocate(row_id, byte_id)
        if self._pending_limit <= 1:
            return self._flush_row(row_id, TRIG_K_LIMIT)
        if len(self._rows[row_id]) >= self.config.m_batch:
            return self._flush_row(row_id, TRIG_M_READY)
        return self._service_deferred()

    def try_insert_writeback(self, row_id: int, byte_id: int, value: int) -> bool:
        """Queue an absolute counter write; False if no slot can take it."""
        entries = self._rows.get(row_id)
        if entries is not None and (byte_id, True) in entries:
            entries[byte_id, True] = value
            return True
        count = len(entries) if entries is not None else 0
        if count >= self.config.m_batch:
            return False
        if self._capacity is not None and self._total >= self._capacity:
            return False
        self._allocate(row_id, byte_id, True, value)
        return True

    def reset_writeback(self, row_id: int, byte_id: int) -> None:
        """A mitigation zeroed this counter: a queued writeback now writes 0."""
        # The entry stays put: removing it would break arrival order.
        entries = self._rows.get(row_id)
        if entries is not None and (byte_id, True) in entries:
            entries[byte_id, True] = 0

    def drain(self) -> List[ServiceBatch]:
        """Flush everything in deterministic order (rows ascending), one
        batch per row."""
        batches = [
            ServiceBatch(self.bank, row_id, tuple(_merge_items(entries)), TRIG_DRAIN)
            for row_id, entries in sorted(self._rows.items())
        ]
        self._rows.clear()
        self._total = 0
        self._full_rows.clear()
        self._meta_row = None
        self._meta_count = 0
        return batches

    def _allocate(self, row_id, byte_id, is_wb=False, value=1):
        entries = self._rows.get(row_id)
        if entries is None:
            entries = self._rows[row_id] = {}
        entries[byte_id, is_wb] = value
        self._total += 1
        count = len(entries)
        if count >= self.config.m_batch:
            self._full_rows.add(row_id)
        if count > self._meta_count:
            self._meta_row = row_id
            self._meta_count = count

    def _flush_row(self, row_id, trigger):
        entries = self._rows.pop(row_id)
        self._total -= len(entries)
        self._full_rows.discard(row_id)
        if row_id == self._meta_row:
            if self._total:
                oldest = next(iter(self._rows))
                self._meta_row = oldest
                self._meta_count = len(self._rows[oldest])
            else:
                self._meta_row = None
                self._meta_count = 0
        return ServiceBatch(self.bank, row_id, tuple(_merge_items(entries)), trigger)

    def _service_deferred(self):
        if self._full_rows:
            return self._flush_row(min(self._full_rows), TRIG_M_READY)
        return None


def _merge_items(entries: Dict[tuple, int]) -> List[BatchItem]:
    """Collapse a row's entries, given in arrival order, into batch items.

    A writeback and an increment entry for the same byte merge into one
    item placed at the earlier arrival, so items come oldest first.
    """
    by_byte: Dict[int, list] = {}
    for (byte_id, is_wb), value in entries.items():
        slot = by_byte.get(byte_id)
        if slot is None:
            by_byte[byte_id] = [0, value] if is_wb else [value, None]
        elif is_wb:
            slot[1] = value
        else:
            slot[0] += value
    return [BatchItem(byte_id, inc, wb) for byte_id, (inc, wb) in by_byte.items()]


def _oldest_row(buf: _BufferedBase) -> int:
    """FCFS: the row of the oldest buffered entry."""
    return next(iter(buf._rows))


def _most_entries_row(buf: _BufferedBase) -> int:
    """Sorted: the row with the most entries, ties to the lowest row id."""
    best_row, best_count = -1, 0
    for row_id, entries in buf._rows.items():
        count = len(entries)
        if count > best_count or (count == best_count and row_id < best_row):
            best_row, best_count = row_id, count
    return best_row


def _tracked_row(buf: _BufferedBase) -> int:
    """Approx-max: the tracked row, which approximates the sorted pick."""
    return buf._meta_row


# The row each design flushes when its shared pool is full; per-row
# buffers have no shared pool to fill.
_VICTIM_PICKS = {
    "perrow": None,
    "unified_fcfs": _oldest_row,
    "unified_sorted": _most_entries_row,
    "unified_approxmax": _tracked_row,
}


def make_buffer(
    bank: int, config: BufferConfig
) -> Union[ChronusBuffer, _BufferedBase]:
    """Instantiate the configured design for one bank."""
    if config.design == "chronus":
        return ChronusBuffer(bank)
    return _BufferedBase(bank, config)
