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
Under a limit of one pending update, a new entry is due at once: it is
serviced with its row, or alone while its row is held full, so a held
row or a full pool never delays it past its own shadow.

The designs differ only in victim selection, so one class serves all
four and a per-design function picks the victim: per-row buffers never
fill a shared pool, FCFS evicts the row of the oldest entry, sorted
eviction picks the row with the most entries, and approx-max tracks a
running (row, count) pair instead of sorting.

A row's entries live in one dict keyed by int: ``byte_id`` for an
increment entry, valued at its pending updates, and ``~byte_id`` (a
negative key) for a cache writeback, valued at the absolute value to
write.  A serviced batch's ``items`` is that dict itself, taken out of
the buffer whole, oldest entry first; the baseline's is ``{byte_id: 1}``.
The engine calls ``insert`` once per activation its cache missed and
applies the batch it returns, if any, item by item.
Only a row holding a writeback is rebuilt first (``_merge_items``), so
that each byte appears once: a byte with a writeback keeps the key
``~byte_id`` and its value becomes ``(value, increments)``, the absolute
write followed by the increments queued beside it.  ``len(items)`` is
the number of counters the batch touches.
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


class ServiceBatch(NamedTuple):
    """One counter-row activation worth of work; ``items`` as in the
    module docstring."""

    bank: int
    row_id: int
    items: Dict[int, Union[int, Tuple[int, int]]]
    trigger: str


# Builds a ServiceBatch from a 4-tuple without the Python-level
# ``__new__`` that the named tuple's own constructor goes through:
# ``_new_tuple(ServiceBatch, (bank, row_id, items, trigger))``.
_new_tuple = tuple.__new__


class ChronusBuffer:
    """Baseline: every activation's counter update is serviced on the spot."""

    def __init__(self, bank: int):
        self.bank = bank

    def insert(self, row_id: int, byte_id: int) -> ServiceBatch:
        return _new_tuple(ServiceBatch, (self.bank, row_id, {byte_id: 1}, TRIG_M_READY))

    def drain(self) -> List[ServiceBatch]:
        return []

    def __len__(self):
        return 0


class _BufferedBase:
    """The coalescing buffer of every design but the baseline; one per bank.

    Entries are kept per row as {key: value}: key ``byte_id`` for an
    increment entry, whose value is its pending updates, and ``~byte_id``
    for a writeback entry, whose value is the absolute value to write.
    ``_capacity`` None means no shared pool (per-row design).
    ``_full_rows`` holds rows at M entries whose service had to be
    deferred, and ``_wb_rows`` the rows holding a writeback entry, which
    alone need merging when they are serviced.

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
        self._rows: Dict[int, Dict[int, int]] = {}
        self._total = 0
        self._full_rows = set()
        self._wb_rows = set()
        self._pick_victim = _VICTIM_PICKS[config.design]
        self._capacity = None if self._pick_victim is None else config.capacity
        self._m_batch = config.m_batch
        self._pending_limit = config.pending_limit
        self._meta_row: Optional[int] = None
        self._meta_count = 0

    def __len__(self):
        return self._total

    def insert(self, row_id: int, byte_id: int) -> Optional[ServiceBatch]:
        """Queue one activation's counter update; maybe service a batch."""
        entries = self._rows.get(row_id)
        if entries is not None:
            pending = entries.get(byte_id)
            if pending is not None:
                pending += 1
                entries[byte_id] = pending
                count = len(entries)
                if count > self._meta_count:
                    self._meta_row = row_id
                    self._meta_count = count
                if pending >= self._pending_limit:
                    return self._flush_row(row_id, TRIG_K_LIMIT)
                if self._full_rows:
                    return self._flush_row(min(self._full_rows), TRIG_M_READY)
                return None
        if self._pending_limit <= 1:
            # The increment is at the limit already: serve it now, with its
            # row unless the row's batch is full.  It goes with a queued
            # writeback of its byte, which would otherwise overwrite it.
            if row_id in self._full_rows and ~byte_id not in entries:
                return _new_tuple(
                    ServiceBatch, (self.bank, row_id, {byte_id: 1}, TRIG_K_LIMIT)
                )
            self._allocate(row_id, byte_id, 1)
            return self._flush_row(row_id, TRIG_K_LIMIT)
        if row_id in self._full_rows:
            # Deferred from an earlier shadow; service it before growing it.
            batch = self._flush_row(row_id, TRIG_M_READY)
            self._allocate(row_id, byte_id, 1)
            return batch
        if self._capacity is not None and self._total >= self._capacity:
            batch = self._flush_row(self._pick_victim(self), TRIG_BUFFER_FULL)
            self._allocate(row_id, byte_id, 1)
            return batch
        # ``_allocate`` inlined; a row it would mark full is flushed at once.
        if entries is None:
            entries = self._rows[row_id] = {}
        entries[byte_id] = 1
        self._total += 1
        count = len(entries)
        if count > self._meta_count:
            self._meta_row = row_id
            self._meta_count = count
        if count >= self._m_batch:
            return self._flush_row(row_id, TRIG_M_READY)
        if self._full_rows:
            return self._flush_row(min(self._full_rows), TRIG_M_READY)
        return None

    def try_insert_writeback(self, row_id: int, byte_id: int, value: int) -> bool:
        """Queue an absolute counter write; False if no slot can take it."""
        entries = self._rows.get(row_id)
        if entries is not None and ~byte_id in entries:
            entries[~byte_id] = value
            return True
        count = len(entries) if entries is not None else 0
        if count >= self._m_batch:
            return False
        if self._capacity is not None and self._total >= self._capacity:
            return False
        self._allocate(row_id, ~byte_id, value)
        self._wb_rows.add(row_id)
        return True

    def reset_writeback(self, row_id: int, byte_id: int) -> None:
        """A mitigation zeroed this counter: a queued writeback now writes 0."""
        # The entry stays put: removing it would break arrival order.
        entries = self._rows.get(row_id)
        if entries is not None and ~byte_id in entries:
            entries[~byte_id] = 0

    def drain(self) -> List[ServiceBatch]:
        """Flush everything in deterministic order (rows ascending), one
        batch per row."""
        wb_rows = self._wb_rows
        batches = [
            _new_tuple(
                ServiceBatch,
                (
                    self.bank,
                    row_id,
                    _merge_items(entries) if row_id in wb_rows else entries,
                    TRIG_DRAIN,
                ),
            )
            for row_id, entries in sorted(self._rows.items())
        ]
        self._rows.clear()
        self._total = 0
        self._full_rows.clear()
        wb_rows.clear()
        self._meta_row = None
        self._meta_count = 0
        return batches

    def _allocate(self, row_id: int, key: int, value: int) -> int:
        """Add an entry to the row; returns the row's entry count."""
        entries = self._rows.get(row_id)
        if entries is None:
            entries = self._rows[row_id] = {}
        entries[key] = value
        self._total += 1
        count = len(entries)
        if count >= self._m_batch:
            self._full_rows.add(row_id)
        if count > self._meta_count:
            self._meta_row = row_id
            self._meta_count = count
        return count

    def _flush_row(self, row_id: int, trigger: str) -> ServiceBatch:
        """Take the row out whole; its entry dict becomes the batch's items."""
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
        if row_id in self._wb_rows:
            self._wb_rows.discard(row_id)
            entries = _merge_items(entries)
        return _new_tuple(ServiceBatch, (self.bank, row_id, entries, trigger))


def _merge_items(entries: Dict[int, int]) -> Dict[int, Union[int, Tuple[int, int]]]:
    """Collapse a row's entries, given in arrival order, into batch items.

    A byte with a writeback entry becomes the one key ``~byte_id``, whose
    value is ``(value, increments)``: the absolute value, then the
    increments queued for the same byte (0 if none).  The merged key
    sits at the earlier of the two arrivals, so items come oldest first.
    """
    merged: Dict[int, Union[int, Tuple[int, int]]] = {}
    for key, value in entries.items():
        if key < 0:
            merged[key] = (value, entries.get(~key, 0))
        elif ~key in entries:
            merged[~key] = (entries[~key], value)
        else:
            merged[key] = value
    return merged


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
