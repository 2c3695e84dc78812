"""The coalescing buffers as they were, in two generations.

The per-design class hierarchy from before the designs became one
class: the ``RequestBuffer`` interface, ``_BufferedBase`` with its three
design hooks, the four per-design subclasses and ``_merge_entries``,
with the ``_Entry`` record they queue from when an entry was an object
rather than an int.

The one coalescing class from before a batch's items became its row's
entry dict: ``BatchItem``, ``ServiceBatch``, ``ChronusBuffer``,
``TupleKeyBuffer`` (then ``_BufferedBase``), which keys an entry by
``(byte_id, is_wb)`` and builds every batch through ``_merge_items``,
its victim picks, and ``make_tuple_key_buffer`` (then ``make_buffer``).

Both are verbatim copies apart from those names and one mend that
``pracsim.buffers`` took after them: under a limit of one pending
update, ``insert`` serves a new entry in its own shadow, with its row or
alone while the row is held full (the first block of the new-entry
path).  Tests run them beside ``pracsim.buffers`` as references for
differential tests; nothing under ``src/`` imports this module.
"""

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from pracsim.buffers import (
    TRIG_BUFFER_FULL,
    TRIG_DRAIN,
    TRIG_K_LIMIT,
    TRIG_M_READY,
    BufferConfig,
)


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


class _Entry:
    __slots__ = ("row_id", "byte_id", "rep_count", "is_wb", "wb_value")

    def __init__(self, row_id, byte_id, is_wb, wb_value):
        self.row_id = row_id
        self.byte_id = byte_id
        self.rep_count = 0
        self.is_wb = is_wb
        self.wb_value = wb_value


class RequestBuffer:
    """Interface shared by all designs; one instance per bank."""

    def __init__(self, bank: int, config: BufferConfig):
        self.bank = bank
        self.config = config

    def insert(self, row_id: int, byte_id: int) -> Optional[ServiceBatch]:
        """Queue one activation's counter update; maybe service a batch."""
        raise NotImplementedError

    def try_insert_writeback(self, row_id: int, byte_id: int, value: int) -> bool:
        """Queue an absolute counter write; False if no slot can take it."""
        raise NotImplementedError

    def reset_writeback(self, row_id: int, byte_id: int) -> None:
        """A mitigation zeroed this counter: a queued writeback now writes 0."""
        raise NotImplementedError

    def victim_row(self) -> int:
        """The row this design would evict next; buffer must be nonempty."""
        raise NotImplementedError

    def drain(self) -> List[ServiceBatch]:
        """Flush everything in deterministic order (rows ascending)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class _BufferedBase(RequestBuffer):
    """Common machinery for all coalescing designs.

    Entries are kept per row as {(byte_id, is_wb): entry}; ``_capacity``
    None means no shared pool (per-row design).  ``_full_rows`` holds
    rows at M entries whose service had to be deferred.

    Both dict levels stay in arrival order: a row enters ``_rows`` with
    its first entry and leaves only whole, and entries are never removed
    from a row on their own.  So the first row of ``_rows`` holds the
    oldest buffered entry, and a row's entries iterate oldest first.
    """

    _capacity: Optional[int]

    def __init__(self, bank, config):
        super().__init__(bank, config)
        self._rows: Dict[int, Dict[tuple, _Entry]] = {}
        self._total = 0
        self._full_rows = set()
        self._capacity = config.capacity
        self._pending_limit = config.pending_limit

    def __len__(self):
        return self._total

    def entry_counts(self) -> Dict[int, int]:
        """Rows currently buffered and how many entries each holds."""
        return {row: len(entries) for row, entries in self._rows.items()}

    def insert(self, row_id, byte_id):
        entries = self._rows.get(row_id)
        if entries is not None:
            entry = entries.get((byte_id, False))
            if entry is not None:
                entry.rep_count += 1
                self._after_insert(row_id)
                if entry.rep_count + 1 >= self._pending_limit:
                    return self._flush_row(row_id, TRIG_K_LIMIT)
                return self._service_deferred()
        if self._pending_limit <= 1:
            if row_id in self._full_rows and (byte_id, True) not in entries:
                item = BatchItem(byte_id, 1)
                return ServiceBatch(self.bank, row_id, (item,), TRIG_K_LIMIT)
            self._allocate(row_id, byte_id)
            return self._flush_row(row_id, TRIG_K_LIMIT)
        if row_id in self._full_rows:
            # Deferred from an earlier shadow; service it before growing it.
            batch = self._flush_row(row_id, TRIG_M_READY)
            self._allocate(row_id, byte_id)
            return batch
        if self._capacity is not None and self._total >= self._capacity:
            batch = self._flush_row(self._victim_row(), TRIG_BUFFER_FULL)
            self._allocate(row_id, byte_id)
            return batch
        self._allocate(row_id, byte_id)
        if self._pending_limit <= 1:
            return self._flush_row(row_id, TRIG_K_LIMIT)
        if len(self._rows[row_id]) >= self.config.m_batch:
            return self._flush_row(row_id, TRIG_M_READY)
        return self._service_deferred()

    def try_insert_writeback(self, row_id, byte_id, value):
        entries = self._rows.get(row_id)
        if entries is not None:
            existing = entries.get((byte_id, True))
            if existing is not None:
                existing.wb_value = value
                return True
        count = len(entries) if entries is not None else 0
        if count >= self.config.m_batch:
            return False
        if self._capacity is not None and self._total >= self._capacity:
            return False
        self._allocate(row_id, byte_id, is_wb=True, wb_value=value)
        if len(self._rows[row_id]) >= self.config.m_batch:
            self._full_rows.add(row_id)
        return True

    def reset_writeback(self, row_id, byte_id):
        # The entry stays put: removing it would break arrival order.
        entries = self._rows.get(row_id)
        if entries is not None:
            entry = entries.get((byte_id, True))
            if entry is not None:
                entry.wb_value = 0

    def victim_row(self):
        if self._total == 0:
            raise RuntimeError("victim_row on an empty buffer")
        return self._victim_row()

    def drain(self):
        batches = []
        for row_id in sorted(self._rows):
            items = _merge_entries(self._rows[row_id])
            m = self.config.m_batch
            for start in range(0, len(items), m):
                batches.append(
                    ServiceBatch(
                        self.bank, row_id, tuple(items[start : start + m]), TRIG_DRAIN
                    )
                )
        self._rows.clear()
        self._total = 0
        self._full_rows.clear()
        self._reset_metadata()
        return batches

    def _allocate(self, row_id, byte_id, is_wb=False, wb_value=None):
        entries = self._rows.get(row_id)
        if entries is None:
            entries = self._rows[row_id] = {}
        entries[(byte_id, is_wb)] = _Entry(row_id, byte_id, is_wb, wb_value)
        self._total += 1
        if len(entries) >= self.config.m_batch:
            self._full_rows.add(row_id)
        self._after_insert(row_id)

    def _flush_row(self, row_id, trigger):
        entries = self._rows.pop(row_id)
        self._total -= len(entries)
        self._full_rows.discard(row_id)
        batch = ServiceBatch(
            self.bank, row_id, tuple(_merge_entries(entries)), trigger
        )
        self._after_flush(row_id)
        return batch

    def _service_deferred(self):
        if self._full_rows:
            return self._flush_row(min(self._full_rows), TRIG_M_READY)
        return None

    # Design-specific hooks.

    def _victim_row(self) -> int:
        raise NotImplementedError

    def _after_insert(self, row_id) -> None:
        pass

    def _after_flush(self, row_id) -> None:
        pass

    def _reset_metadata(self) -> None:
        pass


def _merge_entries(entries: Dict[tuple, _Entry]) -> List[BatchItem]:
    """Collapse a row's entries, given in arrival order, into batch items.

    An increment entry carries rep_count + 1 pending updates.  A
    writeback and an increment entry for the same byte merge into one
    item placed at the earlier arrival, so items come oldest first.
    """
    by_byte: Dict[int, list] = {}
    for entry in entries.values():
        pending = 0 if entry.is_wb else entry.rep_count + 1
        slot = by_byte.get(entry.byte_id)
        if slot is None:
            by_byte[entry.byte_id] = [pending, entry.wb_value if entry.is_wb else None]
        else:
            slot[0] += pending
            if entry.is_wb:
                slot[1] = entry.wb_value
    return [BatchItem(byte_id, inc, wb) for byte_id, (inc, wb) in by_byte.items()]


class PerRowBuffer(_BufferedBase):
    """One M-entry buffer per counter row; no shared pool to fill."""

    def __init__(self, bank, config):
        super().__init__(bank, config)
        self._capacity = None

    def _victim_row(self):
        raise RuntimeError("per-row buffers never evict")


class UnifiedFcfsBuffer(_BufferedBase):
    """Shared pool; eviction flushes the row of the oldest buffered entry."""

    def _victim_row(self):
        return next(iter(self._rows))


class UnifiedSortedBuffer(_BufferedBase):
    """Shared pool; eviction flushes the row with the most entries.

    Ties break toward the lowest row id.
    """

    def _victim_row(self):
        best_row, best_count = -1, 0
        for row_id, entries in self._rows.items():
            count = len(entries)
            if count > best_count or (count == best_count and row_id < best_row):
                best_row, best_count = row_id, count
        return best_row


class UnifiedApproxMaxBuffer(_BufferedBase):
    """Shared pool; a tracked (row, count) pair approximates the sorted pick.

    Every insertion compares the inserted row's recomputed entry count
    against the tracked count and promotes on strict improvement.  When
    the tracked row's entries leave the buffer, the pair defaults to the
    oldest remaining entry's row, so the estimate can go stale low until
    later insertions catch it up.
    """

    def __init__(self, bank, config):
        super().__init__(bank, config)
        self._meta_row: Optional[int] = None
        self._meta_count = 0

    def _victim_row(self):
        return self._meta_row

    def _after_insert(self, row_id):
        count = len(self._rows[row_id])
        if count > self._meta_count:
            self._meta_row = row_id
            self._meta_count = count

    def _after_flush(self, row_id):
        if row_id != self._meta_row:
            return
        if self._total == 0:
            self._reset_metadata()
            return
        oldest = next(iter(self._rows))
        self._meta_row = oldest
        self._meta_count = len(self._rows[oldest])

    def _reset_metadata(self):
        self._meta_row = None
        self._meta_count = 0


LEGACY_CLASSES = {
    "perrow": PerRowBuffer,
    "unified_fcfs": UnifiedFcfsBuffer,
    "unified_sorted": UnifiedSortedBuffer,
    "unified_approxmax": UnifiedApproxMaxBuffer,
}


# The one coalescing class, before batch items were the row's entry dict.


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


class TupleKeyBuffer:
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
        if self._pending_limit <= 1:
            if row_id in self._full_rows and (byte_id, True) not in entries:
                item = BatchItem(byte_id, 1)
                return ServiceBatch(self.bank, row_id, (item,), TRIG_K_LIMIT)
            self._allocate(row_id, byte_id)
            return self._flush_row(row_id, TRIG_K_LIMIT)
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


def _oldest_row(buf: TupleKeyBuffer) -> int:
    """FCFS: the row of the oldest buffered entry."""
    return next(iter(buf._rows))


def _most_entries_row(buf: TupleKeyBuffer) -> int:
    """Sorted: the row with the most entries, ties to the lowest row id."""
    best_row, best_count = -1, 0
    for row_id, entries in buf._rows.items():
        count = len(entries)
        if count > best_count or (count == best_count and row_id < best_row):
            best_row, best_count = row_id, count
    return best_row


def _tracked_row(buf: TupleKeyBuffer) -> int:
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


def make_tuple_key_buffer(
    bank: int, config: BufferConfig
) -> Union[ChronusBuffer, TupleKeyBuffer]:
    """Instantiate the configured design for one bank."""
    if config.design == "chronus":
        return ChronusBuffer(bank)
    return TupleKeyBuffer(bank, config)
