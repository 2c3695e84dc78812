"""The step chain as it was before each activation and batch did less.

``LegacyEngine`` runs every activation through verbatim copies of the
chain's four links from before that change: ``Engine.step`` and
``Engine._service``; the buffers' ``insert``, with ``_BufferedBase``'s
``_flush_row`` and ``_allocate`` (``LegacyBuffer`` and
``LegacyChronusBuffer``); and ``CounterArray.apply_rmw``
(``LegacyCounterArray``).  Then ``step`` bumped ``data_cols`` beside
``data_acts`` and ``_service`` added to ``rmw_bytes`` per item; every
batch was built through ``ServiceBatch``'s own constructor; and the
store compared each value against ``n_bo`` unless it was None.

Everything else is inherited from ``pracsim``, so a run through this
engine differs from a ``pracsim.engine.Engine`` run only in those links.
Tests run it beside ``pracsim.engine`` as the reference for a
differential test; nothing under ``src/`` imports this module.
"""

from typing import Optional

from pracsim.buffers import (
    TRIG_BUFFER_FULL,
    TRIG_K_LIMIT,
    TRIG_M_READY,
    ChronusBuffer,
    ServiceBatch,
    _BufferedBase,
    _merge_items,
)
from pracsim.counters import COUNTER_MAX, CounterArray
from pracsim.engine import Engine
from pracsim.errors import ConfigError, TraceError


class LegacyChronusBuffer(ChronusBuffer):
    def insert(self, row_id: int, byte_id: int) -> ServiceBatch:
        return ServiceBatch(self.bank, row_id, {byte_id: 1}, TRIG_M_READY)


class LegacyBuffer(_BufferedBase):
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
                return ServiceBatch(self.bank, row_id, {byte_id: 1}, TRIG_K_LIMIT)
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
        count = self._allocate(row_id, byte_id, 1)
        if count >= self._m_batch:
            return self._flush_row(row_id, TRIG_M_READY)
        if self._full_rows:
            return self._flush_row(min(self._full_rows), TRIG_M_READY)
        return None

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
        return ServiceBatch(self.bank, row_id, entries, trigger)


class LegacyCounterArray(CounterArray):
    def apply_rmw(self, bank: int, row_id: int, byte_id: int, increments: int = 1) -> int:
        """Add pending increments to one counter; returns the post-add value.

        The returned value is pre-reset: if it crossed the threshold the
        stored counter has already been mitigated back to zero.
        """
        if increments < 0:
            raise ConfigError(f"increments must be non-negative, got {increments}")
        i = (bank * self._counter_rows + row_id) * self._cpc + byte_id
        old = self._cells[i]
        value = old + increments
        if value > COUNTER_MAX:
            value = COUNTER_MAX
        self._cells[i] = value
        if self._hist is not None:
            hist = self._hist[bank] or self._new_hist(bank)
            hist[old] -= 1
            hist[value] += 1
            if value > self._top[bank]:
                self._top[bank] = value
                self._from[bank] = i
            elif value == self._top[bank] and i < self._from[bank]:
                self._from[bank] = i
        if self.n_bo is not None and value >= self.n_bo:
            self._alert(bank, row_id, byte_id)
        return value


class LegacyEngine(Engine):
    """An engine whose chain runs through the links above."""

    def __init__(self, config, collect_log: bool = False):
        super().__init__(config, collect_log)
        self.store = LegacyCounterArray(
            config.geometry,
            n_bo=config.n_bo,
            rfms_per_alert=config.rfms_per_alert,
            on_mitigate=self._reset_cached if self._cached else None,
            refresh=config.proactive_interval > 0,
        )
        # The copied ``step`` reads the threshold here; ``Engine`` now
        # reads the store's own.
        self._n_bo = self.store.alert_at

    def _bank(self, bank: int, slot: Optional[int] = None):
        state = self._banks.get(bank)
        if state is None:
            cache = super()._bank(bank, slot)[1]
            if self.config.buffer.design == "chronus":
                buf = LegacyChronusBuffer(bank)
            else:
                buf = LegacyBuffer(bank, self.config.buffer)
            state = self._banks[bank] = (buf, cache)
        return state

    def step(self, slot: int, bank: int, data_row: int) -> None:
        """Process one activation, servicing the batch it completes, if any.

        A cached copy whose live value reaches the back-off threshold
        alerts here; the mitigation resets it and any queued writeback.
        """
        if not 0 <= data_row < self._rows:
            raise TraceError(
                f"slot {slot}: data_row {data_row} out of range [0, {self._rows})"
            )
        buf, cache = self._banks.get(bank) or self._bank(bank, slot)
        row_id, byte_id = divmod(data_row, self._cpc)
        ledger = self.ledger
        ledger.data_acts += 1
        ledger.data_cols += 1

        live = 0 if cache is None else cache.access(row_id, byte_id)
        if live:
            if live >= self._n_bo:
                self.store.external_alert(bank, row_id, byte_id)
        else:
            batch = buf.insert(row_id, byte_id)
            if batch is not None:
                self._service(batch, slot)

        interval = self._proactive
        if interval and (slot + 1) % interval == 0:
            self.store.proactive_tick()

    def _service(self, batch: ServiceBatch, slot: int) -> None:
        """Apply one batch; its items are as ``pracsim.buffers`` describes."""
        bank, row_id, items, trigger = batch
        ledger = self.ledger
        ledger.counter_acts += 1
        self.trigger_counts[trigger] += 1
        if self.batch_log is not None:
            # Only a cached run queues writebacks, whose keys are ~byte_id.
            byte_ids = [~k if k < 0 else k for k in items] if self._cached else items
            self.batch_log.append(slot, bank, row_id, trigger, byte_ids)
        store = self.store
        buf, cache = self._banks[bank]
        if self._finalized:
            # No fills while draining: an eviction writeback enqueued after
            # drain() would never be serviced.
            cache = None
        for byte_id, increments in items.items():
            if byte_id < 0:
                byte_id = ~byte_id
                wb_value, increments = increments
                store.apply_writeback(bank, row_id, byte_id, wb_value)
                ledger.rmw_bytes += 1
            if increments:
                store.apply_rmw(bank, row_id, byte_id, increments)
                ledger.rmw_bytes += increments
                if cache is not None:
                    cache.fill_clean(
                        row_id,
                        byte_id,
                        store.get(bank, row_id, byte_id),
                        buf.try_insert_writeback,
                    )
