"""The counter store as it was before two of its refresh picks changed.

``CounterArray`` is a verbatim copy of the store from when
``_mitigate_max`` took numpy's ``argmax`` over the bank's counters (ties
to the first maximum in row-major order) and a per-bank nonzero tally
skipped clean banks.

``HistogramCounterArray`` is a verbatim copy, renamed, of the store from
before it kept per-row bounds: every store kept a per-bank value
histogram and bank bound on every write, a refresh pick searched its
value from the bank's first byte, and the store was a shared mapping.
It has a no-op ``open_bank`` and an ``alert_at``, the value at which an
engine alerts a cached copy, so that an engine can run on it.

``PickListCounterArray`` is a verbatim copy, renamed, of the store from
before an engine opened each bank's pages on its first activation: its
refresh built a list of the picks, and ``proactive_tick`` returned it.

Tests run them beside ``pracsim.counters`` as references for
differential tests; nothing under ``src/`` imports this module.
"""

from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from pracsim.counters import COUNTER_MAX
from pracsim.errors import ConfigError
from pracsim.geometry import DramGeometry


class CounterArray:
    """Stored counter values for every bank, plus alert bookkeeping.

    ``n_bo`` is the effective back-off threshold; None disables the
    alert path entirely (counters still accumulate and saturate).
    ``slot`` is maintained by the caller so recorded events carry time.
    ``on_mitigate(bank, row_id, byte_id)`` is told of every counter reset
    by a mitigation, so a copy held elsewhere (a counter cache) can be
    reset with it.
    """

    def __init__(
        self,
        geometry: DramGeometry,
        n_bo: Optional[int] = None,
        rfms_per_alert: int = 1,
        record_events: bool = False,
        on_mitigate: Optional[Callable[[int, int, int], None]] = None,
    ):
        if n_bo is not None and not 1 <= n_bo <= COUNTER_MAX:
            raise ConfigError(f"n_bo must be in [1, {COUNTER_MAX}], got {n_bo}")
        if rfms_per_alert < 1:
            raise ConfigError(f"rfms_per_alert must be positive, got {rfms_per_alert}")
        self.geometry = geometry
        self.n_bo = n_bo
        self.rfms_per_alert = rfms_per_alert
        self.on_mitigate = on_mitigate
        self._counter_rows = geometry.counter_rows_per_bank
        self._cpc = geometry.counters_per_counter_row
        self._cells = bytearray(geometry.banks * self._counter_rows * self._cpc)
        # A writable view of the same bytes: writes through either show in both.
        self.values = np.frombuffer(self._cells, dtype=np.uint8).reshape(
            geometry.banks, self._counter_rows, self._cpc
        )
        self.alerts = 0
        self.mitigations = 0
        self.slot = -1
        self.events: Optional[List[tuple]] = [] if record_events else None
        self._nonzero = [0] * geometry.banks

    def get(self, bank: int, row_id: int, byte_id: int) -> int:
        return self._cells[(bank * self._counter_rows + row_id) * self._cpc + byte_id]

    def _set(self, bank: int, row_id: int, byte_id: int, value: int) -> None:
        i = (bank * self._counter_rows + row_id) * self._cpc + byte_id
        old = self._cells[i]
        if old == 0 and value > 0:
            self._nonzero[bank] += 1
        elif old > 0 and value == 0:
            self._nonzero[bank] -= 1
        self._cells[i] = value

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
        if old == 0 and value:
            self._nonzero[bank] += 1
        self._cells[i] = value
        if self.n_bo is not None and value >= self.n_bo:
            self._alert(bank, row_id, byte_id, value)
        return value

    def apply_writeback(self, bank: int, row_id: int, byte_id: int, value: int) -> int:
        """Overwrite one counter with an absolute value, alert check included."""
        if not 0 <= value <= COUNTER_MAX:
            raise ConfigError(f"writeback value {value} out of range [0, {COUNTER_MAX}]")
        self._set(bank, row_id, byte_id, value)
        if self.n_bo is not None and value >= self.n_bo:
            self._alert(bank, row_id, byte_id, value)
        return value

    def external_alert(self, bank: int, row_id: int, byte_id: int, value: int) -> None:
        """Alert raised by a cached copy of this counter crossing the threshold.

        The reset writes through: the stored counter is mitigated along
        with the cached copy the caller resets.
        """
        self._alert(bank, row_id, byte_id, value)

    def _alert(self, bank: int, row_id: int, byte_id: int, value: int) -> None:
        self.alerts += 1
        if self.events is not None:
            self.events.append(("alert", self.slot, bank, row_id, byte_id, value))
        self._mitigate(bank, row_id, byte_id)
        for _ in range(self.rfms_per_alert - 1):
            if self._mitigate_max(bank) is None:
                break

    def _mitigate(self, bank: int, row_id: int, byte_id: int) -> None:
        self._set(bank, row_id, byte_id, 0)
        if self.on_mitigate is not None:
            self.on_mitigate(bank, row_id, byte_id)
        self.mitigations += 1
        if self.events is not None:
            self.events.append(("mitigation", self.slot, bank, row_id, byte_id))

    def _mitigate_max(self, bank: int) -> Optional[Tuple[int, int, int]]:
        """Mitigate the largest counter of ``bank``; returns its
        (bank, row_id, byte_id), or None if the bank is clean.

        Ties break toward the lowest (row_id, byte_id): numpy argmax
        returns the first maximum in row-major order.
        """
        if self._nonzero[bank] == 0:
            return None
        flat = int(self.values[bank].argmax())
        row_id, byte_id = divmod(flat, self._cpc)
        self._mitigate(bank, row_id, byte_id)
        return bank, row_id, byte_id

    def proactive_tick(self, bank: int) -> Optional[Tuple[int, int, int]]:
        """Periodic refresh: mitigate the bank's current maximum counter.

        Counts as one mitigation and zero alerts; a no-op on a clean bank.
        """
        return self._mitigate_max(bank)

    def nonzero_items(self) -> List[Tuple[int, int, int, int]]:
        """All nonzero counters as (bank, row_id, byte_id, value), sorted."""
        banks, rows, bytes_ = np.nonzero(self.values)
        out = []
        for b, r, c in zip(banks.tolist(), rows.tolist(), bytes_.tolist()):
            out.append((b, r, c, int(self.values[b, r, c])))
        return out

    def dump(self, stream) -> None:
        """Write nonzero counters as CSV: bank,row_id,byte_id,value."""
        stream.write("bank,row_id,byte_id,value\n")
        for b, r, c, v in self.nonzero_items():
            stream.write(f"{b},{r},{c},{v}\n")


_BYTES = [bytes((v,)) for v in range(COUNTER_MAX + 1)]


class HistogramCounterArray:
    """Stored counter values for every bank, plus alert bookkeeping.

    ``n_bo`` is the effective back-off threshold; None disables the
    alert path entirely (counters still accumulate and saturate).
    ``on_mitigate(bank, row_id, byte_id)`` is told of every counter reset
    by a mitigation, so a copy held elsewhere (a counter cache) can be
    reset with it.
    """

    def __init__(
        self,
        geometry: DramGeometry,
        n_bo: Optional[int] = None,
        rfms_per_alert: int = 1,
        on_mitigate: Optional[Callable[[int, int, int], None]] = None,
    ):
        if n_bo is not None and not 1 <= n_bo <= COUNTER_MAX:
            raise ConfigError(f"n_bo must be in [1, {COUNTER_MAX}], got {n_bo}")
        if rfms_per_alert < 1:
            raise ConfigError(f"rfms_per_alert must be positive, got {rfms_per_alert}")
        self.geometry = geometry
        self.n_bo = n_bo
        self.alert_at = COUNTER_MAX + 1 if n_bo is None else n_bo
        self.rfms_per_alert = rfms_per_alert
        self.on_mitigate = on_mitigate
        self._counter_rows = geometry.counter_rows_per_bank
        self._cpc = geometry.counters_per_counter_row
        self._bank_size = self._counter_rows * self._cpc
        import mmap  # on first use, so that ``import pracsim`` loads nothing more

        self._cells = mmap.mmap(-1, geometry.banks * self._bank_size)
        # A writable view of the same bytes: writes through either show in both.
        self.values = np.frombuffer(self._cells, dtype=np.uint8).reshape(
            geometry.banks, self._counter_rows, self._cpc
        )
        self.alerts = 0
        self.mitigations = 0
        # Per bank: how many counters hold each value, made on the bank's
        # first write (None until then), and a bound that is at least the
        # largest value held (raised on write, lowered only when a refresh
        # looks for the maximum).
        self._hist: List[Optional[List[int]]] = [None] * geometry.banks
        self._top = [0] * geometry.banks

    def get(self, bank: int, row_id: int, byte_id: int) -> int:
        return self._cells[(bank * self._counter_rows + row_id) * self._cpc + byte_id]

    def open_bank(self, bank: int) -> None:
        """Nothing to do: the store predates opening a bank."""

    def _new_hist(self, bank: int) -> List[int]:
        hist = self._hist[bank] = [self._bank_size] + [0] * COUNTER_MAX
        return hist

    def _set(self, bank: int, row_id: int, byte_id: int, value: int) -> None:
        i = (bank * self._counter_rows + row_id) * self._cpc + byte_id
        hist = self._hist[bank] or self._new_hist(bank)
        hist[self._cells[i]] -= 1
        hist[value] += 1
        if value > self._top[bank]:
            self._top[bank] = value
        self._cells[i] = value

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
        hist = self._hist[bank] or self._new_hist(bank)
        hist[old] -= 1
        hist[value] += 1
        if value > self._top[bank]:
            self._top[bank] = value
        self._cells[i] = value
        if self.n_bo is not None and value >= self.n_bo:
            self._alert(bank, row_id, byte_id)
        return value

    def apply_writeback(self, bank: int, row_id: int, byte_id: int, value: int) -> int:
        """Overwrite one counter with an absolute value, alert check included."""
        if not 0 <= value <= COUNTER_MAX:
            raise ConfigError(f"writeback value {value} out of range [0, {COUNTER_MAX}]")
        self._set(bank, row_id, byte_id, value)
        if self.n_bo is not None and value >= self.n_bo:
            self._alert(bank, row_id, byte_id)
        return value

    def external_alert(self, bank: int, row_id: int, byte_id: int) -> None:
        """Alert raised by a cached copy of this counter crossing the threshold.

        The reset writes through: the stored counter is mitigated, and
        ``on_mitigate`` resets the cached copy with it.
        """
        self._alert(bank, row_id, byte_id)

    def _alert(self, bank: int, row_id: int, byte_id: int) -> None:
        self.alerts += 1
        self._mitigate(bank, row_id, byte_id)
        for _ in range(self.rfms_per_alert - 1):
            if self._mitigate_max(bank) is None:
                break

    def _mitigate(self, bank: int, row_id: int, byte_id: int) -> None:
        self._set(bank, row_id, byte_id, 0)
        if self.on_mitigate is not None:
            self.on_mitigate(bank, row_id, byte_id)
        self.mitigations += 1

    def _mitigate_max(self, bank: int) -> Optional[Tuple[int, int, int]]:
        """Mitigate the largest counter of ``bank``; returns its
        (bank, row_id, byte_id), or None if the bank is clean.

        Ties break toward the lowest (row_id, byte_id), the first maximum
        in row-major order.
        """
        hist = self._hist[bank]
        if hist is None or hist[0] == self._bank_size:
            return None
        top = self._top[bank]
        while not hist[top]:
            top -= 1
        self._top[bank] = top
        start = bank * self._bank_size
        flat = self._cells.find(_BYTES[top], start, start + self._bank_size) - start
        row_id, byte_id = divmod(flat, self._cpc)
        self._mitigate(bank, row_id, byte_id)
        return bank, row_id, byte_id

    def proactive_tick(self) -> List[Tuple[int, int, int]]:
        """Periodic refresh: mitigate every bank's current maximum counter.

        Banks are refreshed once each, in ascending order, and the picks
        (bank, row_id, byte_id) are returned in that order; a clean bank
        is skipped.  Each pick counts as one mitigation and zero alerts.
        """
        picks = []
        size = self._bank_size
        for bank, hist in enumerate(self._hist):
            if hist is not None and hist[0] != size:
                picks.append(self._mitigate_max(bank))
        return picks

    def _nonzero_columns(self) -> np.ndarray:
        """All nonzero counters as rows (bank, row_id, byte_id, value), sorted.

        Only banks ever written are scanned: one without a histogram holds
        only zeros, as every write through the methods makes it.
        """
        cells = np.frombuffer(self._cells, dtype=np.uint8)
        size = self._bank_size
        written = [b * size for b, hist in enumerate(self._hist) if hist is not None]
        flat = np.concatenate(
            [start + np.flatnonzero(cells[start : start + size]) for start in written]
            or [np.zeros(0, dtype=np.intp)]
        )
        banks, offsets = np.divmod(flat, self._bank_size)
        row_ids, byte_ids = np.divmod(offsets, self._cpc)
        return np.stack((banks, row_ids, byte_ids, cells[flat]), axis=1)

    def nonzero_items(self) -> List[Tuple[int, int, int, int]]:
        """All nonzero counters as (bank, row_id, byte_id, value), sorted."""
        return list(zip(*self._nonzero_columns().T.tolist()))

    def dump(self, stream) -> None:
        """Write nonzero counters as CSV: bank,row_id,byte_id,value."""
        items = self._nonzero_columns()
        lines = "%d,%d,%d,%d\n" * len(items) % tuple(items.ravel().tolist())
        stream.write("bank,row_id,byte_id,value\n" + lines)


class PickListCounterArray:
    """Stored counter values for every bank, plus alert bookkeeping.

    ``n_bo`` is the effective back-off threshold; None disables the
    alert path entirely (counters still accumulate and saturate).
    ``on_mitigate(bank, row_id, byte_id)`` is told of every counter reset
    by a mitigation, so a copy held elsewhere (a counter cache) can be
    reset with it.  ``refresh`` says whether ``proactive_tick`` may be
    called; without it, and without ``n_bo`` or with one refresh per
    alert, the store keeps no refresh bookkeeping.
    """

    def __init__(
        self,
        geometry: DramGeometry,
        n_bo: Optional[int] = None,
        rfms_per_alert: int = 1,
        on_mitigate: Optional[Callable[[int, int, int], None]] = None,
        refresh: bool = True,
    ):
        if n_bo is not None and not 1 <= n_bo <= COUNTER_MAX:
            raise ConfigError(f"n_bo must be in [1, {COUNTER_MAX}], got {n_bo}")
        if rfms_per_alert < 1:
            raise ConfigError(f"rfms_per_alert must be positive, got {rfms_per_alert}")
        self.geometry = geometry
        self.n_bo = n_bo
        self.rfms_per_alert = rfms_per_alert
        self.on_mitigate = on_mitigate
        self.refresh = refresh
        self._counter_rows = geometry.counter_rows_per_bank
        self._cpc = geometry.counters_per_counter_row
        self._bank_size = self._counter_rows * self._cpc
        import mmap  # on first use, so that ``import pracsim`` loads nothing more

        self._cells = mmap.mmap(
            -1, geometry.banks * self._bank_size, flags=mmap.MAP_PRIVATE
        )
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            try:
                self._cells.madvise(mmap.MADV_NOHUGEPAGE)
            except OSError:  # a kernel without huge pages: nothing to decline
                pass
        # A writable view of the same bytes: writes through either show in both.
        self.values = np.frombuffer(self._cells, dtype=np.uint8).reshape(
            geometry.banks, self._counter_rows, self._cpc
        )
        self.alerts = 0
        self.mitigations = 0
        # Refresh bookkeeping, or None where no pick can happen.  Per bank:
        # how many counters hold each value, made on the bank's first write
        # (None until then); a bound that is at least the largest value held
        # (raised on write, lowered only when a refresh looks for the
        # maximum); and a flat offset before which every counter of the
        # bank holds less than that bound.
        self._hist: Optional[List[Optional[List[int]]]] = None
        if refresh or (n_bo is not None and rfms_per_alert > 1):
            self._hist = [None] * geometry.banks
            self._top = [0] * geometry.banks
            self._from = list(range(0, len(self._cells), self._bank_size))

    def get(self, bank: int, row_id: int, byte_id: int) -> int:
        return self._cells[(bank * self._counter_rows + row_id) * self._cpc + byte_id]

    def _new_hist(self, bank: int) -> List[int]:
        hist = self._hist[bank] = [self._bank_size] + [0] * COUNTER_MAX
        return hist

    def _set(self, bank: int, row_id: int, byte_id: int, value: int) -> None:
        i = (bank * self._counter_rows + row_id) * self._cpc + byte_id
        if self._hist is not None:
            hist = self._hist[bank] or self._new_hist(bank)
            hist[self._cells[i]] -= 1
            hist[value] += 1
            if value > self._top[bank]:
                self._top[bank] = value
                self._from[bank] = i
            elif value == self._top[bank] and i < self._from[bank]:
                self._from[bank] = i
        self._cells[i] = value

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

    def apply_writeback(self, bank: int, row_id: int, byte_id: int, value: int) -> int:
        """Overwrite one counter with an absolute value, alert check included."""
        if not 0 <= value <= COUNTER_MAX:
            raise ConfigError(f"writeback value {value} out of range [0, {COUNTER_MAX}]")
        self._set(bank, row_id, byte_id, value)
        if self.n_bo is not None and value >= self.n_bo:
            self._alert(bank, row_id, byte_id)
        return value

    def external_alert(self, bank: int, row_id: int, byte_id: int) -> None:
        """Alert raised by a cached copy of this counter crossing the threshold.

        The reset writes through: the stored counter is mitigated, and
        ``on_mitigate`` resets the cached copy with it.  A store without
        refresh bookkeeping cannot grant the alert's extra refreshes, so
        with more than one refresh per alert it raises ConfigError.
        """
        if self._hist is None and self.rfms_per_alert > 1:
            raise ConfigError("external_alert's extra refreshes need n_bo or refresh")
        self._alert(bank, row_id, byte_id)

    def _alert(self, bank: int, row_id: int, byte_id: int) -> None:
        self.alerts += 1
        self._set(bank, row_id, byte_id, 0)
        if self.on_mitigate is not None:
            self.on_mitigate(bank, row_id, byte_id)
        self.mitigations += 1
        if self.rfms_per_alert > 1:
            # Once the bank is clean, its remaining refreshes find nothing.
            self._refresh([bank] * (self.rfms_per_alert - 1))

    def _refresh(self, banks: Iterable[int]) -> List[Tuple[int, int, int]]:
        """Mitigate the largest counter of each bank of ``banks`` in turn;
        returns the picks (bank, row_id, byte_id), a clean bank skipped.

        Ties break toward the lowest (row_id, byte_id), the first maximum
        in row-major order.
        """
        picks = []
        cells, hists, tops, starts = self._cells, self._hist, self._top, self._from
        size, cpc = self._bank_size, self._cpc
        for bank in banks:
            hist = hists[bank]
            if hist is None or hist[0] == size:
                continue
            first = bank * size
            top = tops[bank]
            if not hist[top]:
                while not hist[top]:
                    top -= 1
                tops[bank] = top
                starts[bank] = first
            i = cells.find(_BYTES[top], starts[bank], first + size)
            starts[bank] = i + 1
            hist[top] -= 1
            hist[0] += 1
            cells[i] = 0
            row_id, byte_id = divmod(i - first, cpc)
            if self.on_mitigate is not None:
                self.on_mitigate(bank, row_id, byte_id)
            self.mitigations += 1
            picks.append((bank, row_id, byte_id))
        return picks

    def proactive_tick(self) -> List[Tuple[int, int, int]]:
        """Periodic refresh: mitigate every bank's current maximum counter.

        Banks are refreshed once each, in ascending order, and the picks
        (bank, row_id, byte_id) are returned in that order; a clean bank
        is skipped.  Each pick counts as one mitigation and zero alerts.
        Raises ConfigError on a store built without ``refresh``.
        """
        if not self.refresh:
            raise ConfigError("proactive_tick on a counter store built without refresh")
        return self._refresh(range(self.geometry.banks))

    def dump(self, stream) -> None:
        """Write nonzero counters as CSV: bank,row_id,byte_id,value, sorted.

        Only banks holding a nonzero value are scanned for positions;
        finding them reads the whole store, which costs no memory for
        pages never written.
        """
        size = self._bank_size
        cells = np.frombuffer(self._cells, dtype=np.uint8)
        written = np.flatnonzero(cells.reshape(-1, size).max(axis=1)).tolist()
        flat = np.concatenate(
            [b * size + np.flatnonzero(cells[b * size : (b + 1) * size]) for b in written]
            or [np.zeros(0, dtype=np.intp)]
        )
        banks, offsets = np.divmod(flat, size)
        row_ids, byte_ids = np.divmod(offsets, self._cpc)
        items = np.stack((banks, row_ids, byte_ids, cells[flat]), axis=1)
        lines = "%d,%d,%d,%d\n" * len(items) % tuple(items.ravel().tolist())
        stream.write("bank,row_id,byte_id,value\n" + lines)
