"""Ground-truth per-row activation counters with alert-driven mitigation.

Counters are 1-byte saturating values held in one anonymous memory
mapping per device and exposed as a numpy view of shape (banks,
counter_rows, bytes_per_row): single counters are read and written
through the mapping by flat index.  A mapping of its own keeps the store
out of the allocator's heap, and freeing the store unmaps it.  It is
private, so a page never written reads as the kernel's zero page: a read
of the whole store (a verifier's nonzero count, the dump's search for
written banks) makes no page resident.  Huge pages are declined where
the platform allows.  A bank's first activation in an engine makes the
bank's pages resident (``open_bank``), one write fault per page; a
standalone store makes one page resident per page it writes, not 2 MB.

Servicing a counter request applies its pending increments in one
read-modify-write; a value crossing the back-off threshold raises an
alert, which mitigates (and resets) that counter.  Additional refreshes
granted per alert always target the currently largest counter in the
bank, modeling an ideal mitigation queue, and stop once the bank is
clean.  So does the periodic proactive refresh: one ``proactive_tick``
per interval refreshes every bank once, in ascending bank order,
skipping clean banks.

Only a store that can pick a largest counter, one built with
``refresh`` or with an alert threshold and more than one refresh per
alert, keeps the bookkeeping a pick needs; any other store's writes only
write the value.  Per bank it keeps a histogram of how many counters
hold each value 0..255, made on the bank's first write, an upper bound
on its largest value, and an offset before which every counter of the
bank holds less than that bound.  A write above the bound raises it and
moves the offset to the written counter; a write of the bound's value
before the offset moves the offset back to it.  A refresh lowers the
bound to the highest non-empty value, restarting the offset at the
bank's first counter if it fell, takes the first counter holding it at
or after the offset, the first maximum in row-major order, and resumes
the offset just past it.  A bank never written, or whose histogram holds
every counter at zero, is clean.  A direct write through ``values``
bypasses the bookkeeping, so a later refresh may pick wrongly.
"""

from typing import Callable, Iterable, List, Optional

import numpy as np

from . import csvout
from .errors import ConfigError
from .geometry import DramGeometry

COUNTER_MAX = 255
BASE_BACKOFF = 32

_BYTES = [bytes((v,)) for v in range(COUNTER_MAX + 1)]


class CounterArray:
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
        # The value at which a write alerts; no counter reaches it without n_bo.
        self.alert_at = COUNTER_MAX + 1 if n_bo is None else n_bo
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

    def open_bank(self, bank: int) -> None:
        """Make the bank's pages resident with one write of zeros.

        A fresh page of the private mapping that ``apply_rmw`` reads
        before it writes faults twice, once for the zero page and once to
        copy it; a write alone faults it once.  Call it before the bank's
        first write: the zeros erase whatever the bank holds.
        """
        self.values[bank] = 0

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
        cells = self._cells
        old = cells[i]
        value = old + increments
        if value > COUNTER_MAX:
            value = COUNTER_MAX
        cells[i] = value
        hists = self._hist
        if hists is not None:
            hist = hists[bank] or self._new_hist(bank)
            hist[old] -= 1
            hist[value] += 1
            top = self._top[bank]
            if value > top:
                self._top[bank] = value
                self._from[bank] = i
            elif value == top and i < self._from[bank]:
                self._from[bank] = i
        if value >= self.alert_at:
            self._alert(bank, row_id, byte_id)
        return value

    def apply_writeback(self, bank: int, row_id: int, byte_id: int, value: int) -> int:
        """Overwrite one counter with an absolute value, alert check included."""
        if not 0 <= value <= COUNTER_MAX:
            raise ConfigError(f"writeback value {value} out of range [0, {COUNTER_MAX}]")
        self._set(bank, row_id, byte_id, value)
        if value >= self.alert_at:
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
            # Each pick clears one nonzero counter, so the picks stop where
            # the bank is clean.
            nonzero = self._bank_size - self._hist[bank][0]
            self._refresh([bank] * min(self.rfms_per_alert - 1, nonzero))

    def _refresh(self, banks: Iterable[int]) -> None:
        """Mitigate the largest counter of each bank of ``banks`` in turn,
        a clean bank skipped.

        Ties break toward the lowest (row_id, byte_id), the first maximum
        in row-major order.
        """
        cells, hists, tops, starts = self._cells, self._hist, self._top, self._from
        size, cpc = self._bank_size, self._cpc
        on_mitigate = self.on_mitigate
        picked = 0
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
            picked += 1
            if on_mitigate is not None:
                row_id, byte_id = divmod(i - first, cpc)
                on_mitigate(bank, row_id, byte_id)
        self.mitigations += picked

    def proactive_tick(self) -> None:
        """Periodic refresh: mitigate every bank's current maximum counter.

        Banks are refreshed once each, in ascending order, and a clean
        bank is skipped; ``on_mitigate`` sees the picks in that order.
        Each pick counts as one mitigation and zero alerts.  Raises
        ConfigError on a store built without ``refresh``.
        """
        if not self.refresh:
            raise ConfigError("proactive_tick on a counter store built without refresh")
        self._refresh(range(self.geometry.banks))

    def dump(self, stream) -> None:
        """Write nonzero counters as CSV: bank,row_id,byte_id,value, sorted.

        Only banks holding a nonzero value are scanned for positions;
        finding them reads the whole store, which costs no memory for
        pages never written.  The positions' four columns are written in
        array passes, a chunk of lines at a time (``csvout.write``).
        """
        size = self._bank_size
        cells = np.frombuffer(self._cells, dtype=np.uint8)
        written = np.flatnonzero(cells.reshape(-1, size).max(axis=1)).tolist()
        # numpy finds a bool array's nonzeros several times faster than a
        # uint8 array's.
        flat = np.concatenate(
            [
                b * size + np.flatnonzero(cells[b * size : (b + 1) * size] != 0)
                for b in written
            ]
            or [np.zeros(0, dtype=np.intp)]
        )
        banks, offsets = np.divmod(flat, size)
        row_ids, byte_ids = np.divmod(offsets, self._cpc)
        csvout.write(
            stream,
            "bank,row_id,byte_id,value\n",
            [banks, ",", row_ids, ",", byte_ids, ",", cells[flat]],
        )


def effective_backoff(design: str, k_limit: int) -> int:
    """Back-off threshold lowered by the worst-case buffered staleness.

    The baseline design services every request immediately and keeps the
    full threshold; buffered designs give up ``k_limit`` of headroom so a
    counter whose updates are maximally stale still alerts in time.
    """
    if design == "chronus":
        return BASE_BACKOFF
    adjusted = BASE_BACKOFF - k_limit
    if adjusted < 1:
        raise ConfigError(
            f"k_limit {k_limit} leaves no alert headroom below {BASE_BACKOFF}"
        )
    return adjusted
