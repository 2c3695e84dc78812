"""Ground-truth per-row activation counters with alert-driven mitigation.

Counters are 1-byte saturating values held in one anonymous memory
mapping per device and exposed as a numpy view of shape (banks,
counter_rows, bytes_per_row): single counters are read and written
through the mapping by flat index.  A mapping of its own keeps the store
out of the allocator's heap: its pages stay unbacked until a bank is
first written, and freeing the store unmaps them, so a process's memory
follows the banks its runs touch, not how its heap happens to be
fragmented around earlier stores.

Servicing a counter request applies its pending increments in one
read-modify-write; a value crossing the back-off threshold raises an
alert, which mitigates (and resets) that counter.  Additional refreshes
granted per alert always target the currently largest counter in the
bank, modeling an ideal mitigation queue.  So does the periodic
proactive refresh: one ``proactive_tick`` per interval refreshes every
bank once, in ascending bank order, skipping clean banks.

The largest counter is found without scanning the bank's values: each
bank keeps a histogram of how many of its counters hold each value
0..255, made on the bank's first write, and an upper bound on its
largest value.  A refresh lowers the bound to the highest non-empty
value, then takes that value's first byte in the bank, which is the
first maximum in row-major order.  A bank never written, or whose
histogram holds every counter at zero, is clean.  Every write made
through the methods keeps the histogram and bound current; a direct
write through ``values`` bypasses them, so a later refresh may pick
wrongly.
"""

from typing import Callable, List, Optional, Tuple

import numpy as np

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
