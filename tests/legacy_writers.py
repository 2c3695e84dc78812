"""The service-log writer, the state dump and the text-trace writer in
two earlier forms: before each became a single ``%`` pass, and as that
pass, before all three went through ``pracsim.csvout``.

A verbatim copy of ``oracle.write_log``, which formatted one f-string
per batch, and of ``CounterArray.nonzero_items`` and
``CounterArray.dump``, which formatted one f-string per counter from a
list of per-counter tuples.  Then, as ``percent_write_log``,
``PercentCounterArray.dump`` and ``percent_write_text``, verbatim copies
of ``oracle.write_log``, ``CounterArray.dump`` and ``trace.write_text``
as one ``%`` format over a flat tuple of every field.  The store methods
ride on subclasses of the current store, whose attributes they read
unchanged.  Tests run them beside ``pracsim`` as the references for
differential tests and for the writers' memory budget; nothing under
``src/`` imports this module.
"""

from itertools import islice
from typing import List, Tuple

import numpy as np

from pracsim import counters
from pracsim.buffers import TRIGGERS
from pracsim.oracle import ServiceLog
from pracsim.trace import Trace


def write_log(log: ServiceLog, stream) -> None:
    """Write the service-log CSV: slot,bank,row_id,trigger,n_items,bytes...

    A batch without byte ids ends at its ``n_items`` field, 0.
    """
    ids = iter(log.byte_ids)
    lines = [
        f"{slot},{bank},{row_id},{TRIGGERS[code]},{size}"
        f"{''.join([',' + str(i) for i in islice(ids, size)])}\n"
        for slot, bank, row_id, code, size in zip(
            log.slots, log.banks, log.row_ids, log.triggers, log.sizes
        )
    ]
    stream.write("slot,bank,row_id,trigger,n_items,byte_ids\n" + "".join(lines))


class CounterArray(counters.CounterArray):
    """The current store with its parent's nonzero scan and dump."""

    def nonzero_items(self) -> List[Tuple[int, int, int, int]]:
        """All nonzero counters as (bank, row_id, byte_id, value), sorted.

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
        columns = (banks, row_ids, byte_ids, cells[flat])
        return list(zip(*(a.tolist() for a in columns)))

    def dump(self, stream) -> None:
        """Write nonzero counters as CSV: bank,row_id,byte_id,value."""
        lines = [f"{b},{r},{c},{v}\n" for b, r, c, v in self.nonzero_items()]
        stream.write("bank,row_id,byte_id,value\n" + "".join(lines))


def percent_write_log(log: ServiceLog, stream) -> None:
    """Write the service-log CSV: slot,bank,row_id,trigger,n_items,bytes...

    A batch without byte ids ends at its ``n_items`` field, 0.  Each
    batch's line is a format piece, made once per (trigger, size), and
    the joined pieces take every batch's slot, bank, row id and byte ids
    from one flat tuple in a single ``%`` pass.
    """
    pieces = {
        (code, size): f"%d,%d,%d,{TRIGGERS[code]},{size}" + ",%d" * size + "\n"
        for code, size in set(zip(log.triggers, log.sizes))
    }
    sizes = np.asarray(log.sizes, dtype=np.int64)
    # Batch j's fields start after j headers of three and the ids before it.
    starts = 3 * np.arange(sizes.size)
    starts[1:] += np.cumsum(sizes[:-1])
    # Objects, not int64: a field of any size is written as it is.
    fields = np.empty(3 * sizes.size + len(log.byte_ids), dtype=object)
    is_id = np.ones(fields.size, dtype=bool)
    for k, column in enumerate((log.slots, log.banks, log.row_ids)):
        fields[starts + k] = column
        is_id[starts + k] = False
    fields[is_id] = log.byte_ids
    text = "".join(map(pieces.__getitem__, zip(log.triggers, log.sizes)))
    stream.write(
        "slot,bank,row_id,trigger,n_items,byte_ids\n" + text % tuple(fields.tolist())
    )


class PercentCounterArray(counters.CounterArray):
    """The current store with the single-pass dump."""

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


def percent_write_text(trace: Trace, stream) -> None:
    """Write ``trace`` as text to a text-mode stream."""
    fields = [None] * (2 * len(trace))
    fields[::2], fields[1::2] = trace.banks, trace.rows
    stream.write("%d %d\n" * len(trace) % tuple(fields))
