"""The service-log writer and the state dump as they were before each
became a single ``%`` pass.

A verbatim copy of ``oracle.write_log``, which formatted one f-string
per batch, and of ``CounterArray.nonzero_items`` and
``CounterArray.dump``, which formatted one f-string per counter from a
list of per-counter tuples.  The two methods ride on a subclass of the
current store, whose attributes they read unchanged.  Tests run them
beside ``pracsim`` as the reference for differential tests; nothing
under ``src/`` imports this module.
"""

from itertools import islice
from typing import List, Tuple

import numpy as np

from pracsim import counters
from pracsim.buffers import TRIGGERS
from pracsim.oracle import ServiceLog


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
