"""Service logs as tests write them: one ``(slot, bank, row_id, trigger,
byte_ids)`` tuple per batch, built into and read back from the columns."""

from itertools import islice
from typing import List, Tuple

from pracsim.buffers import TRIGGERS
from pracsim.oracle import ServiceLog

Batch = Tuple[int, int, int, str, Tuple[int, ...]]


def make_log(*batches: Batch) -> ServiceLog:
    """A ServiceLog holding ``batches`` in order."""
    log = ServiceLog()
    for slot, bank, row_id, trigger, byte_ids in batches:
        log.append(slot, bank, row_id, trigger, byte_ids)
    return log


def batches_of(log: ServiceLog) -> List[Batch]:
    """``log``'s batches as tuples, the inverse of ``make_log``."""
    ids = iter(log.byte_ids)
    return [
        (slot, bank, row_id, TRIGGERS[code], tuple(islice(ids, size)))
        for slot, bank, row_id, code, size in zip(
            log.slots, log.banks, log.row_ids, log.triggers, log.sizes
        )
    ]
