"""The service-log writer, reader and verifier and the state-dump reader
as they were before the log became columnar, kept verbatim as the
reference for the differential tests in ``tests/test_oracle.py``.

``LoggedBatch`` is the per-batch record these functions take and give,
and ``batches_of`` turns a ``ServiceLog`` into a list of them.
``read_log`` returns such a list; ``verify`` replays one activation at a
time against a dict per slot; ``_read_state`` is the CLI's per-line
reader of a ``--state`` dump.  Nothing in ``src/`` imports this module.
"""

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from pracsim.buffers import TRIG_DRAIN, TRIGGERS
from pracsim.errors import LogFormatError, SimError
from pracsim.geometry import DramGeometry
from pracsim.oracle import ServiceLog, Verdict
from pracsim.trace import Trace
from service_logs import batches_of as tuples_of


@dataclass(frozen=True)
class LoggedBatch:
    """One serviced batch as recorded in a run's service log."""

    slot: int
    bank: int
    row_id: int
    trigger: str
    byte_ids: Tuple[int, ...]


def batches_of(log: ServiceLog) -> List[LoggedBatch]:
    """``log``'s batches as ``LoggedBatch`` records."""
    return [LoggedBatch(*batch) for batch in tuples_of(log)]


def write_log(batches: Iterable[LoggedBatch], stream) -> None:
    """Write the service-log CSV: slot,bank,row_id,trigger,n_items,bytes..."""
    stream.write("slot,bank,row_id,trigger,n_items,byte_ids\n")
    for b in batches:
        bytes_part = ",".join(str(x) for x in b.byte_ids)
        stream.write(
            f"{b.slot},{b.bank},{b.row_id},{b.trigger},{len(b.byte_ids)},{bytes_part}\n"
        )


def read_log(stream) -> List[LoggedBatch]:
    """Parse a service-log CSV; malformed rows raise LogFormatError."""
    batches = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.startswith("slot,"):
            continue
        parts = line.split(",")
        if len(parts) < 5:
            raise LogFormatError(f"line {lineno}: expected at least 5 fields")
        try:
            slot, bank, row_id = int(parts[0]), int(parts[1]), int(parts[2])
            trigger = parts[3]
            n_items = int(parts[4])
            byte_ids = tuple(int(x) for x in parts[5:])
        except ValueError:
            raise LogFormatError(f"line {lineno}: non-integer field") from None
        if trigger not in TRIGGERS:
            raise LogFormatError(f"line {lineno}: unknown trigger {trigger!r}")
        if n_items != len(byte_ids):
            raise LogFormatError(
                f"line {lineno}: n_items {n_items} but {len(byte_ids)} byte ids"
            )
        if slot < 0:
            raise LogFormatError(f"line {lineno}: negative slot {slot}")
        batches.append(LoggedBatch(slot, bank, row_id, trigger, byte_ids))
    return batches


def _check_batch(batch: LoggedBatch, geometry: DramGeometry, m_batch: int) -> Optional[str]:
    if not 0 <= batch.bank < geometry.banks:
        return f"bank {batch.bank} out of range"
    if not 0 <= batch.row_id < geometry.counter_rows_per_bank:
        return f"row_id {batch.row_id} out of range"
    if not 1 <= len(batch.byte_ids) <= m_batch:
        return f"batch has {len(batch.byte_ids)} items, legal range is [1, {m_batch}]"
    if len(set(batch.byte_ids)) != len(batch.byte_ids):
        return "duplicate byte ids in one batch"
    for byte_id in batch.byte_ids:
        if not 0 <= byte_id < geometry.counters_per_counter_row:
            return f"byte_id {byte_id} out of range"
    return None


def verify(
    trace: Trace,
    batches: Sequence[LoggedBatch],
    geometry: DramGeometry,
    m_batch: int = 4,
    staleness_bound: int = 4,
    reported_counter_acts: Optional[int] = None,
    final_values=None,
) -> Verdict:
    """Replay ``trace`` against ``batches`` and return the first violation.

    ``final_values``, when given, is a mapping or array indexable as
    [bank, row_id, byte_id] holding the run's post-drain stored counters;
    they must equal the saturated true counts.  Only applies to runs
    without a cache and with mitigation disabled, since the log does not
    carry cache hits or alert resets.
    """
    n = len(trace)
    by_slot: Dict[int, List[LoggedBatch]] = {}
    for b in batches:
        if b.slot > n:
            raise LogFormatError(
                f"batch slot {b.slot} beyond drain slot {n}"
            )
        by_slot.setdefault(b.slot, []).append(b)

    cpc = geometry.counters_per_counter_row
    true: Dict[tuple, int] = {}
    applied: Dict[tuple, int] = {}

    def apply_batch(b: LoggedBatch) -> None:
        for byte_id in b.byte_ids:
            key = (b.bank, b.row_id, byte_id)
            applied[key] = true.get(key, 0)

    for i, (bank, data_row) in enumerate(zip(trace.banks, trace.rows)):
        row_id, byte_id = divmod(data_row, cpc)
        key = (bank, row_id, byte_id)
        true[key] = true.get(key, 0) + 1
        slot_batches = by_slot.get(i, ())
        if len(slot_batches) > 1:
            return Verdict(False, 3, i, f"{len(slot_batches)} batches in one shadow")
        for b in slot_batches:
            if b.trigger == TRIG_DRAIN:
                return Verdict(False, 2, i, "drain-trigger batch inside the trace body")
            problem = _check_batch(b, geometry, m_batch)
            if problem:
                return Verdict(False, 2, i, problem)
            if b.bank != bank:
                return Verdict(
                    False, 3, i, f"batch bank {b.bank} but activation bank {bank}"
                )
            apply_batch(b)
        gap = true[key] - applied.get(key, 0)
        if gap > staleness_bound:
            return Verdict(
                False, 1, i, f"counter {key} lags by {gap} > bound {staleness_bound}"
            )

    for b in by_slot.get(n, ()):
        if b.trigger != TRIG_DRAIN:
            return Verdict(
                False, 2, n, f"trigger {b.trigger!r} at the drain slot"
            )
        problem = _check_batch(b, geometry, m_batch)
        if problem:
            return Verdict(False, 2, n, problem)
        apply_batch(b)

    # Sorted once: both checks below report their first violation in key order.
    ordered = sorted(true.items())
    for key, t in ordered:
        if applied.get(key, 0) != t:
            return Verdict(
                False,
                4,
                n,
                f"counter {key} ends at {applied.get(key, 0)} of {t} true activations",
            )

    if final_values is not None:
        for key, t in ordered:
            stored = int(final_values[key])
            if stored != min(255, t):
                return Verdict(
                    False,
                    4,
                    n,
                    f"stored counter {key} is {stored}, expected {min(255, t)}",
                )

    if reported_counter_acts is not None and reported_counter_acts != len(batches):
        return Verdict(
            False,
            5,
            n,
            f"reported {reported_counter_acts} counter acts, log has {len(batches)}",
        )
    return Verdict(True)


def _read_state(path: str) -> Dict[tuple, int]:
    """A final counter dump CSV as {(bank, row_id, byte_id): value}."""
    values = defaultdict(int)
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("bank,"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise SimError(f"state dump {path} line {lineno}: expected 4 fields")
            try:
                b, r, c, v = (int(x) for x in parts)
            except ValueError:
                raise SimError(
                    f"state dump {path} line {lineno}: non-integer field"
                ) from None
            values[(b, r, c)] = v
    return values
