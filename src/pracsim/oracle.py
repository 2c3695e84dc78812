"""Replay-based reference checker for batch service logs.

The checker is independent of buffer internals: it replays the trace
against the log, tracking for every counter the true activation count
and the count most recently made visible by a serviced batch.  Because
servicing a row always applies everything queued for it, a batch brings
its bytes exactly up to date; no increment amounts need to be logged.

Checked rules, in the order violations are reported:

  1  staleness: no counter's visible count lags its true count by more
     than the configured bound at any point in the trace body
  2  batch legality: 1..M distinct in-range bytes per batch, a known
     trigger, drain batches only at the drain slot and vice versa
  3  shadow discipline: at most one batch per trace slot, in the bank
     activated at that slot
  4  conservation: after the drain, every counter is exactly up to date
  5  reported totals: the run's counter-activation count equals the
     number of logged batches

Logs that cannot be parsed at all raise LogFormatError instead of
producing a verdict.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .buffers import TRIG_DRAIN, TRIGGERS
from .errors import LogFormatError
from .geometry import DramGeometry
from .trace import ActivationEvent, as_columns


@dataclass(frozen=True)
class LoggedBatch:
    """One serviced batch as recorded in a run's service log."""

    slot: int
    bank: int
    row_id: int
    trigger: str
    byte_ids: Tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification replay; rule and slot locate the failure."""

    ok: bool
    rule: Optional[int] = None
    slot: Optional[int] = None
    message: str = ""

    def __str__(self):
        if self.ok:
            return "pass"
        return f"rule {self.rule} violated at slot {self.slot}: {self.message}"


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
    events: Sequence[ActivationEvent],
    batches: Sequence[LoggedBatch],
    geometry: DramGeometry,
    m_batch: int = 4,
    staleness_bound: int = 4,
    reported_counter_acts: Optional[int] = None,
    final_values=None,
) -> Verdict:
    """Replay ``events`` against ``batches`` and return the first violation.

    ``events`` is a ``Trace`` or a sequence of events in consecutive slots;
    a gap raises LogFormatError.
    ``final_values``, when given, is a mapping or array indexable as
    [bank, row_id, byte_id] holding the run's post-drain stored counters;
    they must equal the saturated true counts.  Only applies to runs
    without a cache and with mitigation disabled, since the log does not
    carry cache hits or alert resets.
    """
    trace = as_columns(events, LogFormatError)
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
