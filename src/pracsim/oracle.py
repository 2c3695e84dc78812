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
  4  conservation: after the drain, every counter is exactly up to date;
     and, given the final stored counters, each holds its saturated true
     count and no counter the trace never activated is nonzero
  5  reported totals: the run's counter-activation count equals the
     number of logged batches

Within one slot a batch violation is reported before a staleness one:
two or more batches (rule 3), then the batch's own legality (rule 2),
then its bank (rule 3), then the slot's staleness (rule 1).

The replay runs in array passes.  Activations and logged byte ids are
sorted together by (counter, slot), with a slot's activation ahead of
its batch, so each counter's stream is contiguous: the lag at an
activation is the number of activations of its counter since the last
batch that serviced it, read off running counts.  Every rule's first
failure is found this way, and only that one is formatted, by the same
per-batch checks a one-at-a-time replay would make.

Logs that cannot be parsed at all raise LogFormatError instead of
producing a verdict.
"""

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .buffers import TRIG_DRAIN, TRIGGERS
from .errors import ConfigError, LogFormatError
from .geometry import DramGeometry
from .trace import ActivationEvent, as_columns

_TRIGGER_CODE = {t: i for i, t in enumerate(TRIGGERS)}
_DRAIN = _TRIGGER_CODE[TRIG_DRAIN]
# Bytes the fast CSV path takes: digits, comma and newline.
_CSV_BYTES = np.zeros(256, dtype=bool)
_CSV_BYTES[[ord(c) for c in "0123456789,\n"]] = True
# No field of a log or state dump is near it; larger values are clipped to it.
_CLIP = 1 << 62


@dataclass(frozen=True)
class LoggedBatch:
    """One serviced batch as recorded in a run's service log."""

    slot: int
    bank: int
    row_id: int
    trigger: str
    byte_ids: Tuple[int, ...]


class ServiceLog:
    """A service log as int columns, one entry per batch.

    Batch j was serviced in the shadow of slot ``slots[j]``, in row
    ``row_ids[j]`` of bank ``banks[j]``, for trigger
    ``TRIGGERS[triggers[j]]``; its ``sizes[j]`` byte ids follow those of
    the batches before it in the flat ``byte_ids``.  ``len`` is the batch
    count; iterating or indexing yields ``LoggedBatch`` objects.
    """

    __slots__ = ("slots", "banks", "row_ids", "triggers", "sizes", "byte_ids")

    def __init__(self, *columns: List[int]):
        """An empty log, or one from its six columns in ``__slots__`` order."""
        for name, column in zip(self.__slots__, columns or [[] for _ in self.__slots__]):
            setattr(self, name, column)

    def append(
        self, slot: int, bank: int, row_id: int, trigger: str, byte_ids: Sequence[int]
    ) -> None:
        """Add one batch; an unknown trigger raises KeyError."""
        self.triggers.append(_TRIGGER_CODE[trigger])
        self.slots.append(slot)
        self.banks.append(bank)
        self.row_ids.append(row_id)
        self.sizes.append(len(byte_ids))
        self.byte_ids.extend(byte_ids)

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self):
        ids = iter(self.byte_ids)
        for slot, bank, row_id, code, size in zip(
            self.slots, self.banks, self.row_ids, self.triggers, self.sizes
        ):
            byte_ids = tuple(islice(ids, size))
            yield LoggedBatch(slot, bank, row_id, TRIGGERS[code], byte_ids)

    def __getitem__(self, j: int) -> LoggedBatch:
        start = sum(self.sizes[:j])
        return LoggedBatch(
            self.slots[j],
            self.banks[j],
            self.row_ids[j],
            TRIGGERS[self.triggers[j]],
            tuple(self.byte_ids[start : start + self.sizes[j]]),
        )

    def __eq__(self, other):
        if not isinstance(other, ServiceLog):
            return NotImplemented
        return all(
            list(getattr(self, c)) == list(getattr(other, c)) for c in self.__slots__
        )


def as_log(batches: Iterable[LoggedBatch]) -> ServiceLog:
    """``batches`` as a ServiceLog: a ServiceLog as it is, else a sequence
    of ``LoggedBatch``; an unknown trigger raises LogFormatError."""
    if isinstance(batches, ServiceLog):
        return batches
    log = ServiceLog()
    for j, b in enumerate(batches):
        try:
            log.append(b.slot, b.bank, b.row_id, b.trigger, b.byte_ids)
        except KeyError:
            raise LogFormatError(f"batch {j}: unknown trigger {b.trigger!r}") from None
    return log


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
    log = as_log(batches)
    ids = iter(log.byte_ids)
    lines = [
        f"{slot},{bank},{row_id},{TRIGGERS[code]},{size},"
        f"{','.join(map(str, islice(ids, size)))}\n"
        for slot, bank, row_id, code, size in zip(
            log.slots, log.banks, log.row_ids, log.triggers, log.sizes
        )
    ]
    stream.write("slot,bank,row_id,trigger,n_items,byte_ids\n" + "".join(lines))


def read_log(stream) -> ServiceLog:
    """Parse a service-log CSV; malformed rows raise LogFormatError.

    A log of plain decimal fields is split in array passes; any other
    text, a malformed row included, is read line by line, which gives
    the same batches or names the first bad line.
    """
    text = stream.read()
    body = text.partition("\n")[2] if text.startswith("slot,") else text
    try:
        values, first, counts, triggers = split_decimal_csv(body, text_column=3)
        codes = [_TRIGGER_CODE[t] for t in triggers]
    except (ValueError, KeyError):
        return _read_log_lines(text)
    sizes = counts - 5
    if sizes.size and (sizes.min() < 0 or (values[first + 4] != sizes).any()):
        return _read_log_lines(text)
    head = np.zeros(values.size, dtype=bool)
    for k in range(5):
        head[first + k] = True
    return ServiceLog(
        values[first].tolist(),
        values[first + 1].tolist(),
        values[first + 2].tolist(),
        codes,
        sizes.tolist(),
        values[~head].tolist(),
    )


def _read_log_lines(text: str) -> ServiceLog:
    log = ServiceLog()
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
            byte_ids = [int(x) for x in parts[5:]]
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
        log.append(slot, bank, row_id, trigger, byte_ids)
    return log


def split_decimal_csv(
    body: str, text_column: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[str]]:
    """Split lines of comma-separated decimal fields in array passes.

    Returns ``(values, first, counts, texts)``: every field's value in
    order, the index in ``values`` of each line's first field, each
    line's field count, and each line's field ``text_column`` as a
    string (its value reads 0).  Raises ValueError unless every other
    field is 1 to 18 ASCII digits and every line has a field
    ``text_column``; within those limits the values equal ``int`` of the
    fields.
    """
    if body and not body.endswith("\n"):
        body += "\n"
    buf = np.frombuffer(body.encode("ascii"), dtype=np.uint8).copy()
    if not buf.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, []
    seps = np.flatnonzero((buf == 44) | (buf == 10))
    starts = np.concatenate(([0], seps[:-1] + 1))
    last = np.flatnonzero(buf[seps] == 10)
    first = np.concatenate(([0], last[:-1] + 1))
    counts = last - first + 1
    texts = []
    if text_column is not None:
        if counts.min() <= text_column:
            raise ValueError("a line is too short")
        t0, t1 = starts[first + text_column], seps[first + text_column]
        texts = [body[a:b] for a, b in zip(t0.tolist(), t1.tolist())]
        cover = np.zeros(buf.size + 1, dtype=np.int64)
        cover[t0] += 1
        cover[t1] -= 1
        buf[np.cumsum(cover[:-1]) > 0] = ord("0")
    lengths = seps - starts
    if not _CSV_BYTES[buf].all() or lengths.min() < 1 or lengths.max() > 18:
        raise ValueError("not plain decimal fields")
    buf[seps] = ord(",")
    values = np.fromstring(buf.tobytes(), dtype=np.int64, sep=",")
    return values, first, counts, texts


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




def _shadow_problem(
    batches: List[LoggedBatch], bank: int, geometry: DramGeometry, m_batch: int
) -> Tuple[int, str]:
    """(rule, message) of a body slot's batches, checked in priority order."""
    if len(batches) > 1:
        return 3, f"{len(batches)} batches in one shadow"
    (b,) = batches
    if b.trigger == TRIG_DRAIN:
        return 2, "drain-trigger batch inside the trace body"
    problem = _check_batch(b, geometry, m_batch)
    if problem:
        return 2, problem
    return 3, f"batch bank {b.bank} but activation bank {bank}"


def _int64(values) -> np.ndarray:
    """``values`` as int64, any beyond +-2**62 clipped to it; such a value
    is out of range for every field, so range checks read the same."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([min(max(v, -_CLIP), _CLIP) for v in values], dtype=np.int64)


class _Keys:
    """Counters as int64 keys that sort in (bank, row_id, byte_id) order.

    A counter inside the geometry is ``bank * rows_per_bank + data_row``,
    its index in the store's flat bytes.  A trace can name counters
    outside it (``verify`` takes any events); those get the keys from
    ``size`` up, in their own (bank, data_row) order, and are never
    serviced, since rule 2 refuses a batch outside the geometry.
    """

    def __init__(self, geometry: DramGeometry, banks: np.ndarray, rows: np.ndarray):
        self.cpc = geometry.counters_per_counter_row
        self.rows_per_bank = geometry.rows_per_bank
        self.size = geometry.banks * self.rows_per_bank
        inside = (banks >= 0) & (banks < geometry.banks) & (rows >= 0)
        inside &= rows < self.rows_per_bank
        self.of_activations = np.where(inside, banks * self.rows_per_bank + rows, 0)
        self.outside = np.zeros((0, 2), dtype=np.int64)
        if not inside.all():
            pairs = np.stack((banks[~inside], rows[~inside]), axis=1)
            self.outside, rank = np.unique(pairs, axis=0, return_inverse=True)
            self.of_activations[~inside] = self.size + rank.reshape(-1)

    def counter(self, key: int) -> Tuple[int, int, int]:
        if key < self.size:
            bank, data_row = divmod(int(key), self.rows_per_bank)
        else:
            bank, data_row = self.outside[key - self.size].tolist()
        return (bank, *divmod(data_row, self.cpc))


def _replay(act_keys: np.ndarray, item_keys: np.ndarray, item_slots: np.ndarray):
    """Replay the activations and serviced byte ids, counter by counter.

    Returns ``(lags, counters, totals, applied)``: each activation's lag
    after its slot's batch; the distinct counter keys in order; and per
    counter its activations and the count its last batch made visible.
    """
    n = act_keys.size
    keys = np.concatenate((act_keys, item_keys))
    when = np.concatenate((np.arange(n), item_slots))
    is_item = np.concatenate((np.zeros(n, np.int64), np.ones(item_keys.size, np.int64)))
    counters, rank = np.unique(keys, return_inverse=True)
    # Ranks, not keys, keep the sort key small: (rank, slot, activation first).
    order = np.argsort((rank * (n + 1) + when) * 2 + is_item)
    rank, when, is_act = rank[order], when[order], is_item[order] == 0
    at = np.arange(order.size)
    seen = np.concatenate(([0], np.cumsum(is_act)))  # activations before each position
    start = np.flatnonzero(np.diff(rank, prepend=-1))
    end = np.flatnonzero(np.diff(rank, append=-1))
    last_item = np.maximum.accumulate(np.where(is_act, -1, at))
    since = np.maximum(last_item, start[rank] - 1)
    lag = seen[at + 1] - seen[since + 1]
    # A batch on the counter in the activation's own slot sorts right after it.
    lag[:-1][(rank[1:] == rank[:-1]) & (when[1:] == when[:-1])] = 0
    lags = np.zeros(n, dtype=np.int64)
    lags[when[is_act]] = lag[is_act]
    totals = seen[end + 1] - seen[start]
    last = last_item[end]
    applied = np.where(last >= start, seen[last + 1] - seen[start], 0)
    return lags, counters, totals, applied


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
    a gap raises LogFormatError.  ``batches`` is a ``ServiceLog`` or a
    sequence of ``LoggedBatch`` (see ``as_log``).
    ``final_values``, when given, holds the run's post-drain stored
    counters: the store's ``values`` array, shaped like the geometry; a
    mapping {(bank, row_id, byte_id): value}; or a state dump's columns
    ``(banks, row_ids, byte_ids, values)``, where a counter listed twice
    keeps its last value.  A counter a mapping or dump leaves out is 0.
    Each activated counter must hold its saturated true count and every
    other counter 0.  Only applies to runs without a cache and with
    mitigation disabled, since the log does not carry cache hits or
    alert resets.
    """
    trace = as_columns(events, LogFormatError)
    log = as_log(batches)
    n = len(trace)
    slots = _int64(log.slots)
    beyond = np.flatnonzero(slots > n)
    if beyond.size:
        raise LogFormatError(f"batch slot {log.slots[beyond[0]]} beyond drain slot {n}")

    cpc = geometry.counters_per_counter_row
    act_banks = _int64(trace.banks)
    keys = _Keys(geometry, act_banks, _int64(trace.rows))
    banks, row_ids = _int64(log.banks), _int64(log.row_ids)
    byte_ids = _int64(log.byte_ids)
    codes = np.asarray(log.triggers, dtype=np.int64)
    sizes = np.asarray(log.sizes, dtype=np.int64)
    item_batch = np.repeat(np.arange(len(log)), sizes)

    # _check_batch for every batch at once.
    byte_ok = (byte_ids >= 0) & (byte_ids < cpc)
    bad_bytes = np.zeros(len(log), dtype=bool)
    bad_bytes[item_batch[~byte_ok]] = True
    pairs = np.sort(item_batch * cpc + np.where(byte_ok, byte_ids, 0))
    bad_bytes[pairs[1:][pairs[1:] == pairs[:-1]] // cpc] = True
    placed = (banks >= 0) & (banks < geometry.banks) & (row_ids >= 0)
    placed &= row_ids < geometry.counter_rows_per_bank
    legal = placed & (sizes >= 1) & (sizes <= m_batch) & ~bad_bytes

    # The first body slot with several batches or a bad one; a batch at a
    # negative slot is never replayed, since no activation has its slot.
    body = np.flatnonzero((slots >= 0) & (slots < n))
    body_slots = slots[body]
    bad = ~legal[body] | (codes[body] == _DRAIN) | (banks[body] != act_banks[body_slots])
    crowded = np.flatnonzero(np.bincount(body_slots, minlength=n) > 1)
    shadow_fail = min(crowded.min(initial=n), body_slots[bad].min(initial=n))

    # The byte ids the replay applies; those of a misplaced batch get key -1,
    # which no activation has (they only matter after its slot has failed).
    live = slots[item_batch] >= 0
    item_batch, item_bytes = item_batch[live], byte_ids[live]
    ok = placed[item_batch] & byte_ok[live]
    item_keys = np.full(item_batch.size, -1, dtype=np.int64)
    at = item_batch[ok]
    item_keys[ok] = (banks[at] * geometry.counter_rows_per_bank + row_ids[at]) * cpc
    item_keys[ok] += item_bytes[ok]
    lags, counters, totals, applied = _replay(
        keys.of_activations, item_keys, slots[item_batch]
    )

    stale = np.flatnonzero(lags > staleness_bound)
    lag_fail = stale[0] if stale.size else n
    if shadow_fail < n and shadow_fail <= lag_fail:
        slot = int(shadow_fail)
        rule, message = _shadow_problem(
            [log[j] for j in np.flatnonzero(slots == slot).tolist()],
            trace.banks[slot],
            geometry,
            m_batch,
        )
        return Verdict(False, rule, slot, message)
    if lag_fail < n:
        slot = int(lag_fail)
        key = keys.counter(keys.of_activations[slot])
        return Verdict(
            False,
            1,
            slot,
            f"counter {key} lags by {lags[slot]} > bound {staleness_bound}",
        )

    for j in np.flatnonzero(slots == n).tolist():
        if codes[j] != _DRAIN:
            trigger = TRIGGERS[codes[j]]
            return Verdict(False, 2, n, f"trigger {trigger!r} at the drain slot")
        if not legal[j]:
            return Verdict(False, 2, n, _check_batch(log[j], geometry, m_batch))

    # Every counter outside the geometry is behind; its keys sort last, so
    # the first such counter competes with the first behind inside it.
    behind = np.flatnonzero(applied != totals)
    if behind.size:
        first = [behind[0]]
        if keys.outside.size:
            first.append(np.searchsorted(counters, keys.size))
        i = min(first, key=lambda i: keys.counter(counters[i]))
        return Verdict(
            False,
            4,
            n,
            f"counter {keys.counter(counters[i])} ends at {applied[i]} of {totals[i]} "
            "true activations",
        )

    if final_values is not None:
        problem = _stored_problem(final_values, counters, totals, geometry)
        if problem:
            return Verdict(False, 4, n, problem)

    if reported_counter_acts is not None and reported_counter_acts != len(log):
        return Verdict(
            False,
            5,
            n,
            f"reported {reported_counter_acts} counter acts, log has {len(log)}",
        )
    return Verdict(True)


def _among(keys: np.ndarray, ordered: np.ndarray) -> np.ndarray:
    """Whether each of ``keys`` is in ``ordered``, which is sorted."""
    pos = np.minimum(np.searchsorted(ordered, keys), max(ordered.size - 1, 0))
    return ordered[pos] == keys if ordered.size else np.zeros(keys.size, dtype=bool)


def _stored_problem(final_values, counters, totals, geometry) -> Optional[str]:
    """The first counter, in key order, whose stored value is not its
    saturated true count (0 for a counter never activated), as a message.

    ``counters`` are the replay's keys, all inside the geometry once
    conservation holds, with their activation ``totals``.
    """
    shape = (
        geometry.banks,
        geometry.counter_rows_per_bank,
        geometry.counters_per_counter_row,
    )
    if isinstance(final_values, np.ndarray):
        if final_values.shape != shape:
            raise ConfigError(
                f"final values have shape {final_values.shape}, not {shape}"
            )
        flat = final_values.reshape(-1)
        stored = flat[counters]
        strays = np.zeros(0, dtype=np.int64)
        # One count tells whether any counter outside ``counters`` is nonzero.
        if np.count_nonzero(flat) > np.count_nonzero(stored):
            nonzero = np.flatnonzero(flat)
            strays = nonzero[~_among(nonzero, counters)]
        outside = []

        def value_at(key):
            return int(final_values[key])

    else:
        if isinstance(final_values, Mapping):
            columns = [list(c) for c in zip(*final_values)] or [[], [], []]
            columns.append(list(final_values.values()))
        else:
            columns = list(final_values)
        stored, strays, outside = _listed_state(columns, counters, shape)

        def value_at(key):
            listed = reversed(list(zip(*columns)))
            return next((int(v) for *k, v in listed if tuple(k) == key), 0)

    expected = np.minimum(totals, 255)
    wrong = np.flatnonzero(stored != expected)
    found = [(key, 0) for key in outside]
    if wrong.size:
        found.append((counters[wrong[0]], int(expected[wrong[0]])))
    if strays.size:
        found.append((strays[0], 0))
    if not found:
        return None
    key, want = min(
        (k if isinstance(k, tuple) else tuple(map(int, np.unravel_index(k, shape))), w)
        for k, w in found
    )
    return f"stored counter {key} is {value_at(key)}, expected {want}"


def _listed_state(columns, counters, shape):
    """Listed counters ``(banks, row_ids, byte_ids, values)`` against the
    replay's: ``(stored, strays, outside)``, the value listed last for
    each of ``counters`` (0 if none), the keys of the other nonzero
    counters inside the geometry, and those outside it as tuples."""
    b, r, c, v = (_int64(col) for col in columns)
    inside = (b >= 0) & (b < shape[0]) & (r >= 0) & (r < shape[1]) & (c >= 0)
    inside &= c < shape[2]
    at = np.flatnonzero(inside)
    flat = (b[at] * shape[1] + r[at]) * shape[2] + c[at]
    order = np.argsort(flat, kind="stable")
    flat, value = flat[order], v[at][order]
    last = np.ones(flat.size, dtype=bool)
    last[:-1] = flat[1:] != flat[:-1]
    flat, value = flat[last], value[last]
    stored = np.zeros(counters.size, dtype=np.int64)
    pos = np.searchsorted(flat, counters)
    hit = pos < flat.size
    hit[hit] = flat[pos[hit]] == counters[hit]
    stored[hit] = value[pos[hit]]
    strays = flat[(value != 0) & ~_among(flat, counters)]
    outside = {}
    for i in np.flatnonzero(~inside).tolist():
        outside[tuple(int(col[i]) for col in columns[:3])] = columns[3][i]
    return stored, strays, [k for k, x in outside.items() if x]
