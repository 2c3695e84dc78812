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
sorted together, in one argsort of an int64 code, by (counter, slot),
with a slot's activation ahead of its batch, so each counter's stream
is contiguous: the lag at an activation is the number of activations of
its counter since the last batch that serviced it, read off running
counts.  The counters' runs, and the byte ids a batch lists twice, are
read off the same order.  Every rule's first failure is found this way,
and only that one is formatted, by the same per-batch checks a
one-at-a-time replay would make.  The final-state check looks for a
nonzero counter the trace never activated only in the banks that hold
a nonzero byte, found with one maximum per bank.

Logs that cannot be parsed at all, and activations outside the
geometry, raise LogFormatError instead of producing a verdict.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import csvout
from .buffers import TRIG_DRAIN, TRIGGERS
from .errors import ConfigError, LogFormatError
from .geometry import DramGeometry
from .trace import Trace

_TRIGGER_CODE = {t: i for i, t in enumerate(TRIGGERS)}
_DRAIN = _TRIGGER_CODE[TRIG_DRAIN]
# No field of a log or state dump is near it; larger values are clipped to it.
_CLIP = 1 << 62


class ServiceLog:
    """A service log as int columns, one entry per batch.

    Batch j was serviced in the shadow of slot ``slots[j]``, in row
    ``row_ids[j]`` of bank ``banks[j]``, for trigger
    ``TRIGGERS[triggers[j]]``; its ``sizes[j]`` byte ids follow those of
    the batches before it in the flat ``byte_ids``.  ``len`` is the batch
    count.  A log built in memory holds lists; one that ``read_log``
    parsed holds int64 arrays, but for object arrays of ints in the
    columns taken from its fields if one has more than 18 digits.
    """

    __slots__ = ("slots", "banks", "row_ids", "triggers", "sizes", "byte_ids")

    def __init__(self, *columns: Sequence[int]):
        """An empty log, or one from its six columns in ``__slots__`` order."""
        for name, column in zip(self.__slots__, columns or [[] for _ in self.__slots__]):
            setattr(self, name, column)

    def append(
        self, slot: int, bank: int, row_id: int, trigger: str, byte_ids: Sequence[int]
    ) -> None:
        """Add one batch to a log built in memory, whose columns are
        lists; an unknown trigger raises KeyError."""
        self.triggers.append(_TRIGGER_CODE[trigger])
        self.slots.append(slot)
        self.banks.append(bank)
        self.row_ids.append(row_id)
        self.sizes.append(len(byte_ids))
        self.byte_ids.extend(byte_ids)

    def __len__(self) -> int:
        return len(self.slots)


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


def write_log(log: ServiceLog, stream) -> None:
    """Write the service-log CSV: slot,bank,row_id,trigger,n_items,bytes...

    A batch without byte ids ends at its ``n_items`` field, 0.  Written
    in array passes, a chunk of lines at a time (``csvout.write``): the
    trigger, with the commas around it, is a text column, and the byte
    ids end each line as its items.
    """
    sizes = np.asarray(log.sizes, dtype=np.int64)
    csvout.write(
        stream,
        "slot,bank,row_id,trigger,n_items,byte_ids\n",
        [
            log.slots, ",", log.banks, ",", log.row_ids,
            (log.triggers, [f",{t}," for t in TRIGGERS]), sizes,
        ],
        items=(log.byte_ids, sizes),
    )  # fmt: skip


def read_log(stream) -> ServiceLog:
    """Parse a service-log CSV into a ServiceLog of array columns, blank
    lines and a ``slot,`` header on line 1 skipped; the first malformed
    line raises LogFormatError naming it."""
    values, first, counts, texts, lines, bad = split_decimal_csv(stream.read(), "slot,", 3)
    n = np.flatnonzero(counts[:bad] < 5).min(initial=bad)
    first, sizes = first[:n], counts[:n] - 5
    raw, t0, width = texts
    codes = _text_codes(raw, t0[:n], width[:n], TRIGGERS)
    slots, banks, row_ids, n_items = (values[first + k] for k in (0, 1, 2, 4))
    j = np.flatnonzero((codes < 0) | (n_items != sizes) | (slots < 0)).min(initial=n)
    if j < lines.size:
        if j == n:
            problem = "expected at least 5 fields" if counts[j] < 5 else "non-integer field"
        elif codes[j] < 0:
            trigger = raw[t0[j] : t0[j] + width[j]].tobytes().decode()
            problem = f"unknown trigger {trigger!r}"
        elif n_items[j] != sizes[j]:
            problem = f"n_items {n_items[j]} but {sizes[j]} byte ids"
        else:
            problem = f"negative slot {slots[j]}"
        raise LogFormatError(f"line {lines[j]}: {problem}")
    head = np.zeros(values.size, dtype=bool)
    for k in range(5):
        head[first + k] = True
    return ServiceLog(slots, banks, row_ids, codes, sizes, values[~head])


def _text_codes(
    buf: np.ndarray, start: np.ndarray, width: np.ndarray, names: Sequence[str]
) -> np.ndarray:
    """The index in ``names`` of each field ``buf[start[j] : start[j] +
    width[j]]``, or -1.  Each name keeps the fields of its byte length,
    then narrows them one byte position at a time."""
    codes = np.full(start.size, -1, dtype=np.int64)
    for code, name in enumerate(names):
        pattern = name.encode()
        j = np.flatnonzero(width == len(pattern))
        for k, byte in enumerate(pattern):
            j = j[buf[start[j] + k] == byte]
        codes[j] = code
    return codes


def _fields(buf: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Where ``buf``'s commas and newlines are, where each field starts and
    each line's first field; the last two end with the byte and field count."""
    seps = np.flatnonzero((buf == 44) | (buf == 10))
    last = np.flatnonzero(buf[seps] == 10)
    return seps, np.concatenate(([0], seps + 1)), np.concatenate(([0], last + 1))


def split_decimal_csv(
    text: str, header: str, text_column: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[tuple], np.ndarray, int]:
    """Split lines of comma-separated decimal fields in array passes.

    Lines end at ``\\n`` and are stripped as ``str.strip`` strips them, a
    pass taken only if the text holds non-ASCII or the ASCII whitespace
    ``str.strip`` strips but for ``\\n``.  Empty lines are skipped, and so
    is line 1 if it starts with ``header``.  A decimal field is ASCII
    digits after an optional ``-``.

    Returns ``(values, first, counts, texts, lines, bad)``: each kept
    line's 1-based number in ``lines`` and field count in ``counts``, and
    the index ``bad`` of the first one holding a non-decimal field other
    than field ``text_column``, or no such field (``len(lines)`` if none).
    For the lines before it, ``values`` holds every field's value (field
    ``text_column`` reads 0) and ``first`` the index there of each line's
    first field.  ``values`` is int64, or object if a field has more than
    18 digits.  ``texts`` is None without a ``text_column``; with one it
    is ``(raw, start, width)``, and line j's field ``text_column`` is the
    UTF-8 bytes ``raw[start[j] : start[j] + width[j]]`` of the stripped
    text, so that no line's text becomes a str unless a caller asks.
    """
    if not text.isascii() or any(map(text.__contains__, " \t\r\x0b\x0c\x1c\x1d\x1e\x1f")):
        text = "\n".join([line.strip() for line in text.split("\n")])
    skip = text.startswith(header)
    body = text.partition("\n")[2] if skip else text
    if body and not body.endswith("\n"):
        body += "\n"
    data = body.encode()
    buf = np.frombuffer(data, dtype=np.uint8)
    seps, starts, first = _fields(buf)
    lengths, counts = seps - starts[:-1], np.diff(first)
    lines = np.arange(1 + skip, 1 + skip + counts.size)
    # A plain text has no empty field, so no empty line (a line of one empty
    # field), and no field too long for int64.
    plain = lengths.min(initial=1) >= 1 and lengths.max(initial=0) <= 18
    empty = None if plain else (counts == 1) & (lengths[first[:-1]] == 0)
    if empty is not None and empty.any():
        lines, buf = lines[~empty], np.delete(buf, seps[first[:-1][empty]])
        seps, starts, first = _fields(buf)
        lengths, counts, data = seps - starts[:-1], np.diff(first), buf.tobytes()
    bad, texts = counts.size, None
    if text_column is not None:
        bad = np.flatnonzero(counts <= text_column).min(initial=bad)
        t = first[:bad] + text_column
        # Each text field's width[j] bytes from t0[j], kept, then rewritten as zeros.
        t0, width = starts[t], lengths[t]
        at = np.repeat(t0 - np.cumsum(width) + width, width) + np.arange(width.sum())
        texts = buf, t0, width
        buf = buf.copy()
        buf[at] = ord("0")
        data = buf.tobytes()
        lengths[t] = 1  # A text field may be empty or long.
    if not plain or data.translate(None, b"0123456789,\n"):
        digit = (buf >= 48) & (buf <= 57)
        odd = np.flatnonzero(~digit & (buf != 44) & (buf != 10))
        field = np.searchsorted(seps, odd)
        # A "-" is a sign if it opens its field and a digit follows.
        sign = (buf[odd] == 45) & (odd == starts[field]) & digit[odd + 1]
        lengths[field[sign]] -= 1
        wrong = np.concatenate((field[~sign], np.flatnonzero(lengths < 1), first[-1:]))
        bad = min(bad, np.searchsorted(first, wrong.min(), side="right") - 1)
    long = not plain and lengths[: first[bad]].max(initial=0) > 18
    chunk = data[: starts[first[bad]]].replace(b"\n", b",")
    if not plain:
        # Before the bad line only a text field can be empty; it reads 0 too.
        chunk = chunk.replace(b",,", b",0,")
    if long:
        values = np.array([int(x) for x in chunk.split(b",")[:-1]], dtype=object)
    else:
        values = np.fromstring(chunk, dtype=np.int64, sep=",")
    if texts is not None:
        texts = texts[0], texts[1][:bad], texts[2][:bad]
    return values, first[:bad], counts, texts, lines, int(bad)


def _check_batch(
    log: ServiceLog, sizes: np.ndarray, j: int, geometry: DramGeometry, m_batch: int
) -> Optional[str]:
    """Batch ``j``'s first legality problem; ``sizes`` is ``log.sizes``."""
    start = int(sizes[:j].sum())
    byte_ids = log.byte_ids[start : start + log.sizes[j]]
    if not 0 <= log.banks[j] < geometry.banks:
        return f"bank {log.banks[j]} out of range"
    if not 0 <= log.row_ids[j] < geometry.counter_rows_per_bank:
        return f"row_id {log.row_ids[j]} out of range"
    if not 1 <= len(byte_ids) <= m_batch:
        return f"batch has {len(byte_ids)} items, legal range is [1, {m_batch}]"
    if len(set(byte_ids)) != len(byte_ids):
        return "duplicate byte ids in one batch"
    for byte_id in byte_ids:
        if not 0 <= byte_id < geometry.counters_per_counter_row:
            return f"byte_id {byte_id} out of range"
    return None


def _shadow_problem(
    log: ServiceLog,
    sizes: np.ndarray,
    batches: List[int],
    bank: int,
    geometry: DramGeometry,
    m_batch: int,
) -> Tuple[int, str]:
    """(rule, message) of a body slot's batches, checked in priority order."""
    if len(batches) > 1:
        return 3, f"{len(batches)} batches in one shadow"
    (j,) = batches
    if log.triggers[j] == _DRAIN:
        return 2, "drain-trigger batch inside the trace body"
    problem = _check_batch(log, sizes, j, geometry, m_batch)
    if problem:
        return 2, problem
    return 3, f"batch bank {log.banks[j]} but activation bank {bank}"


def _int64(values) -> np.ndarray:
    """``values`` as int64, any beyond +-2**62 clipped to it; such a value
    is out of range for every field, so range checks read the same."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([min(max(v, -_CLIP), _CLIP) for v in values], dtype=np.int64)


def _counter(key: int, shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """A counter's (bank, row_id, byte_id) from its index in the store's bytes."""
    return tuple(int(x) for x in np.unravel_index(key, shape))


def _replay(act_keys, item_keys, item_slots, item_batch, key_space):
    """Replay the activations and serviced byte ids, counter by counter.

    Keys lie in [-1, ``key_space``); -1 marks a byte id no counter has.
    Returns ``(lags, counters, totals, applied, repeats)``: each
    activation's lag after its slot's batch; the distinct counter keys in
    order; per counter its activations and the count its last batch made
    visible; and the batches, by index, that list a counter's byte twice.
    """
    n = act_keys.size
    keys = np.concatenate((act_keys, item_keys))
    m = keys.size
    # One sort code, (counter, slot, activation first); ranks stand in for
    # keys when a key times the slot span could overflow int64.
    span = 2 * (n + 1)
    if (key_space + 1) * span < 2**63:
        code = keys + 1
    else:
        code = np.unique(keys, return_inverse=True)[1]
    code *= span
    code[:n] += np.arange(0, 2 * n, 2)
    code[n:] += 2 * item_slots + 1
    order = np.argsort(code)
    code, keys = code[order], keys[order]
    is_act = order < n
    pos = np.int32 if m < 2**31 else np.int64
    # Each counter's run of positions, [start, end].
    edges = np.ones(m + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    edges = np.flatnonzero(edges)
    start, end = edges[:-1], edges[1:] - 1
    seen = np.zeros(m + 1, dtype=pos)  # activations before each position
    np.cumsum(is_act, dtype=pos, out=seen[1:])
    # The last batch position at or before each one, or its counter's
    # start - 1 when its counter has had none.
    since = np.where(is_act, pos(-1), np.arange(m, dtype=pos))
    since[start] = np.maximum(since[start], start - 1)
    np.maximum.accumulate(since, out=since)
    lag = seen[1:] - seen[since + 1]
    # A batch on the counter in the activation's own slot sorts right after it.
    lag[:-1][(code[1:] >> 1) == (code[:-1] >> 1)] = 0
    lags = np.empty(n, dtype=pos)
    lags[order[is_act]] = lag[is_act]
    totals = seen[end + 1] - seen[start]
    applied = seen[since[end] + 1] - seen[start]
    # Byte ids with one code share a counter and a slot; a batch that
    # lists one twice is among them, though not always next to itself.
    repeats = np.flatnonzero((code[1:] == code[:-1]) & (keys[1:] >= 0))
    if repeats.size:
        twins = np.union1d(repeats, repeats + 1)
        group, batch = code[twins], item_batch[order[twins] - n]
        by = np.lexsort((batch, group))
        group, batch = group[by], batch[by]
        repeats = batch[1:][(group[1:] == group[:-1]) & (batch[1:] == batch[:-1])]
    return lags, keys[start], totals, applied, repeats


def verify(
    trace: Trace,
    log: ServiceLog,
    geometry: DramGeometry,
    m_batch: int = 4,
    staleness_bound: int = 4,
    reported_counter_acts: Optional[int] = None,
    final_values=None,
) -> Verdict:
    """Replay ``trace`` against ``log`` and return the first violation.

    An activation outside the geometry raises LogFormatError naming its
    slot.  ``final_values``, when given, is the run's post-drain store:
    its ``values`` array, shaped (banks, counter rows, counters per row).
    Each activated counter must hold its saturated true count and every
    other counter 0.  Only applies to runs without a cache and with
    mitigation disabled, since the log does not carry cache hits or
    alert resets.
    """
    n = len(trace)
    act_banks, act_rows = _int64(trace.banks), _int64(trace.rows)
    outside = (act_banks < 0) | (act_banks >= geometry.banks)
    outside |= (act_rows < 0) | (act_rows >= geometry.rows_per_bank)
    if outside.any():
        slot = int(np.argmax(outside))
        raise LogFormatError(
            f"slot {slot}: bank {trace.banks[slot]}, data_row {trace.rows[slot]} outside "
            f"the geometry's {geometry.banks} banks of {geometry.rows_per_bank} rows"
        )
    slots = _int64(log.slots)
    beyond = np.flatnonzero(slots > n)
    if beyond.size:
        raise LogFormatError(f"batch slot {log.slots[beyond[0]]} beyond drain slot {n}")

    cpc = geometry.counters_per_counter_row
    shape = (geometry.banks, geometry.counter_rows_per_bank, cpc)
    banks, row_ids = _int64(log.banks), _int64(log.row_ids)
    byte_ids = _int64(log.byte_ids)
    codes = np.asarray(log.triggers, dtype=np.int64)
    sizes = np.asarray(log.sizes, dtype=np.int64)
    item_batch = np.repeat(np.arange(len(log), dtype=np.int32), sizes)
    byte_ok = (byte_ids >= 0) & (byte_ids < cpc)
    placed = (banks >= 0) & (banks < geometry.banks) & (row_ids >= 0)
    placed &= row_ids < geometry.counter_rows_per_bank

    # The byte ids the replay applies; those of a misplaced batch get key -1,
    # which no activation has (they only matter after its slot has failed).
    live = slots[item_batch] >= 0
    item_batch, item_bytes = item_batch[live], byte_ids[live]
    ok = placed[item_batch] & byte_ok[live]
    item_keys = np.full(item_batch.size, -1, dtype=np.int64)
    at = item_batch[ok]
    item_keys[ok] = np.ravel_multi_index((banks[at], row_ids[at], item_bytes[ok]), shape)
    act_keys = act_banks * geometry.rows_per_bank + act_rows
    key_space = geometry.banks * geometry.rows_per_bank
    lags, counters, totals, applied, repeats = _replay(
        act_keys, item_keys, slots[item_batch], item_batch, key_space
    )

    # _check_batch for every batch at once.  A batch at a negative slot is
    # never replayed, nor its repeated byte ids found; no activation has
    # its slot, so its legality is never asked.
    bad_bytes = np.zeros(len(log), dtype=bool)
    bad_bytes[item_batch[~byte_ok[live]]] = True
    bad_bytes[repeats] = True
    legal = placed & (sizes >= 1) & (sizes <= m_batch) & ~bad_bytes

    # The first body slot with several batches or a bad one.
    body = np.flatnonzero((slots >= 0) & (slots < n))
    body_slots = slots[body]
    bad = ~legal[body] | (codes[body] == _DRAIN) | (banks[body] != act_banks[body_slots])
    crowded = np.flatnonzero(np.bincount(body_slots, minlength=n) > 1)
    shadow_fail = min(crowded.min(initial=n), body_slots[bad].min(initial=n))

    stale = np.flatnonzero(lags > staleness_bound)
    lag_fail = stale[0] if stale.size else n
    if shadow_fail < n and shadow_fail <= lag_fail:
        slot = int(shadow_fail)
        rule, message = _shadow_problem(
            log,
            sizes,
            np.flatnonzero(slots == slot).tolist(),
            trace.banks[slot],
            geometry,
            m_batch,
        )
        return Verdict(False, rule, slot, message)
    if lag_fail < n:
        slot = int(lag_fail)
        key = _counter(act_keys[slot], shape)
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
            return Verdict(False, 2, n, _check_batch(log, sizes, j, geometry, m_batch))

    behind = np.flatnonzero(applied != totals)
    if behind.size:
        i = behind[0]
        counter = _counter(counters[i], shape)
        message = f"counter {counter} ends at {applied[i]} of {totals[i]} true activations"
        return Verdict(False, 4, n, message)

    if final_values is not None:
        problem = _stored_problem(final_values, counters, totals, shape)
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


def _stored_problem(final_values, counters, totals, shape) -> Optional[str]:
    """The first counter, in key order, whose stored value is not its
    saturated true count (0 for a counter never activated), as a message.

    ``counters`` are the replay's keys, all inside the geometry once
    conservation holds, with their activation ``totals``.  Only banks
    holding a nonzero byte are searched for a counter outside them.
    """
    values = np.asarray(final_values)
    if values.shape != shape:
        raise ConfigError(f"final values have shape {values.shape}, not {shape}")
    flat = values.reshape(-1)
    stored = flat[counters]
    expected = np.minimum(totals, 255)
    wrong = np.flatnonzero(stored != expected)
    found = []
    if wrong.size:
        found.append((counters[wrong[0]], int(expected[wrong[0]])))
    per_bank = values.reshape(shape[0], -1)
    # Read unsigned, a bank's largest value is 0 only if all of them are.
    dtype = per_bank.dtype
    unsigned = per_bank.view(f"u{dtype.itemsize}") if dtype.kind in "biu" else per_bank != 0
    written = np.flatnonzero(unsigned.max(axis=1)).tolist()
    # One count tells whether any counter outside ``counters`` is nonzero.
    nonzero = sum(np.count_nonzero(per_bank[b]) for b in written)
    if nonzero > np.count_nonzero(stored):
        for b in written:
            keys = b * per_bank.shape[1] + np.flatnonzero(per_bank[b])
            strays = keys[~np.isin(keys, counters)]
            if strays.size:
                found.append((int(strays[0]), 0))
                break
    if not found:
        return None
    key, want = min(found)
    return f"stored counter {_counter(key, shape)} is {int(flat[key])}, expected {want}"
