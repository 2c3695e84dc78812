"""The service-log and state-dump readers as they were before they read
in lean array passes.

Verbatim copies of ``oracle.split_decimal_csv``, which blanked its text
column with a running sum over every byte and checked bytes through a
256-entry table, ``oracle.read_log``, which turned the parsed int64
columns into lists, ``cli._read_state`` and ``cli._state_values``,
which sorted every dump, and the line loops both readers fell back on
for any other text: ``oracle._read_log_lines`` and ``oracle.decimal``.
The one edit: ``_read_state`` calls ``split_decimal_csv`` and
``decimal`` by bare name, without the ``oracle.`` prefix, so that it
reads through this module's copy.  The helpers they share with
``pracsim`` are imported from it.

Tests run them beside ``pracsim`` as the reference for differential
tests; nothing under ``src/`` imports this module.
"""

import mmap
from typing import List, Optional, Sequence, Tuple

import numpy as np

from pracsim.buffers import TRIGGERS
from pracsim.cli import _open_text
from pracsim.counters import COUNTER_MAX
from pracsim.errors import LogFormatError, SimError
from pracsim.oracle import _TRIGGER_CODE, ServiceLog

# Bytes the fast CSV path takes: digits, comma and newline.
_CSV_BYTES = np.zeros(256, dtype=bool)
_CSV_BYTES[[ord(c) for c in "0123456789,\n"]] = True


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
            slot, bank, row_id = decimal(parts[0]), decimal(parts[1]), decimal(parts[2])
            trigger = parts[3]
            n_items = decimal(parts[4])
            byte_ids = [decimal(x) for x in parts[5:]]
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


def decimal(field: str) -> int:
    """``field``'s value if it is ASCII digits after an optional ``-``;
    else ValueError, also for the ``+``, ``_``, spaces and non-ASCII
    digits that ``int`` takes."""
    digits = field[1:] if field.startswith("-") else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal field: {field!r}")
    return int(field)


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


def _read_state(path: str) -> Tuple[Sequence[int], ...]:
    """A final counter dump CSV as columns (banks, row_ids, byte_ids, values).

    A dump of plain decimal lines is split in array passes; any other
    text, a malformed line included, is read line by line, which gives
    the same columns or names the first bad line.
    """
    text = _open_text(path, "state dump").read()
    body = text.partition("\n")[2] if text.startswith("bank,") else text
    try:
        values, _, counts, _ = split_decimal_csv(body)
    except ValueError:
        counts = None
    if counts is not None and (counts == 4).all():
        return tuple(values.reshape(-1, 4).T)
    columns = ([], [], [], [])
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("bank,"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise SimError(f"state dump {path} line {lineno}: expected 4 fields")
        try:
            fields = [decimal(x) for x in parts]
        except ValueError:
            raise SimError(
                f"state dump {path} line {lineno}: non-integer field"
            ) from None
        for column, x in zip(columns, fields):
            column.append(x)
    return columns


def _state_values(path: str, geometry) -> np.ndarray:
    """A final counter dump CSV as the store's ``values`` array, a counter
    listed twice keeping its last value; a counter outside the geometry,
    or a value outside [0, 255], raises SimError naming the counter."""
    g = geometry
    shape = (g.banks, g.counter_rows_per_bank, g.counters_per_counter_row)
    # A field too large for int64 makes an object column; it still compares.
    *counter, values = (np.asarray(column) for column in _read_state(path))
    outside = np.zeros(values.size, dtype=bool)
    for column, limit in zip(counter, shape):
        outside |= (column < 0) | (column >= limit)
    bad = np.flatnonzero(outside | (values < 0) | (values > COUNTER_MAX))
    if bad.size:
        i = bad[0]
        problem = f"is outside the geometry's {shape} counters"
        if not outside[i]:
            problem = f"holds {values[i]}, outside [0, {COUNTER_MAX}]"
        where = tuple(int(column[i]) for column in counter)
        raise SimError(f"state dump {path}: counter {where} {problem}")
    keys = np.ravel_multi_index([np.asarray(c, dtype=np.int64) for c in counter], shape)
    # The first of each counter in reverse order is the last listed.
    keys, last = np.unique(keys[::-1], return_index=True)
    # In a private anonymous mapping only the pages the dump writes take
    # memory; np.zeros may reuse heap memory that it clears, all of it.
    cells = mmap.mmap(-1, int(np.prod(shape)), flags=mmap.MAP_PRIVATE)
    state = np.frombuffer(cells, dtype=np.uint8)
    state[keys] = values[::-1][last]
    return state.reshape(shape)
