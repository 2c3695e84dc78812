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

The reader of the next generation, from before ``read_log`` found each
trigger's code from its field's bytes: ``read_log_by_str`` and
``split_decimal_csv_to_str``, verbatim copies of ``oracle.read_log``
and ``oracle.split_decimal_csv`` but for those names, split every
line's trigger field into a str and looked each one up in a dict.
``_fields`` is their own helper, copied with them.

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


def read_log_by_str(stream) -> ServiceLog:
    """Parse a service-log CSV into a ServiceLog of array columns, blank
    lines and a ``slot,`` header on line 1 skipped; the first malformed
    line raises LogFormatError naming it."""
    values, first, counts, triggers, lines, bad = split_decimal_csv_to_str(
        stream.read(), "slot,", 3
    )
    n = np.flatnonzero(counts[:bad] < 5).min(initial=bad)
    first, sizes = first[:n], counts[:n] - 5
    codes = np.fromiter(map(_TRIGGER_CODE.get, triggers[:n], [-1] * n), np.int64, n)
    slots, banks, row_ids, n_items = (values[first + k] for k in (0, 1, 2, 4))
    j = np.flatnonzero((codes < 0) | (n_items != sizes) | (slots < 0)).min(initial=n)
    if j < lines.size:
        if j == n:
            problem = "expected at least 5 fields" if counts[j] < 5 else "non-integer field"
        elif codes[j] < 0:
            problem = f"unknown trigger {triggers[j]!r}"
        elif n_items[j] != sizes[j]:
            problem = f"n_items {n_items[j]} but {sizes[j]} byte ids"
        else:
            problem = f"negative slot {slots[j]}"
        raise LogFormatError(f"line {lines[j]}: {problem}")
    head = np.zeros(values.size, dtype=bool)
    for k in range(5):
        head[first + k] = True
    return ServiceLog(slots, banks, row_ids, codes, sizes, values[~head])


def _fields(buf: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Where ``buf``'s commas and newlines are, where each field starts and
    each line's first field; the last two end with the byte and field count."""
    seps = np.flatnonzero((buf == 44) | (buf == 10))
    last = np.flatnonzero(buf[seps] == 10)
    return seps, np.concatenate(([0], seps + 1)), np.concatenate(([0], last + 1))


def split_decimal_csv_to_str(
    text: str, header: str, text_column: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[str], np.ndarray, int]:
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
    ``text_column`` reads 0), ``first`` the index there of each line's
    first field and ``texts`` its field ``text_column``.  ``values`` is
    int64, or object if a field has more than 18 digits.
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
    bad, texts = counts.size, []
    if text_column is not None:
        bad = np.flatnonzero(counts <= text_column).min(initial=bad)
        t = first[:bad] + text_column
        # Each text field's width[j] bytes from t0[j], read, then rewritten as zeros.
        t0, width = starts[t], lengths[t]
        at = np.repeat(t0 - np.cumsum(width) + width, width) + np.arange(width.sum())
        texts = np.insert(buf[at], np.cumsum(width), 10).tobytes().decode().split("\n")
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
    return values, first[:bad], counts, texts[:bad], lines, int(bad)
