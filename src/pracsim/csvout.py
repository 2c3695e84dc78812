"""Decimal CSV text from int columns, formatted and written in array passes.

The service log, the state dump and text traces are all written by
``write``.  Each line is laid out as a fixed-width record.  An int field
is a sign byte, if its column holds a negative value, then as many
4-digit chunks as the column's largest magnitude needs.  Each chunk is a
uint32 of four ASCII bytes taken from a table of the 10,000 chunks: the
chunks up to a field's first nonzero one are NUL-padded, the ones after
it zero-padded.  Separators and text fields (the log's trigger names)
sit in the record's template, NUL-padded to a fixed width, and one
``bytearray.translate`` drops every NUL.  A column passes through int64
once, one slice per chunk of lines; the whole int64 range is taken,
``-2**63`` included.

Lines are formatted and written ``CHUNK`` fields at a time, so a writer
holds one chunk's records and text, not the whole file's.  A column
slice that does not fit int64 (Python ints past it, in a log that
``read_log`` parsed from fields over 18 digits, or a hand-built trace) is
written in that chunk as a text field, each value through ``str``.

The chunk tables are built on first use, not at import.
"""

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

CHUNK = 1 << 18  # fields formatted and written at a time

_TEN4 = np.uint64(10_000)


@lru_cache(maxsize=None)
def _tables() -> Tuple[np.ndarray, np.ndarray]:
    """The uint32 chunk tables ``(last, inner)``, 20,000 entries each.

    Entry ``c`` of either is chunk ``c`` NUL-padded, and entry ``10_000 +
    c`` the chunk zero-padded, for a chunk after a nonzero one.  A field's
    last chunk reads "0" at 0; any other reads four NULs.
    """
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    padded = (digits + ord("0")).astype(np.uint8)
    lead = np.where(np.cumsum(digits, axis=1) > 0, padded, 0).astype(np.uint8)
    inner = np.concatenate((lead, padded))
    last = inner.copy()
    last[0, 3] = ord("0")
    return last.view(np.uint32).ravel(), inner.view(np.uint32).ravel()


def _digits(values: np.ndarray) -> list:
    """An int64 column's field pieces, left to right: a uint8 sign byte
    if one is negative, then its uint32 chunks."""
    last, inner = _tables()
    pieces = []
    rest = values.view(np.uint64)
    if values.min(initial=0) < 0:
        pieces.append((values < 0).view(np.uint8) * np.uint8(ord("-")))
        # |-2**63| wraps to -2**63 in int64 and reads 2**63 as uint64.
        rest = np.abs(values).view(np.uint64)
    top, chunks = int(rest.max(initial=0)), []
    while top >= 10_000:
        # A chunk indexes its zero-padded entry where a higher chunk is
        # nonzero: min(rest, 10_000 + rest % 10_000).
        above = rest // _TEN4
        index = above * _TEN4
        np.subtract(rest, index, out=index)
        index += _TEN4
        np.minimum(index, rest, out=index)
        chunks.append((last if not chunks else inner).take(index))
        rest, top = above, top // 10_000
    chunks.append((last if not chunks else inner).take(rest))
    return pieces + chunks[::-1]


def _pieces(column, a: int, b: int) -> list:
    """The field pieces of lines ``a`` to ``b`` of one column: an int
    sequence, or a ``(codes, names)`` pair of a text column."""
    if isinstance(column, tuple):
        codes, names = column
        return [np.array(names, dtype="S").take(_int64(codes, a, b))]
    try:
        values = _int64(column, a, b)
    except OverflowError:
        return [np.array([str(v) for v in column[a:b]], dtype="S")]
    return _digits(values)


def _int64(column, a: int, b: int) -> np.ndarray:
    """``column[a:b]`` as int64; OverflowError if a value does not fit."""
    if isinstance(column, np.ndarray) and np.can_cast(column.dtype, np.int64):
        return column[a:b].astype(np.int64, copy=False)
    # One pass over a list that fits a single chunk, not a copy of it.
    whole = column if b - a == len(column) else column[a:b]
    return np.fromiter(whole, dtype=np.int64, count=b - a)


def _room(pieces: list, template: bytearray) -> list:
    """Append NULs for ``pieces`` to ``template``; return their fields as
    (name, format, offset) triples."""
    fields = []
    for piece in pieces:
        fields.append((f"f{len(template)}", piece.dtype, len(template)))
        template += bytes(piece.dtype.itemsize)
    return fields


def _fill(template: bytearray, fields: list, pieces: list, n: int):
    """``n`` copies of ``template`` as bytes and as records, with
    ``pieces`` written into the first of ``fields``."""
    names, formats, offsets = zip(*fields)
    dtype = {"names": names, "formats": formats, "offsets": offsets}
    buf = template * n
    records = np.frombuffer(buf, np.dtype(dict(dtype, itemsize=len(template))))
    for name, piece in zip(names, pieces):
        records[name] = piece
    return buf, records


def _format(parts: Sequence, a: int, b: int, items: Optional[tuple]) -> bytearray:
    """Lines ``a`` to ``b`` as ASCII bytes; ``items`` is None or the
    flat values, per-line counts and each line's first value's index."""
    template, fields, pieces = bytearray(), [], []
    for part in parts:
        if isinstance(part, str):
            template += part.encode()
        else:
            pieces += _pieces(part, a, b)
            fields += _room(pieces[len(fields) :], template)
    width = 0
    if items is not None:
        flat, counts, starts = items
        counts = counts[a:b]
        width = int(counts.max(initial=0))
    if width:
        # Each line has ``width`` slots of a comma and a field; those past
        # its count stay NUL, comma and all.
        values = _pieces(flat, int(starts[a]), int(starts[b]))
        slot = bytearray(b",")
        slots, _ = _fill(slot, _room(values, slot), values, len(values[0]))
        # Raw bytes, so that the comma, which is no field, is copied too.
        slot_dtype = np.dtype(f"V{len(slot)}")
        fields.append(("items", (slot_dtype, (width,)), len(template)))
        template += bytes(width * len(slot))
    template += b"\n"
    buf, records = _fill(template, fields, pieces, b - a)
    if width:
        used = np.arange(width) < counts[:, None]
        records["items"][used] = np.frombuffer(slots, slot_dtype)
    return buf.translate(None, b"\0")


def write(stream, header: str, parts: Sequence, items: Optional[tuple] = None) -> None:
    """Write ``header``, then one line per entry of ``parts``' columns.

    ``parts`` lists a line's pieces in order: a str is written as it is,
    a ``(codes, names)`` pair as ``names[code]``, and any other sequence
    as a column of ints, one decimal field per line; the first part is a
    column.  ``items``, a pair ``(values, counts)``, ends line j with
    ``counts[j]`` more fields, each after a comma, taken in turn from the
    flat ``values``.  Every line ends with a newline.
    """
    stream.write(header)
    first = parts[0]
    n = len(first[0] if isinstance(first, tuple) else first)
    per_line = sum(not isinstance(part, str) for part in parts)
    if items is not None:
        values, counts = items
        counts = np.asarray(counts, dtype=np.int64)
        items = values, counts, np.concatenate(([0], np.cumsum(counts)))
    a = 0
    while a < n:
        b = min(n, a + max(1, CHUNK // per_line))
        if items is not None:
            # A chunk's lines hold as many item slots as its longest line.
            b = min(b, a + max(1, CHUNK // (per_line + int(counts[a:b].max()))))
        stream.write(_format(parts, a, b, items).decode("ascii"))
        a = b
