"""Activation traces: synthetic generators plus text and binary file formats.

A trace is an ordered sequence of row activations, held as two flat int
columns: the bank and the data row of each activation (see ``Trace``).
The text format is one ``bank data_row`` pair per line in ASCII decimal;
blank lines and lines starting with ``#`` are ignored.  The binary
format is a packed sequence of 6-byte little-endian records: u16 bank
followed by u32 data_row.  Slots are implicit: event i occupies slot i.

All generator randomness flows from the seed in the TraceSpec through a
private random.Random instance, so a (spec, geometry) pair always
produces the same trace on any platform.  Each generator draws its
events in one inline loop, and draws each integer below n as CPython's
``randrange(n)`` and ``shuffle`` do: ``getrandbits(n.bit_length())``,
drawn again while the result is at least n.  A bank draw over one
bank is ``getrandbits(0)``, which is 0 and takes no word from the
stream, so the hotset generator draws a single-bank trace's rows alone,
in a loop of its own beside an all-zero bank column, and gives the rows
a loop drawing both would.  The zipf generator draws each event's bank
and ``random()`` in that loop, then finds every rank
in one ``np.searchsorted`` pass over the cumulative weights, which makes
the IEEE comparisons of a ``bisect_left`` per event.  The pass searches
the scaled draws in ascending order, so each search starts from the
last one's rank, and scatters the ranks back to event order.  Its
rank-to-row permutation depends only on the seed and the row count, so
a process shuffles it once per (seed, rows) pair and shares it, as a
read-only int64 array, with every zipf trace of that pair, whatever its
exponent, length or banks; one indexing pass maps all the ranks to rows.
That pays where one process generates a trace again, as ``Engine.run``
and then ``Engine.load_events`` for ``verify`` do, or a sweep of configs
on one seed; a ``pracsim`` command generates its trace once and shuffles
once.  A trace therefore reproduces exactly as it did when each
event drew and bisected in turn, as long as that algorithm and the
Mersenne Twister behind ``random.Random`` stay the same.
"""

import io
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, count
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import csvout
from .errors import ConfigError, TraceError, line_of
from .geometry import DramGeometry

# Each generator's parameters, in the order a resolved config lists them.
GENERATOR_PARAMS = {
    "uniform": ("rows", "banks"),
    "zipf": ("exponent", "shuffle", "rows", "banks"),
    "sequential": ("bank", "start_row"),
    "hotset": ("hot_rows", "hot_fraction", "rows", "banks"),
    "hammer": ("row", "gap", "bank"),
    "roundrobin": ("bank",),
}
GENERATORS = tuple(GENERATOR_PARAMS)

_RECORD_DTYPE = np.dtype([("bank", "<u2"), ("row", "<u4")])


class ActivationEvent(NamedTuple):
    """One row activation: time slot, bank index, data row index."""

    slot: int
    bank: int
    data_row: int


class Trace:
    """A trace as two columns: event i is ``(i, banks[i], rows[i])``.

    Slots are implicit.  Iterating yields one ``ActivationEvent`` per
    activation for callers that want objects; the simulator and the
    verifier read the columns.
    """

    __slots__ = ("banks", "rows")

    def __init__(
        self, banks: Optional[List[int]] = None, rows: Optional[List[int]] = None
    ):
        self.banks = [] if banks is None else banks
        self.rows = [] if rows is None else rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(ActivationEvent, count(), self.banks, self.rows)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.banks == other.banks and self.rows == other.rows


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for a synthetic trace: generator name, length, seed, params."""

    generator: str
    length: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ConfigError(
                f"unknown generator {self.generator!r}, expected one of {GENERATORS}"
            )
        if self.length < 1:
            raise ConfigError(f"trace length must be positive, got {self.length}")
        unknown = set(self.params).difference(GENERATOR_PARAMS[self.generator])
        if unknown:
            raise ConfigError(
                f"unknown params for generator {self.generator!r}: {sorted(unknown)}"
            )
        p = self.params
        if "exponent" in p and not p["exponent"] > 0:
            raise ConfigError(f"zipf exponent must be positive, got {p['exponent']}")
        if "hot_fraction" in p and not 0 < p["hot_fraction"] <= 1:
            raise ConfigError(
                f"hot_fraction must be in (0, 1], got {p['hot_fraction']}"
            )
        if "gap" in p and p["gap"] < 0:
            raise ConfigError(f"hammer gap must be non-negative, got {p['gap']}")
        for key in ("rows", "hot_rows"):
            if key in p and p[key] < 1:
                raise ConfigError(f"{key} must be positive, got {p[key]}")
        if "banks" in p and p["banks"] < 1:
            raise ConfigError(f"banks must be positive, got {p['banks']}")


def generate(spec: TraceSpec, geometry: DramGeometry) -> Trace:
    """Materialize the trace described by ``spec`` under ``geometry``."""
    rng = random.Random(spec.seed)
    p = spec.params
    rows = p.get("rows", geometry.rows_per_bank)
    banks = p.get("banks", 1)
    if rows > geometry.rows_per_bank:
        raise ConfigError(
            f"rows param {rows} exceeds rows_per_bank {geometry.rows_per_bank}"
        )
    if banks > geometry.banks:
        raise ConfigError(f"banks param {banks} exceeds bank count {geometry.banks}")
    fixed_bank = p.get("bank", 0)
    if not 0 <= fixed_bank < geometry.banks:
        raise ConfigError(f"bank param {fixed_bank} out of range [0, {geometry.banks})")

    builder = {
        "uniform": _gen_uniform,
        "zipf": _gen_zipf,
        "sequential": _gen_sequential,
        "hotset": _gen_hotset,
        "hammer": _gen_hammer,
        "roundrobin": _gen_roundrobin,
    }[spec.generator]
    return Trace(*builder(spec, geometry, rng, rows, banks))


def _bank_bits(banks: int) -> int:
    """Width of an event's bank draw.  ``getrandbits(0)`` returns 0 and
    takes no word from the stream, so a single-bank trace's events draw
    only their rows."""
    return banks.bit_length() if banks > 1 else 0


def _gen_uniform(spec, geometry, rng, rows, banks):
    getrandbits, k_bank, k_rows = rng.getrandbits, _bank_bits(banks), rows.bit_length()
    bank_col, row_col = [], []
    for _ in range(spec.length):
        bank = getrandbits(k_bank)
        while bank >= banks:
            bank = getrandbits(k_bank)
        r = getrandbits(k_rows)
        while r >= rows:
            r = getrandbits(k_rows)
        bank_col.append(bank)
        row_col.append(r)
    return bank_col, row_col


@lru_cache(maxsize=4)
def _zipf_cumulative(rows: int, exponent: float) -> np.ndarray:
    """Cumulative zipf weights of ranks 0..rows-1; the same for every seed.

    Summed in Python floats, rank by rank, and shared by every trace with
    these parameters, so the array is read-only."""
    weights = np.fromiter(
        accumulate((rank + 1) ** -exponent for rank in range(rows)),
        dtype=np.float64,
        count=rows,
    )
    weights.flags.writeable = False
    return weights


def _gen_zipf(spec, geometry, rng, rows, banks):
    """Draw each event's bank and ``random()`` in one loop, then find the
    ranks in one sorted search and map them to rows in one indexing pass.

    The draws are scaled by the total weight and argsorted; the sorted
    keys are searched in ascending order and their ranks scattered back
    to event order, and ``_zipf_rows`` maps every rank at once."""
    exponent = spec.params.get("exponent", 1.0)
    shuffle = spec.params.get("shuffle", True)
    cumulative = _zipf_cumulative(rows, exponent)
    getrandbits, k_bank, uniform = rng.getrandbits, _bank_bits(banks), rng.random
    bank_col, draws = [], []
    for _ in range(spec.length):
        bank = getrandbits(k_bank)
        while bank >= banks:
            bank = getrandbits(k_bank)
        bank_col.append(bank)
        draws.append(uniform())
    # Side "left" makes bisect_left's comparisons: the first rank whose
    # cumulative weight is at least the draw.
    keys = np.fromiter(draws, np.float64, spec.length) * cumulative[-1]
    order = keys.argsort()
    ranks = np.empty(order.size, dtype=np.intp)
    ranks[order] = np.searchsorted(cumulative, keys[order])
    mapping = _zipf_rows(spec.seed if shuffle else None, rows)
    return bank_col, mapping[ranks].tolist()


@lru_cache(maxsize=4)
def _zipf_rows(seed: Optional[int], rows: int) -> np.ndarray:
    """The row of each zipf rank 0..rows - 1, shuffled from ``seed``
    unless it is None, then the last rank's row again: a draw past the
    last cumulative weight (float rounding) is the last rank.

    A child generator keeps the rank stream identical with and without
    shuffling; only the rank-to-row renaming changes.  Shared by every
    trace with this seed and row count, so it is a read-only int64 array,
    which maps a whole array of ranks in one indexing pass."""
    mapping = list(range(rows))
    if seed is not None:
        _shuffle(mapping, random.Random(seed * 0x9E3779B97F4A7C15 + 1))
    mapping.append(mapping[-1])
    table = np.array(mapping, dtype=np.int64)
    table.flags.writeable = False
    return table


def _shuffle(x: list, rng: random.Random) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` does: the same
    Fisher-Yates swaps from the same draws.  Swap i draws ``k`` bits,
    the bit length of i + 1, until the draw is at most i; each inner
    loop takes the swaps of one width, from i = min(len(x), 2**k - 1) - 1
    down to 2**(k - 1) - 1."""
    getrandbits = rng.getrandbits
    for k in range(len(x).bit_length(), 1, -1):
        for i in range(min(len(x), (1 << k) - 1) - 1, (1 << (k - 1)) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]


def _gen_sequential(spec, geometry, rng, rows, banks):
    start = spec.params.get("start_row", 0)
    bank = spec.params.get("bank", 0)
    if not 0 <= start < geometry.rows_per_bank:
        raise ConfigError(
            f"start_row {start} out of range [0, {geometry.rows_per_bank})"
        )
    n = geometry.rows_per_bank
    return [bank] * spec.length, [(start + i) % n for i in range(spec.length)]


def _gen_hotset(spec, geometry, rng, rows, banks):
    hot_rows = spec.params.get("hot_rows", 64)
    hot_fraction = spec.params.get("hot_fraction", 0.9)
    if hot_rows > rows:
        raise ConfigError(f"hot_rows {hot_rows} exceeds row population {rows}")
    hot = rng.sample(range(rows), hot_rows)
    getrandbits, k_bank, uniform = rng.getrandbits, _bank_bits(banks), rng.random
    k_hot, k_rows = hot_rows.bit_length(), rows.bit_length()
    if banks == 1:
        row_col = []
        for _ in range(spec.length):
            if uniform() < hot_fraction:
                r = getrandbits(k_hot)
                while r >= hot_rows:
                    r = getrandbits(k_hot)
                r = hot[r]
            else:
                r = getrandbits(k_rows)
                while r >= rows:
                    r = getrandbits(k_rows)
            row_col.append(r)
        return [0] * spec.length, row_col
    bank_col, row_col = [], []
    for _ in range(spec.length):
        bank = getrandbits(k_bank)
        while bank >= banks:
            bank = getrandbits(k_bank)
        if uniform() < hot_fraction:
            r = getrandbits(k_hot)
            while r >= hot_rows:
                r = getrandbits(k_hot)
            r = hot[r]
        else:
            r = getrandbits(k_rows)
            while r >= rows:
                r = getrandbits(k_rows)
        bank_col.append(bank)
        row_col.append(r)
    return bank_col, row_col


def _gen_hammer(spec, geometry, rng, rows, banks):
    """Repeatedly hit one target row, separated by ``gap`` filler rows.

    Fillers walk other counter rows so they never coalesce with the
    target or each other inside a small window.
    """
    target = spec.params.get("row", 0)
    gap = spec.params.get("gap", 1)
    bank = spec.params.get("bank", 0)
    if not 0 <= target < geometry.rows_per_bank:
        raise ConfigError(f"hammer row {target} out of range")
    cpc = geometry.counters_per_counter_row
    target_cr, target_byte = divmod(target, cpc)
    other = [r for r in range(geometry.counter_rows_per_bank) if r != target_cr]
    out = []
    filler_idx = 0
    for i in range(spec.length):
        if i % (gap + 1) == 0:
            row = target
        else:
            if other:
                cr = other[filler_idx % len(other)]
                byte = (filler_idx // len(other)) % cpc
            else:
                cr = target_cr
                byte = (target_byte + 1 + filler_idx) % cpc
            filler_idx += 1
            row = cr * cpc + byte
        out.append(row)
    return [bank] * spec.length, out


def _gen_roundrobin(spec, geometry, rng, rows, banks):
    """Cycle through counter rows so consecutive events never share one."""
    bank = spec.params.get("bank", 0)
    cr = geometry.counter_rows_per_bank
    cpc = geometry.counters_per_counter_row
    return [bank] * spec.length, [
        (i % cr) * cpc + (i // cr) % cpc for i in range(spec.length)
    ]


def int64_columns(
    trace: Trace, geometry: DramGeometry, error: type
) -> Tuple[np.ndarray, np.ndarray]:
    """``trace``'s banks and data rows as int64 arrays; the first
    activation outside ``geometry``, a value past int64 among them,
    raises ``error`` naming its slot."""
    try:
        banks, rows = np.asarray(trace.banks, np.int64), np.asarray(trace.rows, np.int64)
    except OverflowError:
        slot = _misfit(trace, range(geometry.banks), range(geometry.rows_per_bank))
    else:
        outside = (banks < 0) | (banks >= geometry.banks)
        outside |= (rows < 0) | (rows >= geometry.rows_per_bank)
        if not outside.any():
            return banks, rows
        slot = int(np.argmax(outside))
    raise error(
        f"slot {slot}: bank {trace.banks[slot]}, data_row {trace.rows[slot]} outside "
        f"the geometry's {geometry.banks} banks of {geometry.rows_per_bank} rows"
    )


def _misfit(trace: Trace, banks: range, rows: range) -> int:
    """The slot of the first activation outside ``banks`` x ``rows``, read
    one Python int at a time, as columns that do not fit an array are."""
    pairs = enumerate(zip(trace.banks, trace.rows))
    return next(i for i, (b, r) in pairs if int(b) not in banks or int(r) not in rows)


def _refuse(trace: Trace, banks: range, rows: range, fields: Tuple[str, str]) -> None:
    """Raise TraceError naming the first line whose bank is outside
    ``banks``, so does not fit ``fields[0]``, or data row outside ``rows``."""
    i = _misfit(trace, banks, rows)
    k = int(trace.banks[i]) in banks
    name, value = ("data_row", trace.rows[i]) if k else ("bank", trace.banks[i])
    raise TraceError(f"{name} {value} does not fit {fields[k]}", line=i + 1) from None


def write_text(trace: Trace, stream) -> None:
    """Write ``trace`` as text to a text-mode stream, its two columns in
    array passes, a chunk of lines at a time (``csvout.write``).  A bank
    or data row past int64 raises TraceError naming the first such line
    before anything is written."""
    banks, rows = _text_columns(trace)
    csvout.write(stream, "", [banks, " ", rows])


def _text_columns(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """``trace``'s columns as int64 arrays, or TraceError (``_refuse``)."""
    try:
        return np.asarray(trace.banks, np.int64), np.asarray(trace.rows, np.int64)
    except OverflowError:
        int64 = range(-(1 << 63), 1 << 63)
        _refuse(trace, int64, int64, ("int64", "int64"))


def _records(trace: Trace) -> np.ndarray:
    """``trace`` as binary records; a bank or data row that does not fit
    its u16 or u32 field raises TraceError naming the first such record."""
    records = np.empty(len(trace), dtype=_RECORD_DTYPE)
    try:
        records["bank"] = trace.banks
        records["row"] = trace.rows
    except OverflowError:
        field = "a binary record's u{} field"
        _refuse(trace, range(1 << 16), range(1 << 32), (field.format(16), field.format(32)))
    return records


def read_text(stream, geometry: DramGeometry) -> Trace:
    """Parse the text format, reporting the first bad line by number."""
    banks, rows = [], []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TraceError(
                f"expected 'bank data_row', got {line!r}", line=lineno
            )
        try:
            bank, data_row = int(parts[0]), int(parts[1])
            # ``int`` also takes +, _ and non-ASCII digits; bytes.isdigit() does not.
            if not (parts[0] + parts[1]).replace("-", "").encode().isdigit():
                raise ValueError(line)
        except ValueError:
            raise TraceError(f"non-integer field in {line!r}", line=lineno) from None
        _check_range(geometry, bank, data_row, lineno)
        banks.append(bank)
        rows.append(data_row)
    return Trace(banks, rows)


def read_binary(stream, geometry: DramGeometry) -> Trace:
    """Parse packed records, reporting the first bad record by number."""
    data = stream.read()
    size = _RECORD_DTYPE.itemsize
    if len(data) % size != 0:
        raise TraceError(
            f"truncated record: {len(data)} bytes is not a multiple of {size}",
            line=len(data) // size + 1,
        )
    records = np.frombuffer(data, dtype=_RECORD_DTYPE)
    banks, rows = records["bank"], records["row"]
    bad = (banks >= geometry.banks) | (rows >= geometry.rows_per_bank)
    if bad.any():
        i = int(bad.argmax())
        _check_range(geometry, int(banks[i]), int(rows[i]), i + 1)
    return Trace(banks.tolist(), rows.tolist())


def _check_range(geometry, bank, data_row, lineno):
    if not 0 <= bank < geometry.banks:
        raise TraceError(f"bank {bank} out of range [0, {geometry.banks})", line=lineno)
    if not 0 <= data_row < geometry.rows_per_bank:
        raise TraceError(
            f"data_row {data_row} out of range [0, {geometry.rows_per_bank})",
            line=lineno,
        )


def _is_binary(path: str, fmt: str) -> bool:
    """Whether ``fmt`` names the binary format; ``auto`` picks it for a
    ``.bin`` path, and text for anything else."""
    if fmt == "auto":
        return path.endswith(".bin")
    if fmt not in ("text", "binary"):
        raise ConfigError(f"unknown trace format {fmt!r}")
    return fmt == "binary"


def load(path: str, geometry: DramGeometry, fmt: str = "auto") -> Trace:
    """Read a trace file; ``fmt`` is ``text``, ``binary``, or ``auto``.

    Auto-detection is by extension: ``.bin`` is binary, anything else text.
    A text trace holding a non-ASCII byte raises TraceError at its line.
    """
    if _is_binary(path, fmt):
        with open(path, "rb") as f:
            return read_binary(f, geometry)
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = line_of(data, exc.start)
        raise TraceError(f"non-ASCII byte 0x{data[exc.start]:02x}", line=line) from None
    return read_text(io.StringIO(text, newline=None), geometry)


def save(trace: Trace, path: str, fmt: str = "auto") -> None:
    """Write ``trace`` to a file in the chosen format (see :func:`load`).

    A trace the chosen format cannot hold raises TraceError before the
    file is opened, so an existing file is left as it was.
    """
    if _is_binary(path, fmt):
        records = _records(trace)
        with open(path, "wb") as f:
            f.write(records.tobytes())
    else:
        columns = Trace(*_text_columns(trace))
        with open(path, "w", encoding="ascii") as f:
            write_text(columns, f)
