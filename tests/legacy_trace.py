"""Trace code as it was before traces became columns.

A verbatim copy of ``generate``, its per-generator builders, the text
and binary readers and ``engine.workload_shape`` from when a trace was a
list holding one ``ActivationEvent`` per activation, and of the text and
binary writers from when they wrote one event at a time.  The shape
pass calls the metrics of ``legacy_metrics``.  Tests run it
beside ``pracsim.trace`` and ``pracsim.engine`` as the reference for
differential tests; nothing under ``src/`` imports it.

``_gen_zipf_columns`` and ``_zipf_rows_tuple`` are verbatim copies, but
for their names, of the column generator's zipf builder and its tuple
permutation from before the post-draw pass searched sorted draws and
mapped ranks through an int64 array: one unsorted ``np.searchsorted``
and a per-rank tuple lookup.  ``gen_zipf_columns`` runs them on a spec;
the draw loop and the helpers they share with ``pracsim.trace`` are
unchanged.
"""

import random
import struct
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from legacy_metrics import footprint_percentiles, skew, window_maxima
from pracsim.config import SimConfig
from pracsim.errors import ConfigError, TraceError
from pracsim.geometry import DramGeometry
from pracsim.trace import (
    ActivationEvent,
    TraceSpec,
    _bank_bits,
    _shuffle,
    _zipf_cumulative as _column_cumulative,
)

_RECORD = struct.Struct("<HI")


def generate(spec: TraceSpec, geometry: DramGeometry) -> List[ActivationEvent]:
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
    return builder(spec, geometry, rng, rows, banks)


def _pick_bank(rng: random.Random, banks: int) -> int:
    return rng.randrange(banks) if banks > 1 else 0


def _gen_uniform(spec, geometry, rng, rows, banks):
    out = []
    for i in range(spec.length):
        bank = _pick_bank(rng, banks)
        out.append(ActivationEvent(i, bank, rng.randrange(rows)))
    return out


@lru_cache(maxsize=4)
def _zipf_cumulative(rows: int, exponent: float) -> tuple:
    """Cumulative zipf weights of ranks 0..rows-1; the same for every seed."""
    return tuple(accumulate((rank + 1) ** -exponent for rank in range(rows)))


def _gen_zipf(spec, geometry, rng, rows, banks):
    exponent = spec.params.get("exponent", 1.0)
    shuffle = spec.params.get("shuffle", True)
    cumulative = _zipf_cumulative(rows, exponent)
    total = cumulative[-1]
    mapping = list(range(rows))
    if shuffle:
        # A child generator keeps the rank stream identical with and
        # without shuffling; only the rank-to-row renaming changes.
        random.Random(spec.seed * 0x9E3779B97F4A7C15 + 1).shuffle(mapping)
    out = []
    for i in range(spec.length):
        bank = _pick_bank(rng, banks)
        rank = bisect_left(cumulative, rng.random() * total)
        if rank >= rows:
            rank = rows - 1
        out.append(ActivationEvent(i, bank, mapping[rank]))
    return out


def gen_zipf_columns(spec: TraceSpec, geometry: DramGeometry):
    """A zipf spec's (bank, row) columns as the column generator made
    them with its unsorted search and tuple permutation."""
    p = spec.params
    rows = p.get("rows", geometry.rows_per_bank)
    return _gen_zipf_columns(spec, geometry, random.Random(spec.seed), rows, p.get("banks", 1))


def _gen_zipf_columns(spec, geometry, rng, rows, banks):
    exponent = spec.params.get("exponent", 1.0)
    shuffle = spec.params.get("shuffle", True)
    cumulative = _column_cumulative(rows, exponent)
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
    ranks = np.searchsorted(cumulative, np.array(draws) * cumulative[-1]).tolist()
    mapping = _zipf_rows_tuple(spec.seed if shuffle else None, rows)
    return bank_col, list(map(mapping.__getitem__, ranks))


@lru_cache(maxsize=4)
def _zipf_rows_tuple(seed: Optional[int], rows: int) -> tuple:
    """The row of each zipf rank 0..rows - 1, shuffled from ``seed``
    unless it is None, then the last rank's row again: a draw past the
    last cumulative weight (float rounding) is the last rank.

    A child generator keeps the rank stream identical with and without
    shuffling; only the rank-to-row renaming changes.  Shared by every
    trace with this seed and row count, so it is a tuple."""
    mapping = list(range(rows))
    if seed is not None:
        _shuffle(mapping, random.Random(seed * 0x9E3779B97F4A7C15 + 1))
    mapping.append(mapping[-1])
    return tuple(mapping)


def _gen_sequential(spec, geometry, rng, rows, banks):
    start = spec.params.get("start_row", 0)
    bank = spec.params.get("bank", 0)
    if not 0 <= start < geometry.rows_per_bank:
        raise ConfigError(
            f"start_row {start} out of range [0, {geometry.rows_per_bank})"
        )
    n = geometry.rows_per_bank
    return [
        ActivationEvent(i, bank, (start + i) % n) for i in range(spec.length)
    ]


def _gen_hotset(spec, geometry, rng, rows, banks):
    hot_rows = spec.params.get("hot_rows", 64)
    hot_fraction = spec.params.get("hot_fraction", 0.9)
    if hot_rows > rows:
        raise ConfigError(f"hot_rows {hot_rows} exceeds row population {rows}")
    hot = rng.sample(range(rows), hot_rows)
    out = []
    for i in range(spec.length):
        bank = _pick_bank(rng, banks)
        if rng.random() < hot_fraction:
            row = hot[rng.randrange(hot_rows)]
        else:
            row = rng.randrange(rows)
        out.append(ActivationEvent(i, bank, row))
    return out


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
        out.append(ActivationEvent(i, bank, row))
    return out


def _gen_roundrobin(spec, geometry, rng, rows, banks):
    """Cycle through counter rows so consecutive events never share one."""
    bank = spec.params.get("bank", 0)
    cr = geometry.counter_rows_per_bank
    cpc = geometry.counters_per_counter_row
    return [
        ActivationEvent(i, bank, (i % cr) * cpc + (i // cr) % cpc)
        for i in range(spec.length)
    ]


def write_text(events: Iterable[ActivationEvent], stream) -> None:
    """Write the text format to a text-mode stream."""
    for ev in events:
        stream.write(f"{ev.bank} {ev.data_row}\n")


def write_binary(events: Iterable[ActivationEvent], stream) -> None:
    """Write packed 6-byte records to a binary-mode stream."""
    for ev in events:
        stream.write(_RECORD.pack(ev.bank, ev.data_row))


def read_text(stream, geometry: DramGeometry) -> List[ActivationEvent]:
    """Parse the text format, reporting the first bad line by number."""
    events = []
    slot = 0
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
        except ValueError:
            raise TraceError(f"non-integer field in {line!r}", line=lineno) from None
        _check_range(geometry, bank, data_row, lineno)
        events.append(ActivationEvent(slot, bank, data_row))
        slot += 1
    return events


def read_binary(stream, geometry: DramGeometry) -> List[ActivationEvent]:
    """Parse packed records, reporting the first bad record by number."""
    data = stream.read()
    if len(data) % _RECORD.size != 0:
        raise TraceError(
            f"truncated record: {len(data)} bytes is not a multiple of {_RECORD.size}",
            line=len(data) // _RECORD.size + 1,
        )
    events = []
    for slot, (bank, data_row) in enumerate(_RECORD.iter_unpack(data)):
        _check_range(geometry, bank, data_row, slot + 1)
        events.append(ActivationEvent(slot, bank, data_row))
    return events


def _check_range(geometry, bank, data_row, lineno):
    if not 0 <= bank < geometry.banks:
        raise TraceError(f"bank {bank} out of range [0, {geometry.banks})", line=lineno)
    if not 0 <= data_row < geometry.rows_per_bank:
        raise TraceError(
            f"data_row {data_row} out of range [0, {geometry.rows_per_bank})",
            line=lineno,
        )


def workload_shape(events: Sequence[ActivationEvent], config: SimConfig) -> dict:
    """Skew per bank and its mean, window locality, and footprint of a trace.

    Banks are visited in ascending order; window maxima are taken within
    each bank's own stream of counter rows and pooled across banks.  An
    empty trace has no footprint and raises ConfigError.
    """
    footprint = footprint_percentiles(
        Counter((bank, data_row) for _, bank, data_row in events).values()
    )
    cpc = config.geometry.counters_per_counter_row
    n_rows = config.geometry.counter_rows_per_bank
    streams: Dict[int, List[int]] = {}
    for _, bank, data_row in events:
        stream = streams.get(bank)
        if stream is None:
            stream = streams[bank] = []
        stream.append(data_row // cpc)
    skew_by_bank: Dict[int, float] = {}
    maxima: List[int] = []
    for bank in sorted(streams):
        counts = [0] * n_rows
        for row_id, n in Counter(streams[bank]).items():
            counts[row_id] = n
        skew_by_bank[bank] = skew(counts)
        maxima.extend(window_maxima(streams[bank], config.window, config.window_mode))
    return {
        "skew_by_bank": skew_by_bank,
        "skew_mean": sum(skew_by_bank.values()) / len(skew_by_bank),
        "window_locality": sum(maxima) / len(maxima) if maxima else None,
        "footprint": footprint,
    }
