import hashlib
import io
import itertools
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
from scipy import stats

import legacy_trace
import pracsim.trace as trace_mod
from pracsim.buffers import DESIGNS
from pracsim.config import resolve
from pracsim.engine import Engine, compare, workload_shape
from pracsim.errors import ConfigError, TraceError
from pracsim.geometry import DramGeometry
from pracsim.trace import (
    ActivationEvent,
    Trace,
    TraceSpec,
    generate,
    load,
    read_binary,
    read_text,
    save,
    _shuffle,
    _zipf_cumulative,
    _zipf_rows,
    write_text,
)


def naive_zipf_sample(n_rows, exponent, length, seed):
    """Reference sampler: linear CDF scan, no shared code with the generator."""
    rng = random.Random(seed)
    weights = [(r + 1) ** -exponent for r in range(n_rows)]
    total = sum(weights)
    out = []
    for _ in range(length):
        u = rng.random() * total
        acc = 0.0
        row = n_rows - 1
        for r, w in enumerate(weights):
            acc += w
            if u < acc:
                row = r
                break
        out.append(row)
    return out


def zipf_expected_counts(n_rows, exponent, length):
    weights = [(r + 1) ** -exponent for r in range(n_rows)]
    total = sum(weights)
    return [length * w / total for w in weights]


def test_zipf_matches_reference_distribution(geometry):
    """Both the generator and an independent naive sampler must fit the
    zipf(1.0) frequency curve; agreement with theory implies mutual
    agreement."""
    n_rows, length = 64, 10000
    spec = TraceSpec(
        "zipf", length, seed=1, params={"exponent": 1.0, "rows": n_rows, "shuffle": False}
    )
    events = generate(spec, geometry)
    observed = [0] * n_rows
    for ev in events:
        observed[ev.data_row] += 1
    expected = zipf_expected_counts(n_rows, 1.0, length)
    _, p_gen = stats.chisquare(observed, f_exp=expected)
    assert p_gen > 0.001

    naive = naive_zipf_sample(n_rows, 1.0, length, seed=2)
    observed_naive = [0] * n_rows
    for row in naive:
        observed_naive[row] += 1
    _, p_naive = stats.chisquare(observed_naive, f_exp=expected)
    assert p_naive > 0.001


def test_zipf_shuffle_permutes_rows(geometry):
    plain = TraceSpec("zipf", 2000, seed=3, params={"rows": 256, "shuffle": False})
    shuffled = TraceSpec("zipf", 2000, seed=3, params={"rows": 256, "shuffle": True})
    rows_plain = [ev.data_row for ev in generate(plain, geometry)]
    rows_shuffled = [ev.data_row for ev in generate(shuffled, geometry)]
    assert rows_plain != rows_shuffled
    # Same rank stream, renamed rows: the frequency multiset must match.
    from collections import Counter

    assert sorted(Counter(rows_plain).values()) == sorted(Counter(rows_shuffled).values())


def test_sequential(geometry):
    spec = TraceSpec("sequential", 10, params={"start_row": 5, "bank": 2})
    events = generate(spec, geometry)
    assert [ev.data_row for ev in events] == list(range(5, 15))
    assert all(ev.bank == 2 for ev in events)
    assert [ev.slot for ev in events] == list(range(10))


def test_sequential_wraps(geometry):
    spec = TraceSpec("sequential", 4, params={"start_row": 65534})
    rows = [ev.data_row for ev in generate(spec, geometry)]
    assert rows == [65534, 65535, 0, 1]


def test_roundrobin_cycles_counter_rows(geometry):
    spec = TraceSpec("roundrobin", 130)
    events = generate(spec, geometry)
    crs = [ev.data_row // 1024 for ev in events]
    assert crs[:64] == list(range(64))
    assert crs[64:128] == list(range(64))
    # Second lap targets the next byte of each counter row.
    assert events.rows[64] == 1
    for prev, cur in zip(crs, crs[1:]):
        assert prev != cur


def test_hammer_pattern(geometry):
    spec = TraceSpec("hammer", 20, params={"row": 5000, "gap": 1})
    events = generate(spec, geometry)
    target_cr = 5000 // 1024
    for i, ev in enumerate(events):
        if i % 2 == 0:
            assert ev.data_row == 5000
        else:
            assert ev.data_row // 1024 != target_cr


def test_hammer_gap_zero(geometry):
    spec = TraceSpec("hammer", 6, params={"row": 7, "gap": 0})
    assert all(ev.data_row == 7 for ev in generate(spec, geometry))


def test_hotset_all_hot(geometry):
    spec = TraceSpec(
        "hotset", 500, seed=9, params={"hot_rows": 16, "hot_fraction": 1.0, "rows": 4096}
    )
    rows = {ev.data_row for ev in generate(spec, geometry)}
    assert len(rows) <= 16
    assert all(r < 4096 for r in rows)


def test_uniform_bank_spread(geometry):
    spec = TraceSpec("uniform", 2000, seed=4, params={"rows": 128, "banks": 4})
    events = generate(spec, geometry)
    banks = {ev.bank for ev in events}
    assert banks == {0, 1, 2, 3}
    assert all(ev.data_row < 128 for ev in events)


def test_generation_is_deterministic(geometry):
    spec = TraceSpec("zipf", 1000, seed=7, params={"rows": 512})
    assert generate(spec, geometry) == generate(spec, geometry)
    other = TraceSpec("zipf", 1000, seed=8, params={"rows": 512})
    assert generate(other, geometry) != generate(spec, geometry)


def test_text_roundtrip(geometry):
    events = generate(TraceSpec("uniform", 100, seed=5, params={"banks": 3}), geometry)
    buf = io.StringIO()
    write_text(events, buf)
    back = read_text(io.StringIO(buf.getvalue()), geometry)
    assert back == events


def test_text_skips_comments_and_blanks(geometry):
    text = "# header\n\n0 10\n  # another\n1 20\n"
    events = read_text(io.StringIO(text), geometry)
    assert list(events) == [ActivationEvent(0, 0, 10), ActivationEvent(1, 1, 20)]


def test_binary_roundtrip(geometry, tmp_path):
    events = generate(TraceSpec("uniform", 100, seed=6, params={"banks": 2}), geometry)
    path = tmp_path / "t.trace"
    save(events, str(path), fmt="binary")
    back = read_binary(io.BytesIO(path.read_bytes()), geometry)
    assert back == events


def test_file_roundtrip_auto_format(geometry, tmp_path):
    events = generate(TraceSpec("sequential", 50), geometry)
    text_path = str(tmp_path / "t.trace")
    bin_path = str(tmp_path / "t.bin")
    save(events, text_path)
    save(events, bin_path)
    assert load(text_path, geometry) == events
    assert load(bin_path, geometry) == events
    assert (tmp_path / "t.bin").stat().st_size == 50 * 6


def test_named_file_format_beats_the_extension(geometry, tmp_path):
    """``load`` and ``save`` pick the format the same way: a named format
    wins over the extension, and an unknown name is refused before any
    file is touched."""
    events = generate(TraceSpec("uniform", 20, seed=2), geometry)
    path = str(tmp_path / "t.txt")
    save(events, path, "binary")
    assert (tmp_path / "t.txt").stat().st_size == 20 * 6
    assert load(path, geometry, "binary") == events
    text_path = str(tmp_path / "t.bin")
    save(events, text_path, "text")
    assert (tmp_path / "t.bin").read_text().startswith(f"{events.banks[0]} ")
    assert load(text_path, geometry, "text") == events
    for fmt in ("csv", "bin", ""):
        with pytest.raises(ConfigError, match="unknown trace format"):
            save(events, str(tmp_path / "u.bin"), fmt)
        with pytest.raises(ConfigError, match="unknown trace format"):
            load(path, geometry, fmt)
    assert not (tmp_path / "u.bin").exists()


@pytest.mark.parametrize(
    "line",
    ["0 1 2", "zero 1", "0", "0 x"],
)
def test_text_malformed_lines(geometry, line):
    with pytest.raises(TraceError) as exc_info:
        read_text(io.StringIO(f"0 1\n{line}\n"), geometry)
    assert exc_info.value.line == 2


@pytest.mark.parametrize("line", ["64 0", "0 65536", "-1 0", "0 -5"])
def test_text_out_of_range(geometry, line):
    with pytest.raises(TraceError) as exc_info:
        read_text(io.StringIO(line + "\n"), geometry)
    assert exc_info.value.line == 1


def test_binary_truncated(geometry):
    with pytest.raises(TraceError):
        read_binary(io.BytesIO(b"\x00" * 11), geometry)


def _records(pairs) -> bytes:
    return b"".join(struct.pack("<HI", bank, row) for bank, row in pairs)


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize(
    "bank, row, message",
    [
        (64, 0, "bank 64 out of range"),
        (65535, 5, "bank 65535 out of range"),
        (0, 65536, "data_row 65536 out of range"),
        (3, 2**32 - 1, "data_row 4294967295 out of range"),
        (64, 65536, "bank 64 out of range"),
    ],
)
def test_binary_out_of_range_record_is_located(geometry, k, bank, row, message):
    """The first bad record is named by its 1-based number, and a bad bank
    is reported before a bad row, even with more bad records after it."""
    pairs = [(1, 2)] * (k - 1) + [(bank, row), (0, 70000), (99, 0)]
    with pytest.raises(TraceError, match=f"line {k}: {message}") as exc_info:
        read_binary(io.BytesIO(_records(pairs)), geometry)
    assert exc_info.value.line == k


def test_trace_columns_and_events(geometry):
    events = generate(TraceSpec("uniform", 5, seed=2, params={"banks": 4}), geometry)
    assert len(events) == 5
    assert [ev.slot for ev in events] == [0, 1, 2, 3, 4]
    assert [ev.bank for ev in events] == events.banks
    assert [ev.data_row for ev in events] == events.rows
    assert list(events)[-1] == ActivationEvent(4, events.banks[4], events.rows[4])


def _outcome(fn, *args):
    """What a call returns as a list of events, or the error it raises."""
    try:
        return "ok", list(fn(*args))
    except (ConfigError, TraceError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


GEN_PARAMS = {
    "uniform": {"rows": st.integers(1, 65536), "banks": st.integers(1, 64)},
    "zipf": {
        # Past about 3 the tail weights of 65,536 rows add nothing to the
        # cumulative sum, and past about 70 they underflow to 0.0.
        "exponent": st.one_of(st.floats(0.2, 3.0), st.floats(3.0, 1000.0)),
        "rows": st.integers(1, 65536),
        "banks": st.integers(1, 64),
        "shuffle": st.booleans(),
    },
    "sequential": {"bank": st.integers(0, 63), "start_row": st.integers(0, 65536)},
    "hotset": {
        "hot_rows": st.integers(1, 200),
        "hot_fraction": st.floats(0.01, 1.0),
        "rows": st.integers(1, 65536),
        "banks": st.integers(1, 64),
    },
    "hammer": {
        "row": st.integers(0, 65536),
        "gap": st.integers(0, 2000),
        "bank": st.integers(0, 64),
    },
    "roundrobin": {"bank": st.integers(0, 63)},
}


@st.composite
def specs(draw):
    generator = draw(st.sampled_from(sorted(GEN_PARAMS)))
    params = draw(st.fixed_dictionaries({}, optional=GEN_PARAMS[generator]))
    return TraceSpec(
        generator,
        draw(st.integers(1, 3000)),
        seed=draw(st.integers(0, 2**32 - 1)),
        params=params,
    )


@settings(deadline=None, max_examples=150)
@given(spec=specs())
def test_generators_match_the_legacy_event_lists(spec):
    """Every generator draws the same trace as the tuple-per-event code
    it replaced, or refuses the same spec with the same error."""
    geometry = DramGeometry()
    assert _outcome(generate, spec, geometry) == _outcome(
        legacy_trace.generate, spec, geometry
    )


# Draw bounds at and around every power of two a draw loop meets: one
# value, a rejecting width, the default 64 banks and 65536 rows.
DRAW_SIZES = (1, 2, 3, 4, 63, 64, 65, 65535, 65536)
SEEDS = (0, 1, 4242, 2**32 - 1)


def _boundary_params(generator, geometry):
    """Parameter sets for the boundary test.  ``uniform`` crosses every
    bank count with every row count.  ``uniform`` and ``zipf`` draw one
    bank as a zero-bit draw in their only loop, and ``hotset`` draws a
    single-bank trace in a rows-only loop of its own, so ``zipf`` and
    ``hotset`` sweep their own row parameters under one bank and under a
    drawing bank count: both of hotset's loops."""
    banks_all = [b for b in DRAW_SIZES if b <= geometry.banks]
    if generator == "uniform":
        return [{"rows": r, "banks": b} for r in DRAW_SIZES for b in banks_all]
    if generator == "zipf":
        return [{"rows": r, "banks": b} for r in DRAW_SIZES for b in (1, 64)]
    pairs = [(r, h) for r in DRAW_SIZES for h in (1, 3, 64) if h <= r]
    pairs += [(65536, h) for h in DRAW_SIZES if h not in (1, 3, 64)]
    return [
        {"rows": r, "hot_rows": h, "banks": b} for r, h in pairs for b in (1, 3)
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generator", ["uniform", "zipf", "hotset"])
def test_draw_loops_match_the_legacy_generators_at_power_of_two_bounds(
    generator, seed, geometry
):
    """The inlined rejection draws consume the same words as ``randrange``
    at every bound where ``n.bit_length()`` changes."""
    for params in _boundary_params(generator, geometry):
        for length in (1, 3000):
            spec = TraceSpec(generator, length, seed=seed, params=params)
            got = generate(spec, geometry)
            assert list(got) == legacy_trace.generate(spec, geometry), (length, params)


# Every length where the widest swap's draw width changes: 2**k - 1,
# 2**k and 2**k + 1 up to 2**16, beside every length up to 70.
SHUFFLE_SIZES = sorted(
    {*range(71), *(n for k in range(17) for n in (2**k - 1, 2**k, 2**k + 1))}
)


def test_shuffle_matches_random_shuffle():
    """One draw width per inner loop gives ``random.shuffle``'s swaps at
    every length, above all where a width ends and the next begins."""
    for seed in SEEDS:
        for n in SHUFFLE_SIZES:
            got, want = list(range(n)), list(range(n))
            _shuffle(got, random.Random(seed))
            random.Random(seed).shuffle(want)
            assert got == want, (seed, n)


# The first eight (bank, row) pairs of two benchmark traces.  The legacy
# reference draws through CPython's ``random``, so only literals catch a
# change in how a draw turns Mersenne Twister words into integers.
PINNED_PREFIXES = {
    "design_sweep zipf": (
        TraceSpec("zipf", 20000, seed=1, params={"exponent": 1.0, "banks": 64}),
        [(17, 27024), (8, 11104), (63, 58451), (60, 61692),
         (26, 22645), (3, 43595), (49, 59155), (0, 26911)],
    ),
    # The first of hot_cache's 64 traces at seed 1: its sub-seed is
    # random.Random(1).randrange(1 << 31).
    "hot_cache hotset": (
        TraceSpec(
            "hotset", 2000, seed=577090037,
            params={"hot_rows": 48, "hot_fraction": 0.9},
        ),
        [(0, 4919), (0, 12822), (0, 14522), (0, 49220),
         (0, 21469), (0, 50350), (0, 19562), (0, 23807)],
    ),
}  # fmt: skip


@pytest.mark.parametrize("name", sorted(PINNED_PREFIXES))
def test_benchmark_traces_keep_their_pinned_prefixes(name, geometry):
    spec, prefix = PINNED_PREFIXES[name]
    trace = generate(spec, geometry)
    assert list(zip(trace.banks[:8], trace.rows[:8])) == prefix, name


# sha256 of the whole bank column then the whole row column, each as
# little-endian u32, of three benchmark traces and two single-bank ones.
# Like the prefixes above, only literals catch a changed draw.
TRACE_DIGESTS = {
    "design_sweep zipf": (
        PINNED_PREFIXES["design_sweep zipf"][0],
        "b62f1d154f9b1a9cf211a1cbfc990b84fdbdac5af25e487691c71d23f61793bb",
    ),
    "design_sweep zipf unshuffled": (
        TraceSpec(
            "zipf", 20000, seed=1,
            params={"exponent": 1.0, "banks": 64, "shuffle": False},
        ),
        "b39c815c841c79d5550c77134c53d97ebff355999f36906c1f9aecafb0282b01",
    ),
    "hot_cache hotset": (
        PINNED_PREFIXES["hot_cache hotset"][0],
        "36dd76135790b8a6f5423e0fa4df3700c022d04ea36e6785ac23d5363a87ef7d",
    ),
    # The trace a default ``pracsim run`` simulates: one bank, whose
    # zero-bit bank draws take no word from the stream.
    "pracsim run default zipf": (
        TraceSpec(
            "zipf", 10000, seed=1,
            params={"exponent": 1.0, "shuffle": True, "rows": 65536, "banks": 1},
        ),
        "13ec0bb4913d586be373c6a921a4443209b59a41ccd50371d82c0fd3ab4f3b7f",
    ),
    "single-bank uniform": (
        TraceSpec("uniform", 10000, seed=1, params={"rows": 65536, "banks": 1}),
        "cc7e4519e44519b5d85e582889acadc634dac121da0aedb5081be1fac94b1123",
    ),
}  # fmt: skip


def _digest(trace):
    columns = np.array([trace.banks, trace.rows], dtype="<u4")
    return hashlib.sha256(columns.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_benchmark_traces_keep_their_digests(name, geometry):
    spec, digest = TRACE_DIGESTS[name]
    assert _digest(generate(spec, geometry)) == digest, name


def test_zipf_weights_are_read_only(geometry):
    """Every zipf trace with the same rows and exponent shares one weights
    array, so a write to it is refused and leaves the next trace as it was."""
    spec, digest = TRACE_DIGESTS["design_sweep zipf"]
    weights = _zipf_cumulative(geometry.rows_per_bank, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        weights *= 2
    assert weights[0] == 1.0
    assert _digest(generate(spec, geometry)) == digest


def test_zipf_permutation_is_read_only(geometry):
    """Every shuffled zipf trace with the same seed and rows shares one
    rank-to-row permutation, a read-only int64 array of rows + 1 entries
    whose guard entry repeats the last rank's row, so a write to it is
    refused and leaves the next trace as it was."""
    spec, digest = TRACE_DIGESTS["design_sweep zipf"]
    rows = geometry.rows_per_bank
    perm = _zipf_rows(spec.seed, rows)
    first = int(perm[0])
    with pytest.raises(ValueError, match="read-only"):
        perm[0] = first + 1
    with pytest.raises(ValueError, match="read-only"):
        perm += 1
    with pytest.raises(ValueError, match="read-only"):
        perm.sort()
    assert perm[0] == first
    assert _zipf_rows(spec.seed, rows) is perm
    assert perm.dtype == np.int64 and perm.shape == (rows + 1,)
    assert sorted(perm[:-1].tolist()) == list(range(rows))
    assert perm[-1] == perm[-2]
    assert perm.nbytes == 8 * (rows + 1)
    assert _digest(generate(spec, geometry)) == digest


# Six (seed, rows) keys, more than the permutation cache holds, so the
# repeat pass finds each evicted.  A seed shared across row counts and a
# row count shared across seeds catch a cache keyed on either alone; two
# exponents share one key, and unshuffled traces of each row count share
# the unshuffled (None, rows) entry.
PERMUTATION_KEYS = [(1, 100), (2, 100), (1, 65536), (2, 65536), (4242, 3), (4242, 100)]


def test_zipf_permutation_cache_keys_on_seed_and_rows(geometry):
    assert _zipf_rows.cache_info().maxsize < len(PERMUTATION_KEYS)
    _zipf_rows.cache_clear()
    specs = []
    for seed, rows in PERMUTATION_KEYS:
        for params in ({"exponent": 1.0}, {"exponent": 2.0}, {"shuffle": False}):
            params = dict(params, rows=rows, banks=3)
            specs.append(TraceSpec("zipf", 500, seed=seed, params=params))
    for spec in specs * 2:
        assert list(generate(spec, geometry)) == legacy_trace.generate(
            spec, geometry
        ), spec


def test_zipf_shuffles_once_per_seed_and_rows(monkeypatch):
    """A compare over every design, the run-then-verify workflow of the
    README (a logged run, then its events loaded again for ``verify``)
    and a bare generation of one zipf config draw its permutation once
    between them."""
    calls = []

    def counting_shuffle(x, rng):
        calls.append(len(x))
        return _shuffle(x, rng)

    monkeypatch.setattr(trace_mod, "_shuffle", counting_shuffle)
    _zipf_rows.cache_clear()
    config = resolve(
        overrides={
            "trace.generator": "zipf",
            "trace.banks": "64",
            "trace.length": "2000",
            "seed": "5",
        }
    )
    compare(config, list(DESIGNS))
    eng = Engine(config, collect_log=True)
    eng.run()
    eng.load_events()
    generate(config.trace_spec, config.geometry)
    assert calls == [config.geometry.rows_per_bank]


# The largest draw ``random()`` can return.
MAX_DRAW = 1 - 2**-53


def _tie_draws(rows, exponent):
    """Draws whose scaled value equals a cumulative weight exactly, where
    ``bisect_left`` and a right-side search part, with 0.0, the largest
    draw and 2.0.  No ``random()`` returns 2.0; it is the one draw here
    that passes the last cumulative weight, and so takes the generator's
    guard that reads such a draw as the last rank."""
    cumulative = legacy_trace._zipf_cumulative(rows, exponent)
    total = cumulative[-1]
    ties = [w / total for w in cumulative if w / total < 1 and w / total * total == w]
    return [0.0, MAX_DRAW, 2.0, *ties[:: max(1, len(ties) // 500)]]


# One list, not stacked parametrize marks, so that the shuffled cases
# keep their plain exponent-rows-banks ids.
PLATEAU_CASES = [
    pytest.param(
        exponent, rows, banks, shuffle,
        id=f"{exponent}-{rows}-{banks}" + ("" if shuffle else "-unshuffled"),
    )
    for shuffle in (True, False)
    for exponent in (1.0, 2.0, 30.0, 100.0, 400.0)
    for rows in (1, 2, 3, 65536)
    for banks in (1, 64)
]  # fmt: skip


@pytest.mark.parametrize("exponent, rows, banks, shuffle", PLATEAU_CASES)
def test_zipf_ranks_match_the_legacy_bisect_on_plateaus_and_ties(
    exponent, rows, banks, shuffle, geometry, monkeypatch
):
    """Zipf traces equal the legacy generator's where the tail weights
    add nothing to the cumulative sum (exponent 30 and up over many
    rows) or underflow to 0.0 (100 and 400 over 65,536 rows), and under
    draws that tie a cumulative weight exactly.  Only the tie draws tell
    ``bisect_left`` from a search that takes the right side of a tie.
    A draw past the last weight is the last row, shuffled or not."""
    assert _zipf_cumulative(rows, exponent).tolist() == list(
        legacy_trace._zipf_cumulative(rows, exponent)
    )
    params = {"exponent": exponent, "rows": rows, "banks": banks, "shuffle": shuffle}
    for seed in (1, 4242):
        spec = TraceSpec("zipf", 2000, seed=seed, params=params)
        assert list(generate(spec, geometry)) == legacy_trace.generate(spec, geometry)
    ties = _tie_draws(rows, exponent)
    spec = TraceSpec("zipf", 2 * len(ties), seed=3, params=params)
    traces = []
    for gen in (generate, legacy_trace.generate):
        draws = itertools.cycle(ties)
        with monkeypatch.context() as patch:
            patch.setattr(random.Random, "random", lambda self: next(draws))
            traces.append(list(gen(spec, geometry)))
    assert traces[0] == traces[1]


@settings(deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 3000),
    banks=st.sampled_from([1, 64]),
    rows=st.one_of(st.sampled_from([1, 2, 3, 65536]), st.integers(4, 300)),
    exponent=GEN_PARAMS["zipf"]["exponent"],
    shuffle=st.booleans(),
)
def test_zipf_matches_the_unsorted_search_and_tuple_map(
    seed, length, banks, rows, exponent, shuffle
):
    """Searching the draws in sorted order and mapping ranks through the
    int64 permutation gives the columns of one unsorted search and a
    per-rank tuple lookup."""
    geometry = DramGeometry()
    params = {"exponent": exponent, "rows": rows, "banks": banks, "shuffle": shuffle}
    spec = TraceSpec("zipf", length, seed=seed, params=params)
    trace = generate(spec, geometry)
    assert (trace.banks, trace.rows) == legacy_trace.gen_zipf_columns(spec, geometry)
    assert all(type(row) is int for row in trace.rows)


@settings(deadline=None, max_examples=100)
@given(
    spec=specs(),
    window=st.integers(1, 100),
    mode=st.sampled_from(["tumbling", "sliding"]),
)
def test_workload_shape_matches_the_legacy_pass(spec, window, mode):
    """The shape pass over the columns gives the same skews, locality and
    footprint, in the same order, as the pass over event tuples."""
    config = resolve(
        overrides={"metrics.window": str(window), "metrics.window_mode": mode}
    )
    try:
        events = legacy_trace.generate(spec, config.geometry)
    except ConfigError:
        return
    want = legacy_trace.workload_shape(events, config)
    assert repr(workload_shape(generate(spec, config.geometry), config)) == repr(want)


@pytest.mark.parametrize(
    "spots, slot",
    [
        ([(0, 5), (64, 0)], 1),
        ([(0, 5), (1, -1), (3, 0)], 1),
        ([(2, 65536)], 0),
        ([(0, 1), (0, 2), (-1, 3)], 2),
    ],
)
def test_workload_shape_refuses_activations_outside_the_geometry(spots, slot):
    """The shape grid has one cell per counter row of the geometry, so an
    activation outside it is named, not counted in a neighbouring cell."""
    config = resolve()
    trace = Trace([b for b, _ in spots], [r for _, r in spots])
    with pytest.raises(TraceError, match=f"^slot {slot}: bank "):
        workload_shape(trace, config)


# Text lines and binary records: mostly good, some malformed or out of range.
GOOD_LINE = st.builds(
    "{} {}".format, st.integers(0, 63), st.integers(0, 65535)
)
TEXT_LINE = st.one_of(
    GOOD_LINE,
    GOOD_LINE,
    GOOD_LINE,
    st.sampled_from(["", "   ", "# comment", "  #indented", "\t3\t9 "]),
    st.sampled_from(["64 0", "0 65536", "-1 0", "0 -5", "x 1", "1 2 3", "7", "0 1.5"]),
)
GOOD_RECORD = st.tuples(st.integers(0, 63), st.integers(0, 65535))
RECORD = st.one_of(
    GOOD_RECORD,
    GOOD_RECORD,
    GOOD_RECORD,
    GOOD_RECORD,
    st.tuples(st.integers(64, 65535), st.integers(0, 2**32 - 1)),
    st.tuples(st.integers(0, 63), st.integers(65536, 2**32 - 1)),
)


@pytest.mark.parametrize(
    "line", ["+3 4", "5_0 6", "3 +4", "1_0 6", "\u0663 4", "3 \uff14", "-3 4_0"]
)
def test_read_text_takes_only_ascii_digits_and_a_minus(line):
    """Fields ``int`` would take, as the log and state readers refuse them."""
    with pytest.raises(TraceError) as exc:
        read_text(io.StringIO(f"0 1\n{line}\n"), DramGeometry())
    assert str(exc.value) == f"line 2: non-integer field in {line!r}"


@settings(deadline=None, max_examples=150)
@given(lines=st.lists(TEXT_LINE, max_size=40))
def test_read_text_matches_the_legacy_reader(lines):
    geometry = DramGeometry()
    text = "\n".join(lines) + "\n"
    assert _outcome(read_text, io.StringIO(text), geometry) == _outcome(
        legacy_trace.read_text, io.StringIO(text), geometry
    )


@settings(deadline=None, max_examples=150)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**32 - 1)), max_size=60
    ),
)
def test_writers_match_the_legacy_writers(tmp_path_factory, pairs):
    """Both writers, the binary one through ``save``, give the bytes of the
    event-at-a-time writers they replaced, over the whole range of each
    binary field."""
    trace = Trace([b for b, _ in pairs], [r for _, r in pairs])
    got, want = io.StringIO(), io.StringIO()
    write_text(trace, got)
    legacy_trace.write_text(list(trace), want)
    assert got.getvalue() == want.getvalue()
    path = tmp_path_factory.mktemp("writers") / "t.trace"
    save(trace, str(path), fmt="binary")
    want = io.BytesIO()
    legacy_trace.write_binary(list(trace), want)
    assert path.read_bytes() == want.getvalue()


def test_write_text_refuses_fields_beyond_int64(tmp_path):
    """A bank or data row past int64 is a TraceError naming the first such
    line and field, before anything is written; a text save refuses it
    before it opens the file.  Negative values in int64 are written as
    the event-at-a-time writer wrote them."""
    for banks, rows, message in [
        ([2**64, -3, 0], [2**70, 2**70, 2**63], f"line 1: bank {2**64} does not fit int64"),
        ([0, -3, 0], [-1, 2**70, 2**63], f"line 2: data_row {2**70} does not fit int64"),
        ([0, -3, 0], [-1, 5, 2**63], f"line 3: data_row {2**63} does not fit int64"),
        ([0, -(2**63) - 1], [0, 0], f"line 2: bank {-(2**63) - 1} does not fit int64"),
    ]:
        trace, out = Trace(banks, rows), io.StringIO()
        with pytest.raises(TraceError) as exc:
            write_text(trace, out)
        assert (str(exc.value), out.getvalue()) == (message, "")
        path = tmp_path / "t.txt"
        path.write_bytes(b"kept")
        with pytest.raises(TraceError) as exc:
            save(trace, str(path))
        assert (str(exc.value), path.read_bytes()) == (message, b"kept")
    fits = Trace([-(2**63), -3], [-1, 2**63 - 1])
    got, want = io.StringIO(), io.StringIO()
    write_text(fits, got)
    legacy_trace.write_text(list(fits), want)
    assert got.getvalue() == want.getvalue() == f"{-(2**63)} -1\n-3 {2**63 - 1}\n"


@settings(deadline=None, max_examples=150)
@given(pairs=st.lists(RECORD, max_size=40), cut=st.sampled_from([0, 0, 0, 1, 5]))
def test_read_binary_matches_the_legacy_reader(pairs, cut):
    geometry = DramGeometry()
    data = _records(pairs)
    data = data[: len(data) - cut] if cut <= len(data) else data
    assert _outcome(read_binary, io.BytesIO(data), geometry) == _outcome(
        legacy_trace.read_binary, io.BytesIO(data), geometry
    )


@pytest.mark.parametrize(
    "generator,length,params",
    [
        ("nosuch", 10, {}),
        ("zipf", 0, {}),
        ("zipf", 10, {"exponent": 0.0}),
        ("zipf", 10, {"hot_rows": 4}),
        ("hotset", 10, {"hot_fraction": 0.0}),
        ("hotset", 10, {"hot_fraction": 1.5}),
        ("hammer", 10, {"gap": -1}),
        ("uniform", 10, {"rows": 0}),
        ("uniform", 10, {"banks": 0}),
    ],
)
def test_bad_specs(generator, length, params):
    with pytest.raises(ConfigError):
        TraceSpec(generator, length, params=params)


def test_params_checked_against_geometry(geometry):
    with pytest.raises(ConfigError):
        generate(TraceSpec("uniform", 10, params={"rows": 65537}), geometry)
    with pytest.raises(ConfigError):
        generate(TraceSpec("uniform", 10, params={"banks": 65}), geometry)
    with pytest.raises(ConfigError):
        generate(TraceSpec("hammer", 10, params={"row": 65536}), geometry)
    with pytest.raises(ConfigError):
        generate(TraceSpec("hotset", 10, params={"hot_rows": 64, "rows": 32}), geometry)


def test_tiny_geometry_hammer_single_counter_row():
    geometry = DramGeometry(
        banks=1, rows_per_bank=8, counter_rows_per_bank=1, counters_per_counter_row=8
    )
    spec = TraceSpec("hammer", 8, params={"row": 3, "gap": 1})
    events = generate(spec, geometry)
    fillers = [ev.data_row for i, ev in enumerate(events) if i % 2 == 1]
    assert all(row != 3 for row in fillers)


@pytest.mark.parametrize(
    "data, line",
    [
        (b"0 1\n0 2\n0 \xe93\n", 3),
        (b"0 1\r\n0 2\r\n\xff", 3),
        (b"0 1\r0 2\r# caf\xc3\xa9\r", 3),
        (b"\xef\xbb\xbf0 1\n", 1),
    ],
)
def test_load_locates_a_non_ascii_byte(tmp_path, geometry, data, line):
    path = tmp_path / "trace.txt"
    path.write_bytes(data)
    with pytest.raises(TraceError, match=f"^line {line}: non-ASCII byte 0x") as exc:
        load(str(path), geometry)
    assert exc.value.line == line


def test_load_reads_any_line_ending(tmp_path, geometry):
    path = tmp_path / "trace.txt"
    path.write_bytes(b"0 1\r\n1 2\r3 4\n")
    assert list(load(str(path), geometry)) == [
        ActivationEvent(0, 0, 1), ActivationEvent(1, 1, 2), ActivationEvent(2, 3, 4)
    ]


@pytest.mark.parametrize(
    "banks, rows, message",
    [
        ([0, 1, 70000, 2**16], [0, 1, 2, 3], "line 3: bank 70000 does not fit a binary record's u16 field"),
        ([0, -1], [5, 5], "line 2: bank -1 does not fit a binary record's u16 field"),
        ([0, 0, 0], [1, 2**32, -1], "line 2: data_row 4294967296 does not fit a binary record's u32 field"),
    ],
)  # fmt: skip
def test_write_binary_names_the_first_record_that_does_not_fit(
    tmp_path, banks, rows, message
):
    """A binary save names the first record that does not fit before it
    opens the file, so an existing file is left as it was."""
    path = tmp_path / "t.trace"
    path.write_bytes(b"kept")
    with pytest.raises(TraceError) as exc:
        save(Trace(banks, rows), str(path), fmt="binary")
    assert str(exc.value) == message
    assert path.read_bytes() == b"kept"
