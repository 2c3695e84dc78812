import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_metrics
from pracsim.config import resolve
from pracsim.engine import workload_shape
from pracsim.errors import ConfigError
from pracsim.metrics import (
    COMPARE_COLUMNS,
    SimReport,
    compare_csv,
    footprint_percentiles,
    skew,
    window_maxima,
)
from pracsim.trace import Trace


def stream_locality(rows, window=64):
    """Window locality of one bank's stream of counter rows, computed by
    the shape pass a run report uses."""
    config = resolve(overrides={"metrics.window": str(window)})
    cpc = config.geometry.counters_per_counter_row
    trace = Trace([0] * len(rows), [row * cpc for row in rows])
    return workload_shape(trace, config)["window_locality"]


def test_skew_uniform_is_one():
    assert skew([5, 5, 5, 5]) == 1.0


def test_skew_single_hot_row():
    counts = [0] * 64
    counts[17] = 1000
    assert skew(counts) == 64.0


def test_skew_small_example():
    assert skew([2, 1, 1, 0]) == 2.0


@pytest.mark.parametrize("counts", [[], [0, 0, 0]])
def test_skew_undefined(counts):
    with pytest.raises(ConfigError):
        skew(counts)


def test_tumbling_maxima_partition():
    stream = [0] * 64 + list(range(64))
    assert window_maxima(stream, 64) == [64, 1]
    assert stream_locality(stream, 64) == 32.5


def test_tumbling_discards_remainder():
    stream = [7] * 130
    assert window_maxima(stream, 64) == [64, 64]


def test_short_stream_has_no_locality():
    assert window_maxima([1, 2, 3], 64) == []
    assert stream_locality([1, 2, 3], 64) is None


def test_single_row_stream_locality_is_window():
    assert stream_locality([3] * 256, 64) == 64.0


def test_sliding_maxima_small_example():
    stream = [1, 1, 2, 3, 1]
    assert window_maxima(stream, 3, "sliding") == [2, 1, 1]


def test_sliding_window_equal_to_stream():
    assert window_maxima([1, 2, 1], 3, "sliding") == [2]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("window", [4, 16, 64])
def test_sliding_matches_brute_force(seed, window):
    rng = random.Random(seed)
    stream = [rng.randrange(8) for _ in range(1000)]
    fast = window_maxima(stream, window, "sliding")
    brute = [
        max(Counter(stream[i : i + window]).values())
        for i in range(len(stream) - window + 1)
    ]
    assert fast == brute


@pytest.mark.parametrize("seed", [4, 5])
def test_tumbling_matches_brute_force(seed):
    rng = random.Random(seed)
    stream = [rng.randrange(8) for _ in range(1000)]
    window = 64
    fast = window_maxima(stream, window, "tumbling")
    brute = [
        max(Counter(stream[i : i + window]).values())
        for i in range(0, len(stream) - window + 1, window)
    ]
    assert fast == brute


def test_window_mode_and_size_validation():
    with pytest.raises(ConfigError):
        window_maxima([1, 2], 0)
    with pytest.raises(ConfigError):
        window_maxima([1, 2], 2, "hopping")


def test_footprint_small_example():
    assert footprint_percentiles([50, 30, 20]) == {25: 1, 50: 1, 75: 2, 90: 3}


def test_footprint_single_row():
    assert footprint_percentiles([10]) == {25: 1, 50: 1, 75: 1, 90: 1}


@pytest.mark.parametrize("rows", [2, 7, 10, 64])
def test_footprint_uniform_median(rows):
    result = footprint_percentiles([3] * rows, (50,))
    assert result[50] == (rows + 1) // 2


def test_footprint_ignores_zero_rows():
    assert footprint_percentiles([0, 50, 0, 30, 20, 0]) == {25: 1, 50: 1, 75: 2, 90: 3}


def test_footprint_errors():
    with pytest.raises(ConfigError):
        footprint_percentiles([])
    with pytest.raises(ConfigError):
        footprint_percentiles([0, 0])
    with pytest.raises(ConfigError):
        footprint_percentiles([1], (0,))
    with pytest.raises(ConfigError):
        footprint_percentiles([1], (101,))


@given(st.lists(st.integers(1, 100), min_size=1, max_size=50))
def test_footprint_is_monotone_in_percentile(counts):
    result = footprint_percentiles(counts, (25, 50, 75, 90, 100))
    values = [result[p] for p in (25, 50, 75, 90, 100)]
    assert values == sorted(values)
    assert all(1 <= v <= len(counts) for v in values)
    assert result[100] == len([c for c in counts if c > 0])


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: its result's repr, or its ConfigError."""
    try:
        return repr(fn(*args))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


# Small counts give zeros, duplicates and totals whose share is fractional.
COUNTS = st.lists(st.integers(0, 12), max_size=40)
PERCENTILES = st.lists(
    st.one_of(st.integers(1, 100), st.sampled_from([100, 33, 67, 99, 0, 101, -5])),
    min_size=1,
    max_size=6,
).map(tuple)


@settings(deadline=None, max_examples=300)
@given(counts=COUNTS, percentiles=PERCENTILES, as_array=st.booleans())
def test_footprint_matches_the_legacy_pass(counts, percentiles, as_array):
    """Sort, running totals and a search give the walk's rows per
    percentile, in the same key order, or its error for the same cause."""
    arg = np.array(counts, dtype=np.int64) if as_array else iter(counts)
    assert _outcome(footprint_percentiles, arg, percentiles) == _outcome(
        legacy_metrics.footprint_percentiles, counts, percentiles
    )
    assert _outcome(footprint_percentiles, counts) == _outcome(
        legacy_metrics.footprint_percentiles, counts
    )


@pytest.mark.parametrize(
    "counts, percentiles, want",
    [
        # total 7: 25% is 1.75 activations, 50% is 3.5, 90% is 6.3.
        ([3, 2, 1, 1], (25, 50, 90, 100), {25: 1, 50: 2, 90: 4, 100: 4}),
        # total 3: 33% is 0.99, 67% is 2.01.
        ([1, 1, 1], (33, 67, 100), {33: 1, 67: 3, 100: 3}),
        # total 8: 50% and 75% are met exactly, at 4 and 6.
        ([2, 0, 2, 0, 2, 2], (50, 75, 100), {50: 2, 75: 3, 100: 4}),
    ],
)
def test_footprint_fractional_targets(counts, percentiles, want):
    got = footprint_percentiles(counts, percentiles)
    assert got == want == legacy_metrics.footprint_percentiles(counts, percentiles)
    assert list(got) == list(percentiles)


@pytest.mark.parametrize(
    "counts, percentiles, message",
    [
        ([], (25,), "footprint undefined with no activations"),
        ([0, 0], (25,), "footprint undefined with no activations"),
        # No activations is named before a bad percentile.
        ([0], (0,), "footprint undefined with no activations"),
        ([5], (50, 0, 101), "percentile must be in (0, 100], got 0"),
        ([5], (101, 0), "percentile must be in (0, 100], got 101"),
    ],
)
def test_footprint_error_messages_and_order(counts, percentiles, message):
    for fn in (footprint_percentiles, legacy_metrics.footprint_percentiles):
        with pytest.raises(ConfigError) as exc:
            fn(counts, percentiles)
        assert str(exc.value) == message


@settings(deadline=None, max_examples=200)
@given(
    stream=st.lists(st.integers(0, 9), max_size=300),
    window=st.integers(1, 70),
    mode=st.sampled_from(["tumbling", "sliding"]),
)
def test_window_maxima_match_the_legacy_pass(stream, window, mode):
    """A list and a numpy array of the same stream give the Counter
    walk's list of Python ints."""
    want = legacy_metrics.window_maxima(stream, window, mode)
    for arg in (stream, np.array(stream, dtype=np.int64)):
        got = window_maxima(arg, window, mode)
        assert got == want
        assert all(type(m) is int for m in got)


@pytest.mark.parametrize("mode", ["tumbling", "sliding"])
def test_window_longer_than_stream_has_no_maxima(mode):
    for stream in ([4, 4, 5], np.array([4, 4, 5])):
        assert window_maxima(stream, 4, mode) == []
        assert window_maxima(stream, 3, mode) == [2]


@settings(deadline=None, max_examples=150)
@given(counts=st.lists(st.integers(0, 1000), max_size=70))
def test_skew_matches_the_legacy_pass(counts):
    want = _outcome(legacy_metrics.skew, counts)
    assert _outcome(skew, counts) == want
    assert _outcome(skew, np.array(counts, dtype=np.int64)) == want


def make_report(policy="perrow", cache=None):
    return SimReport(
        policy=policy,
        data_acts=100,
        counter_acts=25,
        normalized_acts=0.25,
        rmw_bytes=100,
        alerts=0,
        mitigations=0,
        batch_triggers={"m_ready": 25, "k_limit": 0, "buffer_full": 0, "drain": 0},
        energy={"overhead": 0.05},
        cache=cache,
        skew_by_bank={0: 1.0},
        skew_mean=1.0,
        window_locality=2.0,
        footprint={50: 3},
        config={"seed": "1"},
    )


def test_report_json_is_stable_and_parseable():
    report = make_report()
    text = report.to_json()
    assert text == report.to_json()
    parsed = json.loads(text)
    assert parsed["schema_version"] == 1
    assert parsed["policy"] == "perrow"
    assert parsed["normalized_acts"] == 0.25
    assert parsed["skew_by_bank"] == {"0": 1.0}
    assert parsed["footprint"] == {"50": 3}


def test_compare_csv_header_is_frozen():
    text = compare_csv([make_report()])
    lines = text.splitlines()
    assert lines[0] == (
        "policy,data_acts,counter_acts,normalized_acts,rmw_bytes,"
        "alerts,mitigations,cache_hit_rate,energy_overhead"
    )
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "perrow"
    assert cells[3] == "0.25"
    assert cells[7] == ""


def test_compare_csv_includes_cache_hit_rate():
    report = make_report(cache={"hit_rate": 0.625})
    line = compare_csv([report]).splitlines()[1]
    assert line.split(",")[COMPARE_COLUMNS.index("cache_hit_rate")] == "0.625"
