import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_cache
from legacy_cache import CounterCache as ScanningCounterCache
from pracsim.cache import ASSOC, CacheConfig, CounterCache, _slot_table
from pracsim.config import resolve
from pracsim.engine import Engine
from pracsim.errors import ConfigError
from pracsim.geometry import DramGeometry


CACHE_TOTALS = ("hits", "misses", "writebacks", "admission_rejects", "fills_rejected")


def make_cache(geometry, kind="lru4way", entries=4, **kw):
    return CounterCache(0, CacheConfig(kind=kind, entries=entries, **kw), geometry)


def no_sink(row, byte, value):
    raise AssertionError("writeback sink should not be consulted")


def test_miss_then_fill_then_hit(toy_geometry):
    cache = make_cache(toy_geometry)
    assert not cache.access(1, 2)
    assert cache.fill_clean(1, 2, 7, no_sink)
    assert cache.access(1, 2)
    assert cache.dirty_lines() == [(1, 2, 8)]
    assert (cache.hits, cache.misses) == (1, 1)


def test_refill_cleans_existing_line(toy_geometry):
    cache = make_cache(toy_geometry)
    cache.fill_clean(1, 2, 7, no_sink)
    cache.access(1, 2)
    assert cache.dirty_lines() == [(1, 2, 8)]
    assert cache.fill_clean(1, 2, 8, no_sink)
    assert cache.dirty_lines() == []


def test_clean_eviction_is_lru_and_silent(toy_geometry):
    cache = make_cache(toy_geometry, entries=4)
    for row in range(4):
        cache.fill_clean(row, 0, row, no_sink)
    cache.fill_clean(0, 1, 9, no_sink)
    assert not cache.access(0, 0)
    assert cache.access(1, 0)


def test_access_refreshes_recency(toy_geometry):
    cache = make_cache(toy_geometry, entries=4)
    for row in range(4):
        cache.fill_clean(row, 0, 0, no_sink)
    assert cache.access(0, 0)

    def sink(row, byte, value):
        assert (row, byte, value) == (0, 0, 1)
        return True

    cache.fill_clean(1, 1, 9, sink)
    assert not cache.access(1, 0)
    assert cache.access(0, 0)


def test_dirty_eviction_goes_through_sink(toy_geometry):
    cache = make_cache(toy_geometry, entries=4)
    cache.fill_clean(0, 0, 10, no_sink)
    cache.access(0, 0)
    cache.access(0, 0)
    for row in range(1, 4):
        cache.fill_clean(row, 0, 0, no_sink)
    calls = []

    def sink(row, byte, value):
        calls.append((row, byte, value))
        return True

    assert cache.fill_clean(0, 1, 5, sink)
    assert calls == [(0, 0, 12)]
    assert cache.writebacks == 1
    assert not cache.access(0, 0)
    assert cache.access(0, 1)


def test_sink_refusal_aborts_fill(toy_geometry):
    cache = make_cache(toy_geometry, entries=4)
    cache.fill_clean(0, 0, 10, no_sink)
    cache.access(0, 0)
    for row in range(1, 4):
        cache.fill_clean(row, 0, 0, no_sink)
    assert not cache.fill_clean(0, 1, 5, lambda r, b, v: False)
    assert cache.fills_rejected == 1
    assert cache.writebacks == 0
    assert cache.access(0, 0)
    assert not cache.access(0, 1)


def test_access_returns_the_live_value(toy_geometry):
    """A miss returns 0 and a hit the cached copy after its increment,
    with no threshold of its own: the engine alerts from that value."""
    cache = make_cache(toy_geometry)
    assert cache.access(2, 3) == 0
    cache.fill_clean(2, 3, 4, no_sink)
    assert [cache.access(2, 3) for _ in range(3)] == [5, 6, 7]
    assert cache.dirty_lines() == [(2, 3, 7)]
    cache.fill_clean(2, 3, 254, no_sink)
    assert [cache.access(2, 3) for _ in range(2)] == [255, 255]


@pytest.mark.parametrize("rfms_per_alert", [1, 2])
@pytest.mark.parametrize("kind", ["lru4way", "tinylfu"])
def test_cached_copy_reaching_n_bo_alerts_once(kind, rfms_per_alert):
    """The engine raises the alert of a cached copy that reaches n_bo:
    one alert, the line left clean at 0, and a queued writeback of that
    counter zeroed, so neither copy restores the mitigated count."""
    config = resolve(
        overrides={
            "buffer.design": "perrow",
            "buffer.k_limit": "1",
            "cache.kind": kind,
            "mitigation.n_bo": "5",
            "mitigation.rfms_per_alert": str(rfms_per_alert),
            "mitigation.proactive_interval": "0",
            "metrics.enabled": "false",
        }
    )
    cpc = config.geometry.counters_per_counter_row
    row_id, byte_id = 2, 3
    engine = Engine(config)
    # K = 1 services each miss at once, which installs a clean copy.  The
    # second counter, (5, 1), is what an extra RFM finds to refresh.
    engine.step(0, 0, row_id * cpc + byte_id)
    engine.step(1, 0, 5 * cpc + 1)
    buf, cache = engine._bank(0)
    assert cache.dirty_lines() == []
    assert buf.try_insert_writeback(row_id, byte_id, 3)
    for slot in range(2, 5):
        engine.step(slot, 0, row_id * cpc + byte_id)
    assert cache.dirty_lines() == [(row_id, byte_id, 4)]
    assert engine.store.alerts == 0
    engine.step(5, 0, row_id * cpc + byte_id)
    assert engine.store.alerts == 1
    assert engine.store.mitigations == rfms_per_alert
    assert engine.store.get(0, row_id, byte_id) == 0
    assert engine.store.get(0, 5, 1) == (0 if rfms_per_alert == 2 else 1)
    assert cache.dirty_lines() == []
    assert (cache.hits, cache.misses) == (4, 2)
    (batch,) = buf.drain()
    assert batch.items == {~byte_id: (0, 0)}
    assert cache.access(row_id, byte_id) == 1


def test_value_saturates(toy_geometry):
    cache = make_cache(toy_geometry)
    cache.fill_clean(0, 0, 255, no_sink)
    cache.access(0, 0)
    assert cache.dirty_lines() == [(0, 0, 255)]


def test_sets_partition_by_flat_index(toy_geometry):
    cache = make_cache(toy_geometry, entries=8)
    assert cache.num_sets == 2
    for row in range(4):
        assert cache.fill_clean(row, 0, 0, no_sink)
        assert cache.fill_clean(row, 1, 0, no_sink)
    for row in range(4):
        assert cache.access(row, 0)
        assert cache.access(row, 1)


def test_tinylfu_rejects_cold_candidate(toy_geometry):
    cache = make_cache(toy_geometry, kind="tinylfu", entries=4)
    for _ in range(3):
        cache.access(0, 0)
    for row in range(4):
        cache.fill_clean(row, 0, 0, no_sink)
    cache.access(0, 1)
    assert not cache.fill_clean(0, 1, 1, no_sink)
    assert cache.admission_rejects == 1
    assert cache.access(0, 0)


def test_tinylfu_admits_hot_candidate(toy_geometry):
    cache = make_cache(toy_geometry, kind="tinylfu", entries=4)
    for _ in range(3):
        cache.access(0, 0)
    for row in range(4):
        cache.fill_clean(row, 0, 0, no_sink)
    for _ in range(5):
        cache.access(0, 1)
    assert cache.fill_clean(0, 1, 1, no_sink)
    assert cache.admission_rejects == 0
    assert not cache.access(0, 0)
    assert cache.access(0, 1)


def test_sketch_halves_on_schedule(toy_geometry):
    cache = make_cache(toy_geometry, kind="tinylfu", entries=4, halving_period=4)
    flat = 0
    for i in range(3):
        cache.access(0, 0)
        assert cache._estimate(flat) == i + 1
    cache.access(0, 0)
    assert cache._estimate(flat) == 2


def test_cache_memory_does_not_grow_with_the_counters_it_sees(geometry):
    """A TinyLFU cache holds as much after accessing 20,000 distinct
    counters as after accessing 100: no per-counter state is kept."""
    config = CacheConfig(kind="tinylfu", entries=64)
    CounterCache(0, config, geometry)  # builds the shared slot table
    grown = {}
    tracemalloc.start()
    try:
        for distinct in (100, 20_000):
            cache = CounterCache(0, config, geometry)
            before = tracemalloc.get_traced_memory()[0]
            for flat in range(0, 3 * distinct, 3):
                cache.access(*divmod(flat, geometry.counters_per_counter_row))
            grown[distinct] = tracemalloc.get_traced_memory()[0] - before
            del cache
    finally:
        tracemalloc.stop()
    assert grown[20_000] <= grown[100] + 1024, grown


@pytest.mark.parametrize(
    "width, rows", [(1024, 2), (1000, 3), (1, 1), (65536, 1), (4096, 16)]
)
def test_slot_table_holds_the_hashed_slots(geometry, width, rows):
    """Every counter of a default bank reads, in each sketch row, the slot
    that hashing its flat index gives, from entries of the fewest bytes
    that hold every slot; the table cannot be written."""
    counters = geometry.counter_rows_per_bank * geometry.counters_per_counter_row
    assert counters == 65536
    table = _slot_table(width, rows, counters)
    assert len(table) == rows
    for r, slots in enumerate(table):
        assert slots.itemsize == (1 if width * rows <= 256 else 2)
        seed = (legacy_cache._SEED_BASE + r * legacy_cache._SEED_STEP) & legacy_cache._M64
        want = [
            r * width + legacy_cache._mix(flat * 0x9E3779B97F4A7C15 + seed) % width
            for flat in range(counters)
        ]
        assert slots.tolist() == want
        with pytest.raises(TypeError):
            slots[0] = 0


def test_sketch_counters_saturate(toy_geometry):
    cache = make_cache(toy_geometry, kind="tinylfu", entries=4)
    for _ in range(30):
        cache.access(0, 0)
    assert cache._estimate(0) == 15


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "plain"},
        {"kind": "lru4way", "entries": 6},
        {"kind": "lru4way", "entries": 0},
        {"kind": "tinylfu", "sketch_width": 0},
        {"kind": "tinylfu", "sketch_rows": 0},
        {"kind": "tinylfu", "halving_period": -1},
    ],
)
def test_bad_configs(kwargs):
    with pytest.raises(ConfigError):
        CacheConfig(**kwargs)


def test_kind_none_is_not_instantiable(toy_geometry):
    with pytest.raises(ConfigError):
        CounterCache(0, CacheConfig(kind="none"), toy_geometry)


@pytest.mark.parametrize("kind", ["lru4way", "tinylfu"])
def test_engine_run_conserves_counts_with_cache(kind):
    config = resolve(
        overrides={
            "trace.generator": "hotset",
            "trace.length": "6000",
            "trace.hot_rows": "48",
            "trace.hot_fraction": "0.9",
            "cache.kind": kind,
            "cache.entries": "64",
            "mitigation.enabled": "false",
            "metrics.enabled": "false",
            "seed": "11",
        }
    )
    engine = Engine(config)
    events = engine.load_events()
    true = Counter()
    for ev in events:
        row_id, byte_id = divmod(ev.data_row, config.geometry.counters_per_counter_row)
        true[(ev.bank, row_id, byte_id)] += 1
    report = engine.run()
    assert report.cache["hits"] > 0
    dirty = {}
    totals = Counter()
    for bank in sorted({ev.bank for ev in events}):
        cache = engine.cache(bank)
        for row, byte, value in cache.dirty_lines():
            dirty[(bank, row, byte)] = value
        for key in CACHE_TOTALS:
            totals[key] += getattr(cache, key)
    assert {key: report.cache[key] for key in totals} == dict(totals)
    assert totals["hits"] + totals["misses"] == len(events)
    for key, count in true.items():
        if key in dirty:
            assert dirty[key] == count, key
        else:
            assert engine.store.get(*key) == count, key
    for key, value in dirty.items():
        assert engine.store.get(*key) < value


@settings(deadline=None, max_examples=100)
@given(
    kind=st.sampled_from(("lru4way", "tinylfu")),
    entries=st.sampled_from((4, 8)),
    sketch_width=st.integers(1, 9),
    sketch_rows=st.integers(1, 3),
    halving_period=st.integers(0, 12),
    refuse_every=st.integers(1, 4),
    length=st.integers(50, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_cache_matches_the_scanning_cache(
    kind, entries, sketch_width, sketch_rows, halving_period, refuse_every, length, seed
):
    """Accesses, fills through a sink that refuses every few writebacks,
    and resets return, count, write back and hold the same as on the
    cache that scanned its ways and rehashed its sketch slots; after each
    operation every set holds the same counters, values and dirty bits in
    the same LRU order (the scanning cache's sets are newest first)."""
    geometry = DramGeometry(
        banks=1, rows_per_bank=16, counter_rows_per_bank=4, counters_per_counter_row=4
    )
    config = CacheConfig(
        kind=kind,
        entries=entries,
        sketch_width=sketch_width,
        sketch_rows=sketch_rows,
        halving_period=halving_period,
    )
    cache = CounterCache(0, config, geometry)
    ref = ScanningCounterCache(0, config, geometry)
    got, want = [], []

    def sink(calls):
        def take(*writeback):
            calls.append(writeback)
            return len(calls) % refuse_every != 0

        return take

    rng = random.Random(seed)
    touched = set()
    for _ in range(length):
        op = rng.choice(("access", "access", "fill", "reset"))
        row, byte = rng.randrange(4), rng.randrange(4)
        touched.add(row * 4 + byte)
        if op == "access":
            assert cache.access(row, byte) == ref.access(row, byte)
        elif op == "fill":
            value = rng.choice((0, 254, 255, rng.randrange(256)))
            assert cache.fill_clean(row, byte, value, sink(got)) == ref.fill_clean(
                row, byte, value, sink(want)
            )
            assert got == want
        else:
            cache.reset(row, byte)
            ref.reset(row, byte)
        assert [getattr(cache, k) for k in CACHE_TOTALS] == [
            getattr(ref, k) for k in CACHE_TOTALS
        ]
        assert cache.dirty_lines() == ref.dirty_lines()
        assert [
            [(flat, line >> 1, line & 1) for flat, line in ways.items()]
            for ways in cache.sets
        ] == [
            [(line.flat, line.value, int(line.dirty)) for line in reversed(ways)]
            for ways in ref.sets
        ]
        if kind == "tinylfu":
            assert [cache._estimate(f) for f in touched] == [
                ref._estimate(f) for f in touched
            ]
