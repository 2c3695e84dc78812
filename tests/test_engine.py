import gc
import io
import json
import weakref

import numpy as np
import pytest

from legacy_cache import CounterCache as ScanningCounterCache
from legacy_counters import HistogramCounterArray
from pracsim import engine as engine_mod
from pracsim.buffers import DESIGNS
from pracsim.config import resolve
from pracsim.counters import CounterArray
from pracsim.engine import Engine, compare, run
from pracsim.errors import ConfigError, TraceError
from pracsim.oracle import read_log, verify, write_log
from pracsim.trace import TraceSpec, generate, save
from service_logs import batches_of


def sequential_overrides(length=100, **extra):
    base = {
        "trace.generator": "sequential",
        "trace.length": str(length),
        "mitigation.enabled": "false",
    }
    base.update(extra)
    return base


def test_sequential_perrow_quarter_rate():
    config = resolve(overrides=sequential_overrides(100, **{"buffer.design": "perrow"}))
    report = run(config)
    assert report.data_acts == 100
    assert report.counter_acts == 25
    assert report.normalized_acts == 0.25
    assert report.rmw_bytes == 100
    assert report.batch_triggers == {
        "m_ready": 25,
        "k_limit": 0,
        "buffer_full": 0,
        "drain": 0,
    }


def test_chronus_one_batch_per_activation():
    config = resolve(
        overrides={
            "buffer.design": "chronus",
            "trace.length": "500",
            "mitigation.enabled": "false",
        }
    )
    report = run(config)
    assert report.counter_acts == report.data_acts == 500
    assert report.normalized_acts == 1.0
    assert report.rmw_bytes == 500
    assert report.batch_triggers["m_ready"] == 500


def test_trigger_counts_sum_to_counter_acts():
    config = resolve(overrides={"trace.length": "2000", "mitigation.enabled": "false"})
    report = run(config)
    assert sum(report.batch_triggers.values()) == report.counter_acts
    assert report.batch_triggers["drain"] > 0


@pytest.mark.parametrize(
    "design", ["perrow", "unified_fcfs", "unified_sorted", "unified_approxmax"]
)
def test_every_design_matches_baseline_state(design):
    common = {"trace.length": "2000", "mitigation.enabled": "false", "seed": "3"}
    baseline = Engine(resolve(overrides=dict(common, **{"buffer.design": "chronus"})))
    baseline.run()
    engine = Engine(
        resolve(overrides=dict(common, **{"buffer.design": design})), collect_log=True
    )
    report = engine.run()
    assert np.array_equal(engine.store.values, baseline.store.values)
    verdict = verify(
        engine.load_events(),
        engine.batch_log,
        engine.geometry,
        m_batch=engine.config.buffer.m_batch,
        staleness_bound=engine.config.buffer.pending_limit,
        reported_counter_acts=report.counter_acts,
        final_values=engine.store.values,
    )
    assert verdict.ok, str(verdict)


def test_batch_log_round_trips_through_csv():
    config = resolve(overrides=sequential_overrides(200))
    engine = Engine(config, collect_log=True)
    engine.run()
    buf = io.StringIO()
    write_log(engine.batch_log, buf)
    back = read_log(io.StringIO(buf.getvalue()))
    assert batches_of(back) == batches_of(engine.batch_log)


def test_proactive_refresh_trims_the_maximum():
    config = resolve(
        overrides=sequential_overrides(
            100,
            **{
                "mitigation.enabled": "true",
                "mitigation.proactive_interval": "10",
            },
        )
    )
    report = run(config)
    assert report.alerts == 0
    assert report.mitigations == 10


@pytest.mark.parametrize("interval", [0, 10])
@pytest.mark.parametrize("rfms", [1, 2])
def test_store_keeps_refresh_bookkeeping_only_where_a_pick_can_happen(interval, rfms):
    """A proactive refresh or an alert's extra refreshes pick a largest
    counter; a run with neither builds its store without the bookkeeping."""
    config = resolve(
        overrides={
            "mitigation.proactive_interval": str(interval),
            "mitigation.rfms_per_alert": str(rfms),
        }
    )
    store = Engine(config).store
    assert store.refresh == (interval > 0)
    assert (store._hist is None) == (interval == 0 and rfms == 1)


def test_alert_fires_on_threshold_crossing():
    config = resolve(
        overrides={
            "trace.generator": "hammer",
            "trace.length": "100",
            "trace.hammer_gap": "0",
            "buffer.design": "perrow",
            "mitigation.n_bo": "4",
            "mitigation.proactive_interval": "0",
        }
    )
    report = run(config)
    assert report.alerts == 25
    assert report.mitigations == 25


def test_an_alerts_extra_refreshes_stop_at_a_clean_bank(monkeypatch):
    """An alert's extra refreshes visit its bank once per counter they
    clear, however many the config grants: granting more than the bank
    holds changes neither the reports nor the visits."""
    visits = []
    refresh = CounterArray._refresh

    def spy(self, banks):
        banks = list(banks)
        visits.append(len(banks))
        refresh(self, banks)

    monkeypatch.setattr(CounterArray, "_refresh", spy)
    seen = set()
    for rfms in (64, 65536, 10**20):
        visits.clear()
        config = resolve(
            overrides={
                "trace.generator": "hammer",
                "trace.length": "2000",
                "mitigation.rfms_per_alert": str(rfms),
                "mitigation.proactive_interval": "0",
            }
        )
        report = run(config)
        assert sum(visits) == report.mitigations - report.alerts, rfms
        seen.add((report.alerts, report.mitigations, report.counter_acts))
    assert len(seen) == 1 and min(seen)[0] > 0, seen


def test_cache_cuts_counter_traffic():
    common = {
        "trace.generator": "hotset",
        "trace.length": "4000",
        "trace.hot_rows": "32",
        "mitigation.enabled": "false",
        "seed": "5",
    }
    plain = run(resolve(overrides=common))
    cached = run(resolve(overrides=dict(common, **{"cache.kind": "lru4way"})))
    assert plain.cache is None
    assert cached.cache["hits"] > 0
    assert cached.cache["hit_rate"] > 0.5
    assert cached.counter_acts < plain.counter_acts


def test_compare_prepends_baseline():
    config = resolve(overrides={"trace.length": "400", "mitigation.enabled": "false"})
    reports = compare(config, ["perrow", "unified_sorted"])
    assert [r.policy for r in reports] == ["chronus", "perrow", "unified_sorted"]
    assert reports[0].normalized_acts == 1.0
    assert all(r.data_acts == 400 for r in reports)
    assert all(r.normalized_acts <= 1.0 for r in reports)


def test_compare_strips_cache_from_baseline():
    config = resolve(
        overrides={
            "trace.length": "400",
            "mitigation.enabled": "false",
            "cache.kind": "lru4way",
        }
    )
    reports = compare(config, ["unified_approxmax"])
    assert reports[0].policy == "chronus"
    assert reports[0].cache is None
    totals = reports[1].cache
    assert totals["hits"] + totals["misses"] == 400
    assert totals["hits"] > 0
    assert totals["hit_rate"] == totals["hits"] / 400


@pytest.mark.parametrize(
    "extra",
    [
        {},
        {"trace.generator": "hotset", "trace.hot_rows": "48", "cache.kind": "lru4way"},
        {"metrics.enabled": "false"},
    ],
)
def test_compare_generates_the_trace_once(monkeypatch, extra):
    """Every design steps over one materialized trace whose shape is
    computed once, and each report is what an independent run of that
    design gives."""
    calls = []
    shapes = []
    original = engine_mod.generate
    original_shape = engine_mod.workload_shape

    def counting_generate(spec, geometry):
        calls.append(spec)
        return original(spec, geometry)

    def counting_shape(events, config):
        shapes.append(len(events))
        return original_shape(events, config)

    monkeypatch.setattr(engine_mod, "generate", counting_generate)
    monkeypatch.setattr(engine_mod, "workload_shape", counting_shape)
    base = {
        "trace.generator": "zipf",
        "trace.banks": "64",
        "trace.length": "3000",
        "seed": "2",
    }
    config = resolve(overrides=dict(base, **extra))
    reports = compare(config, list(DESIGNS))
    assert len(calls) == 1
    assert shapes == ([3000] if config.metrics_enabled else [])
    assert [r.policy for r in reports] == list(DESIGNS)
    for report in reports:
        overrides = {"buffer.design": report.policy}
        if report.policy == "chronus":
            overrides["cache.kind"] = "none"
        alone = Engine(config.with_overrides(overrides)).run()
        assert report.to_json() == alone.to_json()


def test_mitigation_resets_the_cached_copy(record_mitigations):
    """A refresh or alert that zeroes a stored counter also resets a dirty
    cached copy of it; a copy left dirty would write the removed count
    back.  Without that reset, 59 of this run's refreshes leave one (the
    first at slot 167, bank 0 row 2 byte 877, cached value 6)."""
    config = resolve(
        overrides={
            "trace.generator": "hotset",
            "trace.hot_rows": "48",
            "trace.length": "20000",
            "cache.kind": "lru4way",
            "seed": "1",
        }
    )
    engine = Engine(config)
    done = record_mitigations(engine.store)
    mitigations = 0
    left_dirty = []
    for ev in engine.load_events():
        engine.step(*ev)
        for bank, row_id, byte_id in done:
            mitigations += 1
            dirty = {(r, c): v for r, c, v in engine.cache(bank).dirty_lines()}
            if (row_id, byte_id) in dirty:
                value = dirty[row_id, byte_id]
                left_dirty.append((ev.slot, bank, row_id, byte_id, value))
        done.clear()
    assert mitigations > 0
    assert left_dirty == []


def test_mitigation_resets_a_queued_writeback(record_mitigations):
    """A dirty line evicted before a refresh waits in the buffer as an
    absolute write; once the refresh zeroes the stored counter, that
    write must not restore the removed count.  Without the reset, 11 of
    this run's 639 mitigations leave one queued, each carrying 26 (the
    first at slot 2687, bank 0 row 12 byte 819)."""
    config = resolve(
        overrides={
            "trace.generator": "hotset",
            "trace.hot_rows": "48",
            "trace.length": "20000",
            "cache.kind": "lru4way",
            "seed": "1",
        }
    )
    engine = Engine(config)
    done = record_mitigations(engine.store)
    mitigations = 0
    restoring = []
    for ev in engine.load_events():
        engine.step(*ev)
        for bank, row_id, byte_id in done:
            mitigations += 1
            buf, _ = engine._bank(bank)
            queued = buf._rows.get(row_id, {}).get(~byte_id)
            if queued:
                restoring.append((ev.slot, bank, row_id, byte_id, queued))
        done.clear()
    assert mitigations > 0
    assert restoring == []


def test_a_writeback_and_increments_of_one_byte_service_as_one_item():
    """A dirty line evicted while its counter has no queued increment
    waits as a writeback; a miss on that counter then queues an increment
    in the same row.  The row's batch logs the byte once and writes the
    absolute value before adding the increment.

    Counter (0, 0) alerts through its cached copy, which resets the line
    to 0 and leaves it resident; one hit makes it dirty at 1, four fills
    of other counters into the one-set cache evict it, and the next
    activation of (0, 0) misses."""
    config = resolve(
        overrides={
            "buffer.design": "unified_fcfs",
            "cache.kind": "lru4way",
            "cache.entries": "4",
            "mitigation.n_bo": "6",
            "metrics.enabled": "false",
        }
    )
    cpc = config.geometry.counters_per_counter_row
    rows = [0] * 7  # K flush at 4, fill, a hit to 5, an alert at 6, a hit to 1
    for byte_id in range(4):
        rows += [cpc + byte_id] * 4  # K flush and fill: the fourth evicts (0, 0)
    rows.append(0)
    engine = Engine(config, collect_log=True)
    for slot, data_row in enumerate(rows):
        engine.step(slot, 0, data_row)
    buf, cache = engine._bank(0)
    assert engine.store.alerts == 1
    assert cache.writebacks == 1
    assert buf._rows[0] == {~0: 1, 0: 1}
    engine.finalize()
    assert engine.store.get(0, 0, 0) == 2
    _, _, row_id, trigger, byte_ids = batches_of(engine.batch_log)[-1]
    assert (row_id, byte_ids, trigger) == (0, (0,), "drain")


def test_compare_rejects_empty_policy_list():
    with pytest.raises(ConfigError):
        compare(resolve(), [])


def test_runs_are_deterministic():
    overrides = {"trace.length": "1500", "seed": "8"}
    first = run(resolve(overrides=overrides))
    second = run(resolve(overrides=overrides))
    assert first.to_json() == second.to_json()


def test_trace_file_round_trip(tmp_path):
    config = resolve()
    spec = TraceSpec(generator="uniform", length=300, seed=4, params={"rows": 256})
    events = generate(spec, config.geometry)
    path = tmp_path / "t.bin"
    save(events, str(path))
    from_file = run(config.with_overrides({"trace.path": str(path)}))
    assert from_file.data_acts == 300


def test_empty_run_cannot_finalize():
    engine = Engine(resolve())
    with pytest.raises(TraceError):
        engine.finalize()


def test_compare_of_an_empty_trace_file_is_a_trace_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# no activations\n")
    with pytest.raises(TraceError, match="empty trace"):
        compare(resolve(overrides={"trace.path": str(path)}), ["perrow"])


@pytest.mark.parametrize("bank, data_row", [(-1, 5), (64, 5), (0, -1), (0, 65536)])
def test_step_range_checks_events_from_the_api(bank, data_row):
    """A bank or data row outside the geometry is refused, naming the
    slot, before it can bump another bank's counter."""
    engine = Engine(resolve(overrides=sequential_overrides(1)))
    engine.step(0, 3, 7)
    before = engine.store.values.copy()
    with pytest.raises(TraceError, match="slot 1: "):
        engine.step(1, bank, data_row)
    assert np.array_equal(engine.store.values, before)
    assert engine.ledger.data_acts == 1


def _spy_open_bank(monkeypatch):
    """The banks every engine's store opens, in order."""
    opened = []
    open_bank = CounterArray.open_bank

    def spy(store, bank):
        opened.append(bank)
        open_bank(store, bank)

    monkeypatch.setattr(CounterArray, "open_bank", spy)
    return opened


@pytest.mark.parametrize(
    "design, cache", [("chronus", "none"), ("unified_approxmax", "lru4way")]
)
def test_a_run_opens_each_bank_it_touches_once(monkeypatch, design, cache):
    """The store makes a bank's pages resident on the bank's first
    activation, once, and never for a bank the trace leaves alone."""
    opened = _spy_open_bank(monkeypatch)
    config = resolve(
        overrides={
            "trace.generator": "zipf",
            "trace.banks": "5",
            "trace.length": "3000",
            "buffer.design": design,
            "cache.kind": cache,
        }
    )
    trace = engine_mod.load_trace(config)
    first_touch = list(dict.fromkeys(trace.banks))
    assert 1 < len(first_touch) < config.geometry.banks
    Engine(config).run(trace)
    assert opened == first_touch


@pytest.mark.parametrize("bank", [-1, 64])
def test_a_bank_outside_the_geometry_opens_nothing(monkeypatch, bank):
    opened = _spy_open_bank(monkeypatch)
    engine = Engine(resolve(overrides=sequential_overrides(1)))
    with pytest.raises(TraceError, match="slot 0: bank"):
        engine.step(0, bank, 5)
    assert opened == []
    engine.step(1, 3, 5)
    assert opened == [3]


@pytest.mark.parametrize("cache", ["none", "lru4way"])
def test_reading_a_cache_opens_no_bank(monkeypatch, cache):
    """``Engine.cache`` is a pure read, on a finalized engine too: a bank
    the run never touched has no cache and opens nothing, and a bank
    outside the geometry still raises."""
    opened = _spy_open_bank(monkeypatch)
    engine = Engine(resolve(overrides=sequential_overrides(10, **{"cache.kind": cache})))
    engine.run()
    assert (engine.cache(0) is None) == (cache == "none")
    assert engine.cache(5) is None
    with pytest.raises(TraceError, match="bank 64 out of range"):
        engine.cache(64)
    assert sorted(engine._banks) == [0]
    assert opened == [0]


def test_a_cached_run_at_k_limit_one_applies_one_increment_at_a_time():
    """With a cache, K = 1 and M = 1, a writeback holds its row full; the
    increments of that row's counters are served one per batch, where the
    deferred row once took a shadow and let the next batch carry 2."""
    config = resolve(
        overrides={
            "buffer.design": "unified_fcfs",
            "buffer.capacity": "4",
            "buffer.m_batch": "1",
            "buffer.k_limit": "1",
            "cache.kind": "lru4way",
            "cache.entries": "4",
            "mitigation.proactive_interval": "0",
            "metrics.enabled": "false",
        }
    )
    engine = Engine(config)
    increments = []
    apply_rmw = engine.store.apply_rmw

    def spy(bank, row_id, byte_id, n=1):
        increments.append(n)
        return apply_rmw(bank, row_id, byte_id, n)

    engine.store.apply_rmw = spy
    for slot, data_row in enumerate([12, 12, 9, 47, 28, 42, 12, 12]):
        engine.step(slot, 0, data_row)
    engine.finalize()
    assert increments and max(increments) == 1
    assert engine.trigger_counts["k_limit"] == len(increments)


def test_finalize_twice_is_an_error():
    config = resolve(overrides=sequential_overrides(10))
    engine = Engine(config)
    engine.run()
    with pytest.raises(ConfigError):
        engine.finalize()


def test_metrics_disabled_leaves_gaps():
    config = resolve(
        overrides=sequential_overrides(100, **{"metrics.enabled": "false"})
    )
    report = run(config)
    assert report.skew_by_bank == {}
    assert report.skew_mean is None
    assert report.window_locality is None
    assert report.footprint == {}


def test_metrics_populated_when_enabled():
    config = resolve(overrides={"trace.length": "2000", "mitigation.enabled": "false"})
    report = run(config)
    assert report.skew_by_bank
    assert report.skew_mean > 0
    assert report.footprint[25] >= 1
    assert report.config["trace.length"] == "2000"


@pytest.mark.parametrize("kind", ["lru4way", "tinylfu"])
def test_a_finished_cached_engine_is_freed_without_the_collector(kind):
    """The store's mitigation callback points back at the engine; finalize
    drops it, so a finished engine and its counter store go as soon as
    the caller lets go, even with the cycle collector off."""
    config = resolve(
        overrides={
            "trace.generator": "hotset",
            "trace.hot_rows": "48",
            "trace.length": "3000",
            "cache.kind": kind,
            "seed": "1",
        }
    )
    engine = Engine(config)
    gc.disable()
    try:
        report = engine.run()
        assert report.mitigations > 0
        finished, store = weakref.ref(engine), weakref.ref(engine.store)
        del engine
        assert finished() is None
        assert store() is None
    finally:
        gc.enable()


def test_run_of_a_given_trace_matches_the_configured_run():
    """A run handed the configured trace makes the report of a run that
    loads it itself."""
    config = resolve(overrides={"trace.generator": "zipf", "trace.banks": "4"})
    trace = generate(config.trace_spec, config.geometry)
    assert Engine(config).run(trace).to_json() == Engine(config).run().to_json()


def _run_outputs(config):
    """A logged run's report JSON, service log columns and state dump."""
    engine = Engine(config, collect_log=True)
    report = engine.run()
    dump = io.StringIO()
    engine.store.dump(dump)
    columns = [getattr(engine.batch_log, name) for name in engine.batch_log.__slots__]
    return report.to_json(), columns, dump.getvalue()


@pytest.mark.parametrize("cache", ["none", "tinylfu"])
@pytest.mark.parametrize("rfms", [1, 3])
@pytest.mark.parametrize("generator", ["hammer", "hotset"])
def test_runs_match_the_histogram_store(monkeypatch, generator, rfms, cache):
    """Alerts, their extra refreshes and proactive refreshes, a cached
    copy reset with each, run as with the store that searched each pick
    from its bank's first byte: same report, service log and dump."""
    config = resolve(
        overrides={
            "trace.generator": generator,
            "trace.hot_rows": "48",
            "trace.length": "6000",
            "mitigation.proactive_interval": "64",
            "mitigation.rfms_per_alert": str(rfms),
            "cache.kind": cache,
        }
    )
    outputs = _run_outputs(config)
    report = json.loads(outputs[0])
    assert report["mitigations"] > report["alerts"] > 0
    monkeypatch.setattr(
        engine_mod,
        "CounterArray",
        lambda geometry, refresh=True, **kw: HistogramCounterArray(geometry, **kw),
    )
    assert _run_outputs(config) == outputs


@pytest.mark.parametrize("kind", ["lru4way", "tinylfu"])
@pytest.mark.parametrize("rfms", [1, 3])
@pytest.mark.parametrize("generator", ["hammer", "hotset"])
def test_runs_match_the_scanning_cache(monkeypatch, generator, rfms, kind):
    """Cached runs whose alerts and refreshes reset resident lines run as
    with the cache that scanned its ways and rehashed its sketch slots:
    same report, service log and dump."""
    config = resolve(
        overrides={
            "trace.generator": generator,
            "trace.hot_rows": "48",
            "trace.length": "6000",
            "mitigation.rfms_per_alert": str(rfms),
            "cache.kind": kind,
        }
    )
    outputs = _run_outputs(config)
    report = json.loads(outputs[0])
    assert report["cache"]["hits"] > 0
    resets = []

    class Scanning(ScanningCounterCache):
        def reset(self, row_id, byte_id):
            flat = row_id * self._cpc + byte_id
            ways = self.sets[flat % self.num_sets]
            resets.append(any(line.flat == flat for line in ways))
            super().reset(row_id, byte_id)

    monkeypatch.setattr(engine_mod, "CounterCache", Scanning)
    assert _run_outputs(config) == outputs
    assert any(resets)
