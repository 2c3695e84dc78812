"""The step chain: ``Engine.step`` -> the buffer's ``insert`` ->
``Engine._service`` -> ``CounterArray.apply_rmw``.

Whole runs match the chain as it was before it did less per activation
and per batch (``legacy_chain``), output for output.  The call
boundaries that the benchmark's tracer counts stay where its metrics
say they are, and the proactive refresh stays keyed on the slot.
"""

import io
import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from legacy_chain import LegacyEngine
from pracsim import buffers, cache, cli, oracle
from pracsim.buffers import DESIGNS, K_TRIGGER_MODES
from pracsim.config import resolve
from pracsim.counters import CounterArray
from pracsim.engine import Engine
from pracsim.trace import Trace


def _stream(rng, banks, counter_rows, spread, cpc, hot, length):
    """``length`` activations over ``banks``: half on ``hot`` counters,
    the rest on any of the first ``spread`` counters of the first
    ``counter_rows`` counter rows."""

    def counter():
        return rng.choice(banks), rng.randrange(counter_rows) * cpc + rng.randrange(spread)

    hot_rows = [counter() for _ in range(hot)]
    events = [rng.choice(hot_rows) if rng.random() < 0.5 else counter() for _ in range(length)]
    return Trace([b for b, _ in events], [r for _, r in events])


def _outputs(engine, trace, record_mitigations):
    """A logged run's report JSON, service-log columns, state dump, its
    ordered counter resets and the dirty lines its caches hold."""
    resets = record_mitigations(engine.store)
    report = engine.run(trace)
    dump = io.StringIO()
    engine.store.dump(dump)
    log = engine.batch_log
    columns = [list(getattr(log, name)) for name in log.__slots__]
    dirty = [
        sorted(engine.cache(bank).dirty_lines())
        for bank in sorted(set(trace.banks))
        if engine.cache(bank) is not None
    ]
    return report.to_json(), columns, dump.getvalue(), list(resets), dirty


@settings(deadline=None, max_examples=300)
@given(
    design=st.sampled_from(DESIGNS),
    cache_kind=st.sampled_from(("none", "lru4way", "tinylfu")),
    entries=st.sampled_from((4, 16)),
    k_trigger=st.sampled_from(K_TRIGGER_MODES),
    k_limit=st.sampled_from((1, 2, 4)),
    m_batch=st.integers(1, 4),
    capacity=st.sampled_from((1, 4, 8, 64)),
    rfms_per_alert=st.integers(1, 3),
    interval=st.sampled_from((0, 7, 64)),
    banks=st.lists(st.sampled_from((0, 1, 5, 63)), min_size=1, max_size=3, unique=True),
    counter_rows=st.integers(1, 16),
    spread=st.sampled_from((4, 64, 1024)),
    hot=st.integers(1, 6),
    length=st.integers(1, 1500),
    seed=st.integers(0, 2**32 - 1),
)
# An approx-max row whose new entry completes its batch and beats the
# tracked count: the tracked pair moves to it, so the flush resets the pair
# to the oldest row, the victim of the next full pool.
@example(
    design="unified_approxmax",
    cache_kind="lru4way",
    entries=4,
    k_trigger="pending",
    k_limit=2,
    m_batch=4,
    capacity=8,
    rfms_per_alert=1,
    interval=0,
    banks=[0],
    counter_rows=4,
    spread=64,
    hot=6,
    length=307,
    seed=0,
)
def test_runs_match_the_parent_chain(
    record_mitigations,
    design,
    cache_kind,
    entries,
    k_trigger,
    k_limit,
    m_batch,
    capacity,
    rfms_per_alert,
    interval,
    banks,
    counter_rows,
    spread,
    hot,
    length,
    seed,
):
    """Every design with every cache, K limit and trigger, batch size,
    pool, refresh setting and bank mix: the same report bytes, service
    log, state dump, counter resets in order, and dirty cache lines as
    the chain before it did less per activation and per batch."""
    if design == "chronus":
        cache_kind = "none"
    config = resolve(
        overrides={
            "buffer.design": design,
            "buffer.k_trigger": k_trigger,
            "buffer.k_limit": str(k_limit),
            "buffer.m_batch": str(m_batch),
            "buffer.capacity": str(max(capacity, m_batch)),
            "cache.kind": cache_kind,
            "cache.entries": str(entries),
            "mitigation.rfms_per_alert": str(rfms_per_alert),
            "mitigation.proactive_interval": str(interval),
        }
    )
    cpc = config.geometry.counters_per_counter_row
    rng = random.Random(seed)
    trace = _stream(rng, banks, counter_rows, spread, cpc, hot, length)
    want = _outputs(LegacyEngine(config, collect_log=True), trace, record_mitigations)
    assert _outputs(Engine(config, collect_log=True), trace, record_mitigations) == want


def test_proactive_tick_fires_at_each_intervals_last_slot(monkeypatch):
    """Slots a caller steps with gaps, and restarts, tick exactly where
    ``(slot + 1) % interval == 0``: the rule is keyed on the slot, not on
    the number of steps taken."""
    ticks = []
    tick = CounterArray.proactive_tick

    def spy(store):
        ticks.append(None)
        tick(store)

    monkeypatch.setattr(CounterArray, "proactive_tick", spy)
    engine = Engine(resolve(overrides={"mitigation.proactive_interval": "168"}))
    slots = [0, 5, 166, 167, 170, 335, 3, 503, 504, 671]
    ticked = []
    for slot in slots:
        before = len(ticks)
        engine.step(slot, 0, 7)
        ticked += [slot] * (len(ticks) - before)
    assert ticked == [s for s in slots if (s + 1) % 168 == 0] == [167, 335, 503, 671]


def _count_calls(monkeypatch, owner, attr, calls, returned=None):
    """Replace ``owner.attr`` with a wrapper, as the benchmark's tracer
    wraps it, that appends to ``calls`` per call and appends what the
    call returns to ``returned``."""
    original = owner.__dict__[attr]

    def counted(*args, **kwargs):
        calls.append(None)
        result = original(*args, **kwargs)
        if returned is not None:
            returned.append(result)
        return result

    monkeypatch.setattr(owner, attr, counted)


def _serviced(returned, drained):
    """The batches that ``insert`` returned and ``drain`` listed."""
    return [b for b in returned if b is not None] + [b for d in drained for b in d]


def _rmw_items(batches):
    """Items of the batches that carry increments: ``~byte_id`` keys hold
    (value, increments), the rest their increments."""
    return sum(
        1
        for batch in batches
        for key, value in batch.items.items()
        if (value[1] if key < 0 else value)
    )


def test_traced_boundaries_are_crossed_once_per_unit(monkeypatch):
    """The tracer's ``engine.step_calls``, ``cache.access_calls``,
    ``buffers.insert_calls`` and ``counters.rmw_calls`` count activations,
    cached activations, activations that missed the cache and serviced
    items with increments: on an uncached logged run, where the last is
    the log's byte ids, drain included, and on an LRU run; both alert."""
    steps, accesses, inserts, rmws, batches = [], [], [], [], []
    _count_calls(monkeypatch, Engine, "step", steps)
    _count_calls(monkeypatch, cache.CounterCache, "access", accesses)
    _count_calls(monkeypatch, buffers.ChronusBuffer, "insert", inserts, batches)
    _count_calls(monkeypatch, buffers._BufferedBase, "insert", inserts, batches)
    drains = []
    _count_calls(monkeypatch, buffers._BufferedBase, "drain", [], drains)
    _count_calls(monkeypatch, CounterArray, "apply_rmw", rmws)
    base = {
        "trace.generator": "hotset",
        "trace.hot_rows": "16",
        "trace.banks": "4",
        "trace.length": "4000",
        "cache.entries": "4",
    }
    for design in ("chronus", "unified_approxmax"):
        engine = Engine(resolve(overrides=dict(base, **{"buffer.design": design})), True)
        report = engine.run()
        assert report.alerts > 0
        assert (report.batch_triggers["drain"] > 0) == (design != "chronus")
        assert len(steps) == len(inserts) == report.data_acts == 4000
        assert len(accesses) == 0
        assert len(rmws) == len(engine.batch_log.byte_ids) == _rmw_items(
            _serviced(batches, drains)
        )
        for calls in (steps, inserts, rmws, batches, drains):
            calls.clear()

    report = Engine(resolve(overrides=dict(base, **{"cache.kind": "lru4way"}))).run()
    stats = report.cache
    assert report.alerts > 0 and stats["hits"] > 0 and stats["writebacks"] > 0
    assert len(steps) == len(accesses) == report.data_acts == 4000
    assert len(inserts) == stats["misses"]
    serviced = _serviced(batches, drains)
    assert len(serviced) == report.counter_acts
    assert len(rmws) == _rmw_items(serviced)


def test_run_crosses_the_traced_writers_once(tmp_path, monkeypatch):
    """``pracsim run --log --dump-state`` writes the log through
    ``oracle.write_log`` and the state through ``CounterArray.dump``, one
    call each, looked up where the tracer wraps them, so that
    ``oracle.write_log_s`` and ``counters.dump_s`` time the whole of
    each writer."""
    logs, dumps = [], []
    _count_calls(monkeypatch, oracle, "write_log", logs)
    _count_calls(monkeypatch, CounterArray, "dump", dumps)
    log, state, out = (tmp_path / name for name in ("log.csv", "state.csv", "r.json"))
    argv = ["run", "--generator", "hotset", "--length", "3000", "--banks", "4"]
    argv += ["--log", str(log), "--dump-state", str(state), "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(logs) == len(dumps) == 1
    report = json.loads(out.read_text())
    assert len(log.read_text().splitlines()) == 1 + report["counter_acts"]
    assert state.read_text().startswith("bank,row_id,byte_id,value\n")
