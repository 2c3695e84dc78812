"""The back-off bound as a property of whole runs.

A counter's stored value lags its true count by at most the pending
limit, and the alert threshold is lowered by K to cover that lag, so no
counter sees more than ``n_bo - 1 + pending_limit`` true activations
between two resets in a buffered design, or ``n_bo`` in the baseline,
which services every activation at once.  Every class of run meets its
bound exactly, so one activation more is a real overrun.

The hypothesis test samples long runs; the small-scope tests run every
trace up to a length over tiny geometries, so a counterexample that
fits there cannot hide between samples.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from pracsim.buffers import DESIGNS, K_TRIGGER_MODES
from pracsim.config import resolve
from pracsim.engine import Engine

LENGTH = 2000


def activations(rng, counter_rows, cpc, counters, hot, hot_share):
    """A one-bank stream: ``hot`` rows take ``hot_share`` of it, the rest
    falls on ``counters`` rows spread over ``counter_rows`` counter rows."""
    pool = [rng.randrange(counter_rows * cpc) for _ in range(counters)]
    hot_rows = pool[:hot]
    return [
        rng.choice(hot_rows) if rng.random() < hot_share else rng.choice(pool)
        for _ in range(LENGTH)
    ]


@settings(deadline=None, max_examples=150)
@given(
    design=st.sampled_from(DESIGNS),
    cache=st.sampled_from(("none", "lru4way", "tinylfu")),
    entries=st.sampled_from((4, 16)),
    k_trigger=st.sampled_from(K_TRIGGER_MODES),
    k_limit=st.sampled_from((1, 2, 3, 4, 8)),
    m_batch=st.sampled_from((1, 2, 4)),
    capacity=st.sampled_from((2, 4, 8)),
    rfms_per_alert=st.integers(1, 3),
    interval=st.sampled_from((0, 16, 64)),
    counter_rows=st.integers(1, 4),
    counters=st.integers(4, 48),
    hot=st.integers(1, 4),
    hot_share=st.sampled_from((0.5, 0.8, 0.95)),
    seed=st.integers(0, 2**32 - 1),
)
# Cached runs at K = 1 that once let a counter reach 32 against 31: an
# increment allocated beside a row held full by a writeback waited a
# shadow, and the next one served both.
@example(
    design="unified_fcfs",
    cache="lru4way",
    entries=16,
    k_trigger="pending",
    k_limit=1,
    m_batch=1,
    capacity=4,
    rfms_per_alert=1,
    interval=0,
    counter_rows=4,
    counters=34,
    hot=4,
    hot_share=0.5,
    seed=403123852,
)
@example(
    design="unified_approxmax",
    cache="lru4way",
    entries=4,
    k_trigger="pending",
    k_limit=1,
    m_batch=2,
    capacity=8,
    rfms_per_alert=1,
    interval=0,
    counter_rows=4,
    counters=6,
    hot=3,
    hot_share=0.5,
    seed=1821410431,
)
def test_no_counter_passes_its_back_off_bound(
    record_mitigations,
    design,
    cache,
    entries,
    k_trigger,
    k_limit,
    m_batch,
    capacity,
    rfms_per_alert,
    interval,
    counter_rows,
    counters,
    hot,
    hot_share,
    seed,
):
    """True activations per counter, counted from its last reset as
    ``on_mitigate`` reports it, never pass the run's bound."""
    if design == "chronus":
        cache = "none"
    config = resolve(
        overrides={
            "buffer.design": design,
            "buffer.k_trigger": k_trigger,
            "buffer.k_limit": str(k_limit),
            "buffer.m_batch": str(m_batch),
            "buffer.capacity": str(max(capacity, m_batch)),
            "cache.kind": cache,
            "cache.entries": str(entries),
            "mitigation.rfms_per_alert": str(rfms_per_alert),
            "mitigation.proactive_interval": str(interval),
            "metrics.enabled": "false",
        }
    )
    if design == "chronus":
        bound = config.n_bo
    else:
        bound = config.n_bo - 1 + config.buffer.pending_limit
    cpc = config.geometry.counters_per_counter_row
    rows = activations(random.Random(seed), counter_rows, cpc, counters, hot, hot_share)
    engine = Engine(config)
    resets = record_mitigations(engine.store)
    since_reset = {}
    most = 0
    for slot, data_row in enumerate(rows):
        counter = divmod(data_row, cpc)
        seen = since_reset[counter] = since_reset.get(counter, 0) + 1
        most = max(most, seen)
        engine.step(slot, 0, data_row)
        for _, row_id, byte_id in resets.take():
            since_reset[row_id, byte_id] = 0
    engine.finalize()
    target(float(most - bound), label="activations between resets past the bound")
    assert most <= bound, (most, bound)


# The small scope: the back-off threshold of every configuration below,
# and, per geometry, its counter rows and counters per row.  A trace is a
# tuple of data rows in bank 0; with ``rows_per_bank`` equal to the
# bank's counters, data row d is the d-th counter in row-major order.
# The wide scope holds two counter rows, so victims, buffer_full flushes
# and caches (whose 4 entries need 4 counters) have a choice; every
# configuration runs all 4**4 = 256 traces of 4 activations over it.
# The deep scope is one row of 2 counters, where an uncached run takes
# every trace of its worst case + 3 activations, 2**6 to 2**8 traces:
# enough for every configuration to reach it, proactive refresh on.
SMALL_N_BO = 3
WIDE = (2, 2)
WIDE_LENGTH = 4
DEEP = (1, 2)
DEEP_SLACK = 3
# The eviction scope is one row of 5 counters, one more than a 4-entry
# cache holds, so a fill can evict a dirty line and queue its writeback.
# At pending limit 1 a counter passes its bound at its 4th activation
# between resets, and evicting it takes 4 other counters filled behind
# it, so 8 activations is the shortest trace where a writeback can let a
# counter overrun.
EVICT = (1, 5)
EVICT_LENGTH = 8


def _small_configs(design, cache):
    """Every configuration of the small scope for one design and cache:
    K-trigger x K x M x capacity x refreshes per alert x proactive
    interval.  The baseline serves each activation at once, so the
    buffer's axes do not apply to it, nor capacity to per-row buffers."""
    if design == "chronus":
        buffers = [("pending", 1, 1, 1)]
    else:
        capacities = (2,) if design == "perrow" else (2, 3)
        buffers = itertools.product(("pending", "repcount"), (1, 2), (1, 2), capacities)
    for (k_trigger, k_limit, m_batch, capacity), rfms, interval in itertools.product(
        buffers, (1, 2), (0, 3)
    ):
        yield {
            "buffer.design": design,
            "buffer.k_trigger": k_trigger,
            "buffer.k_limit": str(k_limit),
            "buffer.m_batch": str(m_batch),
            "buffer.capacity": str(capacity),
            "cache.kind": cache,
            "cache.entries": "4",
            "cache.sketch_width": "2",
            "cache.sketch_rows": "2",
            "mitigation.n_bo": str(SMALL_N_BO),
            "mitigation.rfms_per_alert": str(rfms),
            "mitigation.proactive_interval": str(interval),
            "metrics.enabled": "false",
        }


def _every_trace(scope, length):
    """Every trace of ``length`` activations over the scope's counters."""
    return itertools.product(range(scope[0] * scope[1]), repeat=length)


def _traces_touching_all(counters, length):
    """Every trace of ``length`` activations that touches all ``counters``
    counters, up to renaming them: each counter is named by the order of
    its first touch (counter 0 first, then 1, ...)."""

    def grow(prefix, touched):
        if counters - touched > length - len(prefix):
            return
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for counter in range(min(touched + 1, counters)):
            prefix.append(counter)
            yield from grow(prefix, max(touched, counter + 1))
            prefix.pop()

    return list(grow([], 0))


def _small_worst(overrides, scope, traces, record_mitigations):
    """The most true activations any counter sees between two resets,
    over ``traces`` on the scope's geometry, and the dirty lines the
    runs' counter caches wrote back."""
    counter_rows, cpc = scope
    counters = counter_rows * cpc
    config = resolve(
        overrides={
            **overrides,
            "geometry.banks": "1",
            "geometry.counter_rows_per_bank": str(counter_rows),
            "geometry.counters_per_counter_row": str(cpc),
            "geometry.rows_per_bank": str(counters),
        }
    )
    most = writebacks = 0
    for trace in traces:
        engine = Engine(config)
        resets = record_mitigations(engine.store)
        since_reset = [0] * counters
        for slot, counter in enumerate(trace):
            since_reset[counter] += 1
            if since_reset[counter] > most:
                most = since_reset[counter]
            engine.step(slot, 0, counter)
            if resets:
                for _, row_id, byte_id in resets.take():
                    since_reset[row_id * cpc + byte_id] = 0
        cache = engine.cache(0)
        if cache is not None:
            writebacks += cache.writebacks
    return most, writebacks


@pytest.mark.parametrize(
    "design, cache",
    [("chronus", "none")]
    + [(d, c) for d in DESIGNS if d != "chronus" for c in ("none", "lru4way", "tinylfu")],
)
def test_every_small_trace_keeps_the_bound(record_mitigations, design, cache):
    """Over every trace of the small scope, no counter passes its bound,
    and an uncached run reaches exactly its worst case: the bound, or
    ``n_bo`` with M = 1, where each new request is a full batch served in
    its own activation's shadow, as the baseline serves it, so no counter
    lags.  A cache may absorb the slack."""
    for overrides in _small_configs(design, cache):
        config = resolve(overrides=overrides)
        bound = SMALL_N_BO
        if design != "chronus":
            bound += config.buffer.pending_limit - 1
        wide = _every_trace(WIDE, WIDE_LENGTH)
        most, _ = _small_worst(overrides, WIDE, wide, record_mitigations)
        if cache != "none":
            assert most <= bound, (most, bound, overrides)
            continue
        exact = SMALL_N_BO if config.buffer.m_batch == 1 else bound
        deep = _every_trace(DEEP, exact + DEEP_SLACK)
        deep, _ = _small_worst(overrides, DEEP, deep, record_mitigations)
        assert max(most, deep) == exact, (most, deep, exact, overrides)


@pytest.mark.parametrize(
    "design, cache",
    [(d, c) for d in DESIGNS if d != "chronus" for c in ("lru4way", "tinylfu")],
)
def test_every_small_eviction_keeps_the_bound(record_mitigations, design, cache):
    """A cached run whose fills evict dirty lines keeps the bound over
    every trace of the eviction scope that touches all its counters, up
    to renaming them.  Only pending limit 1 can pass its bound within 8
    activations, so K-trigger and K stay at pending and 1; refreshes per
    alert and the proactive interval stay at 1 and 0 to hold the time.
    The scope must write back dirty lines, or it checks no writeback."""
    traces = _traces_touching_all(EVICT[0] * EVICT[1], EVICT_LENGTH)
    for overrides in _small_configs(design, cache):
        if (
            overrides["buffer.k_trigger"],
            overrides["buffer.k_limit"],
            overrides["mitigation.rfms_per_alert"],
            overrides["mitigation.proactive_interval"],
        ) != ("pending", "1", "1", "0"):
            continue
        most, writebacks = _small_worst(overrides, EVICT, traces, record_mitigations)
        assert most <= SMALL_N_BO and writebacks, (most, writebacks, overrides)
