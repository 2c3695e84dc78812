"""The back-off bound as a property of whole runs.

A counter's stored value lags its true count by at most the pending
limit, and the alert threshold is lowered by K to cover that lag, so no
counter sees more than ``n_bo - 1 + pending_limit`` true activations
between two resets in a buffered design, or ``n_bo`` in the baseline,
which services every activation at once.  Every class of run meets its
bound exactly, so one activation more is a real overrun.
"""

import random

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
