"""Pinned simulated statistics for the paper's headline runs.

The values were recorded from the straightforward implementation
(scanning eviction, sort-by-arrival merge, numpy-indexed counters, one
trace generation per design).  Any change meant only to make the
simulator faster must leave every one of them bit-identical.
"""

import hashlib

import pytest

from pracsim.buffers import DESIGNS
from pracsim.config import resolve
from pracsim.engine import Engine

PINNED_FIELDS = ("counter_acts", "batch_triggers", "rmw_bytes", "alerts", "mitigations")

ZIPF_SWEEP = {
    "trace.generator": "zipf",
    "trace.zipf_exponent": "1.0",
    "trace.banks": "64",
    "trace.length": "20000",
    "seed": "1",
}

HOTSET = {
    "trace.generator": "hotset",
    "trace.hot_rows": "48",
    "trace.length": "20000",
    "buffer.design": "unified_approxmax",
    "mitigation.enabled": "false",
    "seed": "1",
}


def _triggers(m_ready, buffer_full, k_limit, drain):
    return {
        "m_ready": m_ready,
        "buffer_full": buffer_full,
        "k_limit": k_limit,
        "drain": drain,
    }


# design -> (counter_acts, batch_triggers, rmw_bytes, alerts, mitigations,
#            energy overhead)
ZIPF_GOLDEN = {
    "chronus": (
        20000, _triggers(20000, 0, 0, 0), 20000, 0, 7608, 0.17485066666666668
    ),
    "perrow": (
        6046, _triggers(1864, 0, 906, 3276), 20000, 0, 5661, 0.10321516666666666
    ),
    "unified_fcfs": (7683, _triggers(974, 3393, 775, 2541), 20000, 0, 6040, 0.11257275),
    "unified_sorted": (
        7290, _triggers(333, 3423, 778, 2756), 20000, 0, 6040, 0.11090249999999999
    ),
    "unified_approxmax": (
        7503, _triggers(537, 3581, 726, 2659), 20000, 0, 6040, 0.11180774999999998
    ),
}

# cache kind -> same tuple; HOTSET_CACHE holds the cache's own tallies
HOTSET_GOLDEN = {
    "lru4way": (1658, _triggers(206, 762, 654, 36), 6396, 0, 0, 0.0203715),
    "tinylfu": (1121, _triggers(120, 601, 363, 37), 3768, 0, 0, 0.01261425),
}
HOTSET_CACHE = {
    "lru4way": {
        "hits": 14587, "misses": 5413, "writebacks": 983,
        "admission_rejects": 0, "fills_rejected": 19, "hit_rate": 0.72935,
    },
    "tinylfu": {
        "hits": 16385, "misses": 3615, "writebacks": 153,
        "admission_rejects": 1816, "fills_rejected": 0, "hit_rate": 0.81925,
    },
}  # fmt: skip


# A single hammered row with every other row swept as filler: each design
# alerts hundreds of times, and each alert's extra refresh picks the
# bank's largest counter among many tied fillers.  The final counter
# store is pinned by a digest, so a refresh that picks a different
# counter of the same value still shows.
HAMMER_RFM2 = {
    "trace.generator": "hammer",
    "trace.length": "20000",
    "mitigation.rfms_per_alert": "2",
    "seed": "1",
}

# design -> (same tuple as ZIPF_GOLDEN, sha256 prefix of the final counters)
HAMMER_RFM2_GOLDEN = {
    "chronus": (
        (20000, _triggers(20000, 0, 0, 0), 20000, 238, 595, 0.130435),
        "6fd691bbc9f386d3",
    ),
    "perrow": (
        (5020, _triggers(2457, 0, 2500, 63), 20000, 357, 825, 0.06822666666666667),
        "95650797440e2639",
    ),
    "unified_fcfs": (
        (7586, _triggers(0, 5045, 2500, 41), 20000, 357, 831, 0.07917016666666667),
        "be843f5ed0421c68",
    ),
    "unified_sorted": (
        (7562, _triggers(0, 5046, 2461, 55), 20000, 318, 753, 0.07857416666666667),
        "7f4a55b696d666eb",
    ),
    "unified_approxmax": (
        (7586, _triggers(0, 5045, 2500, 41), 20000, 357, 831, 0.07917016666666667),
        "be843f5ed0421c68",
    ),
}


def _observed(report):
    return tuple(getattr(report, f) for f in PINNED_FIELDS) + (
        report.energy["overhead"],
    )


@pytest.mark.parametrize("design", DESIGNS)
def test_zipf_sweep_statistics_are_pinned(design):
    config = resolve(overrides=dict(ZIPF_SWEEP, **{"buffer.design": design}))
    report = Engine(config).run()
    assert _observed(report) == ZIPF_GOLDEN[design]


@pytest.mark.parametrize("kind", ["lru4way", "tinylfu"])
def test_hotset_cache_statistics_are_pinned(kind):
    report = Engine(resolve(overrides=dict(HOTSET, **{"cache.kind": kind}))).run()
    assert _observed(report) == HOTSET_GOLDEN[kind]
    assert report.cache == HOTSET_CACHE[kind]


@pytest.mark.parametrize("design", DESIGNS)
def test_hammer_alert_refreshes_are_pinned(design):
    engine = Engine(resolve(overrides=dict(HAMMER_RFM2, **{"buffer.design": design})))
    report = engine.run()
    digest = hashlib.sha256(engine.store.values.tobytes()).hexdigest()[:16]
    assert (_observed(report), digest) == HAMMER_RFM2_GOLDEN[design]
