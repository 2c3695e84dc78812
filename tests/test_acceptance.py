"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line (visible with ``pytest -s``) and
enforces its own runtime budget, so ``pytest -v tests/test_acceptance.py``
reads as a pass/fail scorecard.
"""

import gc
import random
import time
from collections import Counter

import numpy as np
import pytest

from pracsim.config import resolve
from pracsim.engine import Engine, workload_shape
from pracsim.metrics import window_maxima, skew
from pracsim.oracle import verify
from pracsim.trace import Trace, generate

DESIGNS = ("perrow", "unified_fcfs", "unified_sorted", "unified_approxmax")


def run_events(config, events, **engine_kwargs):
    engine = Engine(config, **engine_kwargs)
    return engine, engine.run(events)


def stream_locality(rows, window=64):
    """Window locality of one bank's stream of counter rows, computed by
    the shape pass a run report uses."""
    config = resolve(overrides={"metrics.window": str(window)})
    cpc = config.geometry.counters_per_counter_row
    trace = Trace([0] * len(rows), [row * cpc for row in rows])
    return workload_shape(trace, config)["window_locality"]


def mixed_trace_overrides(seed):
    cycle = [
        {"trace.generator": "zipf", "trace.banks": "4"},
        {"trace.generator": "hotset", "trace.hot_rows": "64", "trace.banks": "4"},
        {"trace.generator": "uniform", "trace.rows": "4096", "trace.banks": "4"},
        {"trace.generator": "sequential", "trace.start_row": str((seed * 977) % 65536)},
        {"trace.generator": "roundrobin", "trace.bank": str(seed % 4)},
        {
            "trace.generator": "hammer",
            "trace.hammer_row": str((seed * 131) % 65536),
            "trace.hammer_gap": "1",
        },
    ]
    overrides = dict(cycle[seed % len(cycle)])
    overrides.update(
        {
            "trace.length": "10000",
            "mitigation.enabled": "false",
            "metrics.enabled": "false",
            "seed": str(seed),
        }
    )
    return overrides


@pytest.fixture(scope="module")
def mixed_suite():
    """50 mixed-generator traces run under the baseline and all designs.

    Objects that exist before the clock starts, such as those of modules
    other tests imported, are frozen out of garbage collection, so the
    budget measures this fixture's own work.
    """
    gc.collect()
    gc.freeze()
    try:
        return _run_mixed_suite()
    finally:
        gc.unfreeze()


def _run_mixed_suite():
    t0 = time.monotonic()
    state_mismatches = []
    bad_verdicts = []
    runs = 0
    for seed in range(1, 51):
        base = resolve(overrides=mixed_trace_overrides(seed))
        events = generate(base.trace_spec, base.geometry)
        reference, _ = run_events(
            base.with_overrides({"buffer.design": "chronus"}), events
        )
        for design in DESIGNS:
            engine, report = run_events(
                base.with_overrides({"buffer.design": design}),
                events,
                collect_log=True,
            )
            runs += 1
            if not np.array_equal(engine.store.values, reference.store.values):
                state_mismatches.append((seed, design))
            verdict = verify(
                events,
                engine.batch_log,
                engine.geometry,
                m_batch=4,
                staleness_bound=4,
                reported_counter_acts=report.counter_acts,
                final_values=engine.store.values,
            )
            if not verdict.ok:
                bad_verdicts.append((seed, design, str(verdict)))
    return {
        "elapsed": time.monotonic() - t0,
        "runs": runs,
        "state_mismatches": state_mismatches,
        "bad_verdicts": bad_verdicts,
    }


@pytest.fixture(scope="module")
def ordering_suite():
    """zipf(1.0) + hotset(256) over 10 seeds, per policy and per capacity."""
    t0 = time.monotonic()
    policies = ("chronus",) + DESIGNS
    sums = {p: 0.0 for p in policies}
    cap_sums = {16: 0.0, 32: 0.0, 64: 0.0}
    n = 0
    for seed in range(1, 11):
        for trace_over in (
            {"trace.generator": "zipf", "trace.zipf_exponent": "1.0"},
            {
                "trace.generator": "hotset",
                "trace.hot_rows": "256",
                "trace.hot_fraction": "0.9",
            },
        ):
            overrides = dict(
                trace_over,
                **{
                    "trace.length": "10000",
                    "seed": str(seed),
                    "mitigation.enabled": "false",
                    "metrics.enabled": "false",
                },
            )
            base = resolve(overrides=overrides)
            events = generate(base.trace_spec, base.geometry)
            n += 1
            for policy in policies:
                _, report = run_events(
                    base.with_overrides({"buffer.design": policy}), events
                )
                sums[policy] += report.normalized_acts
            for cap in cap_sums:
                _, report = run_events(
                    base.with_overrides(
                        {
                            "buffer.design": "unified_approxmax",
                            "buffer.capacity": str(cap),
                        }
                    ),
                    events,
                )
                cap_sums[cap] += report.normalized_acts
    return {
        "elapsed": time.monotonic() - t0,
        "means": {p: s / n for p, s in sums.items()},
        "capacity_means": {c: s / n for c, s in cap_sums.items()},
    }


def test_criterion_01_conservation(mixed_suite):
    assert mixed_suite["runs"] == 200
    assert mixed_suite["state_mismatches"] == []
    assert mixed_suite["bad_verdicts"] == []
    assert mixed_suite["elapsed"] < 30.0
    print(
        f"criterion 1 PASS: 200/200 runs match the baseline state exactly "
        f"({mixed_suite['elapsed']:.1f}s)"
    )


def test_criterion_02_staleness_bound(mixed_suite):
    assert mixed_suite["bad_verdicts"] == []
    assert mixed_suite["elapsed"] < 30.0
    print(
        f"criterion 2 PASS: no counter lagged by more than K=4 in any of "
        f"{mixed_suite['runs']} runs ({mixed_suite['elapsed']:.1f}s)"
    )


def test_criterion_03_exact_coalescing():
    t0 = time.monotonic()
    base = resolve(
        overrides={
            "trace.generator": "sequential",
            "trace.length": "4096",
            "mitigation.enabled": "false",
            "metrics.enabled": "false",
        }
    )
    events = generate(base.trace_spec, base.geometry)
    _, perrow = run_events(base.with_overrides({"buffer.design": "perrow"}), events)
    assert perrow.counter_acts == 1024
    assert perrow.normalized_acts == 0.25
    unified = {}
    for design in ("unified_fcfs", "unified_sorted", "unified_approxmax"):
        _, report = run_events(base.with_overrides({"buffer.design": design}), events)
        unified[design] = report.normalized_acts
        assert report.normalized_acts <= 0.30, (design, report.normalized_acts)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"criterion 3 PASS: perrow exactly 1024 acts (0.25), unified at "
        f"{max(unified.values()):.4f} <= 0.30 ({elapsed:.2f}s)"
    )


def test_criterion_04_policy_ordering(ordering_suite):
    m = ordering_suite["means"]
    assert m["perrow"] <= m["unified_sorted"], m
    assert m["unified_sorted"] <= m["unified_approxmax"], m
    assert m["unified_approxmax"] <= m["unified_fcfs"], m
    assert m["unified_fcfs"] <= 1.0, m
    rel = abs(m["unified_approxmax"] - m["unified_sorted"]) / m["unified_sorted"]
    assert rel <= 0.10, rel
    assert ordering_suite["elapsed"] < 120.0
    print(
        "criterion 4 PASS: means "
        f"perrow {m['perrow']:.4f} <= sorted {m['unified_sorted']:.4f} <= "
        f"approxmax {m['unified_approxmax']:.4f} <= fcfs {m['unified_fcfs']:.4f} "
        f"<= 1.0, approxmax within {rel:.1%} of sorted"
    )


def test_criterion_05_capacity_monotonicity(ordering_suite):
    caps = ordering_suite["capacity_means"]
    assert caps[16] > caps[32] > caps[64], caps
    assert ordering_suite["elapsed"] < 60.0
    print(
        "criterion 5 PASS: approxmax normalized acts "
        f"{caps[16]:.4f} (16) > {caps[32]:.4f} (32) > {caps[64]:.4f} (64)"
    )


def test_criterion_06_metric_correctness():
    t0 = time.monotonic()
    assert skew([7, 7, 7, 7]) == 1.0
    single = [0] * 64
    single[9] = 500
    assert skew(single) == 64.0
    assert stream_locality([9] * 256, 64) == 64.0
    round_robin = [i % 64 for i in range(64 * 8)]
    assert stream_locality(round_robin, 64) == 1.0
    half_half = [0] * 64 + list(range(64))
    assert stream_locality(half_half, 64) == 32.5
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        stream = [rng.randrange(8) for _ in range(1000)]
        for window in (4, 64):
            fast = window_maxima(stream, window, "sliding")
            brute = [
                max(Counter(stream[i : i + window]).values())
                for i in range(len(stream) - window + 1)
            ]
            assert fast == brute, (seed, window)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 6 PASS: exact metric values and sliding oracle agree ({elapsed:.2f}s)")


def cache_pair(trace_over, seed):
    overrides = dict(
        trace_over,
        **{
            "trace.length": "20000",
            "seed": str(seed),
            "mitigation.enabled": "false",
            "metrics.enabled": "false",
        },
    )
    base = resolve(overrides=overrides)
    events = generate(base.trace_spec, base.geometry)
    _, plain = run_events(base, events)
    _, cached = run_events(
        base.with_overrides({"cache.kind": "lru4way", "cache.entries": "64"}), events
    )
    return plain, cached


def test_criterion_07_cache_finding():
    t0 = time.monotonic()
    plain, cached = cache_pair({"trace.generator": "uniform", "trace.rows": "8192"}, 2)
    uniform_hit = cached.cache["hit_rate"]
    uniform_reduction = (plain.counter_acts - cached.counter_acts) / plain.counter_acts
    assert uniform_hit < 0.05, uniform_hit
    assert uniform_reduction < 0.03, uniform_reduction

    plain, cached = cache_pair(
        {
            "trace.generator": "hotset",
            "trace.hot_rows": "48",
            "trace.hot_fraction": "0.9",
        },
        2,
    )
    hot_hit = cached.cache["hit_rate"]
    assert hot_hit > 0.50, hot_hit
    assert cached.counter_acts < plain.counter_acts
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"criterion 7 PASS: uniform hit {uniform_hit:.1%} with "
        f"{uniform_reduction:.2%} reduction; hotset hit {hot_hit:.1%} with "
        f"fewer activations ({elapsed:.1f}s)"
    )


def first_mitigation_true_count(design, staleness_bound):
    config = resolve(
        overrides={
            "trace.generator": "hammer",
            "trace.hammer_row": "0",
            "trace.hammer_gap": "1",
            "trace.length": "200",
            "buffer.design": design,
            "mitigation.proactive_interval": "0",
            "metrics.enabled": "false",
        }
    )
    events = generate(config.trace_spec, config.geometry)
    engine = Engine(config, collect_log=True)
    assert engine.store.on_mitigate is None  # an uncached run installs none
    done = []
    engine.store.on_mitigate = lambda *counter: done.append(counter)
    mitigations = []
    for ev in events:
        engine.step(*ev)
        mitigations += [(ev.slot, *counter) for counter in done]
        done.clear()
    report = engine.finalize()
    assert mitigations, "no mitigation fired"
    slot, bank, row_id, byte_id = mitigations[0]
    cpc = config.geometry.counters_per_counter_row
    target_row, target_byte = divmod(0, cpc)
    assert (bank, row_id, byte_id) == (0, target_row, target_byte)
    verdict = verify(
        events,
        engine.batch_log,
        engine.geometry,
        m_batch=4,
        staleness_bound=staleness_bound,
        reported_counter_acts=report.counter_acts,
    )
    assert verdict.ok, str(verdict)
    return config.n_bo, sum(
        1
        for ev in events
        if ev.slot <= slot
        and ev.bank == bank
        and divmod(ev.data_row, cpc) == (row_id, byte_id)
    )


def test_criterion_08_alert_timing():
    t0 = time.monotonic()
    n_bo, true_count = first_mitigation_true_count("unified_approxmax", 4)
    assert n_bo == 28
    assert true_count == 28
    base_n_bo, base_count = first_mitigation_true_count("chronus", 0)
    assert base_n_bo == 32
    assert base_count == 32
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"criterion 8 PASS: first mitigation at true count 28 (buffered, "
        f"threshold 28) and 32 (baseline, threshold 32) ({elapsed:.2f}s)"
    )


def test_criterion_09_energy_linearity():
    t0 = time.monotonic()
    common = {
        "trace.length": "10000",
        "mitigation.enabled": "false",
        "metrics.enabled": "false",
        "seed": "6",
    }
    base = resolve(overrides=common)
    events = generate(base.trace_spec, base.geometry)
    no_narrow = {"energy.e_extra_rmw": "0.0"}
    _, a = run_events(
        base.with_overrides(dict(no_narrow, **{"buffer.design": "perrow"})), events
    )
    _, b = run_events(
        base.with_overrides(dict(no_narrow, **{"buffer.design": "unified_fcfs"})),
        events,
    )
    assert a.rmw_bytes == b.rmw_bytes
    assert a.mitigations == b.mitigations == 0
    extra_ratio = a.energy["extra_total"] / b.energy["extra_total"]
    act_ratio = a.counter_acts / b.counter_acts
    assert abs(extra_ratio - act_ratio) < 1e-12, (extra_ratio, act_ratio)

    _, c = run_events(base.with_overrides({"buffer.design": "perrow"}), events)
    _, d = run_events(base.with_overrides({"buffer.design": "unified_fcfs"}), events)
    term_ratio = c.energy["activation_term"] / d.energy["activation_term"]
    assert abs(term_ratio - act_ratio) < 1e-12
    predicted = (c.counter_acts - d.counter_acts) * (0.19 - 0.0625)
    assert c.energy["extra_total"] - d.energy["extra_total"] == pytest.approx(
        predicted, rel=1e-12
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        f"criterion 9 PASS: extra-energy ratio {extra_ratio:.12f} equals "
        f"activation ratio {act_ratio:.12f} ({elapsed:.1f}s)"
    )


def test_criterion_10_determinism():
    t0 = time.monotonic()
    configs = [
        {"trace.length": "10000", "seed": "13"},
        {
            "trace.generator": "hotset",
            "trace.length": "10000",
            "trace.hot_rows": "128",
            "buffer.design": "unified_sorted",
            "cache.kind": "lru4way",
            "seed": "14",
        },
    ]
    for overrides in configs:
        first = Engine(resolve(overrides=overrides)).run().to_json()
        second = Engine(resolve(overrides=overrides)).run().to_json()
        assert first == second
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 10 PASS: repeated runs serialize byte-identically ({elapsed:.1f}s)")
