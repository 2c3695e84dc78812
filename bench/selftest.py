#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs a small traced run of each workload and records every check it
makes.  Each recorded check must pass on the program's real output and
fail on every corrupted copy listed below (a state-dump counter off by
one, a batch dropped from a log, an energy term perturbed, a dirty cache
value changed, ...).  A check that passes everything is caught here.
Also confirms that the metric names and units the runs print are those
of BENCHMARK.json.  Exits 0 when all of that holds, 1 otherwise.
"""

import copy
import json
import os
import shutil
import sys

import run

checks, tracer, workloads = run.import_workloads()

SMALL = {
    "design_sweep": {"length": 3000},
    "hot_cache": {"traces": 3, "length": 2000},
    "audit_replay": {"length": 5000},
}


def _policy(reports, name):
    return next(r for r in reports if r["policy"] == name)


def _chronus_short(a):
    _policy(a[0], "chronus")["counter_acts"] -= 1


def _buffered_at_baseline(a):
    buffered = [r for r in a[0] if r["policy"] != "chronus"]
    buffered[-1]["counter_acts"] = _policy(a[0], "chronus")["counter_acts"]


def _batch_dropped(a):
    trig = a[0]["batch_triggers"]
    trig[max(trig, key=trig.get)] -= 1


def _rmw_extra(a):
    a[0]["rmw_bytes"] += 1


def _rmw_over_bound(a):
    a[0]["rmw_bytes"] = a[1] * a[0]["counter_acts"] + 1


def _energy_term(term):
    def corrupt(a):
        a[0]["energy"][term] = a[0]["energy"][term] * (1 + 1e-6) + 1e-6

    return corrupt


def _footprint_off(a):
    a[0]["footprint"][50] += 1


def _skew_off(a):
    a[0]["skew_mean"] *= 1 + 1e-6


def _counter_acts_plus(a):
    a[0]["counter_acts"] += 1


def _data_acts_plus(a):
    a[0]["data_acts"] += 1


def _verdict_fail(a):
    return ("rule 1 violated at slot 3: counter (0, 0, 1) lags by 5 > bound 4\n",)


def _hit_added(a):
    a[0]["cache"]["hits"] += 1


def _cache_no_saving(a):
    a[0]["counter_acts"] = a[1]["counter_acts"]


def _dirty_changed(a):
    stored, dirty, stray, counts = a
    if not dirty:
        return False
    key = sorted(dirty)[0]
    dirty[key] += 1


def _stored_changed(a):
    stored, dirty, stray, counts = a
    keys = sorted(k for k in stored if k not in dirty)
    stored[keys[0]] += 1


def _stray_counter(a):
    return (a[0], a[1], 1, a[3])


def _exit_nonzero(a):
    return (2,)


def _state_off_by_one(a):
    lines = a[0].splitlines()
    b, r, c, v = lines[1].split(",")
    lines[1] = f"{b},{r},{c},{int(v) + 1}"
    return ("\n".join(lines) + "\n",) + a[1:]


def _log_batch_dropped(a):
    lines = a[0].splitlines()
    return ("\n".join(lines[:-1]) + "\n",) + a[1:]


def _round_stat_changed(a):
    stats = a[0]
    key = sorted(stats)[0]
    stats[key][0] += 1


def _traced_count_changed(key):
    def corrupt(a):
        a[0][key] += 1

    return corrupt


# Every check name the workloads use, with the corruptions it must catch.
# A corruption mutates a deep copy of the check's arguments in place, or
# returns replacement arguments, or returns False where it does not apply.
CORRUPTIONS = {
    "chronus_baseline": [_chronus_short],
    "buffered_below_baseline": [_buffered_at_baseline],
    "triggers_sum": [_batch_dropped],
    "rmw_exact": [_rmw_extra],
    "rmw_bound": [_rmw_over_bound],
    "energy_terms": [
        _energy_term(t)
        for t in (
            "baseline", "activation_term", "extra_rmw_term",
            "mitigation_term", "extra_total", "overhead",
        )  # fmt: skip
    ],
    "workload_shape": [_footprint_off, _skew_off],
    "same_run": [_counter_acts_plus],
    "verdict_pass": [_verdict_fail],
    "cache_accounting": [_hit_added],
    "cache_saves": [_cache_no_saving],
    "live_counters": [_dirty_changed, _stored_changed, _stray_counter],
    "exit_code": [_exit_nonzero],
    "state_dump": [_state_off_by_one],
    "data_acts": [_data_acts_plus],
    "log_batches": [_log_batch_dropped],
    "same_as_first_round": [_round_stat_changed],
    "traced_counts": [
        _traced_count_changed(k)
        for k in ("engine.step_calls", "buffers.batches.m_ready", "counters.mitigations")
    ],
}


class RecordingRound(workloads.Round):
    recorded = []

    def check(self, name, fn, *args):
        RecordingRound.recorded.append((name, fn, copy.deepcopy(args)))
        super().check(name, fn, *args)


def main() -> int:
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if e2e_units != run.E2E_UNITS:
        problems.append(f"end-to-end metrics {e2e_units} != printed {run.E2E_UNITS}")

    workloads.Round = RecordingRound
    for name, sizes in SMALL.items():
        workdir = os.path.join(run.WORK, f"selftest-{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            w = workloads.WORKLOADS[name](1, workdir, **sizes)
            w.resolve()
            w.make_inputs()
            rounds, _, aborted = run.run_rounds(w, 0, True, checks, tracer, workloads)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failures = [m for _, rec, _ in rounds for m in rec.failures]
        if aborted or failures:
            problems.append(f"{name}: real output failed: {failures[:3]}")
            continue
        printed = run.summarize(rounds, 0.0, True)
        units = {k: unit for k, (_, unit) in printed.items()}
        if units != layer_units:
            diff = sorted(set(units.items()) ^ set(layer_units.items()))
            problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json: {diff}")
        print(f"{name}: {len(RecordingRound.recorded)} checks recorded so far")

    applied = {}
    for name, fn, args in RecordingRound.recorded:
        corruptions = CORRUPTIONS.get(name)
        if corruptions is None:
            problems.append(f"no corruption for check {name}")
            continue
        try:
            fn(*copy.deepcopy(args))
        except checks.CheckFailed as exc:
            problems.append(f"{name} fails on real output: {exc}")
            continue
        for corrupt in corruptions:
            bad = copy.deepcopy(args)
            out = corrupt(bad)
            if out is False:
                continue
            bad = out if isinstance(out, tuple) else bad
            applied[corrupt] = applied.get(corrupt, 0) + 1
            try:
                fn(*bad)
            except checks.CheckFailed:
                continue
            problems.append(f"{name} passed a corrupted input ({corrupt.__name__})")
    for name, corruptions in CORRUPTIONS.items():
        for corrupt in corruptions:
            if not applied.get(corrupt):
                problems.append(f"{name}: corruption {corrupt.__name__} never applied")

    for p in problems:
        print("PROBLEM", p)
    caught = sum(applied.values())
    print(
        f"{len(RecordingRound.recorded)} checks, {caught} corrupted inputs, "
        f"{len(problems)} problems"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
