"""Checks of the simulator's outputs against recounts made apart from it.

Every check takes plain data (report dicts, file text, recounted
activation counts) and raises CheckFailed on a mismatch, so that
``selftest.py`` can feed each one a deliberately corrupted copy and
confirm it fails.  Nothing here imports pracsim.
"""

import math
from typing import Dict, Mapping, Sequence, Tuple

# Documented energy prices (src/pracsim/energy.py), in units of one data
# activation: a counter-row activation costs 0.19 of one, each byte beyond
# the first in the same activation is a narrow write at one eighth of a
# 0.5 column access, and every data activation carries one column access.
E_ACT = 1.0
E_COL = 0.5
COUNTER_ACT_FACTOR = 0.19
E_EXTRA_RMW = 0.0625

COUNTER_MAX = 255
CPC = 1024  # counters per counter row
COUNTER_ROWS = 64
FOOTPRINT_PERCENTILES = (25, 50, 75, 90)


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own count."""


def _ensure(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# Recounts made from the inputs, apart from the program.


def recount_shape(counts: Mapping[Tuple[int, int], int]) -> dict:
    """Mean per-bank skew and footprint percentiles of (bank, data_row) counts."""
    per_bank: Dict[int, list] = {}
    for (bank, data_row), n in counts.items():
        rows = per_bank.setdefault(bank, [0] * COUNTER_ROWS)
        rows[data_row // CPC] += n
    skews = [max(r) * COUNTER_ROWS / sum(r) for _, r in sorted(per_bank.items())]
    ordered = sorted(counts.values(), reverse=True)
    total = sum(ordered)
    footprint = {}
    for p in FOOTPRINT_PERCENTILES:
        running = 0
        for k, n in enumerate(ordered, start=1):
            running += n
            if running * 100 >= total * p:
                footprint[p] = k
                break
    return {"skew_mean": sum(skews) / len(skews), "footprint": footprint}


def expected_counters(counts: Mapping[Tuple[int, int], int]) -> Dict[tuple, int]:
    """Saturated final counter values keyed (bank, row_id, byte_id)."""
    return {
        (bank, data_row // CPC, data_row % CPC): min(COUNTER_MAX, n)
        for (bank, data_row), n in counts.items()
        if n
    }


# design_sweep


def chronus_baseline(reports: Sequence[dict], length: int) -> None:
    base = [r for r in reports if r["policy"] == "chronus"]
    _ensure(len(base) == 1, f"expected one chronus report, got {len(base)}")
    r = base[0]
    _ensure(
        r["counter_acts"] == r["data_acts"] == length,
        f"chronus counter acts {r['counter_acts']}, data acts {r['data_acts']}, "
        f"requested {length}",
    )


def buffered_below_baseline(reports: Sequence[dict]) -> None:
    base = next(r["counter_acts"] for r in reports if r["policy"] == "chronus")
    for r in reports:
        if r["policy"] != "chronus":
            _ensure(
                r["counter_acts"] < base,
                f"{r['policy']} has {r['counter_acts']} counter acts, "
                f"chronus {base}",
            )


def same_run(logged: dict, compared: dict) -> None:
    """A logged re-run of one design reproduces that design's compare row."""
    for key in ("data_acts", "counter_acts", "rmw_bytes", "alerts", "mitigations"):
        _ensure(
            logged[key] == compared[key],
            f"{key}: logged run {logged[key]}, compare {compared[key]}",
        )
    _ensure(
        logged["batch_triggers"] == compared["batch_triggers"],
        f"triggers: logged run {logged['batch_triggers']}, "
        f"compare {compared['batch_triggers']}",
    )


def workload_shape(report: dict, expected: dict) -> None:
    _ensure(
        report["skew_mean"] is not None
        and _close(report["skew_mean"], expected["skew_mean"]),
        f"skew_mean {report['skew_mean']}, recount {expected['skew_mean']}",
    )
    _ensure(
        report["footprint"] == expected["footprint"],
        f"footprint {report['footprint']}, recount {expected['footprint']}",
    )


# Any report


def triggers_sum(report: dict) -> None:
    total = sum(report["batch_triggers"].values())
    _ensure(
        total == report["counter_acts"],
        f"{report['policy']}: triggers sum to {total}, "
        f"counter acts {report['counter_acts']}",
    )


def rmw_exact(report: dict) -> None:
    """Without a cache every increment is applied exactly once."""
    _ensure(
        report["rmw_bytes"] == report["data_acts"],
        f"{report['policy']}: rmw_bytes {report['rmw_bytes']}, "
        f"data acts {report['data_acts']}",
    )


def rmw_bound(report: dict, m_batch: int) -> None:
    _ensure(
        report["rmw_bytes"] <= m_batch * report["counter_acts"],
        f"{report['policy']}: rmw_bytes {report['rmw_bytes']} > "
        f"{m_batch} x {report['counter_acts']} counter acts",
    )


def energy_terms(report: dict) -> None:
    """Recompute every energy term from the report's counts."""
    d, c = report["data_acts"], report["counter_acts"]
    expect = {
        "baseline": d * E_ACT + d * E_COL,
        "activation_term": c * COUNTER_ACT_FACTOR * E_ACT,
        "extra_rmw_term": (report["rmw_bytes"] - c) * E_EXTRA_RMW,
        "mitigation_term": report["mitigations"] * COUNTER_ACT_FACTOR * E_ACT,
    }
    expect["extra_total"] = (
        expect["activation_term"] + expect["extra_rmw_term"] + expect["mitigation_term"]
    )
    expect["overhead"] = expect["extra_total"] / expect["baseline"]
    for key, value in expect.items():
        got = report["energy"][key]
        _ensure(_close(got, value), f"{report['policy']}: energy {key} {got}, recount {value}")


# hot_cache


def cache_accounting(report: dict) -> None:
    cache = report["cache"]
    _ensure(cache is not None, "cached run reports no cache statistics")
    _ensure(
        cache["hits"] + cache["misses"] == report["data_acts"],
        f"hits {cache['hits']} + misses {cache['misses']} != "
        f"data acts {report['data_acts']}",
    )


def cache_saves(cached: dict, uncached: dict) -> None:
    _ensure(
        cached["counter_acts"] < uncached["counter_acts"],
        f"cached run has {cached['counter_acts']} counter acts, "
        f"uncached {uncached['counter_acts']}",
    )


def live_counters(
    stored: Mapping[tuple, int],
    dirty: Mapping[tuple, int],
    stray: int,
    counts: Mapping[Tuple[int, int], int],
) -> None:
    """Each counter's live value is min(255, its activations).

    ``stored`` holds stored counters and ``dirty`` the dirty cached
    copies, both keyed (bank, row_id, byte_id); a dirty copy overrides the
    stored value.  ``stray`` counts nonzero stored counters missing from
    ``stored``: untouched counters must read zero, so it must be 0.
    """
    _ensure(stray == 0, f"{stray} untouched counters are nonzero")
    live = dict(stored)
    live.update(dirty)
    live = {k: v for k, v in live.items() if v}
    expect = expected_counters(counts)
    if live != expect:
        wrong = sorted(set(live) ^ set(expect)) + sorted(
            k for k in set(live) & set(expect) if live[k] != expect[k]
        )
        k = wrong[0]
        raise CheckFailed(
            f"{len(wrong)} counters differ, first {k}: live {live.get(k, 0)}, "
            f"expected {expect.get(k, 0)}"
        )


# audit_replay


def exit_code(code: int) -> None:
    _ensure(code == 0, f"command exited {code}")


def verdict_pass(text: str) -> None:
    _ensure(text.strip() == "pass", f"verdict {text.strip()!r}")


def state_dump(csv_text: str, counts: Mapping[Tuple[int, int], int]) -> None:
    lines = csv_text.splitlines()
    _ensure(bool(lines) and lines[0] == "bank,row_id,byte_id,value", "bad state header")
    dumped = {}
    for line in lines[1:]:
        b, r, c, v = (int(x) for x in line.split(","))
        dumped[(b, r, c)] = v
    expect = expected_counters(counts)
    if dumped != expect:
        k = sorted(
            k for k in set(dumped) | set(expect) if dumped.get(k) != expect.get(k)
        )[0]
        raise CheckFailed(
            f"state dump {k} = {dumped.get(k, 0)}, recount {expect.get(k, 0)}"
        )


def data_acts(report: dict, records: int) -> None:
    _ensure(
        report["data_acts"] == records,
        f"report data acts {report['data_acts']}, records written {records}",
    )


def log_batches(log_text: str, report: dict) -> None:
    lines = [line for line in log_text.splitlines() if line.strip()]
    _ensure(bool(lines) and lines[0].startswith("slot,"), "bad log header")
    _ensure(
        len(lines) - 1 == report["counter_acts"],
        f"log has {len(lines) - 1} batches, report {report['counter_acts']} counter acts",
    )


# Run-level


def same_as_first_round(stats: dict, first: dict) -> None:
    """Simulated statistics repeat exactly from round to round."""
    _ensure(stats == first, f"round statistics {stats} differ from first {first}")


def traced_counts(traced: Mapping[str, float], expected: Mapping[str, float]) -> None:
    """Counts seen at layer boundaries match the reports' totals."""
    for key, value in expected.items():
        got = traced[key]
        _ensure(
            got == value or (isinstance(value, float) and _close(got, value)),
            f"traced {key} = {got}, reports say {value}",
        )
