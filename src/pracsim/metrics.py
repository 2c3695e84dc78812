"""Workload-shape metrics and the serialized run report.

Metrics describe how activations spread over counter rows: skew is the
max/mean ratio of per-counter-row activation counts within a bank,
window locality is the mean of per-window maximum same-counter-row
request counts, and the footprint percentiles say how few distinct rows
carry a given share of all activations.
"""

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .errors import ConfigError

WINDOW_MODES = ("tumbling", "sliding")

COMPARE_COLUMNS = (
    "policy",
    "data_acts",
    "counter_acts",
    "normalized_acts",
    "rmw_bytes",
    "alerts",
    "mitigations",
    "cache_hit_rate",
    "energy_overhead",
)


def skew(row_counts: Sequence[int]) -> float:
    """Max over mean of per-counter-row activation counts for one bank.

    Rows with zero activations still count toward the mean; a bank with
    no activations at all has no defined skew.  ``row_counts`` is a
    sequence or a numpy array of ints.
    """
    counts = np.asarray(row_counts)
    if not counts.size:
        raise ConfigError("skew of an empty row-count vector is undefined")
    total = int(counts.sum())
    if total == 0:
        raise ConfigError("skew undefined for a bank with no activations")
    return int(counts.max()) * counts.size / total


def window_maxima(stream: Sequence[int], window: int, mode: str = "tumbling") -> List[int]:
    """Per-window maximum count of requests to a single counter row.

    Tumbling windows partition the stream (remainder discarded);
    sliding windows advance one request at a time.  ``stream`` is a
    sequence or a numpy array of ints; either gives the same list.
    """
    if window < 1:
        raise ConfigError(f"window must be positive, got {window}")
    if mode not in WINDOW_MODES:
        raise ConfigError(f"unknown window mode {mode!r}, expected one of {WINDOW_MODES}")
    n = len(stream)
    if n < window:
        return []
    if mode == "tumbling":
        # Sorted within each window, equal rows form runs; a window's
        # largest run is its maximum.
        flat = np.sort(np.asarray(stream[: n - n % window]).reshape(-1, window)).ravel()
        new_run = np.ones(flat.size, dtype=bool)
        new_run[1:] = flat[1:] != flat[:-1]
        new_run[::window] = True
        starts = np.flatnonzero(new_run)
        runs = np.diff(starts, append=flat.size)
        return np.maximum.reduceat(runs, np.flatnonzero(starts % window == 0)).tolist()
    if isinstance(stream, np.ndarray):
        stream = stream.tolist()
    counts = Counter(stream[:window])
    out = [max(counts.values())]
    for i in range(window, n):
        old = stream[i - window]
        counts[old] -= 1
        if counts[old] == 0:
            del counts[old]
        counts[stream[i]] += 1
        out.append(max(counts.values()))
    return out


def footprint_percentiles(
    counts: Iterable[int], percentiles: Sequence[int] = (25, 50, 75, 90)
) -> Dict[int, int]:
    """Distinct rows needed to cover each percentile of all activations.

    For each percentile p, the smallest k such that the k most-activated
    rows together carry at least p percent of the activations.
    ``counts`` is an iterable or a numpy array of ints.
    """
    counts = np.asarray(counts if isinstance(counts, np.ndarray) else list(counts))
    # Running totals of the counts from largest to smallest, zeros dropped.
    running = np.cumsum(np.sort(counts[counts > 0])[::-1]).tolist()
    if not running:
        raise ConfigError("footprint undefined with no activations")
    total = running[-1]
    out = {}
    for p in percentiles:
        if not 0 < p <= 100:
            raise ConfigError(f"percentile must be in (0, 100], got {p}")
        # bisect_left finds the first running total >= the target.
        out[p] = bisect_left(running, total * p / 100) + 1
    return out


@dataclass
class SimReport:
    """Everything one run produces, serializable to stable JSON."""

    policy: str
    data_acts: int
    counter_acts: int
    normalized_acts: float
    rmw_bytes: int
    alerts: int
    mitigations: int
    batch_triggers: Dict[str, int]
    energy: Dict[str, float]
    cache: Optional[Dict] = None
    skew_by_bank: Dict[int, float] = field(default_factory=dict)
    skew_mean: Optional[float] = None
    window_locality: Optional[float] = None
    footprint: Dict[int, int] = field(default_factory=dict)
    config: Dict[str, str] = field(default_factory=dict)
    schema_version: int = 1

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "policy": self.policy,
            "data_acts": self.data_acts,
            "counter_acts": self.counter_acts,
            "normalized_acts": self.normalized_acts,
            "rmw_bytes": self.rmw_bytes,
            "alerts": self.alerts,
            "mitigations": self.mitigations,
            "batch_triggers": dict(sorted(self.batch_triggers.items())),
            "energy": self.energy,
            "cache": self.cache,
            "skew_by_bank": {str(k): v for k, v in sorted(self.skew_by_bank.items())},
            "skew_mean": self.skew_mean,
            "window_locality": self.window_locality,
            "footprint": {str(k): v for k, v in sorted(self.footprint.items())},
            "config": dict(sorted(self.config.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def compare_csv(reports: Sequence[SimReport]) -> str:
    """Side-by-side comparison table with a frozen column set."""
    lines = [",".join(COMPARE_COLUMNS)]
    for r in reports:
        row = {
            "policy": r.policy,
            "data_acts": r.data_acts,
            "counter_acts": r.counter_acts,
            "normalized_acts": r.normalized_acts,
            "rmw_bytes": r.rmw_bytes,
            "alerts": r.alerts,
            "mitigations": r.mitigations,
            "cache_hit_rate": (r.cache or {}).get("hit_rate"),
            "energy_overhead": r.energy.get("overhead"),
        }
        lines.append(",".join(_csv_cell(row[c]) for c in COMPARE_COLUMNS))
    return "\n".join(lines) + "\n"
