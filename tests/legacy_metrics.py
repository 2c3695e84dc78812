"""The workload-shape metrics as they were before they became array passes.

A verbatim copy of ``skew``, ``window_maxima`` and
``footprint_percentiles`` from when each walked its input in Python: a
``Counter`` per tumbling window, and a running float sum over the sorted
counts for each percentile.  Tests run them beside ``pracsim.metrics``
as the reference for differential tests, and ``legacy_trace``'s shape
pass uses them; nothing under ``src/`` imports this module.
"""

from collections import Counter
from typing import Dict, Iterable, List, Sequence

from pracsim.errors import ConfigError
from pracsim.metrics import WINDOW_MODES


def skew(row_counts: Sequence[int]) -> float:
    """Max over mean of per-counter-row activation counts for one bank.

    Rows with zero activations still count toward the mean; a bank with
    no activations at all has no defined skew.
    """
    if not row_counts:
        raise ConfigError("skew of an empty row-count vector is undefined")
    total = sum(row_counts)
    if total == 0:
        raise ConfigError("skew undefined for a bank with no activations")
    return max(row_counts) * len(row_counts) / total


def window_maxima(stream: Sequence[int], window: int, mode: str = "tumbling") -> List[int]:
    """Per-window maximum count of requests to a single counter row.

    Tumbling windows partition the stream (remainder discarded);
    sliding windows advance one request at a time.
    """
    if window < 1:
        raise ConfigError(f"window must be positive, got {window}")
    if mode not in WINDOW_MODES:
        raise ConfigError(f"unknown window mode {mode!r}, expected one of {WINDOW_MODES}")
    n = len(stream)
    if n < window:
        return []
    if mode == "tumbling":
        out = []
        for start in range(0, n - window + 1, window):
            counts = Counter(stream[start : start + window])
            out.append(max(counts.values()))
        return out
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
    """
    ordered = sorted((c for c in counts if c > 0), reverse=True)
    if not ordered:
        raise ConfigError("footprint undefined with no activations")
    total = sum(ordered)
    out = {}
    for p in percentiles:
        if not 0 < p <= 100:
            raise ConfigError(f"percentile must be in (0, 100], got {p}")
        target = total * p / 100
        running = 0.0
        for k, c in enumerate(ordered, start=1):
            running += c
            if running >= target:
                out[p] = k
                break
    return out
