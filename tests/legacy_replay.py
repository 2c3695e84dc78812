"""The replay verifier as it was before its replay sorted once.

``verify``, ``_replay`` and ``_stored_problem`` are verbatim copies from
when ``_replay`` ranked the counter keys with ``np.unique`` before its
argsort, ``verify`` found repeated byte ids with a sort of its own, and
``_stored_problem`` counted the nonzero bytes of the whole store.
``_int64`` is a verbatim copy of the helper they called, which clipped
values past +-2**62 where ``pracsim.oracle`` now reads int64 columns.
The other helpers they share with ``pracsim.oracle`` are imported from
it.

Tests run it beside ``pracsim.oracle`` as a reference for differential
tests; nothing under ``src/`` imports this module.
"""

from typing import Optional

import numpy as np

from pracsim.buffers import TRIGGERS
from pracsim.errors import ConfigError, LogFormatError
from pracsim.geometry import DramGeometry
from pracsim.oracle import (
    _DRAIN,
    ServiceLog,
    Verdict,
    _check_batch,
    _counter,
    _shadow_problem,
)
from pracsim.trace import Trace

# No field of a log or state dump is near it; larger values are clipped to it.
_CLIP = 1 << 62


def _int64(values) -> np.ndarray:
    """``values`` as int64, any beyond +-2**62 clipped to it; such a value
    is out of range for every field, so range checks read the same."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array([min(max(v, -_CLIP), _CLIP) for v in values], dtype=np.int64)


def _replay(act_keys: np.ndarray, item_keys: np.ndarray, item_slots: np.ndarray):
    """Replay the activations and serviced byte ids, counter by counter.

    Returns ``(lags, counters, totals, applied)``: each activation's lag
    after its slot's batch; the distinct counter keys in order; and per
    counter its activations and the count its last batch made visible.
    """
    n = act_keys.size
    keys = np.concatenate((act_keys, item_keys))
    when = np.concatenate((np.arange(n), item_slots))
    is_item = np.concatenate((np.zeros(n, np.int64), np.ones(item_keys.size, np.int64)))
    counters, rank = np.unique(keys, return_inverse=True)
    # Ranks, not keys, keep the sort key small: (rank, slot, activation first).
    order = np.argsort((rank * (n + 1) + when) * 2 + is_item)
    rank, when, is_act = rank[order], when[order], is_item[order] == 0
    at = np.arange(order.size)
    seen = np.concatenate(([0], np.cumsum(is_act)))  # activations before each position
    start = np.flatnonzero(np.diff(rank, prepend=-1))
    end = np.flatnonzero(np.diff(rank, append=-1))
    last_item = np.maximum.accumulate(np.where(is_act, -1, at))
    since = np.maximum(last_item, start[rank] - 1)
    lag = seen[at + 1] - seen[since + 1]
    # A batch on the counter in the activation's own slot sorts right after it.
    lag[:-1][(rank[1:] == rank[:-1]) & (when[1:] == when[:-1])] = 0
    lags = np.zeros(n, dtype=np.int64)
    lags[when[is_act]] = lag[is_act]
    totals = seen[end + 1] - seen[start]
    last = last_item[end]
    applied = np.where(last >= start, seen[last + 1] - seen[start], 0)
    return lags, counters, totals, applied


def verify(
    trace: Trace,
    log: ServiceLog,
    geometry: DramGeometry,
    m_batch: int = 4,
    staleness_bound: int = 4,
    reported_counter_acts: Optional[int] = None,
    final_values=None,
) -> Verdict:
    """Replay ``trace`` against ``log`` and return the first violation.

    An activation outside the geometry raises LogFormatError naming its
    slot.  ``final_values``, when given, is the run's post-drain store:
    its ``values`` array, shaped (banks, counter rows, counters per row).
    Each activated counter must hold its saturated true count and every
    other counter 0.  Only applies to runs without a cache and with
    mitigation disabled, since the log does not carry cache hits or
    alert resets.
    """
    n = len(trace)
    act_banks, act_rows = _int64(trace.banks), _int64(trace.rows)
    outside = (act_banks < 0) | (act_banks >= geometry.banks)
    outside |= (act_rows < 0) | (act_rows >= geometry.rows_per_bank)
    if outside.any():
        slot = int(np.argmax(outside))
        raise LogFormatError(
            f"slot {slot}: bank {trace.banks[slot]}, data_row {trace.rows[slot]} outside "
            f"the geometry's {geometry.banks} banks of {geometry.rows_per_bank} rows"
        )
    slots = _int64(log.slots)
    beyond = np.flatnonzero(slots > n)
    if beyond.size:
        raise LogFormatError(f"batch slot {log.slots[beyond[0]]} beyond drain slot {n}")

    cpc = geometry.counters_per_counter_row
    shape = (geometry.banks, geometry.counter_rows_per_bank, cpc)
    banks, row_ids = _int64(log.banks), _int64(log.row_ids)
    byte_ids = _int64(log.byte_ids)
    codes = np.asarray(log.triggers, dtype=np.int64)
    sizes = np.asarray(log.sizes, dtype=np.int64)
    item_batch = np.repeat(np.arange(len(log)), sizes)

    # _check_batch for every batch at once.
    byte_ok = (byte_ids >= 0) & (byte_ids < cpc)
    bad_bytes = np.zeros(len(log), dtype=bool)
    bad_bytes[item_batch[~byte_ok]] = True
    pairs = np.sort(item_batch * cpc + np.where(byte_ok, byte_ids, 0))
    bad_bytes[pairs[1:][pairs[1:] == pairs[:-1]] // cpc] = True
    placed = (banks >= 0) & (banks < geometry.banks) & (row_ids >= 0)
    placed &= row_ids < geometry.counter_rows_per_bank
    legal = placed & (sizes >= 1) & (sizes <= m_batch) & ~bad_bytes

    # The first body slot with several batches or a bad one; a batch at a
    # negative slot is never replayed, since no activation has its slot.
    body = np.flatnonzero((slots >= 0) & (slots < n))
    body_slots = slots[body]
    bad = ~legal[body] | (codes[body] == _DRAIN) | (banks[body] != act_banks[body_slots])
    crowded = np.flatnonzero(np.bincount(body_slots, minlength=n) > 1)
    shadow_fail = min(crowded.min(initial=n), body_slots[bad].min(initial=n))

    # The byte ids the replay applies; those of a misplaced batch get key -1,
    # which no activation has (they only matter after its slot has failed).
    live = slots[item_batch] >= 0
    item_batch, item_bytes = item_batch[live], byte_ids[live]
    ok = placed[item_batch] & byte_ok[live]
    item_keys = np.full(item_batch.size, -1, dtype=np.int64)
    at = item_batch[ok]
    item_keys[ok] = np.ravel_multi_index((banks[at], row_ids[at], item_bytes[ok]), shape)
    act_keys = act_banks * geometry.rows_per_bank + act_rows
    lags, counters, totals, applied = _replay(act_keys, item_keys, slots[item_batch])

    stale = np.flatnonzero(lags > staleness_bound)
    lag_fail = stale[0] if stale.size else n
    if shadow_fail < n and shadow_fail <= lag_fail:
        slot = int(shadow_fail)
        rule, message = _shadow_problem(
            log,
            sizes,
            np.flatnonzero(slots == slot).tolist(),
            trace.banks[slot],
            geometry,
            m_batch,
        )
        return Verdict(False, rule, slot, message)
    if lag_fail < n:
        slot = int(lag_fail)
        key = _counter(act_keys[slot], shape)
        return Verdict(
            False,
            1,
            slot,
            f"counter {key} lags by {lags[slot]} > bound {staleness_bound}",
        )

    for j in np.flatnonzero(slots == n).tolist():
        if codes[j] != _DRAIN:
            trigger = TRIGGERS[codes[j]]
            return Verdict(False, 2, n, f"trigger {trigger!r} at the drain slot")
        if not legal[j]:
            return Verdict(False, 2, n, _check_batch(log, sizes, j, geometry, m_batch))

    behind = np.flatnonzero(applied != totals)
    if behind.size:
        i = behind[0]
        counter = _counter(counters[i], shape)
        message = f"counter {counter} ends at {applied[i]} of {totals[i]} true activations"
        return Verdict(False, 4, n, message)

    if final_values is not None:
        problem = _stored_problem(final_values, counters, totals, shape)
        if problem:
            return Verdict(False, 4, n, problem)

    if reported_counter_acts is not None and reported_counter_acts != len(log):
        return Verdict(
            False,
            5,
            n,
            f"reported {reported_counter_acts} counter acts, log has {len(log)}",
        )
    return Verdict(True)


def _stored_problem(final_values, counters, totals, shape) -> Optional[str]:
    """The first counter, in key order, whose stored value is not its
    saturated true count (0 for a counter never activated), as a message.

    ``counters`` are the replay's keys, all inside the geometry once
    conservation holds, with their activation ``totals``.
    """
    values = np.asarray(final_values)
    if values.shape != shape:
        raise ConfigError(f"final values have shape {values.shape}, not {shape}")
    flat = values.reshape(-1)
    stored = flat[counters]
    expected = np.minimum(totals, 255)
    wrong = np.flatnonzero(stored != expected)
    found = []
    if wrong.size:
        found.append((counters[wrong[0]], int(expected[wrong[0]])))
    # One count tells whether any counter outside ``counters`` is nonzero.
    if np.count_nonzero(flat) > np.count_nonzero(stored):
        stray = flat != 0
        stray[counters] = False
        found.append((int(np.argmax(stray)), 0))
    if not found:
        return None
    key, want = min(found)
    return f"stored counter {_counter(key, shape)} is {int(flat[key])}, expected {want}"
