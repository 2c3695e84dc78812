"""Trace-driven simulation loop tying the pieces together.

Each activation event consults the optional cache, and otherwise
inserts a counter request into its bank's buffer; a returned batch is
serviced against the stored counters in the shadow of that same
activation.  That chain is ``Engine.step`` -> the buffer's ``insert``
-> ``Engine._service`` -> ``CounterArray.apply_rmw``, each link called
through its attribute: once per activation, per activation the cache
missed, per batch, and per item with increments.  The ledger's
``data_acts``, ``counter_acts`` and ``rmw_bytes`` are live after each
step; ``finalize`` sets ``data_cols`` and ``mitigation_acts``.  After
the last event every buffer is drained, but dirty cache lines are not
written back, so a cached run's final stored counters (``--dump-state``)
lag the live values its cache still holds.
Workload shape is computed in one pass, by the same function that
``pracsim analyze`` calls, from the trace ``run`` steps; ``compare``
computes it once for all designs and hands it to each run.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from .buffers import TRIGGERS, ServiceBatch, make_buffer
from .cache import CounterCache, totals as cache_totals
from .config import SimConfig
from .counters import CounterArray
from .energy import EnergyLedger, breakdown
from .errors import ConfigError, TraceError
from .metrics import (
    SimReport,
    footprint_percentiles,
    skew,
    window_maxima,
)
from .oracle import ServiceLog
from .trace import Trace, generate, int64_columns, load


class Engine:
    """One run's mutable state; step events, then finalize into a report."""

    def __init__(self, config: SimConfig, collect_log: bool = False):
        self.config = config
        self.geometry = config.geometry
        self._cached = config.cache.kind != "none"
        self.store = CounterArray(
            config.geometry,
            n_bo=config.n_bo,
            rfms_per_alert=config.rfms_per_alert,
            on_mitigate=self._reset_cached if self._cached else None,
            refresh=config.proactive_interval > 0,
        )
        self.ledger = EnergyLedger()
        self.trigger_counts = {t: 0 for t in TRIGGERS}
        self.batch_log: Optional[ServiceLog] = ServiceLog() if collect_log else None
        # bank -> (buffer, cache or None), made on the bank's first activation.
        self._banks: Dict[int, Tuple] = {}
        self._cpc = config.geometry.counters_per_counter_row
        self._rows = config.geometry.rows_per_bank
        self._proactive = config.proactive_interval
        self._finalized = False

    def _bank(self, bank: int, slot: Optional[int] = None) -> Tuple:
        """The bank's (buffer, cache or None), made together on first touch.

        The bank is range-checked on that first touch; the error names
        ``slot``, the activation that touched it, when given.  A bank in
        range then has the store make its counter pages resident.
        """
        state = self._banks.get(bank)
        if state is None:
            self._check_bank(bank, slot)
            self.store.open_bank(bank)
            cache = None
            if self._cached:
                cache = CounterCache(bank, self.config.cache, self.geometry)
            state = self._banks[bank] = (make_buffer(bank, self.config.buffer), cache)
        return state

    def _check_bank(self, bank: int, slot: Optional[int] = None) -> None:
        if not 0 <= bank < self.geometry.banks:
            where = "" if slot is None else f"slot {slot}: "
            raise TraceError(f"{where}bank {bank} out of range [0, {self.geometry.banks})")

    def cache(self, bank: int) -> Optional[CounterCache]:
        """The counter cache of a bank the run has touched; None when the
        run has no cache or never touched the bank.  A pure read: it makes
        no bank state and opens no counter pages."""
        state = self._banks.get(bank)
        if state is None:
            self._check_bank(bank)
            return None
        return state[1]

    def _reset_cached(self, bank: int, row_id: int, byte_id: int) -> None:
        """A mitigation zeroed this counter: drop every copy that could
        restore the removed count, the cached line and a queued writeback."""
        state = self._banks.get(bank)
        if state is not None:
            buf, cache = state
            cache.reset(row_id, byte_id)
            buf.reset_writeback(row_id, byte_id)

    def step(self, slot: int, bank: int, data_row: int) -> None:
        """Process one activation, servicing the batch it completes, if any.

        A cached copy whose live value reaches the back-off threshold
        alerts here; the mitigation resets it and any queued writeback.
        """
        if not 0 <= data_row < self._rows:
            raise TraceError(
                f"slot {slot}: data_row {data_row} out of range [0, {self._rows})"
            )
        buf, cache = self._banks.get(bank) or self._bank(bank, slot)
        cpc = self._cpc
        row_id = data_row // cpc
        byte_id = data_row % cpc
        self.ledger.data_acts += 1

        if cache is None or not (live := cache.access(row_id, byte_id)):
            batch = buf.insert(row_id, byte_id)
            if batch is not None:
                self._service(batch, slot)
        elif live >= self.store.alert_at:
            self.store.external_alert(bank, row_id, byte_id)

        # Keyed on the slot itself, so that a caller whose slots skip or
        # restart still ticks exactly at each interval's last slot.
        interval = self._proactive
        if interval and (slot + 1) % interval == 0:
            self.store.proactive_tick()

    def _service(self, batch: ServiceBatch, slot: int) -> None:
        """Apply one batch; its items are as ``pracsim.buffers`` describes."""
        bank, row_id, items, trigger = batch
        self.trigger_counts[trigger] += 1
        if self.batch_log is not None:
            # Only a cached run queues writebacks, whose keys are ~byte_id.
            byte_ids = [~k if k < 0 else k for k in items] if self._cached else items
            self.batch_log.append(slot, bank, row_id, trigger, byte_ids)
        store = self.store
        apply_rmw = store.apply_rmw
        cache = None
        if self._cached and not self._finalized:
            # No fills while draining: an eviction writeback enqueued after
            # drain() would never be serviced.
            buf, cache = self._banks[bank]
        rmw_bytes = 0
        for byte_id, increments in items.items():
            if byte_id < 0:
                byte_id = ~byte_id
                wb_value, increments = increments
                store.apply_writeback(bank, row_id, byte_id, wb_value)
                rmw_bytes += 1
            if increments:
                apply_rmw(bank, row_id, byte_id, increments)
                rmw_bytes += increments
                if cache is not None:
                    cache.fill_clean(
                        row_id,
                        byte_id,
                        store.get(bank, row_id, byte_id),
                        buf.try_insert_writeback,
                    )
        ledger = self.ledger
        ledger.counter_acts += 1
        ledger.rmw_bytes += rmw_bytes

    def finalize(self, shape: Optional[dict] = None) -> SimReport:
        """Drain all buffers and assemble the report.

        ``shape`` is ``workload_shape`` of the stepped trace; without it,
        or with metrics disabled, the report leaves the shape fields empty.
        """
        if self._finalized:
            raise ConfigError("finalize called twice on one engine")
        self._finalized = True
        if self.ledger.data_acts == 0:
            raise TraceError("cannot simulate an empty trace")
        drain_slot = self.ledger.data_acts
        for bank in sorted(self._banks):
            for batch in self._banks[bank][0].drain():
                self._service(batch, drain_slot)
        # Nothing steps a finalized engine: drop the callback that ties the
        # store back to it, so that refcounting alone frees the engine and
        # its counter store once the caller lets go.
        self.store.on_mitigate = None
        # Each activation reads one column; step counts only the activations.
        self.ledger.data_cols = self.ledger.data_acts
        self.ledger.mitigation_acts = self.store.mitigations

        if shape is None or not self.config.metrics_enabled:
            shape = {}
        else:
            # Each report gets its own dicts, though compare shares one shape.
            shape = dict(
                shape,
                skew_by_bank=dict(shape["skew_by_bank"]),
                footprint=dict(shape["footprint"]),
            )

        caches = [cache for _, cache in self._banks.values()]
        cache_stats = cache_totals(caches) if self._cached else None

        return SimReport(
            policy=self.config.buffer.design,
            data_acts=self.ledger.data_acts,
            counter_acts=self.ledger.counter_acts,
            normalized_acts=self.ledger.counter_acts / self.ledger.data_acts,
            rmw_bytes=self.ledger.rmw_bytes,
            alerts=self.store.alerts,
            mitigations=self.store.mitigations,
            batch_triggers=dict(self.trigger_counts),
            energy=breakdown(self.ledger, self.config.energy).to_dict(),
            cache=cache_stats,
            config=dict(self.config.flat),
            **shape,
        )

    def load_events(self) -> Trace:
        return load_trace(self.config)

    def run(
        self, trace: Optional[Trace] = None, shape: Optional[dict] = None
    ) -> SimReport:
        """Step every activation of ``trace``, then finalize; the configured
        trace if None.  ``shape`` is ``workload_shape(trace, config)`` when
        the caller already holds it; otherwise the report's shape is
        computed from ``trace``.
        """
        if trace is None:
            trace = self.load_events()
        step = self.step
        for slot, (bank, data_row) in enumerate(zip(trace.banks, trace.rows)):
            step(slot, bank, data_row)
        if shape is None and self.config.metrics_enabled and trace:
            shape = workload_shape(trace, self.config)
        return self.finalize(shape)


def load_trace(config: SimConfig) -> Trace:
    """The configured trace: read from ``trace.path``, else generated.
    No command simulates, analyzes or verifies an empty trace, so an
    empty one raises TraceError here."""
    if config.trace_path is not None:
        events = load(config.trace_path, config.geometry, config.trace_format)
    else:
        events = generate(config.trace_spec, config.geometry)
    if not events:
        raise TraceError("cannot simulate, analyze or verify an empty trace")
    return events


def workload_shape(trace: Trace, config: SimConfig) -> dict:
    """Skew per bank and its mean, window locality, and footprint of a trace.

    Banks are visited in ascending order; window maxima are taken within
    each bank's own stream of counter rows and pooled across banks.  The
    trace is not empty (``load_trace`` refuses one); an activation
    outside the geometry raises TraceError naming its slot.
    """
    geometry = config.geometry
    banks, rows = int64_columns(trace, geometry, TraceError)
    keys = banks * geometry.rows_per_bank + rows
    footprint = footprint_percentiles(np.unique(keys, return_counts=True)[1])
    row_ids = rows // geometry.counters_per_counter_row
    skew_by_bank: Dict[int, float] = {}
    maxima: List[int] = []
    for bank in np.flatnonzero(np.bincount(banks)).tolist():
        stream = row_ids[banks == bank]
        counts = np.bincount(stream, minlength=geometry.counter_rows_per_bank)
        skew_by_bank[bank] = skew(counts)
        maxima.extend(window_maxima(stream, config.window, config.window_mode))
    return {
        "skew_by_bank": skew_by_bank,
        "skew_mean": sum(skew_by_bank.values()) / len(skew_by_bank),
        "window_locality": sum(maxima) / len(maxima) if maxima else None,
        "footprint": footprint,
    }


def run(config: SimConfig) -> SimReport:
    """Simulate one configured run start to finish."""
    return Engine(config).run()


def compare(config: SimConfig, policies) -> List[SimReport]:
    """Run several buffer designs over the identical trace and settings.

    The trace is materialized once and every design steps over that one
    ``Trace``; its workload shape, which depends on the trace alone, is
    computed once too.  The immediate-service baseline is prepended if
    absent so normalized activation counts always have their denominator
    in the table.
    """
    policies = list(policies)
    if not policies:
        raise ConfigError("no policies to compare")
    if "chronus" not in policies:
        policies = ["chronus"] + policies
    events = load_trace(config)
    shape = workload_shape(events, config) if config.metrics_enabled else None
    reports = []
    for policy in policies:
        overrides = {"buffer.design": policy}
        if policy == "chronus":
            overrides["cache.kind"] = "none"
        reports.append(Engine(config.with_overrides(overrides)).run(events, shape))
    for r in reports:
        if r.policy == "chronus" and r.counter_acts != r.data_acts:
            raise ConfigError(
                "baseline invariant broken: counter acts must equal data acts"
            )
    return reports
