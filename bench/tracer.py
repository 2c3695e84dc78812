"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each layer's public functions and methods
with wrappers that time the call and count what crosses the boundary;
``uninstall()`` puts the originals back.  A span's self time is its
duration minus the time of the spans it encloses, so the self times of
all spans add up to the time of the outermost ones.  Spans are folded
into per-key totals as they close: a round makes millions of calls, too
many to keep one record each.

Counts are read at the boundary (a batch returned by a buffer, a hit
returned by a cache, the change in a counter array's alert tally across
the call), never from the program's own reports, so that they can be
checked against those reports.
"""

import time
from collections import defaultdict

from pracsim import buffers, cache, cli, config, counters, energy, engine, metrics
from pracsim import oracle, trace

# (owner, attribute, span key); the layer is the key's first part.
_SPANS = [
    (config, "resolve", "config.resolve"),
    (trace, "generate", "trace.generate"),
    (trace, "load", "trace.load"),
    (engine, "generate", "trace.generate"),
    (engine, "load", "trace.load"),
    (engine, "compare", "engine.compare"),
    (engine, "run", "engine.run"),
    (engine.Engine, "__init__", "engine.init"),
    (engine.Engine, "run", "engine.run"),
    (engine.Engine, "load_events", "engine.load_events"),
    (engine.Engine, "step", "engine.step"),
    (engine.Engine, "finalize", "engine.finalize"),
    (buffers.ChronusBuffer, "insert", "buffers.insert"),
    (buffers._BufferedBase, "insert", "buffers.insert"),
    (buffers.ChronusBuffer, "drain", "buffers.drain"),
    (buffers._BufferedBase, "drain", "buffers.drain"),
    (buffers._BufferedBase, "try_insert_writeback", "buffers.writeback"),
    (cache.CounterCache, "__init__", "cache.init"),
    (cache.CounterCache, "access", "cache.access"),
    (cache.CounterCache, "fill_clean", "cache.fill"),
    (counters.CounterArray, "__init__", "counters.init"),
    (counters.CounterArray, "apply_rmw", "counters.rmw"),
    (counters.CounterArray, "apply_writeback", "counters.writeback"),
    (counters.CounterArray, "external_alert", "counters.external_alert"),
    (counters.CounterArray, "proactive_tick", "counters.proactive"),
    (counters.CounterArray, "get", "counters.get"),
    (counters.CounterArray, "dump", "counters.dump"),
    (engine, "skew", "metrics.shape"),
    (engine, "window_maxima", "metrics.shape"),
    (engine, "footprint_percentiles", "metrics.shape"),
    (metrics.SimReport, "to_dict", "metrics.report"),
    (metrics.SimReport, "to_json", "metrics.report"),
    (metrics, "compare_csv", "metrics.report"),
    (engine, "breakdown", "energy.breakdown"),
    (energy.EnergyBreakdown, "to_dict", "energy.breakdown"),
    (oracle, "write_log", "oracle.write_log"),
    (oracle, "read_log", "oracle.read_log"),
    (oracle, "verify", "oracle.verify"),
    (cli, "main", "cli.main"),
]

LAYERS = (
    "config", "trace", "engine", "buffers", "cache", "counters",
    "metrics", "energy", "oracle", "cli",
)  # fmt: skip
TRIGGERS = ("m_ready", "buffer_full", "k_limit", "drain")
DESIGNS = ("chronus", "perrow", "unified_fcfs", "unified_sorted", "unified_approxmax")


class Tracer:
    """Self times and boundary counts of every wrapped call while enabled."""

    def __init__(self):
        self.enabled = False
        self._saved = []
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []

    def set_enabled(self, on: bool) -> None:
        self.enabled = on

    def install(self) -> None:
        for owner, attr, key in _SPANS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, key, _HOOKS.get(key)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, key, hook):
        tracer = self

        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = hook.before(args) if hook else None
            stack = tracer._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = stack.pop()
                tracer.self_s[key] += dt - inner
                tracer.calls[key] += 1
                if stack:
                    stack[-1] += dt
            if hook:
                hook.after(tracer.counts, args, result, before)
            return result

        span.__wrapped__ = fn
        return span

    def metrics(self, reports) -> dict:
        """The per-layer metrics of everything traced since the last reset.

        ``reports`` are the round's simulation reports; they give only the
        modelled counter traffic per design, which no boundary carries.
        """
        s, c, n = self.self_s, self.calls, self.counts
        layer = defaultdict(float)
        for key, value in s.items():
            layer[key.split(".")[0]] += value
        batches = sum(n["batches." + t] for t in TRIGGERS)
        m = {
            "config.resolve_s": s["config.resolve"],
            "trace.generate_s": s["trace.generate"],
            "trace.generate_calls": c["trace.generate"],
            "trace.load_s": s["trace.load"],
            "trace.load_calls": c["trace.load"],
            "engine.step_calls": c["engine.step"],
            "engine.step_self_s": s["engine.step"],
            "engine.finalize_self_s": s["engine.finalize"],
            "buffers.insert_calls": c["buffers.insert"],
            "buffers.insert_s": s["buffers.insert"],
            "buffers.drain_s": s["buffers.drain"],
            "buffers.items_per_batch": n["batch_items"] / batches if batches else 0.0,
            "cache.access_calls": c["cache.access"],
            "cache.access_s": s["cache.access"],
            "cache.hit_rate": n["cache.hits"] / c["cache.access"] if c["cache.access"] else 0.0,
            "cache.fill_calls": c["cache.fill"],
            "cache.fill_s": s["cache.fill"],
            "cache.writebacks": n["cache.writebacks"],
            "cache.fills_rejected": n["cache.fills_rejected"],
            "cache.admission_rejects": n["cache.admission_rejects"],
            "counters.rmw_calls": c["counters.rmw"],
            "counters.rmw_s": s["counters.rmw"] + s["counters.writeback"],
            "counters.proactive_calls": c["counters.proactive"],
            "counters.proactive_s": s["counters.proactive"],
            "counters.alerts": n["counters.alerts"],
            "counters.mitigations": n["counters.mitigations"],
            "counters.dump_s": s["counters.dump"],
            "metrics.shape_s": s["metrics.shape"],
            "metrics.report_s": s["metrics.report"],
            "energy.breakdown_s": s["energy.breakdown"],
            "oracle.write_log_s": s["oracle.write_log"],
            "oracle.read_log_s": s["oracle.read_log"],
            "oracle.verify_s": s["oracle.verify"],
            "oracle.batches_replayed": n["oracle.batches_replayed"],
            "cli.self_s": s["cli.main"],
        }
        for t in TRIGGERS:
            m["buffers.batches." + t] = n["batches." + t]
        for name in LAYERS:
            m[name + ".self_s"] = layer[name]
        for design in DESIGNS:
            runs = [r for r in reports if r["policy"] == design]
            acts = sum(r["data_acts"] for r in runs)
            m["buffers.counter_acts_per_kact." + design] = (
                1000 * sum(r["counter_acts"] for r in runs) / acts if acts else 0.0
            )
        return m

    def traced_total_s(self) -> float:
        return sum(self.self_s.values())


def expected_counts(reports) -> dict:
    """What the boundary counts must add up to, from the reports alone."""
    exp = {
        "engine.step_calls": sum(r["data_acts"] for r in reports),
        "counters.alerts": sum(r["alerts"] for r in reports),
        "counters.mitigations": sum(r["mitigations"] for r in reports),
    }
    for t in TRIGGERS:
        exp["buffers.batches." + t] = sum(r["batch_triggers"][t] for r in reports)
    cached = [r["cache"] for r in reports if r["cache"] is not None]
    accesses = sum(x["hits"] + x["misses"] for x in cached)
    exp["cache.access_calls"] = accesses
    exp["cache.hit_rate"] = sum(x["hits"] for x in cached) / accesses if accesses else 0.0
    for key in ("writebacks", "fills_rejected", "admission_rejects"):
        exp["cache." + key] = sum(x[key] for x in cached)
    return exp


class _Hook:
    def before(self, args):
        return None

    def after(self, counts, args, result, before):
        pass


class _BatchHook(_Hook):
    """Batches returned by insert (one or None) and drain (a list)."""

    def after(self, counts, args, result, before):
        for batch in result if isinstance(result, list) else (result,):
            if batch is not None:
                counts["batches." + batch.trigger] += 1
                counts["batch_items"] += len(batch.items)


class _HitHook(_Hook):
    def after(self, counts, args, result, before):
        if result:
            counts["cache.hits"] += 1


class _DeltaHook(_Hook):
    """Change across the call in named attributes of the called object."""

    def __init__(self, prefix, attrs):
        self.prefix = prefix
        self.attrs = attrs

    def before(self, args):
        return [getattr(args[0], a) for a in self.attrs]

    def after(self, counts, args, result, before):
        for a, old in zip(self.attrs, before):
            counts[self.prefix + a] += getattr(args[0], a) - old


class _ReplayHook(_Hook):
    def after(self, counts, args, result, before):
        counts["oracle.batches_replayed"] += len(args[1])


_ALERTS = _DeltaHook("counters.", ("alerts", "mitigations"))
_HOOKS = {
    "buffers.insert": _BatchHook(),
    "buffers.drain": _BatchHook(),
    "cache.access": _HitHook(),
    "cache.fill": _DeltaHook(
        "cache.", ("writebacks", "fills_rejected", "admission_rejects")
    ),
    "counters.rmw": _ALERTS,
    "counters.writeback": _ALERTS,
    "counters.external_alert": _ALERTS,
    "counters.proactive": _ALERTS,
    "oracle.verify": _ReplayHook(),
}
