"""The benchmark's three workloads: their inputs, program calls and checks.

A workload is built in three steps.  ``resolve()`` imports nothing new
and resolves the run configurations; it is what the set-up probe times.
``make_inputs()`` is the benchmark's own input-making (trace files,
recounts) and is never timed.  ``round()`` makes every program call of
one round through a ``Round`` recorder, which times the calls alone, and
then runs the checks.
"""

import os
import random
import struct
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np
from pracsim import cli, config, engine, oracle, trace

import checks
import hostspeed

DESIGNS = ("chronus", "perrow", "unified_fcfs", "unified_sorted", "unified_approxmax")
FEATURED = "unified_approxmax"
CACHE_KINDS = ("none", "lru4way", "tinylfu")
FEATURED_CACHE = "tinylfu"
CPC = checks.CPC


class CallFailed(Exception):
    """A program call raised; the rest of the round cannot run."""


@dataclass
class Round:
    """Timings, operation counts and reports of one round.

    Host times here are raw.  ``meter`` calibrates the host's speed right
    before and after each call, and ``speed_factor(kind)`` is
    the slowdown it saw around the round's sim or verify calls, or around
    all of them, by which their times are divided (see hostspeed.py).
    ``last_s`` keeps each kind's latest call time, which sizes the
    calibration before the next call of that kind.
    """

    meter: hostspeed.Meter
    last_s: Dict[str, float]
    wall_s: float = 0.0
    sim_s: float = 0.0
    sim_acts: int = 0
    verify_s: float = 0.0
    verify_acts: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    reports: List[dict] = field(default_factory=list)
    counter_acts_per_kact: float = 0.0
    energy_overhead_pct: float = 0.0
    on_call: Optional[Callable[[bool], None]] = None
    calibration: Dict[str, list] = field(default_factory=dict)

    def speed_factor(self, kind: Optional[str] = None) -> float:
        tallies = [self.calibration[kind]] if kind else self.calibration.values()
        chunks = sum(t[0] for t in tallies)
        seconds = sum(t[1] for t in tallies)
        return hostspeed.factor(chunks, seconds) if chunks else 1.0

    def _calibrate(self, kind, call_s):
        n, seconds = self.meter.calibrate(call_s * hostspeed.SHARE / 2)
        tally = self.calibration.setdefault(kind, [0, 0.0])
        tally[0] += n
        tally[1] += seconds

    def _call(self, kind, fn, args):
        self.attempted += 1
        if kind in self.last_s:
            self._calibrate(kind, self.last_s[kind])
        if self.on_call is not None:
            self.on_call(True)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            self.failures.append(f"{getattr(fn, '__qualname__', fn)}: {exc!r}")
            raise CallFailed from exc
        finally:
            dt = time.perf_counter() - t0
            if self.on_call is not None:
                self.on_call(False)
        self.wall_s += dt
        self._calibrate(kind, dt)
        self.last_s[kind] = dt
        return out, dt

    def sim(self, acts: int, fn, *args):
        """Time one simulate call covering ``acts`` data activations."""
        out, dt = self._call("sim", fn, args)
        self.sim_s += dt
        self.sim_acts += acts
        return out

    def verify(self, acts: int, fn, *args):
        """Time one verify call replaying ``acts`` activations."""
        out, dt = self._call("verify", fn, args)
        self.verify_s += dt
        self.verify_acts += acts
        return out

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.failures.append(f"{name}: {exc}")

    def run_checks(self, checklist) -> None:
        for name, fn, args in checklist:
            self.check(name, fn, *args)


def report_dict(rep) -> dict:
    """The fields of a SimReport the checks read, in the JSON report's shape."""
    return {
        "policy": rep.policy,
        "data_acts": rep.data_acts,
        "counter_acts": rep.counter_acts,
        "rmw_bytes": rep.rmw_bytes,
        "alerts": rep.alerts,
        "mitigations": rep.mitigations,
        "batch_triggers": dict(rep.batch_triggers),
        "energy": dict(rep.energy),
        "cache": dict(rep.cache) if rep.cache is not None else None,
        "skew_mean": rep.skew_mean,
        "footprint": {int(k): v for k, v in rep.footprint.items()},
        "cache_kind": rep.config["cache.kind"],
    }


def sim_stats(reports: List[dict]) -> dict:
    """Simulated statistics that must repeat exactly, summed per policy."""
    out: Dict[str, list] = {}
    for r in reports:
        key = r["policy"] + "+" + r["cache_kind"]
        hits = r["cache"]["hits"] if r["cache"] is not None else 0
        row = [r["counter_acts"], r["alerts"], r["mitigations"], hits] + [
            r["batch_triggers"][t] for t in sorted(r["batch_triggers"])
        ]
        prev = out.get(key)
        out[key] = row if prev is None else [a + b for a, b in zip(prev, row)]
    return out


def _simulate(cfg, collect_log=False):
    eng = engine.Engine(cfg, collect_log=collect_log)
    return eng, eng.run()


def _generate_and_verify(cfg, batches, reported, final_values=None):
    """What ``pracsim verify`` does for a generated trace, in process."""
    events = trace.generate(cfg.trace_spec, cfg.geometry)
    return oracle.verify(
        events,
        batches,
        cfg.geometry,
        m_batch=cfg.buffer.m_batch,
        staleness_bound=cfg.buffer.k_limit,
        reported_counter_acts=reported,
        final_values=final_values,
    )


def _counts(events) -> Counter:
    return Counter((ev.bank, ev.data_row) for ev in events)


class DesignSweep:
    """All five designs on one zipf(1.0) trace over all 64 banks.

    ``engine.compare`` is the headline comparison; a logged re-run of the
    featured design is then replayed by the verifier, which is the only
    log this workload makes and it stays in memory.
    """

    name = "design_sweep"

    def __init__(self, seed: int, workdir: str = ".", length: int = 20000):
        self.seed = seed
        self.length = length

    def resolve(self) -> None:
        self.cfg = config.resolve(
            overrides={
                "trace.generator": "zipf",
                "trace.zipf_exponent": "1.0",
                "trace.banks": "64",
                "trace.length": str(self.length),
                "buffer.design": FEATURED,
                "seed": str(self.seed),
            }
        )

    def make_inputs(self) -> None:
        events = trace.generate(self.cfg.trace_spec, self.cfg.geometry)
        self.shape = checks.recount_shape(_counts(events))

    def round(self, rec: Round) -> None:
        cfg, n = self.cfg, self.length
        reports = rec.sim(len(DESIGNS) * n, engine.compare, cfg, list(DESIGNS))
        eng, logged = rec.sim(n, _simulate, cfg, True)
        verdict = rec.verify(
            n, _generate_and_verify, cfg, eng.batch_log, logged.counter_acts
        )
        out = {
            "reports": [report_dict(r) for r in reports],
            "logged": report_dict(logged),
            "verdict": str(verdict),
        }
        rec.reports = out["reports"] + [out["logged"]]
        featured = next(r for r in out["reports"] if r["policy"] == FEATURED)
        rec.counter_acts_per_kact = 1000 * featured["counter_acts"] / featured["data_acts"]
        rec.energy_overhead_pct = 100 * featured["energy"]["overhead"]
        rec.run_checks(self.checklist(out))

    def checklist(self, out):
        reports = out["reports"]
        m = self.cfg.buffer.m_batch
        yield "chronus_baseline", checks.chronus_baseline, (reports, self.length)
        yield "buffered_below_baseline", checks.buffered_below_baseline, (reports,)
        for r in reports + [out["logged"]]:
            yield "triggers_sum", checks.triggers_sum, (r,)
            yield "rmw_exact", checks.rmw_exact, (r,)
            yield "rmw_bound", checks.rmw_bound, (r, m)
            yield "energy_terms", checks.energy_terms, (r,)
            yield "workload_shape", checks.workload_shape, (r, self.shape)
        featured = next(r for r in reports if r["policy"] == FEATURED)
        yield "same_run", checks.same_run, (out["logged"], featured)
        yield "verdict_pass", checks.verdict_pass, (out["verdict"],)


class HotCache:
    """Hot rows in one bank under no cache, 4-way LRU and TinyLFU.

    Each hotset trace puts 90% of its traffic on 48 rows.  Which cache
    sets those rows fall into is a property of the trace's seed and moves
    one trace's hit rate by several percent, so a round runs ``traces``
    traces made from sub-seeds of the run's seed and reports their mean.
    """

    name = "hot_cache"

    def __init__(self, seed: int, workdir: str = ".", traces: int = 64, length: int = 2000):
        self.seed = seed
        self.traces = traces
        self.length = length

    def resolve(self) -> None:
        rng = random.Random(self.seed)
        self.cfgs = []
        for _ in range(self.traces):
            sub = rng.randrange(1 << 31)
            base = config.resolve(
                overrides={
                    "trace.generator": "hotset",
                    "trace.hot_rows": "48",
                    "trace.hot_fraction": "0.9",
                    "trace.length": str(self.length),
                    "buffer.design": FEATURED,
                    "mitigation.enabled": "false",
                    "seed": str(sub),
                }
            )
            self.cfgs.append(
                {kind: base.with_overrides({"cache.kind": kind}) for kind in CACHE_KINDS}
            )

    def make_inputs(self) -> None:
        self.counts = [
            _counts(trace.generate(c["none"].trace_spec, c["none"].geometry))
            for c in self.cfgs
        ]

    def round(self, rec: Round) -> None:
        n = self.length
        overheads = []
        featured_acts = 0
        for cfgs, counts in zip(self.cfgs, self.counts):
            out = {}
            for kind in CACHE_KINDS:
                eng, rep = rec.sim(n, _simulate, cfgs[kind], kind == "none")
                out[kind] = _hot_output(eng, rep, counts)
                if kind == "none":
                    verdict = rec.verify(
                        n,
                        _generate_and_verify,
                        cfgs[kind],
                        eng.batch_log,
                        rep.counter_acts,
                        eng.store.values,
                    )
                    out["verdict"] = str(verdict)
            rec.reports.extend(out[kind]["report"] for kind in CACHE_KINDS)
            featured = out[FEATURED_CACHE]["report"]
            featured_acts += featured["counter_acts"]
            overheads.append(featured["energy"]["overhead"])
            rec.run_checks(self.checklist(out, counts))
        rec.counter_acts_per_kact = 1000 * featured_acts / (n * self.traces)
        rec.energy_overhead_pct = 100 * sum(overheads) / len(overheads)

    def checklist(self, out, counts):
        uncached = out["none"]["report"]
        yield "rmw_exact", checks.rmw_exact, (uncached,)
        yield "verdict_pass", checks.verdict_pass, (out["verdict"],)
        for kind in CACHE_KINDS:
            o = out[kind]
            yield "triggers_sum", checks.triggers_sum, (o["report"],)
            yield "energy_terms", checks.energy_terms, (o["report"],)
            yield "live_counters", checks.live_counters, (
                o["stored"], o["dirty"], o["stray"], counts
            )
            if kind != "none":
                yield "cache_accounting", checks.cache_accounting, (o["report"],)
                yield "cache_saves", checks.cache_saves, (o["report"], uncached)


def _hot_output(eng, rep, counts) -> dict:
    """A run's report, its stored and dirty cached counters, and strays.

    ``stored`` holds the stored value of every counter the trace touched
    and ``stray`` the number of nonzero stored counters it did not touch.
    The engine makes a bank's cache on that bank's first activation, so
    the banks the trace touches hold every cache there is.
    """
    values = eng.store.values
    keys = sorted({(b, row // CPC, row % CPC) for b, row in counts})
    got = values[tuple(np.array(keys).T)].tolist()
    stored = dict(zip(keys, got))
    stray = int(np.count_nonzero(values)) - sum(1 for v in got if v)
    dirty = {}
    if rep.cache is not None:
        for bank in sorted({b for b, _ in counts}):
            for row_id, byte_id, value in eng.cache(bank).dirty_lines():
                dirty[(bank, row_id, byte_id)] = value
    return {"report": report_dict(rep), "stored": stored, "dirty": dirty, "stray": stray}


_RECORD = struct.Struct("<HI")


class AuditReplay:
    """The README's audit trail, in process through ``pracsim.cli.main``.

    ``run`` reads a binary trace the benchmark writes and writes the
    service log, state dump and report; ``verify`` replays the log and
    cross-checks the report and the final state.
    """

    name = "audit_replay"
    BANKS = 8
    HAMMERED = 4
    HAMMER_SHARE = 0.05

    def __init__(self, seed: int, workdir: str = ".", length: int = 40000):
        self.seed = seed
        self.length = length
        names = ("trace.bin", "batches.csv", "state.csv", "report.json", "verdict.txt")
        self.p = {n.split(".")[0]: os.path.join(workdir, n) for n in names}

    def resolve(self) -> None:
        # The CLI resolves its own configuration inside each call; resolving
        # the same one here makes the set-up probe pay for it once, as a
        # user's first ``pracsim run`` does.
        mit = "mitigation.enabled=false"
        self.run_argv = [
            "run", "--trace", self.p["trace"], "--log", self.p["batches"],
            "--dump-state", self.p["state"], "--out", self.p["report"], "--set", mit,
        ]  # fmt: skip
        self.verify_argv = [
            "verify", "--trace", self.p["trace"], "--log", self.p["batches"],
            "--report", self.p["report"], "--state", self.p["state"],
            "--out", self.p["verdict"], "--set", mit,
        ]  # fmt: skip
        self.cfg = config.resolve(
            overrides={"trace.path": self.p["trace"], "mitigation.enabled": "false"}
        )

    def make_inputs(self) -> None:
        """Sequential sweeps in several banks, interleaved with hammered rows.

        Each record is, with probability HAMMER_SHARE, one of HAMMERED
        (bank, row) pairs, and otherwise the next row of the sweep in a
        bank drawn from BANKS distinct banks, each sweep starting at a
        random row and wrapping at the end of the bank.
        """
        rng = random.Random(self.seed)
        rows = 65536
        banks = rng.sample(range(64), self.BANKS)
        cursor = {b: rng.randrange(rows) for b in banks}
        hammered = [(rng.choice(banks), rng.randrange(rows)) for _ in range(self.HAMMERED)]
        records = []
        for _ in range(self.length):
            if rng.random() < self.HAMMER_SHARE:
                records.append(hammered[rng.randrange(self.HAMMERED)])
            else:
                b = banks[rng.randrange(self.BANKS)]
                records.append((b, cursor[b]))
                cursor[b] = (cursor[b] + 1) % rows
        with open(self.p["trace"], "wb") as f:
            f.write(b"".join(_RECORD.pack(b, r) for b, r in records))
        self.counts = Counter(records)

    def round(self, rec: Round) -> None:
        n = self.length
        out = {"run_exit": rec.sim(n, cli.main, self.run_argv)}
        out["verify_exit"] = rec.verify(n, cli.main, self.verify_argv)
        texts = {}
        for key in ("batches", "state", "report", "verdict"):
            with open(self.p[key], encoding="utf-8") as f:
                texts[key] = f.read()
        out.update(texts)
        out["report_dict"] = _json_report(texts["report"])
        rec.reports = [out["report_dict"]]
        r = out["report_dict"]
        rec.counter_acts_per_kact = 1000 * r["counter_acts"] / r["data_acts"]
        rec.energy_overhead_pct = 100 * r["energy"]["overhead"]
        rec.run_checks(self.checklist(out))

    def checklist(self, out):
        r = out["report_dict"]
        yield "exit_code", checks.exit_code, (out["run_exit"],)
        yield "exit_code", checks.exit_code, (out["verify_exit"],)
        yield "verdict_pass", checks.verdict_pass, (out["verdict"],)
        yield "state_dump", checks.state_dump, (out["state"], self.counts)
        yield "data_acts", checks.data_acts, (r, self.length)
        yield "log_batches", checks.log_batches, (out["batches"], r)
        yield "triggers_sum", checks.triggers_sum, (r,)
        yield "rmw_exact", checks.rmw_exact, (r,)
        yield "energy_terms", checks.energy_terms, (r,)


def _json_report(text: str) -> dict:
    import json

    d = json.loads(text)
    keys = (
        "policy", "data_acts", "counter_acts", "rmw_bytes", "alerts",
        "mitigations", "batch_triggers", "energy", "cache", "skew_mean",
    )  # fmt: skip
    out = {k: d[k] for k in keys}
    out["footprint"] = {int(k): v for k, v in d["footprint"].items()}
    out["cache_kind"] = d["config"]["cache.kind"]
    return out


WORKLOADS = {w.name: w for w in (DesignSweep, HotCache, AuditReplay)}
