#!/usr/bin/env python3
"""Run one benchmark workload against the simulator in ../src.

    python3 bench/run.py --workload design_sweep --seed 1 --seconds 15 --trace 0

Set-up time is measured first, as the median over fresh interpreters that
import pracsim and resolve the workload's configurations.  The workload's
inputs are then made, one warm-up round runs, and whole rounds repeat
until ``--seconds`` have passed.  Host times are medians over the rounds
after the warm-up, scaled by the host's measured speed (hostspeed.py).
Every round checks the program's outputs.

With ``--trace 1`` the layers' public functions are wrapped from outside
(see tracer.py) on every other round, and the per-layer metrics of the
traced rounds are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a readable summary goes to
standard error.  Everything runs in this one process on one thread,
apart from the short-lived set-up probes, each waited for in turn.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Keep numpy's BLAS to one thread here and in the probes.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD)

import hostspeed  # noqa: E402  (no pracsim import; safe before the probes)

WORKLOAD_NAMES = ("design_sweep", "hot_cache", "audit_replay")
SETUP_PROBES = 9
PROBE_CALIBRATION_S = 0.1  # reference-loop time around each set-up probe
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2

PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4])).resolve(); "
    "print('ready', flush=True)"
)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kacts_per_s": "kact/s",
    "verify_kacts_per_s": "kact/s",
    "peak_rss_mb": "MB",
    "counter_acts_per_kact": "count/kact",
    "energy_overhead_pct": "%",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("buffers.counter_acts_per_kact."):
        return "count/kact"
    if name == "cache.hit_rate":
        return "ratio"
    if name == "buffers.items_per_batch":
        return "items/batch"
    return "count"


def measure_setup(workload: str, seed: int):
    """Median time from spawning an interpreter to its configs being resolved.

    One untimed probe runs first so that compiled bytecode is in place,
    as it is for any user after the first run.  Each probe is bracketed by
    calibration; returns the median scaled and raw probe times.
    """
    times = []
    raw = []
    cmd = [sys.executable, "-c", PROBE, SRC, HERE, workload, str(seed)]
    meter = hostspeed.Meter()
    bracket = PROBE_CALIBRATION_S / 2
    for i in range(SETUP_PROBES + 1):
        n1, s1 = meter.calibrate(bracket)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"set-up probe failed:\n{err.strip()[-2000:]}")
        n2, s2 = meter.calibrate(bracket)
        if i:
            raw.append(t1 - t0)
            times.append((t1 - t0) / hostspeed.factor(n1 + n2, s1 + s2))
    return statistics.median(times), statistics.median(raw)


def import_workloads():
    sys.path[:0] = [SRC, HERE]
    try:
        import pracsim
    except ImportError as exc:
        sys.exit(f"cannot import pracsim from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(pracsim.__file__)) != os.path.join(SRC, "pracsim"):
        sys.exit(f"pracsim imported from {pracsim.__file__}, not from {SRC}")
    import checks
    import tracer
    import workloads

    return checks, tracer, workloads


def run_rounds(w, seconds, traced, checks, tracer_mod, workloads):
    """Warm-up round, then whole rounds until ``seconds`` have passed.

    Returns the rounds as (kind, Round, layer metrics or None), where kind
    is "warmup", "plain" or "traced"; the first round's simulated
    statistics; and whether a program call raised, which ends the run.
    """
    tr = tracer_mod.Tracer() if traced else None
    meter = hostspeed.Meter()
    last_s = {}
    rounds = []
    first_stats = None
    deadline = None
    i = 0
    while True:
        if i == 0:
            kind = "warmup"
        elif traced and i % 2 == 1:
            kind = "traced"
        else:
            kind = "plain"
        rec = workloads.Round(meter=meter, last_s=last_s)
        if kind == "traced":
            tr.reset()
            tr.install()
            rec.on_call = tr.set_enabled
        try:
            w.round(rec)
            aborted = False
        except workloads.CallFailed:
            aborted = True
        finally:
            if kind == "traced":
                tr.uninstall()
        layer = None
        if not aborted:
            stats = workloads.sim_stats(rec.reports)
            if first_stats is None:
                first_stats = stats
            else:
                rec.check("same_as_first_round", checks.same_as_first_round, stats, first_stats)
            if kind == "traced":
                layer = tr.metrics(rec.reports)
                rec.check(
                    "traced_counts",
                    checks.traced_counts,
                    layer,
                    tracer_mod.expected_counts(rec.reports),
                )
                layer["tracing.wall_s"] = rec.wall_s
                layer["tracing.unattributed_s"] = rec.wall_s - tr.traced_total_s()
        rec.reports = []  # keep memory independent of the number of rounds
        rounds.append((kind, rec, layer))
        if aborted:
            return rounds, first_stats, True
        if deadline is None:
            deadline = time.perf_counter() + seconds
        i += 1
        n_plain = sum(1 for k, _, _ in rounds if k == "plain")
        n_traced = sum(1 for k, _, _ in rounds if k == "traced")
        enough = (
            n_plain >= MIN_TRACED_ROUNDS and n_traced >= MIN_TRACED_ROUNDS
            if traced
            else n_plain >= MIN_ROUNDS
        )
        if enough and time.perf_counter() >= deadline:
            break
    return rounds, first_stats, False


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(rounds, setup_s, traced):
    """Metrics as printed: medians over rounds, host times scaled by speed."""
    plain = [rec for kind, rec, _ in rounds if kind == "plain"]
    plain_wall = _median([rec.wall_s / rec.speed_factor() for rec in plain])
    if traced:
        layers = []
        for kind, rec, layer in rounds:
            if kind == "traced":
                f = rec.speed_factor()
                layers.append(
                    {k: v / f if layer_unit(k) == "s" else v for k, v in layer.items()}
                )
        metrics = {
            name: _median([layer[name] for layer in layers]) for name in sorted(layers[0])
        }
        metrics["tracing.overhead_s"] = metrics["tracing.wall_s"] - plain_wall
        return {name: (value, layer_unit(name)) for name, value in metrics.items()}
    ref = rounds[0][1]
    values = {
        "setup_s": setup_s,
        "wall_s": plain_wall,
        "sim_kacts_per_s": _median(
            [rec.sim_acts / 1000 / rec.sim_s * rec.speed_factor("sim") for rec in plain]
        ),
        "verify_kacts_per_s": _median(
            [rec.verify_acts / 1000 / rec.verify_s * rec.speed_factor("verify") for rec in plain]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counter_acts_per_kact": ref.counter_acts_per_kact,
        "energy_overhead_pct": ref.energy_overhead_pct,
    }
    return {name: (value, E2E_UNITS[name]) for name, value in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_s, setup_raw_s = measure_setup(args.workload, args.seed)
    checks, tracer_mod, workloads = import_workloads()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        w.resolve()
        w.make_inputs()
        rounds, first_stats, aborted = run_rounds(
            w, args.seconds, bool(args.trace), checks, tracer_mod, workloads
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    failures = [msg for _, rec, _ in rounds for msg in rec.failures]
    attempted = sum(rec.attempted for _, rec, _ in rounds)
    metrics = {} if aborted else summarize(rounds, setup_s, bool(args.trace))

    log = sys.stderr
    kinds = [kind for kind, _, _ in rounds]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} rounds: "
        + ", ".join(f"{kinds.count(k)} {k}" for k in ("warmup", "plain", "traced")),
        file=log,
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}", file=log)
    print(f"  raw set-up {setup_raw_s:.4f} s; raw wall, speed factor by round:", file=log)
    print(
        "  " + " ".join(f"{rec.wall_s:.3f}/{rec.speed_factor():.3f}" for _, rec, _ in rounds),
        file=log,
    )
    print(f"  attempted {attempted}, failed {len(failures)}", file=log)
    for msg in failures[:20]:
        print(f"  FAILED {msg}", file=log)
    print("sim_stats " + json.dumps(first_stats, sort_keys=True), file=log)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
