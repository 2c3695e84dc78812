"""Command-line front end.

Subcommands: ``gen`` writes a synthetic trace, ``run`` simulates one
policy, ``compare`` runs several policies over the identical trace,
``analyze`` reports workload-shape metrics without simulating, and
``verify`` replays a service log against its trace.

Exit codes: 0 success, 1 usage or configuration error, 2 verification
failure, 3 runtime error (bad trace data, unreadable log, report or
state dump).
"""

import argparse
import io
import json
import sys
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from . import config as config_mod
from . import engine, metrics, oracle, trace
from .buffers import DESIGNS, K_TRIGGER_MODES
from .cache import CACHE_KINDS
from .counters import COUNTER_MAX, CounterArray
from .errors import ConfigError, SimError, line_of

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# argparse dest -> config key, shared by every subcommand that takes them.
_FLAG_KEYS = {
    "generator": "trace.generator",
    "length": "trace.length",
    "bank": "trace.bank",
    "banks": "trace.banks",
    "rows": "trace.rows",
    "start_row": "trace.start_row",
    "zipf_exponent": "trace.zipf_exponent",
    "hot_rows": "trace.hot_rows",
    "hot_fraction": "trace.hot_fraction",
    "hammer_row": "trace.hammer_row",
    "hammer_gap": "trace.hammer_gap",
    "trace": "trace.path",
    "trace_format": "trace.format",
    "policy": "buffer.design",
    "capacity": "buffer.capacity",
    "m_batch": "buffer.m_batch",
    "k_limit": "buffer.k_limit",
    "k_trigger": "buffer.k_trigger",
    "cache": "cache.kind",
    "cache_entries": "cache.entries",
    "n_bo": "mitigation.n_bo",
    "proactive_interval": "mitigation.proactive_interval",
    "window": "metrics.window",
    "window_mode": "metrics.window_mode",
    "seed": "seed",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="config file of key = value lines")
    p.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="sets",
        help="override any config key (repeatable)",
    )
    p.add_argument(
        "--dump-config",
        action="store_true",
        help="print the resolved configuration and exit",
    )
    p.add_argument(
        "--machine",
        action="store_true",
        help="emit errors as JSON on stderr",
    )
    p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")
    p.add_argument("--seed", type=int, help="seed for synthetic traces")


def _add_trace_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="FILE", help="trace file to read")
    p.add_argument(
        "--trace-format",
        choices=("auto", "text", "binary"),
        help="trace file format (auto infers binary from a .bin suffix)",
    )
    _add_gen_flags(p)


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--generator", choices=trace.GENERATORS, help="synthetic workload")
    p.add_argument("--length", type=int, help="number of activations to generate")
    p.add_argument("--bank", type=int, help="fixed bank for single-bank generators")
    p.add_argument("--banks", type=int, help="bank spread for randomized generators")
    p.add_argument("--rows", type=int, help="row population (0 means every row)")
    p.add_argument("--start-row", type=int, help="first row for the sequential sweep")
    p.add_argument("--zipf-exponent", type=float, help="skew of the zipf generator")
    p.add_argument("--hot-rows", type=int, help="hot-set size")
    p.add_argument("--hot-fraction", type=float, help="share of traffic in the hot set")
    p.add_argument("--hammer-row", type=int, help="target row of the hammer generator")
    p.add_argument("--hammer-gap", type=int, help="fillers between hammer hits")


def _add_design_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--capacity", type=int, help="shared buffer entries")
    p.add_argument("--m-batch", type=int, help="per-row batch size M")
    p.add_argument("--k-limit", type=int, help="staleness limit K")
    p.add_argument("--k-trigger", choices=K_TRIGGER_MODES)
    p.add_argument("--cache", choices=CACHE_KINDS)
    p.add_argument("--cache-entries", type=int)
    p.add_argument("--n-bo", help="back-off threshold, or 'auto'")
    p.add_argument("--proactive-interval", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="pracsim", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_gen = sub.add_parser("gen", help="write a synthetic activation trace")
    _add_common(p_gen)
    _add_gen_flags(p_gen)
    p_gen.add_argument(
        "--trace-format",
        choices=("auto", "text", "binary"),
        help="output format (auto infers binary from a .bin suffix)",
    )

    p_run = sub.add_parser("run", help="simulate one buffer design")
    _add_common(p_run)
    _add_trace_source(p_run)
    p_run.add_argument("--policy", choices=DESIGNS, help="buffer design to simulate")
    _add_design_flags(p_run)
    p_run.add_argument("--log", metavar="FILE", help="write the service-batch log CSV")
    p_run.add_argument(
        "--dump-state", metavar="FILE", help="write final nonzero counters as CSV"
    )

    p_cmp = sub.add_parser("compare", help="run several designs on one trace")
    _add_common(p_cmp)
    _add_trace_source(p_cmp)
    p_cmp.add_argument(
        "--policies",
        default=",".join(DESIGNS),
        help="comma-separated designs to compare",
    )
    _add_design_flags(p_cmp)
    p_cmp.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="table format"
    )

    p_ana = sub.add_parser("analyze", help="workload-shape metrics for a trace")
    _add_common(p_ana)
    _add_trace_source(p_ana)
    p_ana.add_argument("--window", type=int, help="locality window size")
    p_ana.add_argument("--window-mode", choices=metrics.WINDOW_MODES)

    p_ver = sub.add_parser("verify", help="replay a service log against its trace")
    _add_common(p_ver)
    _add_trace_source(p_ver)
    p_ver.add_argument("--log", metavar="FILE", required=True, help="service log CSV")
    p_ver.add_argument("--m-batch", type=int, help="per-row batch size M")
    p_ver.add_argument("--k-limit", type=int, help="staleness bound K")
    p_ver.add_argument("--k-trigger", choices=K_TRIGGER_MODES)
    p_ver.add_argument(
        "--report", metavar="FILE", help="run report JSON to cross-check totals"
    )
    p_ver.add_argument(
        "--state", metavar="FILE", help="final counter dump CSV to cross-check"
    )
    return parser


@lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser ``main`` parses with, built on its first call rather
    than at import, so importing this module costs no parser.  Parsing
    leaves it unchanged: each call gets a fresh namespace, and ``--set``
    copies its default list before appending."""
    return build_parser()


def _overrides_from_args(args: argparse.Namespace) -> Dict[str, str]:
    overrides: Dict[str, str] = {}
    for dest, key in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[key] = config_mod.format_value(value)
    for item in args.sets:
        key, sep, value = item.partition("=")
        if not sep:
            raise _UsageError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    return overrides


def _resolve(args: argparse.Namespace) -> config_mod.SimConfig:
    file_values = config_mod.parse_file(args.config) if args.config else None
    return config_mod.resolve(file_values, _overrides_from_args(args))


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    cfg = _resolve(args)
    if cfg.trace_spec is None:
        raise ConfigError("gen needs generator settings, not trace.path")
    events = trace.generate(cfg.trace_spec, cfg.geometry)
    if args.out:
        trace.save(events, args.out, cfg.trace_format)
    else:
        trace.write_text(events, sys.stdout)
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _resolve(args)
    eng = engine.Engine(cfg, collect_log=args.log is not None)
    report = eng.run()
    if args.log:
        with open(args.log, "w", encoding="utf-8") as f:
            oracle.write_log(eng.batch_log, f)
    if args.dump_state:
        with open(args.dump_state, "w", encoding="utf-8") as f:
            eng.store.dump(f)
    _write_out(report.to_json() + "\n", args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _resolve(args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    reports = engine.compare(cfg, policies)
    if args.format == "json":
        text = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    else:
        text = metrics.compare_csv(reports)
    _write_out(text, args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    cfg = _resolve(args)
    events = engine.load_trace(cfg)
    if not events:
        raise ConfigError("cannot analyze an empty trace")
    shape = engine.workload_shape(events, cfg)
    skew_by_bank = shape["skew_by_bank"]
    out = {
        "events": len(events),
        "banks_touched": len(skew_by_bank),
        "skew_by_bank": {str(b): s for b, s in skew_by_bank.items()},
        "skew_mean": shape["skew_mean"],
        "skew_max": max(skew_by_bank.values()),
        "window": cfg.window,
        "window_mode": cfg.window_mode,
        "window_locality": shape["window_locality"],
        "footprint": {str(p): k for p, k in sorted(shape["footprint"].items())},
    }
    _write_out(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _open_text(path: str, what: str) -> io.StringIO:
    """A file's UTF-8 text, line breaks read as in text mode; a byte that
    is not UTF-8 raises SimError naming ``what``, the file and the line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        where = f"{what} {path} line {line_of(data, exc.start)}"
        raise SimError(f"{where}: non-UTF-8 byte 0x{data[exc.start]:02x}") from None


def _read_report(path: str) -> Tuple[int, str, bool]:
    """A run report's counter_acts and its config's cache.kind ("none" if
    unset) and mitigation.enabled (False if unset); a report that is not an
    object with an integer counter_acts, a config object, a string
    cache.kind and a bool by the config's own rule is a located SimError."""
    try:
        report = json.load(_open_text(path, "report"))
    except json.JSONDecodeError as exc:
        raise SimError(f"report {path} line {exc.lineno}: {exc.msg}") from None
    except ValueError:
        # JSONDecodeError is a ValueError too; what is left is an integer
        # longer than ``int`` reads.
        limit = sys.get_int_max_str_digits()
        raise SimError(f"report {path}: an integer has more than {limit} digits") from None
    except RecursionError:
        raise SimError(f"report {path}: nested too deeply to read") from None
    if not isinstance(report, dict) or type(report.get("counter_acts")) is not int:
        raise SimError(f"report {path}: no integer counter_acts")
    config = report.get("config", {})
    if not isinstance(config, dict) or not isinstance(config.get("cache.kind", ""), str):
        raise SimError(f"report {path}: config is not an object with a string cache.kind")
    enabled = config_mod.format_value(config.get("mitigation.enabled", False))
    try:
        mitigated = config_mod._coerce("mitigation.enabled", enabled)
    except ConfigError:
        raise SimError(f"report {path}: mitigation.enabled is not a bool") from None
    return report["counter_acts"], config.get("cache.kind", "none"), mitigated


def _read_state(path: str) -> Tuple[np.ndarray, ...]:
    """A final counter dump CSV as columns (banks, row_ids, byte_ids, values),
    split as ``oracle.split_decimal_csv`` splits it, with ``bank,`` as the
    header; the first malformed line raises SimError naming it."""
    text = _open_text(path, "state dump").read()
    values, _, counts, _, lines, bad = oracle.split_decimal_csv(text, "bank,")
    j = np.flatnonzero(counts[:bad] != 4).min(initial=bad)
    if j < lines.size:
        problem = "expected 4 fields" if counts[j] != 4 else "non-integer field"
        raise SimError(f"state dump {path} line {lines[j]}: {problem}")
    return tuple(values.reshape(-1, 4).T)


def _state_values(path: str, geometry) -> np.ndarray:
    """A final counter dump CSV as the store's ``values`` array, a counter
    listed twice keeping its last value; a counter outside the geometry,
    or a value outside [0, 255], raises SimError naming the counter."""
    g = geometry
    shape = (g.banks, g.counter_rows_per_bank, g.counters_per_counter_row)
    *counter, values = _read_state(path)
    outside = np.zeros(values.size, dtype=bool)
    for column, limit in zip(counter, shape):
        outside |= (column < 0) | (column >= limit)
    bad = np.flatnonzero(outside | (values < 0) | (values > COUNTER_MAX))
    if bad.size:
        i = bad[0]
        problem = f"is outside the geometry's {shape} counters"
        if not outside[i]:
            problem = f"holds {values[i]}, outside [0, {COUNTER_MAX}]"
        where = tuple(int(column[i]) for column in counter)
        raise SimError(f"state dump {path}: counter {where} {problem}")
    keys = np.ravel_multi_index(counter, shape)
    # ``CounterArray.dump`` lists each counter once, in key order; any
    # other dump is put in that order first.
    if not (keys[1:] > keys[:-1]).all():
        # The first of each counter in reverse order is the last listed.
        keys, last = np.unique(keys[::-1], return_index=True)
        values = values[::-1][last]
    state = CounterArray(geometry, refresh=False).values
    state.reshape(-1)[keys] = values
    return state


def _cmd_verify(args) -> int:
    cfg = _resolve(args)
    reported, cache_kind, mitigated = (
        _read_report(args.report) if args.report else (None, "none", False)
    )
    if {cfg.cache.kind, cache_kind} != {"none"}:
        raise ConfigError(
            "cannot verify a run with a counter cache: cache hits are not in "
            "the service log, so replay would see stored counters lag"
        )
    events = engine.load_trace(cfg)
    batches = oracle.read_log(_open_text(args.log, "service log"))
    final_values = _state_values(args.state, cfg.geometry) if args.state else None
    if final_values is not None and (mitigated or cfg.n_bo is not None):
        raise ConfigError(
            "cannot check the final state of a run with mitigation enabled: "
            "mitigations reset counters the service log does not record"
        )
    verdict = oracle.verify(
        events,
        batches,
        cfg.geometry,
        m_batch=cfg.buffer.m_batch,
        staleness_bound=cfg.buffer.pending_limit,
        reported_counter_acts=reported,
        final_values=final_values,
    )
    _write_out(str(verdict) + "\n", args.out)
    return EXIT_OK if verdict.ok else EXIT_VERIFY


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    machine = False
    try:
        args = _parser().parse_args(argv)
        machine = getattr(args, "machine", False)
        if args.command is None:
            raise _UsageError("a command is required (gen, run, compare, analyze, verify)")
        if args.dump_config:
            cfg = _resolve(args)
            _write_out(config_mod.dump(cfg.flat), args.out)
            return EXIT_OK
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _report_error("usage", str(exc), machine)
        return EXIT_USAGE
    except ConfigError as exc:
        _report_error(exc.code, str(exc), machine)
        return EXIT_USAGE
    except SimError as exc:
        _report_error(exc.code, str(exc), machine)
        return EXIT_RUNTIME
    except OSError as exc:
        _report_error("io", str(exc), machine)
        return EXIT_RUNTIME


def _report_error(code: str, message: str, machine: bool) -> None:
    if machine:
        sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")
    else:
        sys.stderr.write(f"error: {message}\n")


if __name__ == "__main__":
    sys.exit(main())
