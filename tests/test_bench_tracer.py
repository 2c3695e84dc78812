"""The benchmark's tracer wraps program attributes looked up by name.

``bench/tracer.py`` replaces each ``owner.__dict__[attr]`` in its span
table; a refactor that moves or renames one would break the traced
benchmark run, so every one of them must exist where the table says.
Its hooks count what crosses those attributes (returned batches, cache
hits, alert tallies), so a refactor that changes a batch's shape or a
hook's arguments must still give the counts the reports give.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from pracsim import buffers, config, engine, oracle

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACER = BENCH / "tracer.py"


def _load_tracer():
    return _load_bench(TRACER)


def _load_bench(path):
    spec = importlib.util.spec_from_file_location("bench_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode cache under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _verify_calls(path):
    """The ``oracle.verify(...)`` calls in a source file, as their
    positional argument count and keyword names."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        func = getattr(node, "func", None)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "verify"
            and getattr(func.value, "id", None) == "oracle"
        ):
            calls.append((len(node.args), [k.arg for k in node.keywords]))
    return calls


@pytest.mark.parametrize(
    "path", [BENCH / "workloads.py", ROOT / "src" / "pracsim" / "cli.py"], ids=lambda p: p.name
)
def test_verify_takes_the_arguments_its_callers_pass(path):
    """The benchmark's in-process replay and ``pracsim verify`` call
    ``oracle.verify`` with these positions and keywords; the tracer
    reads the log as its second argument."""
    calls = _verify_calls(path)
    assert calls
    signature = inspect.signature(oracle.verify)
    assert list(signature.parameters)[1] == "log"
    for positional, keywords in calls:
        signature.bind(*range(positional), **dict.fromkeys(keywords))


def test_every_traced_attribute_exists():
    tracer = _load_tracer()
    missing = [
        (getattr(owner, "__name__", repr(owner)), attr)
        for owner, attr, _ in tracer._SPANS
        if attr not in owner.__dict__
    ]
    assert missing == []


@pytest.mark.parametrize("kind", ["lru4way", "tinylfu"])
def test_traced_counts_match_the_reports(kind):
    """A cached compare with two RFMs per alert, a hammer run whose only
    picks are those RFMs, then a logged run and its replay, all traced:
    the hooks' counts add up to the reports', the admission filter's
    rejected fills among them."""
    bench_tracer, checks = _load_tracer(), _load_bench(BENCH / "checks.py")
    cfg = config.resolve(
        overrides={
            "trace.generator": "hotset",
            "trace.hot_rows": "48",
            "trace.length": "3000",
            "cache.kind": kind,
            "mitigation.rfms_per_alert": "2",
        }
    )
    plain = cfg.with_overrides({"cache.kind": "none"})
    hammer = plain.with_overrides(
        {"trace.generator": "hammer", "mitigation.proactive_interval": "0"}
    )
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        tracer.set_enabled(True)
        reports = engine.compare(cfg, buffers.DESIGNS)
        reports.append(engine.Engine(hammer).run())
        logged = engine.Engine(plain, collect_log=True)
        reports.append(logged.run())
        verdict = oracle.verify(
            logged.load_events(),
            logged.batch_log,
            plain.geometry,
            m_batch=plain.buffer.m_batch,
            staleness_bound=plain.buffer.pending_limit,
            reported_counter_acts=reports[-1].counter_acts,
        )
    finally:
        tracer.uninstall()
    assert verdict.ok, str(verdict)
    dicts = [r.to_dict() for r in reports]
    assert sum(r["alerts"] for r in dicts) > 0
    assert dicts[-2]["mitigations"] > dicts[-2]["alerts"] > 0
    assert any(r["cache"] and r["cache"]["hits"] for r in dicts)
    if kind == "tinylfu":
        assert all(r["cache"]["admission_rejects"] > 0 for r in dicts if r["cache"])
    checks.traced_counts(tracer.metrics(dicts), bench_tracer.expected_counts(dicts))
