"""The benchmark's tracer wraps program attributes looked up by name.

``bench/tracer.py`` replaces each ``owner.__dict__[attr]`` in its span
table; a refactor that moves or renames one would break the traced
benchmark run, so every one of them must exist where the table says.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode cache under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_attribute_exists():
    tracer = _load_tracer()
    missing = [
        (getattr(owner, "__name__", repr(owner)), attr)
        for owner, attr, _ in tracer._SPANS
        if attr not in owner.__dict__
    ]
    assert missing == []
