"""Trace-driven simulator of in-DRAM activation-counter request coalescing.

The package models a DRAM device that keeps one 1-byte activation
counter per data row inside a reserved counter region of each bank.
Counter updates queue in a small request buffer and are serviced in
coalesced batches in the shadow of data activations; several victim
selection designs are provided along with an immediate-service
baseline, an optional counter cache, energy accounting, workload
metrics, and a replay-based verifier for service logs.
"""

from .buffers import DESIGNS
from .config import SimConfig, parse_file, resolve
from .engine import Engine, compare, run
from .errors import (
    ConfigError,
    GeometryError,
    LogFormatError,
    SimError,
    TraceError,
)
from .oracle import read_log, verify, write_log

__version__ = "0.1.0"

# The config -> run/compare -> verify workflow, and the errors it raises.
# Everything else is reached through its module, e.g. pracsim.trace.
__all__ = [
    "ConfigError",
    "DESIGNS",
    "Engine",
    "GeometryError",
    "LogFormatError",
    "SimConfig",
    "SimError",
    "TraceError",
    "compare",
    "parse_file",
    "read_log",
    "resolve",
    "run",
    "verify",
    "write_log",
]
