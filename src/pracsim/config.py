"""Run configuration: one flat dotted-key namespace with a typed schema.

Config files are ``key = value`` lines; ``#`` starts a comment.  Every
key has a default, so an empty file is a valid run.  The same keys are
what CLI flags and ``--set`` overrides map onto, and the resolved
key/value map is echoed into every report for reproducibility.
"""

import io
from dataclasses import dataclass
from typing import Dict, Optional

from .buffers import BufferConfig
from .cache import CacheConfig
from .counters import COUNTER_MAX, effective_backoff
from .energy import EnergyParams
from .errors import ConfigError, line_of
from .geometry import DramGeometry
from .metrics import WINDOW_MODES
from .trace import GENERATOR_PARAMS, TraceSpec

# key -> (type tag, default). The n_bo default "auto" resolves against
# the buffer design: full threshold for the immediate-service baseline,
# lowered by k_limit for buffered designs.
SCHEMA = {
    "geometry.banks": ("int", 64),
    "geometry.rows_per_bank": ("int", 65536),
    "geometry.counter_rows_per_bank": ("int", 64),
    "geometry.counters_per_counter_row": ("int", 1024),
    "trace.path": ("str", ""),
    "trace.format": ("str", "auto"),
    "trace.generator": ("str", "zipf"),
    "trace.length": ("int", 10000),
    "trace.bank": ("int", 0),
    "trace.banks": ("int", 1),
    "trace.rows": ("int", 0),
    "trace.start_row": ("int", 0),
    "trace.zipf_exponent": ("float", 1.0),
    "trace.zipf_shuffle": ("bool", True),
    "trace.hot_rows": ("int", 64),
    "trace.hot_fraction": ("float", 0.9),
    "trace.hammer_row": ("int", 0),
    "trace.hammer_gap": ("int", 1),
    "buffer.design": ("str", "unified_approxmax"),
    "buffer.capacity": ("int", 64),
    "buffer.m_batch": ("int", 4),
    "buffer.k_limit": ("int", 4),
    "buffer.k_trigger": ("str", "pending"),
    "cache.kind": ("str", "none"),
    "cache.entries": ("int", 64),
    "cache.sketch_width": ("int", 1024),
    "cache.sketch_rows": ("int", 2),
    "cache.halving_period": ("int", 0),
    "mitigation.enabled": ("bool", True),
    "mitigation.n_bo": ("str", "auto"),
    "mitigation.rfms_per_alert": ("int", 1),
    "mitigation.proactive_interval": ("int", 168),
    "energy.e_act": ("float", 1.0),
    "energy.e_col": ("float", 0.5),
    "energy.counter_act_factor": ("float", 0.19),
    "energy.e_extra_rmw": ("float", 0.0625),
    "metrics.enabled": ("bool", True),
    "metrics.window": ("int", 64),
    "metrics.window_mode": ("str", "tumbling"),
    "seed": ("int", 1),
}

_TRUE = ("true", "yes", "on", "1")
_FALSE = ("false", "no", "off", "0")


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _coerce(key: str, raw: str):
    kind, _ = SCHEMA[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {key} (expected {kind})") from None


def parse_file(path: str) -> Dict[str, str]:
    """Read a config file into raw key -> value strings."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = f"{path}:{line_of(data, exc.start)}"
        raise ConfigError(f"{where}: non-UTF-8 byte 0x{data[exc.start]:02x}") from None
    values: Dict[str, str] = {}
    # Line breaks are read as in text mode.
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def dump(flat: Dict[str, str]) -> str:
    """Render a resolved config back into file syntax, keys sorted."""
    return "\n".join(f"{k} = {v}" for k, v in sorted(flat.items())) + "\n"


@dataclass(frozen=True)
class SimConfig:
    """Fully resolved, validated settings for one run."""

    geometry: DramGeometry
    trace_path: Optional[str]
    trace_format: str
    trace_spec: Optional[TraceSpec]
    buffer: BufferConfig
    cache: CacheConfig
    n_bo: Optional[int]
    rfms_per_alert: int
    proactive_interval: int
    energy: EnergyParams
    metrics_enabled: bool
    window: int
    window_mode: str
    seed: int
    flat: Dict[str, str]

    def with_overrides(self, overrides: Dict[str, str]) -> "SimConfig":
        """A new config that differs only in the given raw keys."""
        return resolve(self.flat, overrides)


# TraceSpec parameter -> the config key that sets it.
_TRACE_KEYS = {
    "rows": "trace.rows",
    "banks": "trace.banks",
    "exponent": "trace.zipf_exponent",
    "shuffle": "trace.zipf_shuffle",
    "bank": "trace.bank",
    "start_row": "trace.start_row",
    "hot_rows": "trace.hot_rows",
    "hot_fraction": "trace.hot_fraction",
    "row": "trace.hammer_row",
    "gap": "trace.hammer_gap",
}


def _trace_params(generator: str, v: dict, geometry: DramGeometry) -> dict:
    """The generator's params from the config; none for an unknown one,
    which TraceSpec rejects.  ``trace.rows`` 0 means the whole bank."""
    params = {p: v[_TRACE_KEYS[p]] for p in GENERATOR_PARAMS.get(generator, ())}
    if "rows" in params:
        params["rows"] = params["rows"] or geometry.rows_per_bank
    return params


def resolve(
    file_values: Optional[Dict[str, str]] = None,
    overrides: Optional[Dict[str, str]] = None,
) -> SimConfig:
    """Layer defaults, file values, and overrides, then validate."""
    raw = {key: format_value(default) for key, (_, default) in SCHEMA.items()}
    for layer in (file_values, overrides):
        if not layer:
            continue
        for key, value in layer.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            raw[key] = value.strip() if isinstance(value, str) else format_value(value)
    v = {key: _coerce(key, raw[key]) for key in SCHEMA}

    geometry = DramGeometry(
        banks=v["geometry.banks"],
        rows_per_bank=v["geometry.rows_per_bank"],
        counter_rows_per_bank=v["geometry.counter_rows_per_bank"],
        counters_per_counter_row=v["geometry.counters_per_counter_row"],
    )
    buffer = BufferConfig(
        design=v["buffer.design"],
        capacity=v["buffer.capacity"],
        m_batch=v["buffer.m_batch"],
        k_limit=v["buffer.k_limit"],
        k_trigger=v["buffer.k_trigger"],
    )
    cache = CacheConfig(
        kind=v["cache.kind"],
        entries=v["cache.entries"],
        sketch_width=v["cache.sketch_width"],
        sketch_rows=v["cache.sketch_rows"],
        halving_period=v["cache.halving_period"],
    )
    if cache.kind != "none" and buffer.design == "chronus":
        raise ConfigError(
            "the immediate-service baseline cannot take cache writebacks; "
            "use a buffered design with cache.kind != none"
        )
    # A bank's cache allocates its sets and sketch on first touch.
    counters = geometry.counter_rows_per_bank * geometry.counters_per_counter_row
    if cache.kind != "none" and cache.entries > counters:
        raise ConfigError(
            f"cache.entries {cache.entries} exceeds the {counters} counters of a bank"
        )
    if cache.kind == "tinylfu" and cache.sketch_width * cache.sketch_rows > counters:
        raise ConfigError(
            "cache.sketch_width x cache.sketch_rows "
            f"{cache.sketch_width} x {cache.sketch_rows} exceeds the {counters} "
            "counters of a bank"
        )
    if v["mitigation.enabled"]:
        n_bo_raw = v["mitigation.n_bo"]
        if n_bo_raw == "auto":
            n_bo: Optional[int] = effective_backoff(buffer.design, buffer.k_limit)
        else:
            try:
                n_bo = int(n_bo_raw)
            except ValueError:
                raise ConfigError(
                    f"mitigation.n_bo must be 'auto' or an integer, got {n_bo_raw!r}"
                ) from None
            if not 1 <= n_bo <= COUNTER_MAX:
                raise ConfigError(f"n_bo must be in [1, {COUNTER_MAX}], got {n_bo}")
    else:
        n_bo = None
    if v["mitigation.rfms_per_alert"] < 1:
        raise ConfigError("mitigation.rfms_per_alert must be positive")
    if v["mitigation.proactive_interval"] < 0:
        raise ConfigError("mitigation.proactive_interval must be non-negative")
    # mitigation.enabled is the master switch: alerts and proactive
    # refreshes both stop when it is off.
    proactive = v["mitigation.proactive_interval"] if v["mitigation.enabled"] else 0
    energy = EnergyParams(
        e_act=v["energy.e_act"],
        e_col=v["energy.e_col"],
        counter_act_factor=v["energy.counter_act_factor"],
        e_extra_rmw=v["energy.e_extra_rmw"],
    )
    if v["metrics.window"] < 1:
        raise ConfigError("metrics.window must be positive")
    if v["metrics.window_mode"] not in WINDOW_MODES:
        raise ConfigError(
            f"metrics.window_mode must be one of {WINDOW_MODES}, "
            f"got {v['metrics.window_mode']!r}"
        )
    if v["trace.format"] not in ("auto", "text", "binary"):
        raise ConfigError(
            f"trace.format must be auto, text, or binary, got {v['trace.format']!r}"
        )

    trace_path = v["trace.path"] or None
    if trace_path is None:
        spec: Optional[TraceSpec] = TraceSpec(
            generator=v["trace.generator"],
            length=v["trace.length"],
            seed=v["seed"],
            params=_trace_params(v["trace.generator"], v, geometry),
        )
    else:
        spec = None

    return SimConfig(
        geometry=geometry,
        trace_path=trace_path,
        trace_format=v["trace.format"],
        trace_spec=spec,
        buffer=buffer,
        cache=cache,
        n_bo=n_bo,
        rfms_per_alert=v["mitigation.rfms_per_alert"],
        proactive_interval=proactive,
        energy=energy,
        metrics_enabled=v["metrics.enabled"],
        window=v["metrics.window"],
        window_mode=v["metrics.window_mode"],
        seed=v["seed"],
        flat=dict(sorted(raw.items())),
    )
