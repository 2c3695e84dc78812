import pytest

from pracsim.config import SCHEMA, dump, format_value, parse_file, resolve
from pracsim.errors import ConfigError


def test_defaults_resolve():
    config = resolve()
    assert config.geometry.banks == 64
    assert config.buffer.design == "unified_approxmax"
    assert config.buffer.capacity == 64
    assert config.cache.kind == "none"
    assert config.n_bo == 28
    assert config.proactive_interval == 168
    assert config.trace_path is None
    assert config.trace_spec.generator == "zipf"
    assert config.trace_spec.length == 10000
    assert config.trace_spec.seed == 1
    assert config.seed == 1
    assert config.metrics_enabled


def test_flat_echo_covers_every_key():
    config = resolve()
    assert set(config.flat) == set(SCHEMA)


def test_n_bo_auto_tracks_design():
    assert resolve(overrides={"buffer.design": "chronus"}).n_bo == 32
    assert resolve(overrides={"buffer.design": "perrow"}).n_bo == 28
    assert resolve(overrides={"buffer.k_limit": "2"}).n_bo == 30


def test_n_bo_explicit():
    assert resolve(overrides={"mitigation.n_bo": "17"}).n_bo == 17


def test_mitigation_disabled_clears_threshold_and_proactive():
    config = resolve(overrides={"mitigation.enabled": "false"})
    assert config.n_bo is None
    assert config.proactive_interval == 0


@pytest.mark.parametrize(
    "overrides",
    [
        {"mitigation.n_bo": "sometimes"},
        {"mitigation.n_bo": "0"},
        {"mitigation.n_bo": "256"},
        {"mitigation.rfms_per_alert": "0"},
        {"mitigation.proactive_interval": "-1"},
        {"metrics.window": "0"},
        {"metrics.window_mode": "hopping"},
        {"trace.format": "xml"},
        {"buffer.design": "nosuch"},
        {"trace.generator": "nosuch"},
        {"nosuch.key": "1"},
        {"buffer.k_limit": "40"},
    ],
)
def test_invalid_settings_rejected(overrides):
    with pytest.raises(ConfigError):
        resolve(overrides=overrides)


def test_cache_requires_buffered_design():
    with pytest.raises(ConfigError):
        resolve(overrides={"buffer.design": "chronus", "cache.kind": "lru4way"})


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"cache.kind": "lru4way", "cache.entries": "65540"}, "cache.entries"),
        ({"cache.kind": "tinylfu", "cache.entries": "65540"}, "cache.entries"),
        (
            {"cache.kind": "tinylfu", "cache.sketch_width": "32769"},
            "cache.sketch_width",
        ),
        ({"cache.kind": "tinylfu", "cache.sketch_rows": "65"}, "cache.sketch_rows"),
    ],
)
def test_a_cache_larger_than_a_bank_names_the_key(overrides, key):
    """A bank has 64 x 1024 counters: a cache with more lines, or a
    sketch with more slots, is refused before any bank allocates it."""
    with pytest.raises(ConfigError, match=key):
        resolve(overrides=overrides)


def test_a_cache_as_large_as_a_bank_resolves():
    config = resolve(
        overrides={
            "cache.kind": "tinylfu",
            "cache.entries": "65536",
            "cache.sketch_width": "32768",
            "cache.sketch_rows": "2",
        }
    )
    assert config.cache.entries == 65536
    # An LRU cache has no sketch to bound.
    small = resolve(
        overrides={
            "geometry.rows_per_bank": "8",
            "geometry.counter_rows_per_bank": "1",
            "geometry.counters_per_counter_row": "8",
            "cache.kind": "lru4way",
            "cache.entries": "8",
        }
    )
    assert small.cache.sketch_width * small.cache.sketch_rows > 8


def test_bad_value_types_name_the_key():
    with pytest.raises(ConfigError, match="trace.length"):
        resolve(overrides={"trace.length": "many"})
    with pytest.raises(ConfigError, match="zipf_exponent"):
        resolve(overrides={"trace.zipf_exponent": "steep"})
    with pytest.raises(ConfigError, match="mitigation.enabled"):
        resolve(overrides={"mitigation.enabled": "maybe"})


def test_overrides_beat_file_values():
    config = resolve(
        file_values={"buffer.capacity": "16"}, overrides={"buffer.capacity": "32"}
    )
    assert config.buffer.capacity == 32


def test_with_overrides_rebuilds():
    base = resolve()
    other = base.with_overrides({"buffer.design": "perrow", "seed": "9"})
    assert other.buffer.design == "perrow"
    assert other.seed == 9
    assert other.trace_spec.seed == 9
    assert base.buffer.design == "unified_approxmax"


def test_python_values_accepted_in_overrides():
    config = resolve(overrides={"mitigation.enabled": False, "trace.length": 50})
    assert config.n_bo is None
    assert config.trace_spec.length == 50


def test_trace_path_supersedes_generator(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text("0 0\n")
    config = resolve(overrides={"trace.path": str(trace)})
    assert config.trace_path == str(trace)
    assert config.trace_spec is None


def test_generator_param_wiring():
    config = resolve(
        overrides={
            "trace.generator": "hotset",
            "trace.hot_rows": "10",
            "trace.hot_fraction": "0.5",
            "trace.rows": "100",
            "trace.banks": "2",
        }
    )
    assert config.trace_spec.params == {
        "hot_rows": 10,
        "hot_fraction": 0.5,
        "rows": 100,
        "banks": 2,
    }


def test_rows_zero_means_whole_bank():
    config = resolve(overrides={"trace.generator": "uniform"})
    assert config.trace_spec.params["rows"] == 65536


def test_dump_parse_roundtrip(tmp_path):
    config = resolve(overrides={"buffer.design": "perrow", "seed": "7"})
    path = tmp_path / "run.cfg"
    path.write_text(dump(config.flat))
    again = resolve(file_values=parse_file(str(path)))
    assert again == config


def test_parse_file_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# a comment\n\nseed = 5  # trailing\nbuffer.m_batch = 2\n")
    assert parse_file(str(path)) == {"seed": "5", "buffer.m_batch": "2"}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("just words\n", "expected"),
        ("nosuch = 1\n", "unknown key"),
        ("seed = 1\nseed = 2\n", "duplicate"),
    ],
)
def test_parse_file_errors_carry_line_numbers(tmp_path, text, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=fragment) as exc:
        parse_file(str(path))
    assert "bad.cfg:" in str(exc.value)


def test_format_value_spellings():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(0.5) == "0.5"
    assert format_value(12) == "12"
