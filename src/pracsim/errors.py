"""Exception hierarchy shared across the simulator.

Every error carries a short machine-readable ``code`` so the CLI can
emit structured diagnostics without matching on message text.
"""


def line_of(data: bytes, offset: int) -> int:
    """The 1-based line of ``data[offset]``; lines end at \\n, \\r\\n or a lone \\r."""
    head = data[:offset]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


class SimError(Exception):
    """Base class for all simulator errors."""

    code = "runtime"


class ConfigError(SimError):
    """Invalid or inconsistent configuration value."""

    code = "config"


class GeometryError(ConfigError):
    """Address or shape outside the configured DRAM organization."""

    code = "geometry"


class TraceError(SimError):
    """Malformed or out-of-range trace input.

    ``line`` is the 1-based line number (text format) or record number
    (binary format) of the offending input, when known.
    """

    code = "trace"

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LogFormatError(SimError):
    """Batch log that cannot be parsed.

    Distinct from a verification failure: the log is unreadable rather
    than readable-but-wrong.
    """

    code = "log-format"
