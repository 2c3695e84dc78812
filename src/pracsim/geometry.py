"""DRAM organization and the data-row to counter-slot mapping it implies.

Each bank reserves a small region of counter rows; every data row owns
one 1-byte activation counter in that region.  Consecutive data rows
map to consecutive bytes of the same counter row, so one counter row
covers ``counters_per_counter_row`` data rows: data row r is counter
row, byte ``divmod(r, counters_per_counter_row)``.
"""

from dataclasses import dataclass

from .errors import GeometryError

ROW_ID_BITS = 6
BYTE_ID_BITS = 10


@dataclass(frozen=True)
class DramGeometry:
    """Shape of the simulated DRAM and its per-bank counter region."""

    banks: int = 64
    rows_per_bank: int = 65536
    counter_rows_per_bank: int = 64
    counters_per_counter_row: int = 1024

    def __post_init__(self):
        if self.banks < 1:
            raise GeometryError("banks must be at least 1")
        if not 1 <= self.counter_rows_per_bank <= (1 << ROW_ID_BITS):
            raise GeometryError(
                f"counter_rows_per_bank must be in [1, {1 << ROW_ID_BITS}] "
                f"(row ids are {ROW_ID_BITS} bits), got {self.counter_rows_per_bank}"
            )
        if not 1 <= self.counters_per_counter_row <= (1 << BYTE_ID_BITS):
            raise GeometryError(
                f"counters_per_counter_row must be in [1, {1 << BYTE_ID_BITS}] "
                f"(byte ids are {BYTE_ID_BITS} bits), got {self.counters_per_counter_row}"
            )
        expected = self.counter_rows_per_bank * self.counters_per_counter_row
        if self.rows_per_bank != expected:
            raise GeometryError(
                f"rows_per_bank ({self.rows_per_bank}) must equal "
                f"counter_rows_per_bank * counters_per_counter_row ({expected})"
            )
        # Counter and data-row keys, bank * rows_per_bank + row, are int64.
        if self.banks * self.rows_per_bank >= 1 << 63:
            raise GeometryError(
                f"banks ({self.banks}) times rows_per_bank ({self.rows_per_bank}) "
                "must be below 2**63"
            )
