import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pracsim.config import resolve
from pracsim.engine import Engine
from pracsim.errors import GeometryError, TraceError
from pracsim.geometry import DramGeometry
from pracsim.trace import read_text


def baseline_engine(geometry):
    """An immediate-service engine: each activation bumps its counter at once."""
    overrides = {
        "buffer.design": "chronus",
        "mitigation.enabled": "false",
        "metrics.enabled": "false",
        "geometry.banks": str(geometry.banks),
        "geometry.rows_per_bank": str(geometry.rows_per_bank),
        "geometry.counter_rows_per_bank": str(geometry.counter_rows_per_bank),
        "geometry.counters_per_counter_row": str(geometry.counters_per_counter_row),
    }
    return Engine(resolve(overrides=overrides))


def bumped(engine, bank, data_row):
    """Step one activation of ``data_row``; the counter the engine bumped."""
    before = engine.store.values[bank].copy()
    engine.step(engine.ledger.data_acts, bank, data_row)
    ((row_id, byte_id),) = np.argwhere(engine.store.values[bank] != before).tolist()
    return bank, row_id, byte_id


def test_default_shape(geometry):
    assert geometry.banks == 64
    assert geometry.rows_per_bank == 65536
    assert geometry.counter_rows_per_bank == 64
    assert geometry.counters_per_counter_row == 1024


def test_known_mappings(geometry):
    engine = baseline_engine(geometry)
    assert bumped(engine, 0, 0) == (0, 0, 0)
    assert bumped(engine, 3, 1024) == (3, 1, 0)
    assert bumped(engine, 0, 1023) == (0, 0, 1023)
    assert bumped(engine, 0, 65535) == (0, 63, 1023)
    assert bumped(engine, 63, 4097) == (63, 4, 1)


def test_consecutive_rows_share_counter_row(geometry):
    engine = baseline_engine(geometry)
    refs = [bumped(engine, 0, r) for r in range(1024)]
    assert all(row_id == 0 for _, row_id, _ in refs)
    assert [byte_id for _, _, byte_id in refs] == list(range(1024))


def test_exhaustive_bijection(toy_geometry):
    engine = baseline_engine(toy_geometry)
    cpc = toy_geometry.counters_per_counter_row
    seen = set()
    for bank in range(toy_geometry.banks):
        for row in range(toy_geometry.rows_per_bank):
            ref = bumped(engine, bank, row)
            _, row_id, byte_id = ref
            assert 0 <= row_id < toy_geometry.counter_rows_per_bank
            assert 0 <= byte_id < cpc
            assert row_id * cpc + byte_id == row
            assert ref not in seen
            seen.add(ref)
    assert len(seen) == toy_geometry.banks * toy_geometry.rows_per_bank


@given(bank=st.integers(0, 63), row=st.integers(0, 65535))
def test_roundtrip_full_size(bank, row):
    geometry = DramGeometry()
    ref_bank, row_id, byte_id = bumped(baseline_engine(geometry), bank, row)
    assert ref_bank == bank
    assert row_id * geometry.counters_per_counter_row + byte_id == row


@pytest.mark.parametrize("bank,row", [(-1, 0), (64, 0), (0, -1), (0, 65536)])
def test_out_of_range(geometry, bank, row):
    """Traces are checked against the geometry as they are read."""
    with pytest.raises(TraceError):
        read_text(io.StringIO(f"{bank} {row}\n"), geometry)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"banks": 0},
        {"counter_rows_per_bank": 0},
        {"counter_rows_per_bank": 65},
        {"counters_per_counter_row": 0},
        {"counters_per_counter_row": 1025},
        {"rows_per_bank": 65535},
        {"banks": 2**47},
    ],
)
def test_bad_shapes(kwargs):
    with pytest.raises(GeometryError):
        DramGeometry(**kwargs)


def test_a_geometry_below_2_63_counters_is_accepted():
    """banks x rows_per_bank counters below 2**63, so that every counter
    key fits an int64; 2**58 banks of 16 rows are 2**62 counters."""
    assert DramGeometry(banks=2**47 - 1).banks == 2**47 - 1
    huge = dict(rows_per_bank=16, counter_rows_per_bank=4, counters_per_counter_row=4)
    assert DramGeometry(banks=2**58, **huge).banks == 2**58
