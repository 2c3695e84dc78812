import io
import re
import sys
from collections import defaultdict
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_oracle
import legacy_readers
import legacy_replay
import legacy_writers
from pracsim import cli, oracle
from pracsim.buffers import DESIGNS, K_TRIGGER_MODES, TRIGGERS
from pracsim.config import resolve
from pracsim.engine import Engine, workload_shape
from pracsim.errors import ConfigError, LogFormatError, SimError, TraceError
from pracsim.geometry import DramGeometry
from pracsim.oracle import Verdict, read_log, verify, write_log
from pracsim.trace import GENERATORS, Trace
from service_logs import batches_of, make_log
from store_items import nonzero_items


def events_for(spots):
    """A Trace of (bank, data_row) pairs, the first in slot 0."""
    return Trace([bank for bank, _ in spots], [row for _, row in spots])


def repeat(bank, data_row, n):
    return events_for([(bank, data_row)] * n)


def stored(counters):
    """The toy geometry's store holding ``{(bank, row_id, byte_id): value}``."""
    values = np.zeros((2, 4, 4), dtype=np.uint8)
    for counter, value in counters.items():
        values[counter] = value
    return values


def test_kept_up_to_date_passes(toy_geometry):
    events = repeat(0, 0, 4)
    batches = make_log((3, 0, 0, "k_limit", (0,)))
    verdict = verify(
        events,
        batches,
        toy_geometry,
        reported_counter_acts=1,
        final_values=stored({(0, 0, 0): 4}),
    )
    assert verdict.ok
    assert str(verdict) == "pass"


def test_unserviced_counter_violates_staleness(toy_geometry):
    verdict = verify(repeat(0, 0, 5), make_log(), toy_geometry, staleness_bound=4)
    assert not verdict.ok
    assert verdict.rule == 1
    assert verdict.slot == 4
    assert "lags by 5" in verdict.message


def test_batch_in_shadow_resets_staleness(toy_geometry):
    events = repeat(0, 0, 9)
    batches = make_log(
        (3, 0, 0, "k_limit", (0,)),
        (7, 0, 0, "k_limit", (0,)),
        (9, 0, 0, "drain", (0,)),
    )
    assert verify(events, batches, toy_geometry).ok


def test_oversized_batch_is_illegal(toy_geometry):
    events = repeat(0, 0, 1)
    batches = make_log((0, 0, 0, "m_ready", (0, 1, 2, 3, 0)))
    verdict = verify(events, batches, toy_geometry, m_batch=4)
    assert (verdict.rule, verdict.slot) == (2, 0)


def test_duplicate_bytes_are_illegal(toy_geometry):
    batches = make_log((0, 0, 0, "m_ready", (1, 1)))
    verdict = verify(repeat(0, 0, 1), batches, toy_geometry)
    assert verdict.rule == 2
    assert "duplicate" in verdict.message


def test_out_of_range_fields_are_illegal(toy_geometry):
    for bad in [
        (0, 9, 0, "m_ready", (0,)),
        (0, 0, 7, "m_ready", (0,)),
        (0, 0, 0, "m_ready", (6,)),
    ]:
        verdict = verify(repeat(0, 0, 1), make_log(bad), toy_geometry)
        assert verdict.rule == 2, bad


def test_drain_trigger_inside_body_is_illegal(toy_geometry):
    batches = make_log((0, 0, 0, "drain", (0,)))
    verdict = verify(repeat(0, 0, 2), batches, toy_geometry)
    assert (verdict.rule, verdict.slot) == (2, 0)


def test_non_drain_trigger_at_drain_slot_is_illegal(toy_geometry):
    events = repeat(0, 0, 2)
    batches = make_log((2, 0, 0, "m_ready", (0,)))
    verdict = verify(events, batches, toy_geometry)
    assert (verdict.rule, verdict.slot) == (2, 2)


def test_two_batches_in_one_shadow_are_illegal(toy_geometry):
    events = repeat(0, 0, 2)
    batches = make_log((1, 0, 0, "m_ready", (0,)), (1, 0, 1, "m_ready", (0,)))
    verdict = verify(events, batches, toy_geometry)
    assert (verdict.rule, verdict.slot) == (3, 1)


def test_batch_outside_activated_bank_is_illegal(toy_geometry):
    events = events_for([(0, 0), (0, 0)])
    batches = make_log((1, 1, 0, "m_ready", (0,)))
    verdict = verify(events, batches, toy_geometry)
    assert (verdict.rule, verdict.slot) == (3, 1)


def test_missing_service_fails_conservation(toy_geometry):
    verdict = verify(repeat(0, 0, 2), make_log(), toy_geometry)
    assert (verdict.rule, verdict.slot) == (4, 2)
    assert "ends at 0 of 2" in verdict.message


def test_drain_batch_settles_conservation(toy_geometry):
    events = repeat(0, 5, 3)
    batches = make_log((3, 0, 1, "drain", (1,)))
    assert verify(events, batches, toy_geometry).ok


def test_wrong_final_value_is_reported(toy_geometry):
    events = repeat(0, 0, 2)
    batches = make_log((2, 0, 0, "drain", (0,)))
    final = stored({(0, 0, 0): 3})
    verdict = verify(events, batches, toy_geometry, final_values=final)
    assert verdict.rule == 4
    assert "expected 2" in verdict.message


def test_final_values_saturate(toy_geometry):
    events = repeat(0, 0, 300)
    batches = make_log((300, 0, 0, "drain", (0,)))
    verdict = verify(
        events, batches, toy_geometry, staleness_bound=300,
        final_values=stored({(0, 0, 0): 255}),
    )
    assert verdict.ok


def test_final_values_take_only_the_store_array(toy_geometry):
    """A mapping, a dump's columns or a wrongly shaped array is refused."""
    events = repeat(0, 0, 2)
    batches = make_log((2, 0, 0, "drain", (0,)))
    for final in ({(0, 0, 0): 2}, ([0], [0], [0], [2]), np.zeros((2, 16), np.uint8)):
        with pytest.raises(ConfigError, match=r"final values have shape .*, not \(2, 4, 4\)"):
            verify(events, batches, toy_geometry, final_values=final)


def test_reported_total_mismatch(toy_geometry):
    events = repeat(0, 0, 4)
    batches = make_log((3, 0, 0, "k_limit", (0,)))
    verdict = verify(events, batches, toy_geometry, reported_counter_acts=2)
    assert verdict.rule == 5
    assert "reported 2" in verdict.message


def test_batch_beyond_drain_slot_is_unparseable(toy_geometry):
    with pytest.raises(LogFormatError):
        verify(repeat(0, 0, 1), make_log((5, 0, 0, "drain", (0,))), toy_geometry)


def test_log_roundtrip():
    batches = [
        (0, 0, 1, "m_ready", (0, 3)),
        (7, 1, 2, "k_limit", (1,)),
        (10, 0, 0, "drain", (0, 1, 2, 3)),
    ]
    buf = io.StringIO()
    write_log(make_log(*batches), buf)
    assert batches_of(read_log(io.StringIO(buf.getvalue()))) == batches


def test_an_empty_batch_round_trips(toy_geometry):
    """A batch without byte ids ends at its n_items field, which both
    readers take back as that batch; the replay then flags it."""
    log = make_log((0, 0, 0, "drain", ()))
    buf = io.StringIO()
    write_log(log, buf)
    assert buf.getvalue().splitlines()[1] == "0,0,0,drain,0"
    assert batches_of(read_log(io.StringIO(buf.getvalue()))) == batches_of(log)
    want = legacy_oracle.batches_of(log)
    assert legacy_oracle.read_log(io.StringIO(buf.getvalue())) == want
    verdict = verify(repeat(0, 0, 1), log, toy_geometry)
    assert (verdict.rule, verdict.slot) == (2, 0)


def test_read_log_skips_header_and_blanks():
    text = "slot,bank,row_id,trigger,n_items,byte_ids\n\n1,0,2,m_ready,1,5\n"
    assert batches_of(read_log(io.StringIO(text))) == [(1, 0, 2, "m_ready", (5,))]


@pytest.mark.parametrize(
    "line",
    [
        "1,0,2,m_ready",
        "1,0,x,m_ready,1,5",
        "1,0,2,whenever,1,5",
        "1,0,2,m_ready,2,5",
        "-1,0,2,m_ready,1,5",
    ],
)
def test_read_log_rejects_malformed_rows(line):
    with pytest.raises(LogFormatError):
        read_log(io.StringIO(line + "\n"))


@pytest.mark.parametrize(
    "line",
    ["+1,0,2,m_ready,1,5", "1, 0,2,m_ready,1,5", "1,0,2 ,m_ready,1,5",
     "1,0,2,m_ready,+1,5", "1,0,2,m_ready,1,1_0", "1,0,2,m_ready,1,\x1c5",
     "\u0661,0,2,m_ready,1,5", "1,0,\uff12,m_ready,1,5", "1,0,2,m_ready,1,-",
     "1,0,2,m_ready,1,--5", "1,0,2,m_ready,1,5-1"],
    ids=["plus", "space_before", "space_after", "plus_n_items", "underscore",
         "separator", "arabic_indic", "fullwidth", "bare_minus", "double_minus",
         "inner_minus"],
)  # fmt: skip
def test_read_log_takes_only_ascii_digits_and_a_minus(line):
    """Fields ``int`` would take are a located error on the line they are on."""
    text = "slot,bank,row_id,trigger,n_items,byte_ids\n0,0,1,m_ready,1,5\n" + line
    with pytest.raises(LogFormatError) as exc:
        read_log(io.StringIO(text))
    assert str(exc.value) == "line 3: non-integer field"


def test_read_log_keeps_the_minus_for_its_range_messages():
    with pytest.raises(LogFormatError) as exc:
        read_log(io.StringIO("0,0,1,m_ready,1,5\n-4,0,2,m_ready,1,5\n"))
    assert str(exc.value) == "line 2: negative slot -4"
    log = read_log(io.StringIO("0,-1,1,m_ready,1,-5\n1,0,0,drain,0\n"))
    assert batches_of(log)[0] == (0, -1, 1, "m_ready", (-5,))


@pytest.mark.parametrize(
    "field", ["999999999999999999", "-999999999999999999", "000000000000000007"]
)
def test_read_log_reads_a_field_of_18_digits(field):
    """18 digits after an optional ``-`` is the longest decimal field, in
    every int column, a byte id included."""
    slot = field.lstrip("-")
    log = read_log(io.StringIO(f"0,0,1,m_ready,1,5\n{slot},{field},{field},drain,1,{field}\n"))
    value = int(field)
    assert batches_of(log)[1] == (int(slot), value, value, "drain", (value,))
    assert all(getattr(log, name).dtype == np.int64 for name in log.__slots__)


@pytest.mark.parametrize(
    "field", ["1000000000000000000", "9999999999999999999", "-1000000000000000000",
              "0000000000000000007", "9" * 4301],
)  # fmt: skip
@pytest.mark.parametrize("column", [0, 1, 2, 5])
def test_read_log_refuses_a_field_of_19_digits(field, column):
    """A field of 19 digits or more is the located error on its line, in
    int64 (10**18) or not, in any int column."""
    fields = ["3", "0", "1", "m_ready", "1", "5"]
    fields[column] = field.lstrip("-") if column == 0 else field
    text = "0,0,1,m_ready,1,5\n\n" + ",".join(fields) + "\n1,0,0,drain,0\n"
    with pytest.raises(LogFormatError) as exc:
        read_log(io.StringIO(text))
    assert str(exc.value) == "line 3: non-integer field"


@pytest.mark.parametrize(
    "spot", [(-1, 40), (2, 0), (1, 16), (1, 2**70), (-(2**64), 3), (2**63, -(2**63) - 1)]
)
def test_workload_shape_and_verify_share_the_geometry_check(toy_geometry, spot):
    """An activation outside the geometry, or past int64, is named by its
    slot in one message, a TraceError from the shape pass and a
    LogFormatError from the replay."""
    config = resolve(overrides={
        "geometry.banks": "2", "geometry.rows_per_bank": "16",
        "geometry.counter_rows_per_bank": "4", "geometry.counters_per_counter_row": "4",
    })  # fmt: skip
    assert config.geometry == toy_geometry
    events = events_for([(1, 2), (0, 9), spot, (2, 99)])
    message = f"slot 2: bank {spot[0]}, data_row {spot[1]} outside the geometry's 2 banks of 16 rows"
    with pytest.raises(TraceError) as shape_error:
        workload_shape(events, config)
    with pytest.raises(LogFormatError) as replay_error:
        verify(events, make_log(), toy_geometry)
    assert str(shape_error.value) == str(replay_error.value) == message


def test_a_valid_log_with_int_only_fields_is_refused():
    """A valid zipf log's line 2 rewritten as its fields with
    Arabic-Indic digits, a plus sign and spaces no longer verifies."""
    config = resolve(overrides={"trace.generator": "zipf", "trace.length": "200"})
    engine = Engine(config, collect_log=True)
    report = engine.run()
    buf = io.StringIO()
    write_log(engine.batch_log, buf)
    lines = buf.getvalue().split("\n")
    slot, bank, row_id, *rest = lines[1].split(",")
    arabic = "".join(chr(0x0660 + int(d)) for d in slot)
    lines[1] = ",".join([arabic, "+" + bank, f" {row_id} "] + rest)
    valid = read_log(io.StringIO(buf.getvalue()))
    assert verify(
        engine.load_events(), valid, config.geometry,
        staleness_bound=config.buffer.pending_limit,
        reported_counter_acts=report.counter_acts,
    ).ok  # fmt: skip
    with pytest.raises(LogFormatError) as exc:
        read_log(io.StringIO("\n".join(lines)))
    assert str(exc.value) == "line 2: non-integer field"


def test_verdict_strings():
    assert str(Verdict(True)) == "pass"
    text = str(Verdict(False, 3, 17, "two batches"))
    assert text == "rule 3 violated at slot 17: two batches"



# In-slot priority: at one slot, several batches (rule 3), then the
# batch's trigger and legality (rule 2), then its bank (rule 3), then
# staleness (rule 1).  Counter (0, 0, 0) lags by 5 at slot 4 unless a
# batch in that slot's shadow services it.
def _at_slot_4(*batches, **kwargs):
    return verify(repeat(0, 0, 6), make_log(*batches), DramGeometry(
        banks=2, rows_per_bank=16, counter_rows_per_bank=4, counters_per_counter_row=4
    ), **kwargs)


def test_several_batches_come_before_everything_in_their_slot():
    verdict = _at_slot_4(
        (4, 1, 9, "drain", (0, 0)), (4, 0, 0, "k_limit", (0,))
    )
    assert (verdict.rule, verdict.slot) == (3, 4)
    assert verdict.message == "2 batches in one shadow"


def test_a_drain_trigger_comes_before_the_batch_fields():
    verdict = _at_slot_4((4, 1, 9, "drain", (0,)))
    assert (verdict.rule, verdict.slot) == (2, 4)
    assert verdict.message == "drain-trigger batch inside the trace body"


def test_batch_legality_comes_before_its_bank():
    verdict = _at_slot_4((4, 1, 9, "m_ready", (0,)))
    assert (verdict.rule, verdict.slot) == (2, 4)
    assert verdict.message == "row_id 9 out of range"


def test_the_batch_bank_comes_before_staleness():
    verdict = _at_slot_4((4, 1, 0, "m_ready", (0,)))
    assert (verdict.rule, verdict.slot) == (3, 4)
    assert verdict.message == "batch bank 1 but activation bank 0"


def test_staleness_is_checked_after_the_slot_batch():
    verdict = _at_slot_4((4, 0, 1, "m_ready", (0,)))
    assert (verdict.rule, verdict.slot) == (1, 4)
    assert verdict.message == "counter (0, 0, 0) lags by 5 > bound 4"
    serviced = _at_slot_4(
        (4, 0, 0, "k_limit", (0,)), (6, 0, 0, "drain", (0,))
    )
    assert serviced.ok


def test_a_batch_counts_the_activation_of_its_own_slot(toy_geometry):
    batches = make_log((0, 0, 0, "m_ready", (0,)))
    assert verify(repeat(0, 0, 1), batches, toy_geometry).ok
    verdict = verify(repeat(0, 0, 2), batches, toy_geometry)
    assert str(verdict) == (
        "rule 4 violated at slot 2: counter (0, 0, 0) ends at 1 of 2 true activations"
    )


def test_the_first_violation_is_reported(toy_geometry):
    events = events_for([(0, 0)] * 5 + [(1, 5)] * 3 + [(0, 0)] * 2)
    verdict = verify(events, make_log(), toy_geometry, staleness_bound=2)
    assert (verdict.rule, verdict.slot) == (1, 2)
    batches = make_log((1, 0, 0, "m_ready", (0, 0)), (6, 1, 9, "m_ready", (0,)))
    verdict = verify(events, batches, toy_geometry, staleness_bound=9)
    assert (verdict.rule, verdict.slot) == (2, 1)
    assert "duplicate" in verdict.message


def test_conservation_reports_the_first_counter_in_key_order(toy_geometry):
    events = events_for([(1, 2), (0, 9), (0, 3), (1, 0)])
    assert str(verify(events, make_log(), toy_geometry)) == (
        "rule 4 violated at slot 4: counter (0, 0, 3) ends at 0 of 1 true activations"
    )


@pytest.mark.parametrize(
    "spot, where",
    [((-1, 40), "bank -1, data_row 40"), ((2, 0), "bank 2, data_row 0"),
     ((0, 16), "bank 0, data_row 16"), ((1, -1), "bank 1, data_row -1"),
     ((1, 2**70), f"bank 1, data_row {2**70}")],
    ids=["negative_bank", "bank", "data_row", "negative_row", "huge_row"],
)  # fmt: skip
def test_an_activation_outside_the_geometry_is_unparseable(toy_geometry, spot, where):
    """Named by its slot, before any batch problem; only the first such
    activation is named."""
    events = events_for([(1, 2), (0, 9), spot, (0, 3), (7, 7)])
    message = f"slot 2: {where} outside the geometry's 2 banks of 16 rows"
    batches = make_log((0, 1, 9, "drain", (0, 0)))
    with pytest.raises(LogFormatError) as exc:
        verify(events, batches, toy_geometry)
    assert str(exc.value) == message


def test_a_stray_stored_counter_fails_the_final_state(toy_geometry):
    """A nonzero counter the trace never activated is reported as rule 4
    at the drain slot, in key order with the wrong activated ones."""
    events = repeat(0, 5, 2)
    batches = make_log((2, 0, 1, "drain", (1,)))
    values = stored({(0, 1, 1): 2})
    assert verify(events, batches, toy_geometry, final_values=values).ok
    stray = stored({(0, 1, 1): 2, (1, 3, 3): 9})
    verdict = verify(events, batches, toy_geometry, final_values=stray)
    assert str(verdict) == (
        "rule 4 violated at slot 2: stored counter (1, 3, 3) is 9, expected 0"
    )
    values[0, 0, 2] = 1
    verdict = verify(events, batches, toy_geometry, final_values=values)
    assert verdict.message == "stored counter (0, 0, 2) is 1, expected 0"
    values[0, 1, 1] = 3
    verdict = verify(events, batches, toy_geometry, final_values=values)
    assert verdict.message == "stored counter (0, 0, 2) is 1, expected 0"


@pytest.mark.parametrize(
    "counters, message",
    [({(1, 1, 1): 2, (1, 3, 2): 4}, "stored counter (1, 3, 2) is 4, expected 0"),
     ({(1, 0, 0): 1, (1, 1, 1): 2}, "stored counter (1, 0, 0) is 1, expected 0"),
     ({(0, 3, 3): 7, (1, 1, 1): 2}, "stored counter (0, 3, 3) is 7, expected 0"),
     ({(1, 1, 1): 3, (1, 3, 0): 5}, "stored counter (1, 1, 1) is 3, expected 2"),
     ({(1, 0, 2): 5, (1, 1, 1): 3}, "stored counter (1, 0, 2) is 5, expected 0"),
     ({(0, 0, 1): 1, (1, 1, 1): 3}, "stored counter (0, 0, 1) is 1, expected 0"),
     ({(1, 1, 1): 2, (1, 2, 0): 3, (1, 3, 3): 4}, "stored counter (1, 2, 0) is 3, expected 0")],
    ids=["same_bank_after", "same_bank_before", "bank_0_below",
         "wrong_count_first", "stray_first", "stray_in_bank_0_first", "two_strays"],
)  # fmt: skip
def test_a_stray_is_found_in_the_bank_that_holds_it(toy_geometry, counters, message):
    """Bank 1 holds the one activated counter, (1, 1, 1), with 2; a stray
    beside it or in bank 0 is found, and with a wrong count the lower
    key is reported."""
    events = repeat(1, 5, 2)
    batches = make_log((2, 1, 1, "drain", (1,)))
    assert verify(events, batches, toy_geometry, final_values=stored({(1, 1, 1): 2})).ok
    verdict = verify(events, batches, toy_geometry, final_values=stored(counters))
    assert str(verdict) == f"rule 4 violated at slot 2: {message}"


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.float64])
def test_a_store_holding_minus_one_fails(toy_geometry, dtype):
    """A bank whose bytes are 0 and -1 has a largest value of 0, yet
    holds a stray."""
    events = repeat(1, 5, 2)
    batches = make_log((2, 1, 1, "drain", (1,)))
    values = stored({(1, 1, 1): 2}).astype(dtype)
    assert verify(events, batches, toy_geometry, final_values=values).ok
    values[0, 2, 1] = -1
    verdict = verify(events, batches, toy_geometry, final_values=values)
    assert verdict.message == "stored counter (0, 2, 1) is -1, expected 0"


def test_a_repeated_byte_id_is_found_among_other_batches_of_its_counter(toy_geometry):
    """Two drain batches list counter (0, 1, 0), one of them twice.  The
    sort need not keep that batch's two ids next to each other (with
    numpy's argsort here, the other batch's id falls between them), yet
    the repeat is reported before the unserviced counters."""
    spots = [(1, 15), (1, 9), (1, 4), (1, 11), (0, 8), (1, 10), (1, 1), (1, 2),
             (1, 10), (1, 10), (1, 3), (1, 15), (1, 1), (1, 9), (1, 6), (0, 4),
             (0, 3), (0, 0), (1, 1), (1, 11), (0, 7)]  # fmt: skip
    batches = make_log(
        (21, 0, 0, "drain", (1,)), (21, 0, 1, "drain", (0, 1, 0)), (21, 0, 1, "drain", (0,))
    )
    verdict = verify(events_for(spots), batches, toy_geometry)
    assert str(verdict) == "rule 2 violated at slot 21: duplicate byte ids in one batch"


def test_a_geometry_past_the_sort_code_replays_by_rank():
    """With 2**58 banks a counter key times the slot span overflows
    int64: wrapped, counter (far, 3, 3)'s codes would fall among those
    of (0, 1, 1).  The replay sorts counter ranks instead."""
    far = 115292150460684697  # key far * 16 + 15 wraps 4 codes above key 5
    huge = DramGeometry(
        banks=2**58, rows_per_bank=16, counter_rows_per_bank=4, counters_per_counter_row=4
    )
    events = events_for([(far, 15), (0, 5), (far, 15), (0, 5)])
    served = make_log(
        (1, 0, 1, "k_limit", (1,)), (4, far, 3, "drain", (3,)), (4, 0, 1, "drain", (1,))
    )
    unserved = make_log((1, 0, 1, "k_limit", (1,)), (4, 0, 1, "drain", (1,)))
    for log, bound, want in [
        (served, 2, "pass"),
        (served, 1, f"rule 1 violated at slot 2: counter ({far}, 3, 3) lags by 2 > bound 1"),
        (unserved, 2, f"rule 4 violated at slot 4: counter ({far}, 3, 3) ends at 0 "
         "of 2 true activations"),
    ]:  # fmt: skip
        verdict = verify(events, log, huge, staleness_bound=bound)
        assert str(verdict) == want
        assert verdict == legacy_replay.verify(events, log, huge, staleness_bound=bound)


def test_service_log_columns_and_batches():
    batches = [
        (0, 0, 1, "m_ready", (0, 3)),
        (7, 1, 2, "k_limit", (1,)),
        (10, 0, 0, "drain", (0, 1, 2, 3)),
    ]
    log = make_log(*batches)
    assert (log.slots, log.triggers, log.sizes) == ([0, 7, 10], [0, 2, 3], [2, 1, 4])
    assert log.byte_ids == [0, 3, 1, 0, 1, 2, 3]
    assert len(log) == 3 and batches_of(log) == batches


SMALL_GEOMETRY = {
    "geometry.banks": "4",
    "geometry.rows_per_bank": "64",
    "geometry.counter_rows_per_bank": "8",
    "geometry.counters_per_counter_row": "8",
}
MUTATIONS = (
    "shift", "byte", "bank", "row", "trigger", "delete", "duplicate",
    "truncate", "oversize", "duplicate_byte", "past_drain",
)  # fmt: skip


def _outcome(fn, *args, **kwargs):
    """A verdict, or the type and message of the error raised instead."""
    try:
        return fn(*args, **kwargs)
    except SimError as exc:
        return type(exc), str(exc)


def _mutated(data, batches, n):
    """``batches`` with one drawn corruption applied."""
    kind = data.draw(st.sampled_from(MUTATIONS))
    if not batches:
        return batches
    batches = list(batches)
    j = data.draw(st.integers(0, len(batches) - 1))
    b = batches[j]
    field = data.draw(st.sampled_from((-1, 0, 1, 2, 7, 8, 9)))
    if kind == "shift":
        b = replace(b, slot=max(0, b.slot + data.draw(st.sampled_from((-2, -1, 1, 2)))))
    elif kind == "byte":
        at = data.draw(st.integers(0, len(b.byte_ids) - 1))
        b = replace(b, byte_ids=b.byte_ids[:at] + (field,) + b.byte_ids[at + 1 :])
    elif kind == "bank":
        b = replace(b, bank=data.draw(st.sampled_from((-1, 0, 1, 3, 4, b.bank + 1))))
    elif kind == "row":
        b = replace(b, row_id=field)
    elif kind == "trigger":
        b = replace(b, trigger=data.draw(st.sampled_from(TRIGGERS)))
    elif kind == "delete":
        del batches[j]
        return batches
    elif kind == "duplicate":
        batches.insert(j, b)
        return batches
    elif kind == "truncate":
        return batches[:j]
    elif kind == "oversize":
        b = replace(b, byte_ids=b.byte_ids + (4, 5, 6, 7, 0))
    elif kind == "duplicate_byte":
        b = replace(b, byte_ids=b.byte_ids + b.byte_ids[:1])
    else:
        b = replace(b, slot=n + data.draw(st.integers(1, 3)))
    batches[j] = b
    return batches


@settings(deadline=None, max_examples=200)
@given(
    data=st.data(),
    generator=st.sampled_from(GENERATORS),
    banks=st.integers(1, 4),
    length=st.integers(1, 300),
    design=st.sampled_from(DESIGNS),
    k=st.integers(1, 4),
    k_trigger=st.sampled_from(K_TRIGGER_MODES),
    mitigation=st.booleans(),
    seed=st.integers(0, 999),
)
def test_verify_matches_the_legacy_replay(
    data, generator, banks, length, design, k, k_trigger, mitigation, seed
):
    """A real run's log, corrupted up to three times, gets the verdict or
    the error the one-activation-at-a-time replay gives, whichever form
    the final state takes."""
    overrides = dict(
        SMALL_GEOMETRY,
        **{
            "trace.generator": generator,
            "trace.length": str(length),
            "buffer.design": design,
            "buffer.k_limit": str(k),
            "buffer.k_trigger": k_trigger,
            "mitigation.enabled": str(mitigation).lower(),
            "seed": str(seed),
        },
    )
    if generator in ("uniform", "zipf", "hotset"):
        overrides["trace.banks"] = str(banks)
    config = resolve(overrides=overrides)
    engine = Engine(config, collect_log=True)
    report = engine.run()
    events = engine.load_events()
    batches = legacy_oracle.batches_of(engine.batch_log)
    for _ in range(data.draw(st.integers(0, 3))):
        batches = _mutated(data, batches, len(events))
    state = data.draw(st.sampled_from((None, "store", "dump")))
    legacy_final = final = None
    if state == "store":
        legacy_final = final = engine.store.values
    elif state == "dump":
        items = nonzero_items(engine.store)
        legacy_final = defaultdict(int, {(b, r, c): v for b, r, c, v in items})
        final = np.zeros_like(engine.store.values)
        for b, r, c, v in items:
            final[b, r, c] = v
    kwargs = dict(
        m_batch=config.buffer.m_batch,
        staleness_bound=config.buffer.pending_limit,
        reported_counter_acts=report.counter_acts,
    )
    want = _outcome(
        legacy_oracle.verify, events, batches, config.geometry,
        final_values=legacy_final, **kwargs,
    )  # fmt: skip
    log = make_log(*map(astuple, batches))
    got = _outcome(verify, events, log, config.geometry, final_values=final, **kwargs)
    assert got == want


FINAL_STATES = ("none", "store", "touched", "untouched", "signed")


@settings(deadline=None, max_examples=200)
@given(
    data=st.data(),
    generator=st.sampled_from(("uniform", "zipf", "hotset")),
    length=st.integers(1, 300),
    design=st.sampled_from(DESIGNS),
    k=st.integers(1, 4),
    k_trigger=st.sampled_from(K_TRIGGER_MODES),
    seed=st.integers(0, 999),
    state=st.sampled_from(FINAL_STATES),
)
def test_verify_matches_the_parent_replay(
    data, generator, length, design, k, k_trigger, seed, state
):
    """A real run over all four banks, its log corrupted up to three
    times, and its final store as run, with a stray in a bank the trace
    activates or in one it does not, or signed and holding -1: the
    verdict or the error of the replay that ranked keys before sorting
    and counted the whole store's nonzero bytes."""
    overrides = dict(
        SMALL_GEOMETRY,
        **{
            "trace.generator": generator,
            "trace.length": str(length),
            "trace.banks": "4",
            "buffer.design": design,
            "buffer.k_limit": str(k),
            "buffer.k_trigger": k_trigger,
            "mitigation.enabled": "false",
            "seed": str(seed),
        },
    )
    config = resolve(overrides=overrides)
    engine = Engine(config, collect_log=True)
    report = engine.run()
    events = engine.load_events()
    batches = legacy_oracle.batches_of(engine.batch_log)
    for _ in range(data.draw(st.integers(0, 3))):
        batches = _mutated(data, batches, len(events))
    log = make_log(*map(astuple, batches))
    final = None if state == "none" else np.array(engine.store.values)
    if state in ("touched", "untouched"):
        touched = set(events.banks)
        banks = sorted(touched if state == "touched" else set(range(4)) - touched)
        if banks:
            bank = data.draw(st.sampled_from(banks))
            row_id, byte_id = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
            final[bank, row_id, byte_id] = data.draw(st.integers(1, 255))
    elif state == "signed":
        final = final.astype(data.draw(st.sampled_from((np.int8, np.int16, np.int64))))
        final[tuple(data.draw(st.integers(0, 3 if i == 0 else 7)) for i in range(3))] = -1
    kwargs = dict(
        m_batch=config.buffer.m_batch,
        staleness_bound=config.buffer.pending_limit,
        reported_counter_acts=report.counter_acts,
        final_values=final,
    )
    want = _outcome(legacy_replay.verify, events, log, config.geometry, **kwargs)
    assert _outcome(verify, events, log, config.geometry, **kwargs) == want
    # Read back from its file, as int64 arrays when every field is plain
    # decimal: the same outcome, and verify writes into no column.
    buf = io.StringIO()
    write_log(log, buf)
    read = read_log(io.StringIO(buf.getvalue()))
    before = [np.array(getattr(read, name)) for name in read.__slots__]
    assert _outcome(verify, events, read, config.geometry, **kwargs) == want
    for name, column in zip(read.__slots__, before):
        assert np.array_equal(getattr(read, name), column)


LOG_FIELD = st.one_of(
    st.integers(0, 10**6).map(str),
    st.integers(0, 9).map(str),
    st.sampled_from(["-1", "+3", " 4", "5 ", "007", "x", "", "1_0", "\x1c5", "1.5"]),
    st.just("9" * 19),
)
GOOD_LOG_LINE = st.builds(
    lambda head, trigger, ids: ",".join(
        head + [trigger, str(len(ids))] + [str(x) for x in ids]
    ),
    st.lists(st.integers(0, 10**6).map(str), min_size=3, max_size=3),
    st.sampled_from(TRIGGERS),
    st.lists(st.integers(0, 1023), max_size=5),
)
LOG_LINE = st.one_of(
    GOOD_LOG_LINE,
    GOOD_LOG_LINE,
    GOOD_LOG_LINE,
    st.builds(
        lambda fields, trigger, at: ",".join(fields[:at] + [trigger] + fields[at:]),
        st.lists(LOG_FIELD, min_size=0, max_size=8),
        st.sampled_from(TRIGGERS + ("whenever", "0", "M_READY")),
        st.integers(0, 4),
    ),
    st.sampled_from([
        "", "   ", "\r", "slot,bank", "1,0,2,m_ready", "1,0,2,m_ready,1,5,",
        "1,0,2,m_ready,2,m_ready,5", "1,0,2,0,1,5", " 1,0,2,k_limit,1,5 ",
        "1,0,2,drain,1,5\r", "-1,0,2,m_ready,1,5", "1,0,2,m_ready,1,٥",
    ]),
)  # fmt: skip


DECIMAL = re.compile(r"-?[0-9]{1,18}")
LONG = re.compile(r"-?[0-9]{19,}")


def _strict(text, skip="slot,", fields=5, text_column=3, keep=DECIMAL.fullmatch):
    """``text`` as a legacy reader must read it to give the readers'
    outcome.  In every line it parses, a field that ``int`` takes but the
    readers refuse (a ``+``, ``_``, spaces, non-ASCII digits, more than
    18 digits) is replaced by ``x``, so that it raises the same located
    "non-integer field" error; with ``keep``, each field it does not
    keep.  A line starting with ``skip`` is parsed unless it is line 1:
    the readers skip a header there only, a legacy state reader anywhere."""
    out = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not (lineno == 1 and line.startswith(skip)):
            parts = line.split(",")
            if len(parts) >= fields or line.startswith(skip):
                parts = [p if k == text_column or keep(p) else "x" for k, p in enumerate(parts)]
                raw = ",".join(parts)
        out.append(raw)
    return "\n".join(out)


def _int64_fields(text, skip="slot,", fields=5, text_column=3):
    """``text`` with only its fields of more than 18 digits refused, for
    a reader that took them."""
    return _strict(text, skip, fields, text_column, keep=lambda p: not LONG.fullmatch(p))


def _read_batches(stream):
    """``read_log``'s log as the legacy reader's per-batch records."""
    return legacy_oracle.batches_of(read_log(stream))


def _read(reader, text):
    try:
        return "ok", list(reader(io.StringIO(text)))
    except LogFormatError as exc:
        return LogFormatError, str(exc)


@settings(deadline=None, max_examples=300)
@given(
    lines=st.lists(LOG_LINE, max_size=30),
    header=st.booleans(),
    final_newline=st.booleans(),
)
def test_read_log_matches_the_legacy_reader(lines, header, final_newline):
    """Drawn logs, some malformed: the same batches, or the same error
    naming the same line; a field only ``int`` takes is a non-integer one."""
    head = ["slot,bank,row_id,trigger,n_items,byte_ids"] if header else []
    text = "\n".join(head + lines)
    text += "\n" if final_newline else ""
    assert _read(_read_batches, text) == _read(legacy_oracle.read_log, _strict(text))


@settings(deadline=None, max_examples=150)
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(0, 2**40), st.integers(0, 63), st.sampled_from(TRIGGERS),
            st.lists(st.integers(0, 1023), max_size=6),
        ),
        max_size=40,
    )
)  # fmt: skip
def test_write_log_matches_the_legacy_writer(pairs):
    batches = [(s, b, 3, t, tuple(ids)) for s, b, t, ids in pairs]
    log = make_log(*batches)
    got, want = io.StringIO(), io.StringIO()
    write_log(log, got)
    legacy_oracle.write_log(legacy_oracle.batches_of(log), want)
    # The legacy writer ends an empty batch's line with a comma that
    # neither reader accepts; every other line is the same.
    assert got.getvalue() == want.getvalue().replace(",\n", "\n")
    assert batches_of(read_log(io.StringIO(got.getvalue()))) == batches
    assert _read(_read_batches, got.getvalue()) == _read(
        legacy_oracle.read_log, got.getvalue()
    )


# Any Python int: past int64 either way, and negative.
WIDE_INT = st.one_of(
    st.integers(0, 2**40),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**63 - 1, 2**63, 2**64, 2**70, -1, -(2**63) - 1]),
)


@settings(deadline=None, max_examples=200)
@given(
    pairs=st.lists(
        st.tuples(
            WIDE_INT, WIDE_INT, WIDE_INT, st.sampled_from(TRIGGERS),
            st.lists(WIDE_INT, max_size=6),
        ),
        max_size=30,
    )
)  # fmt: skip
def test_write_log_matches_the_per_batch_writer(pairs):
    """The array-pass writer writes the per-batch f-strings' bytes for
    every int64 field, and refuses a log with a field past int64."""
    log = make_log(*((s, b, r, t, tuple(ids)) for s, b, r, t, ids in pairs))
    got, want = io.StringIO(), io.StringIO()
    if any(not -(2**63) <= v < 2**63 for s, b, r, _, ids in pairs for v in (s, b, r, *ids)):
        with pytest.raises(OverflowError):
            write_log(log, got)
    else:
        write_log(log, got)
        legacy_writers.write_log(log, want)
        assert got.getvalue() == want.getvalue()


def test_write_log_refuses_fields_beyond_int64():
    """A slot of 2**70, a bank of 2**64 or one of -2**64 is refused, not
    written as the f-string writer wrote it; -2**63 and 2**63 - 1 are
    written."""
    for batch in [(2**70, 2, 3, "m_ready", (1, 7)), (5, 2**64, 3, "drain", ()),
                  (5, -(2**64), 3, "drain", ())]:  # fmt: skip
        with pytest.raises(OverflowError):
            write_log(make_log(batch), io.StringIO())
    got = io.StringIO()
    write_log(make_log((2**63 - 1, -(2**63), 3, "m_ready", (-1, 7))), got)
    assert got.getvalue().splitlines()[1:] == [f"{2**63 - 1},{-(2**63)},3,m_ready,2,-1,7"]


STATE_LINE = st.one_of(
    st.builds(
        lambda *fields: ",".join(map(str, fields)),
        st.integers(0, 70), st.integers(0, 70), st.integers(0, 1100), st.integers(0, 300),
    ),
    st.builds(",".join, st.lists(LOG_FIELD, min_size=3, max_size=5)),
    st.sampled_from(["", "  ", "bank,row_id,byte_id,value", "1,2,3", "1,2,3,4,5", "\r"]),
)  # fmt: skip


def _state(reader, path):
    """The counters a state reader gives as a dict, the last value of a
    repeated one kept, or the error it raises."""
    try:
        state = reader(path)
    except SimError as exc:
        return type(exc), str(exc)
    if isinstance(state, dict):
        return "ok", dict(state)
    banks, row_ids, byte_ids, values = ([int(x) for x in c] for c in state)
    return "ok", dict(zip(zip(banks, row_ids, byte_ids), values))


@settings(deadline=None, max_examples=300)
@given(lines=st.lists(STATE_LINE, max_size=30), header=st.booleans())
def test_read_state_matches_the_legacy_reader(tmp_path_factory, lines, header):
    """Drawn state dumps, some malformed: the same counters, a repeated
    one keeping its last value, or the same error naming the same line; a
    field only ``int`` takes is a non-integer one."""
    folder = tmp_path_factory.mktemp("state")
    path, strict = str(folder / "state.csv"), str(folder / "strict.csv")
    head = ["bank,row_id,byte_id,value"] if header else []
    text = "\n".join(head + lines) + "\n"
    for name, content in ((path, text), (strict, _strict(text, "bank,", 4, None))):
        with open(name, "w", encoding="utf-8") as f:
            f.write(content)
    want = _state(legacy_oracle._read_state, strict)
    if want[0] is SimError:
        want = (SimError, want[1].replace(strict, path))
    assert _state(cli._read_state, path) == want


# What the parent-reader differential tests put into a valid log or dump.
CSV_INSERTS = ["-", "+", " ", "\n", "\n\n", ",", "\x00", "é", "٥"]
CSV_FIELDS = ["9" * 19, "1" + "0" * 18, "9" * 18, "-7", "-0", "+7", " 7", "7 ", "", "é",
              "whenever", "M_READY", *TRIGGERS]  # fmt: skip


def _mutated_csv(data, text):
    """``text`` changed up to three times: a drawn string inserted at a
    drawn offset, a blank line inserted, a drawn field or a line's fourth
    field (a log's trigger) replaced, or the final newline dropped."""
    kinds = ("insert", "blank", "field", "trigger", "unterminated")
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(kinds))
        lines = text.split("\n")
        k = data.draw(st.integers(0, len(lines) - 1))
        if kind == "insert":
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(CSV_INSERTS)) + text[at:]
        elif kind == "blank":
            lines.insert(k, data.draw(st.sampled_from(["", "  ", "\r"])))
            text = "\n".join(lines)
        elif kind == "unterminated":
            text = text.rstrip("\n")
        else:
            fields = lines[k].split(",")
            f = 3 if kind == "trigger" and len(fields) > 3 else None
            f = data.draw(st.integers(0, len(fields) - 1)) if f is None else f
            fields[f] = data.draw(st.sampled_from(CSV_FIELDS))
            lines[k] = ",".join(fields)
            text = "\n".join(lines)
    return text


def _log_outcome(reader, text):
    """The batches a log reader gives, or the type and message of its error."""
    try:
        return "ok", batches_of(reader(io.StringIO(text)))
    except Exception as exc:
        return type(exc), str(exc)


LOG_BATCH = st.tuples(
    st.integers(0, 10**6), st.integers(0, 63), st.integers(0, 63), st.sampled_from(TRIGGERS),
    st.lists(st.integers(0, 1023), max_size=5).map(tuple),
)  # fmt: skip


@settings(deadline=None, max_examples=300)
@given(batches=st.lists(LOG_BATCH, max_size=25), header=st.booleans(), data=st.data())
def test_read_log_matches_the_parent_reader(batches, header, data):
    """A valid log, mutated up to three times: the same batches as the
    reader that blanked the trigger column with a running sum and gave
    list columns, or the same error."""
    buf = io.StringIO()
    write_log(make_log(*batches), buf)
    text = buf.getvalue() if header else buf.getvalue().partition("\n")[2]
    text = _mutated_csv(data, text)
    want = _log_outcome(legacy_readers.read_log, _int64_fields(text))
    assert _log_outcome(read_log, text) == want


# Trigger fields one byte off a trigger's name, or of its length.
NEAR_TRIGGERS = ["m_readx", "n_ready", "k_limi", "k_limitt", "buffer_fulL", "drain\x00",
                 "\x00drain", "drai", "dr\u00e1in", "drains", "m_ready\u00e9"]  # fmt: skip


def _log_columns(reader, text):
    """A log reader's six columns with their dtypes, or the type and
    message of its error."""
    try:
        log = reader(io.StringIO(text))
    except Exception as exc:
        return type(exc), str(exc)
    columns = [np.asarray(getattr(log, name)) for name in log.__slots__]
    return "ok", [(c.dtype.name, c.tolist()) for c in columns]


@settings(deadline=None, max_examples=300)
@given(batches=st.lists(LOG_BATCH, max_size=25), header=st.booleans(), data=st.data())
def test_read_log_matches_the_str_trigger_reader(batches, header, data):
    """A valid log, mutated up to three times, trigger fields included:
    the same columns as the reader that made a str of every trigger
    field and looked it up, or the same error text."""
    buf = io.StringIO()
    write_log(make_log(*batches), buf)
    text = buf.getvalue() if header else buf.getvalue().partition("\n")[2]
    lines = text.split("\n")
    for _ in range(data.draw(st.integers(0, 2))):
        k = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(",")
        if len(fields) > 3:
            fields[3] = data.draw(st.sampled_from(NEAR_TRIGGERS))
            lines[k] = ",".join(fields)
    text = _mutated_csv(data, "\n".join(lines))
    want = _log_columns(legacy_readers.read_log_by_str, _int64_fields(text))
    assert _log_columns(read_log, text) == want


@pytest.mark.parametrize(
    "text, header, text_column, want",
    [("slot,b\n1,2,m_ready,3\n4,5,drain,6\n", "slot,", 2,
      ([1, 2, 0, 3, 4, 5, 0, 6], "int64", [0, 4], [4, 4], ["m_ready", "drain"], [2, 3], 2)),
     ("\n 1,-2,a,3 \r\n\n-0,5,,6\r\n\t\n", "slot,", 2,
      ([1, -2, 0, 3, 0, 5, 0, 6], "int64", [0, 4], [4, 4], ["a", ""], [2, 4], 2)),
     ("1,2,a,3\n4,5\n6,x,b,7\n", "slot,", 2,
      ([1, 2, 0, 3], "int64", [0], [4, 2, 4], ["a"], [1, 2, 3], 1)),
     ("1,2,é,3\n4,+5,b,6\n7,8,c,9", "slot,", 2,
      ([1, 2, 0, 3], "int64", [0], [4, 4, 4], ["é"], [1, 2, 3], 1)),
     ("1,2,a,99999999999999999999\n3,-,b,4\n", "slot,", 2,
      ([], "int64", [], [4, 4], [], [1, 2], 0)),
     ("\nbank,r\n5,6\n", "bank,", None, ([], "int64", [], [2, 2], [], [2, 3], 0)),
     ("bank,r\n\n5,6\n", "bank,", None, ([5, 6], "int64", [0], [2], [], [3], 1)),
     ("", "bank,", None, ([], "int64", [], [], [], [], 0))],
    ids=["plain", "blank_padded_crlf_minus", "no_text_field", "non_decimal",
         "over_long", "header_on_line_2", "header_on_line_1", "empty"],
)  # fmt: skip
def test_split_decimal_csv_numbers_kept_lines_and_finds_the_first_bad_one(
    text, header, text_column, want
):
    """Each kept line's number and field count, the index of the first
    line that cannot be split, and the values and texts of those before it."""
    values, first, counts, texts, lines, bad = oracle.split_decimal_csv(
        text, header, text_column
    )
    if texts is None:
        texts = []
    else:
        raw, start, width = texts
        texts = [raw[a : a + w].tobytes().decode() for a, w in zip(start, width)]
    got = (values.tolist(), values.dtype.name, first.tolist(), counts.tolist(), texts)
    assert got + (lines.tolist(), bad) == want


@pytest.mark.parametrize("sign", ["", "-"])
def test_split_decimal_csv_finds_a_field_longer_than_int_reads(sign):
    """A field of more digits than ``int`` reads, 4,300 by default, or of
    4,300, makes its line the first bad one, as any field of more than 18
    digits does; a ``-`` is not a digit, and the interpreter's limit no
    longer matters."""
    field = sign + "9" * 4301
    text = f"1,2\n3,{field}\n4,5\n"
    limit = sys.get_int_max_str_digits()
    for digits in (4300, 4301):
        for max_digits in (limit, 4301, 0):
            sys.set_int_max_str_digits(max_digits)
            try:
                got = oracle.split_decimal_csv(text.replace(field, field[: len(sign) + digits]), "bank,")
            finally:
                sys.set_int_max_str_digits(limit)
            values, first, counts, _, lines, bad = got
            assert (values.tolist(), values.dtype, first.tolist(), counts.tolist(), bad) == (
                [1, 2], np.int64, [0], [2, 2, 2], 1
            )


LOG_EDITS = ("blank", "crlf", "pad", "minus", "long")


@settings(deadline=None, max_examples=200)
@given(batches=st.lists(LOG_BATCH, min_size=1, max_size=20), data=st.data())
def test_every_log_read_log_takes_has_array_columns(batches, data):
    """A valid log with blank lines, CRLF endings, padded lines, ``-`` fields
    and fields of 18 or 19 digits drawn in: whenever ``read_log`` takes it,
    its columns are int64 arrays, and it holds the batches the line loop
    reads."""
    buf = io.StringIO()
    write_log(make_log(*batches), buf)
    lines = buf.getvalue().split("\n")[:-1]
    edited = data.draw(st.integers(0, len(lines) - 1))
    out = []
    for k, line in enumerate(lines):
        edits = st.sampled_from(LOG_EDITS if k == edited else (None,) + LOG_EDITS)
        edit, fields = data.draw(edits), line.split(",")
        at = data.draw(st.sampled_from([f for f in range(len(fields)) if f != 3]))
        if edit == "blank":
            out.append(data.draw(st.sampled_from(["", " ", "\t", "\r"])))
        elif edit == "crlf":
            line += "\r"
        elif edit == "pad":
            pads = st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x1c", "\xa0", "\u2028"])
            line = data.draw(pads) + line + data.draw(pads)
        elif edit in ("minus", "long"):
            long = "9" * data.draw(st.sampled_from([18, 19]))
            fields[at] = "-" + fields[at] if edit == "minus" else long
            line = ",".join(fields)
        out.append(line)
    text = "\n".join(out) + data.draw(st.sampled_from(["", "\n", "\r\n"]))
    try:
        log = read_log(io.StringIO(text))
    except LogFormatError:
        return
    for name in log.__slots__:
        column = getattr(log, name)
        assert isinstance(column, np.ndarray) and column.dtype == np.int64
    assert batches_of(log) == batches_of(legacy_readers._read_log_lines(text))


@settings(deadline=None, max_examples=150)
@given(batches=st.lists(LOG_BATCH, max_size=25))
def test_a_log_read_in_array_passes_is_written_back_byte_for_byte(batches):
    buf = io.StringIO()
    write_log(make_log(*batches), buf)
    log = read_log(io.StringIO(buf.getvalue()))
    for name in log.__slots__:
        column = getattr(log, name)
        assert isinstance(column, np.ndarray) and column.dtype == np.int64
    again = io.StringIO()
    write_log(log, again)
    assert again.getvalue() == buf.getvalue()
    assert batches_of(log) == batches


def test_verify_writes_into_no_column_of_a_read_log():
    """A zipf run's log read back as int64 arrays, verified as it is, with
    a bound it breaks and with a wrong final store: the same verdicts as
    the log built in memory, and every column as it was."""
    config = resolve(overrides={
        "trace.generator": "zipf", "trace.length": "2000", "mitigation.enabled": "false",
    })  # fmt: skip
    engine = Engine(config, collect_log=True)
    report = engine.run()
    events = engine.load_events()
    buf = io.StringIO()
    write_log(engine.batch_log, buf)
    log = read_log(io.StringIO(buf.getvalue()))
    before = [np.array(getattr(log, name)) for name in log.__slots__]
    wrong = np.array(engine.store.values)
    wrong[0, 0, 0] += 1
    verdicts = []
    for bound, final in [(config.buffer.pending_limit, engine.store.values), (1, None),
                         (config.buffer.pending_limit, wrong)]:  # fmt: skip
        kwargs = dict(
            staleness_bound=bound, final_values=final, reported_counter_acts=report.counter_acts
        )
        verdict = verify(events, log, config.geometry, **kwargs)
        assert verdict == verify(events, engine.batch_log, config.geometry, **kwargs)
        verdicts.append(verdict.rule)
    assert verdicts == [None, 1, 4]
    for name, column in zip(log.__slots__, before):
        assert np.array_equal(getattr(log, name), column)


DUMP_GEOMETRY = DramGeometry(
    banks=4, rows_per_bank=16, counter_rows_per_bank=4, counters_per_counter_row=4
)


def _state_outcome(reader, path):
    """The store a dump reader builds, or the type and message of its error."""
    try:
        state = reader(path, DUMP_GEOMETRY)
    except SimError as exc:
        return type(exc), str(exc)
    return state.shape, state.dtype, state.tolist()


@settings(deadline=None, max_examples=300)
@given(
    counters=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.integers(1, 255), max_size=20,
    ),
    order=st.sampled_from(("sorted", "shuffled", "repeated", "outside")),
    header=st.booleans(),
    data=st.data(),
)  # fmt: skip
def test_state_values_match_the_parent_reader(tmp_path_factory, counters, order, header, data):
    """A dump in key order, shuffled, with a counter listed again or with
    one outside the geometry or a byte, mutated up to three times: the
    store, or the error, of the reader that sorted every dump.  That
    reader is given the dump as ``_strict`` rewrites it for the header
    rule and the 18-digit one."""
    items = sorted((*counter, value) for counter, value in counters.items())
    if order == "shuffled":
        items = data.draw(st.permutations(items))
    elif order == "repeated" and items:
        again = data.draw(st.sampled_from(items))[:3] + (data.draw(st.integers(0, 255)),)
        items.insert(data.draw(st.integers(0, len(items))), again)
    elif order == "outside":
        items.append(data.draw(st.sampled_from([(4, 0, 0, 1), (0, 4, 0, 1), (0, 0, 4, 1),
                                                (0, 0, 0, 256)])))  # fmt: skip
    text = "bank,row_id,byte_id,value\n" if header else ""
    text = _mutated_csv(data, text + "".join("%d,%d,%d,%d\n" % item for item in items))
    path = tmp_path_factory.mktemp("dump") / "state.csv"
    # Line breaks as text mode reads them, so that ``_strict`` sees its lines.
    lines = text.replace("\r\n", "\n").replace("\r", "\n")
    path.write_bytes(_strict(lines, "bank,", 4, None).encode("utf-8"))
    want = _state_outcome(legacy_readers._state_values, str(path))
    path.write_bytes(text.encode("utf-8"))
    assert _state_outcome(cli._state_values, str(path)) == want
