import io

import pytest

from pracsim.errors import LogFormatError
from pracsim.oracle import LoggedBatch, Verdict, read_log, verify, write_log
from pracsim.trace import ActivationEvent


def events_for(spots):
    """Build consecutive-slot events from (bank, data_row) pairs."""
    return [ActivationEvent(i, bank, row) for i, (bank, row) in enumerate(spots)]


def repeat(bank, data_row, n):
    return events_for([(bank, data_row)] * n)


def test_kept_up_to_date_passes(toy_geometry):
    events = repeat(0, 0, 4)
    batches = [LoggedBatch(3, 0, 0, "k_limit", (0,))]
    verdict = verify(
        events,
        batches,
        toy_geometry,
        reported_counter_acts=1,
        final_values={(0, 0, 0): 4},
    )
    assert verdict.ok
    assert str(verdict) == "pass"


def test_unserviced_counter_violates_staleness(toy_geometry):
    verdict = verify(repeat(0, 0, 5), [], toy_geometry, staleness_bound=4)
    assert not verdict.ok
    assert verdict.rule == 1
    assert verdict.slot == 4
    assert "lags by 5" in verdict.message


def test_batch_in_shadow_resets_staleness(toy_geometry):
    events = repeat(0, 0, 9)
    batches = [
        LoggedBatch(3, 0, 0, "k_limit", (0,)),
        LoggedBatch(7, 0, 0, "k_limit", (0,)),
        LoggedBatch(9, 0, 0, "drain", (0,)),
    ]
    assert verify(events, batches, toy_geometry).ok


def test_oversized_batch_is_illegal(toy_geometry):
    events = repeat(0, 0, 1)
    batches = [LoggedBatch(0, 0, 0, "m_ready", (0, 1, 2, 3, 0))]
    verdict = verify(events, batches, toy_geometry, m_batch=4)
    assert (verdict.rule, verdict.slot) == (2, 0)


def test_duplicate_bytes_are_illegal(toy_geometry):
    batches = [LoggedBatch(0, 0, 0, "m_ready", (1, 1))]
    verdict = verify(repeat(0, 0, 1), batches, toy_geometry)
    assert verdict.rule == 2
    assert "duplicate" in verdict.message


def test_out_of_range_fields_are_illegal(toy_geometry):
    for bad in [
        LoggedBatch(0, 9, 0, "m_ready", (0,)),
        LoggedBatch(0, 0, 7, "m_ready", (0,)),
        LoggedBatch(0, 0, 0, "m_ready", (6,)),
    ]:
        verdict = verify(repeat(0, 0, 1), [bad], toy_geometry)
        assert verdict.rule == 2, bad


def test_drain_trigger_inside_body_is_illegal(toy_geometry):
    batches = [LoggedBatch(0, 0, 0, "drain", (0,))]
    verdict = verify(repeat(0, 0, 2), batches, toy_geometry)
    assert (verdict.rule, verdict.slot) == (2, 0)


def test_non_drain_trigger_at_drain_slot_is_illegal(toy_geometry):
    events = repeat(0, 0, 2)
    batches = [LoggedBatch(2, 0, 0, "m_ready", (0,))]
    verdict = verify(events, batches, toy_geometry)
    assert (verdict.rule, verdict.slot) == (2, 2)


def test_two_batches_in_one_shadow_are_illegal(toy_geometry):
    events = repeat(0, 0, 2)
    batches = [
        LoggedBatch(1, 0, 0, "m_ready", (0,)),
        LoggedBatch(1, 0, 1, "m_ready", (0,)),
    ]
    verdict = verify(events, batches, toy_geometry)
    assert (verdict.rule, verdict.slot) == (3, 1)


def test_batch_outside_activated_bank_is_illegal(toy_geometry):
    events = events_for([(0, 0), (0, 0)])
    batches = [LoggedBatch(1, 1, 0, "m_ready", (0,))]
    verdict = verify(events, batches, toy_geometry)
    assert (verdict.rule, verdict.slot) == (3, 1)


def test_missing_service_fails_conservation(toy_geometry):
    verdict = verify(repeat(0, 0, 2), [], toy_geometry)
    assert (verdict.rule, verdict.slot) == (4, 2)
    assert "ends at 0 of 2" in verdict.message


def test_drain_batch_settles_conservation(toy_geometry):
    events = repeat(0, 5, 3)
    batches = [LoggedBatch(3, 0, 1, "drain", (1,))]
    assert verify(events, batches, toy_geometry).ok


def test_wrong_final_value_is_reported(toy_geometry):
    events = repeat(0, 0, 2)
    batches = [LoggedBatch(2, 0, 0, "drain", (0,))]
    verdict = verify(events, batches, toy_geometry, final_values={(0, 0, 0): 3})
    assert verdict.rule == 4
    assert "expected 2" in verdict.message


def test_final_values_saturate(toy_geometry):
    events = repeat(0, 0, 300)
    batches = [LoggedBatch(300, 0, 0, "drain", (0,))]
    verdict = verify(
        events, batches, toy_geometry, staleness_bound=300,
        final_values={(0, 0, 0): 255},
    )
    assert verdict.ok


def test_reported_total_mismatch(toy_geometry):
    events = repeat(0, 0, 4)
    batches = [LoggedBatch(3, 0, 0, "k_limit", (0,))]
    verdict = verify(events, batches, toy_geometry, reported_counter_acts=2)
    assert verdict.rule == 5
    assert "reported 2" in verdict.message


def test_batch_beyond_drain_slot_is_unparseable(toy_geometry):
    with pytest.raises(LogFormatError):
        verify(repeat(0, 0, 1), [LoggedBatch(5, 0, 0, "drain", (0,))], toy_geometry)


def test_gapped_event_slots_are_unparseable(toy_geometry):
    events = [ActivationEvent(0, 0, 0), ActivationEvent(2, 0, 0)]
    with pytest.raises(LogFormatError):
        verify(events, [], toy_geometry)


def test_log_roundtrip():
    batches = [
        LoggedBatch(0, 0, 1, "m_ready", (0, 3)),
        LoggedBatch(7, 1, 2, "k_limit", (1,)),
        LoggedBatch(10, 0, 0, "drain", (0, 1, 2, 3)),
    ]
    buf = io.StringIO()
    write_log(batches, buf)
    assert read_log(io.StringIO(buf.getvalue())) == batches


def test_read_log_skips_header_and_blanks():
    text = "slot,bank,row_id,trigger,n_items,byte_ids\n\n1,0,2,m_ready,1,5\n"
    assert read_log(io.StringIO(text)) == [LoggedBatch(1, 0, 2, "m_ready", (5,))]


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


def test_verdict_strings():
    assert str(Verdict(True)) == "pass"
    text = str(Verdict(False, 3, 17, "two batches"))
    assert text == "rule 3 violated at slot 17: two batches"

