import io
import os
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_writers
from legacy_counters import CounterArray as ArgmaxCounterArray
from legacy_counters import HistogramCounterArray, PickListCounterArray
from pracsim.counters import COUNTER_MAX, CounterArray, effective_backoff
from pracsim.errors import ConfigError
from pracsim.geometry import DramGeometry
from store_items import nonzero_items


def test_rmw_accumulates(toy_geometry):
    store = CounterArray(toy_geometry)
    assert store.apply_rmw(0, 1, 2) == 1
    assert store.apply_rmw(0, 1, 2, increments=3) == 4
    assert store.get(0, 1, 2) == 4
    assert store.get(1, 1, 2) == 0


def test_rmw_saturates(toy_geometry):
    store = CounterArray(toy_geometry)
    assert store.apply_rmw(0, 0, 0, increments=300) == COUNTER_MAX
    assert store.apply_rmw(0, 0, 0) == COUNTER_MAX
    assert store.get(0, 0, 0) == COUNTER_MAX


def test_alert_resets_and_counts(toy_geometry):
    store = CounterArray(toy_geometry, n_bo=5)
    for expected in range(1, 5):
        assert store.apply_rmw(1, 2, 3) == expected
    assert store.alerts == 0
    # Fifth activation crosses the threshold; return value is pre-reset.
    assert store.apply_rmw(1, 2, 3) == 5
    assert store.alerts == 1
    assert store.mitigations == 1
    assert store.get(1, 2, 3) == 0


def test_alert_disabled(toy_geometry):
    store = CounterArray(toy_geometry, n_bo=None)
    for _ in range(300):
        store.apply_rmw(0, 0, 0)
    assert store.alerts == 0
    assert store.get(0, 0, 0) == COUNTER_MAX


def test_extra_rfms_hit_current_max(toy_geometry):
    store = CounterArray(toy_geometry, n_bo=10, rfms_per_alert=2)
    store.apply_rmw(0, 1, 1, increments=7)
    store.apply_rmw(0, 2, 2, increments=3)
    store.apply_rmw(0, 0, 0, increments=10)
    assert store.alerts == 1
    assert store.mitigations == 2
    assert store.get(0, 0, 0) == 0
    assert store.get(0, 1, 1) == 0
    assert store.get(0, 2, 2) == 3


def test_extra_rfm_ties_break_low(toy_geometry):
    store = CounterArray(toy_geometry, n_bo=10, rfms_per_alert=2)
    store.apply_rmw(1, 3, 3, increments=5)
    store.apply_rmw(1, 0, 1, increments=5)
    store.apply_rmw(1, 2, 2, increments=10)
    assert store.get(1, 0, 1) == 0
    assert store.get(1, 3, 3) == 5


def test_extra_rfms_stop_on_clean_bank(toy_geometry):
    store = CounterArray(toy_geometry, n_bo=1, rfms_per_alert=4)
    store.apply_rmw(0, 0, 0)
    assert store.alerts == 1
    assert store.mitigations == 1


def test_writeback_sets_absolute_value(toy_geometry):
    store = CounterArray(toy_geometry)
    store.apply_rmw(0, 1, 1, increments=9)
    assert store.apply_writeback(0, 1, 1, 2) == 2
    assert store.get(0, 1, 1) == 2


def test_writeback_alert(toy_geometry):
    store = CounterArray(toy_geometry, n_bo=20)
    store.apply_writeback(0, 0, 3, 25)
    assert store.alerts == 1
    assert store.get(0, 0, 3) == 0


def test_writeback_range_checked(toy_geometry):
    store = CounterArray(toy_geometry)
    with pytest.raises(ConfigError):
        store.apply_writeback(0, 0, 0, 256)
    with pytest.raises(ConfigError):
        store.apply_writeback(0, 0, 0, -1)


def test_proactive_tick_resets_max(toy_geometry, record_mitigations):
    store = CounterArray(toy_geometry)
    picks = record_mitigations(store)
    store.apply_rmw(0, 1, 0, increments=4)
    store.apply_rmw(0, 3, 2, increments=9)
    assert store.proactive_tick() is None
    assert picks == [(0, 3, 2)]
    assert store.get(0, 3, 2) == 0
    assert store.mitigations == 1
    assert store.alerts == 0


def test_proactive_tick_clean_bank(toy_geometry, record_mitigations):
    store = CounterArray(toy_geometry)
    picks = record_mitigations(store)
    assert _tick(store, picks) == []
    assert store.mitigations == 0


def test_proactive_tick_refreshes_every_bank_once_in_order(
    toy_geometry, record_mitigations
):
    """One tick takes one maximum from each bank, banks ascending, and
    tells ``on_mitigate`` in that order; a second tick takes the next."""
    store = CounterArray(toy_geometry)
    picks = record_mitigations(store)
    store.apply_rmw(1, 0, 3, increments=2)
    store.apply_rmw(0, 2, 2, increments=5)
    store.apply_rmw(0, 1, 0, increments=3)
    assert _tick(store, picks) == [(0, 2, 2), (1, 0, 3)]
    assert store.mitigations == 2
    assert _tick(store, picks) == [(0, 1, 0)]
    assert _tick(store, picks) == []
    assert (store.mitigations, store.alerts) == (3, 0)


def test_external_alert_writes_through(toy_geometry):
    store = CounterArray(toy_geometry, n_bo=28)
    store.apply_rmw(0, 2, 1, increments=20)
    store.external_alert(0, 2, 1)
    assert store.alerts == 1
    assert store.mitigations == 1
    assert store.get(0, 2, 1) == 0


def test_every_mitigation_is_reported(toy_geometry):
    """Alerts, extra RFMs and proactive refreshes all tell ``on_mitigate``."""
    reset = []
    store = CounterArray(
        toy_geometry,
        n_bo=10,
        rfms_per_alert=2,
        on_mitigate=lambda *ref: reset.append(ref),
    )
    store.apply_rmw(0, 1, 1, increments=7)
    store.apply_rmw(1, 2, 2, increments=3)
    store.apply_rmw(0, 0, 0, increments=10)
    store.proactive_tick()
    assert reset == [(0, 0, 0), (0, 1, 1), (1, 2, 2)]
    assert len(reset) == store.mitigations


def test_values_view_shares_the_counters(toy_geometry):
    store = CounterArray(toy_geometry)
    store.apply_rmw(1, 3, 2, increments=5)
    assert store.values[1, 3, 2] == 5
    assert int(store.values.sum()) == 5
    store.values[0, 1, 3] = 9
    assert store.get(0, 1, 3) == 9


def test_nonzero_tracking(toy_geometry, record_mitigations):
    """The histogram's zero count lets a refresh skip a clean bank: it
    follows increments and alert resets, so the last refresh finds none."""
    store = CounterArray(toy_geometry, n_bo=10)
    picks = record_mitigations(store)
    assert _tick(store, picks) == []
    store.apply_rmw(0, 0, 0)
    store.apply_rmw(0, 1, 1, increments=2)
    store.apply_rmw(0, 0, 0, increments=9)  # alerts and resets (0, 0, 0)
    assert store.mitigations == 1
    assert picks.take() == [(0, 0, 0)]
    assert _tick(store, picks) == [(0, 1, 1)]
    assert _tick(store, picks) == []
    assert store.mitigations == 2


def _one_bank_store(record_mitigations):
    """A refresh store of one bank of 4 counter rows of 4 bytes, and the
    recorder of its mitigations."""
    geometry = DramGeometry(
        banks=1, rows_per_bank=16, counter_rows_per_bank=4, counters_per_counter_row=4
    )
    store = CounterArray(geometry)
    return store, record_mitigations(store)


def _tick(store, picks):
    """One proactive tick's picks."""
    store.proactive_tick()
    return picks.take()


def test_refresh_resumes_past_its_last_pick(record_mitigations):
    """After a pick the search resumes past it: a top value put back at
    the picked counter through ``values``, which the bookkeeping does not
    see, is passed over for the next equal maximum."""
    store, picks = _one_bank_store(record_mitigations)
    store.apply_rmw(0, 2, 1, increments=5)
    store.apply_rmw(0, 0, 1, increments=5)
    assert _tick(store, picks) == [(0, 0, 1)]
    store.values[0, 0, 1] = 5
    assert _tick(store, picks) == [(0, 2, 1)]


def test_refresh_finds_a_top_value_written_before_its_last_pick(record_mitigations):
    """A write of the bank's top value before the last pick is the first
    maximum in row-major order, and the next pick takes it."""
    store, picks = _one_bank_store(record_mitigations)
    store.apply_rmw(0, 2, 1, increments=5)
    store.apply_rmw(0, 3, 1, increments=5)
    assert _tick(store, picks) == [(0, 2, 1)]
    store.apply_rmw(0, 0, 1, increments=5)
    assert _tick(store, picks) == [(0, 0, 1)]
    assert _tick(store, picks) == [(0, 3, 1)]
    assert _tick(store, picks) == []


def test_refresh_restarts_at_the_bank_start_when_the_top_falls(record_mitigations):
    """Once the last counter at the top is picked, the next largest value
    is searched from the bank's first counter, before the last pick."""
    store, picks = _one_bank_store(record_mitigations)
    store.apply_rmw(0, 2, 1, increments=5)
    store.apply_rmw(0, 0, 1, increments=3)
    store.apply_rmw(0, 3, 0, increments=3)
    assert _tick(store, picks) == [(0, 2, 1)]
    assert _tick(store, picks) == [(0, 0, 1)]
    assert _tick(store, picks) == [(0, 3, 0)]
    assert _tick(store, picks) == []


def test_proactive_tick_needs_a_refresh_store(toy_geometry):
    store = CounterArray(toy_geometry, refresh=False)
    store.apply_rmw(0, 1, 1, increments=3)
    with pytest.raises(ConfigError, match="without refresh"):
        store.proactive_tick()


def test_a_store_without_alerts_or_refresh_keeps_no_bookkeeping(toy_geometry):
    """Without ``n_bo`` no alert fires, so no extra refresh can pick a
    counter; an outside alert asking for extra refreshes is refused."""
    store = CounterArray(toy_geometry, n_bo=None, rfms_per_alert=3, refresh=False)
    assert store._hist is None
    assert store.apply_rmw(0, 1, 1, increments=300) == COUNTER_MAX
    with pytest.raises(ConfigError, match="extra refreshes"):
        store.external_alert(0, 1, 1)


def _resident_bytes() -> int:
    fields = {}
    with open("/proc/self/status") as f:
        for line in f:
            key, _, rest = line.partition(":")
            fields[key] = rest
    return sum(int(fields[key].split()[0]) * 1024 for key in ("RssAnon", "RssShmem"))


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
def test_reading_the_store_makes_no_page_resident(geometry):
    """A full read of a written store (a verifier's nonzero count) costs
    memory for the pages written, not for the whole 4 MB store."""
    store = CounterArray(geometry)
    store.apply_rmw(5, 3, 7)
    before = _resident_bytes()
    assert np.count_nonzero(store.values) == 1
    assert _resident_bytes() - before < 1 << 20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux page faults")
def test_an_opened_bank_faults_each_page_once(geometry):
    """A fresh page that a read-modify-write touches first faults twice,
    for the zero page and for its copy; a bank opened first faults once
    per page, and its writes fault no more."""
    resource = pytest.importorskip("resource")
    pages = 16 * geometry.rows_per_bank // 4096

    def faults_writing_16_banks(opened):
        store = CounterArray(geometry, refresh=False)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for bank in range(16):
            if opened:
                store.open_bank(bank)
            for row_id in range(0, geometry.counter_rows_per_bank, 4):
                store.apply_rmw(bank, row_id, 0)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    assert faults_writing_16_banks(opened=True) < 1.25 * pages
    assert faults_writing_16_banks(opened=False) > 1.75 * pages


def test_open_bank_writes_zeros_over_its_bank_alone(toy_geometry):
    """Opening a bank is meant for its first activation: it zeroes that
    bank, a value written through ``values`` included, and no other."""
    store = CounterArray(toy_geometry)
    store.values[0, 1, 1] = 7
    store.values[1, 2, 3] = 9
    store.open_bank(1)
    assert nonzero_items(store) == [(0, 1, 1, 7)]


def test_dump_csv(toy_geometry):
    store = CounterArray(toy_geometry)
    store.apply_rmw(1, 2, 3, increments=7)
    store.apply_rmw(0, 0, 1)
    buf = io.StringIO()
    store.dump(buf)
    assert buf.getvalue() == "bank,row_id,byte_id,value\n0,0,1,1\n1,2,3,7\n"


def test_state_equal(toy_geometry):
    a = CounterArray(toy_geometry)
    b = CounterArray(toy_geometry)
    a.apply_rmw(0, 0, 0)
    assert not np.array_equal(a.values, b.values)
    b.apply_rmw(0, 0, 0)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("kwargs", [{"n_bo": 0}, {"n_bo": 256}, {"rfms_per_alert": 0}])
def test_bad_parameters(toy_geometry, kwargs):
    with pytest.raises(ConfigError):
        CounterArray(toy_geometry, **kwargs)


def test_effective_backoff():
    assert effective_backoff("chronus", 4) == 32
    assert effective_backoff("unified_approxmax", 4) == 28
    assert effective_backoff("perrow", 1) == 31
    with pytest.raises(ConfigError):
        effective_backoff("perrow", 32)


@settings(deadline=None, max_examples=50)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 20)),
        max_size=200,
    )
)
def test_rmw_matches_dict_model(ops):
    """Differential check against a plain dict of saturating adds."""
    geometry = DramGeometry(
        banks=1, rows_per_bank=16, counter_rows_per_bank=4, counters_per_counter_row=4
    )
    store = CounterArray(geometry, n_bo=None)
    model = {}
    for row, byte, inc in ops:
        key = (row, byte)
        model[key] = min(COUNTER_MAX, model.get(key, 0) + inc)
        assert store.apply_rmw(0, row, byte, inc) == model[key]
    for (row, byte), value in model.items():
        assert store.get(0, row, byte) == value


def test_rfm_event_order_is_deterministic(toy_geometry):
    rng = random.Random(11)
    seen, replayed = [], []
    kwargs = dict(n_bo=15, rfms_per_alert=2)
    store = CounterArray(toy_geometry, on_mitigate=lambda *r: seen.append(r), **kwargs)
    replay = CounterArray(
        toy_geometry, on_mitigate=lambda *r: replayed.append(r), **kwargs
    )
    ops = [
        (rng.randrange(4), rng.randrange(4), rng.randrange(1, 6)) for _ in range(300)
    ]
    for row, byte, inc in ops:
        store.apply_rmw(0, row, byte, inc)
    for row, byte, inc in ops:
        replay.apply_rmw(0, row, byte, inc)
    assert seen and seen == replayed
    assert np.array_equal(store.values, replay.values)


def per_bank_ticks(ref):
    """One all-bank refresh on the legacy store: its per-bank tick for
    every bank in ascending order, clean banks left out."""
    picks = [ref.proactive_tick(bank) for bank in range(ref.geometry.banks)]
    return [pick for pick in picks if pick is not None]


# Mostly read-modify-writes, so counters climb to ties, alerts and (with
# alerts off) saturation; the stream comes from a seeded generator so that
# every example is a long, evenly random stream.
COUNTER_OPS = ("rmw",) * 10 + ("big_rmw", "writeback", "external_alert", "tick", "tick")


@settings(deadline=None, max_examples=120)
@given(
    banks=st.integers(2, 3),
    counter_rows=st.sampled_from((1, 2, 4)),
    cpc=st.sampled_from((4, 8)),
    n_bo=st.one_of(st.none(), st.integers(1, 40)),
    rfms_per_alert=st.integers(1, 4),
    length=st.integers(100, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_refresh_pick_matches_argmax_reference(
    record_mitigations, banks, counter_rows, cpc, n_bo, rfms_per_alert, length, seed
):
    """Every refresh, alert and saturating add picks and leaves the same
    counters as the argmax store the histogram replaced, and tells
    ``on_mitigate`` in the same order, op by op: one all-bank tick against
    that store's per-bank ticks over every bank, banks ascending."""
    geometry = DramGeometry(
        banks=banks,
        rows_per_bank=counter_rows * cpc,
        counter_rows_per_bank=counter_rows,
        counters_per_counter_row=cpc,
    )
    kwargs = dict(n_bo=n_bo, rfms_per_alert=rfms_per_alert)
    store = CounterArray(geometry, **kwargs)
    ref = ArgmaxCounterArray(geometry, **kwargs)
    seen, expected = record_mitigations(store), record_mitigations(ref)
    rng = random.Random(seed)
    for _ in range(length):
        op = rng.choice(COUNTER_OPS)
        bank = rng.randrange(banks)
        row, byte = rng.randrange(counter_rows), rng.randrange(cpc)
        if op in ("rmw", "big_rmw"):
            inc = rng.randint(1, 6) if op == "rmw" else rng.randint(50, 300)
            assert store.apply_rmw(bank, row, byte, inc) == ref.apply_rmw(
                bank, row, byte, inc
            )
        elif op == "writeback":
            value = rng.randrange(COUNTER_MAX + 1)
            assert store.apply_writeback(bank, row, byte, value) == ref.apply_writeback(
                bank, row, byte, value
            )
        elif op == "external_alert":
            value = rng.randrange(COUNTER_MAX + 1)
            # The legacy store still takes the cached copy's value.
            store.external_alert(bank, row, byte)
            ref.external_alert(bank, row, byte, value)
        else:
            store.proactive_tick()
            per_bank_ticks(ref)
        assert seen.take() == expected.take()
        assert (store.alerts, store.mitigations) == (ref.alerts, ref.mitigations)
        assert np.array_equal(store.values, ref.values)
    while True:
        store.proactive_tick()
        picks = seen.take()
        assert picks == per_bank_ticks(ref) == expected.take()
        if not picks:
            break
    assert not store.values.any()


def test_dump_matches_the_per_counter_reference():
    """``dump`` takes every nonzero value in one fancy-indexed read and
    writes the same bytes as the per-counter loop it replaced."""
    geometry = DramGeometry(
        banks=4, rows_per_bank=256, counter_rows_per_bank=8, counters_per_counter_row=32
    )
    store = CounterArray(geometry)
    ref = ArgmaxCounterArray(geometry)
    rng = random.Random(3)
    for _ in range(3000):
        bank, row, byte = rng.randrange(4), rng.randrange(8), rng.randrange(32)
        inc = rng.choice((1, 2, 7, 300))
        store.apply_rmw(bank, row, byte, inc)
        ref.apply_rmw(bank, row, byte, inc)
    got, want = io.StringIO(), io.StringIO()
    store.dump(got)
    ref.dump(want)
    assert got.getvalue() == want.getvalue()
    assert nonzero_items(store) == ref.nonzero_items()
    assert {v for *_, v in nonzero_items(store)} >= {1, 255}


@settings(deadline=None, max_examples=100)
@given(
    banks=st.integers(1, 3),
    counter_rows=st.sampled_from((1, 2, 4)),
    cpc=st.sampled_from((1, 4, 8)),
    writes=st.lists(
        st.tuples(
            st.integers(0, 2), st.integers(0, 3), st.integers(0, 7), st.integers(0, 255)
        ),
        max_size=60,
    ),
)
def test_dump_bytes_match_the_per_counter_loop(banks, counter_rows, cpc, writes):
    """The state dump, taken from the flat bytes and written at once, has
    the bytes of the per-counter loop over the 3-D nonzero index, for any
    device shape and any mix of zero and nonzero values, none included."""
    geometry = DramGeometry(
        banks=banks,
        rows_per_bank=counter_rows * cpc,
        counter_rows_per_bank=counter_rows,
        counters_per_counter_row=cpc,
    )
    store = CounterArray(geometry)
    ref = ArgmaxCounterArray(geometry)
    for bank, row, byte, value in writes:
        at = (bank % banks, row % counter_rows, byte % cpc)
        store.apply_writeback(*at, value)
        ref.apply_writeback(*at, value)
    got, want = io.StringIO(), io.StringIO()
    store.dump(got)
    ref.dump(want)
    assert got.getvalue() == want.getvalue()
    assert nonzero_items(store) == ref.nonzero_items()


@settings(deadline=None, max_examples=100)
@given(
    banks=st.integers(1, 4),
    counter_rows=st.integers(1, 5),
    cpc=st.integers(1, 9),
    writes=st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 4), st.integers(0, 8), st.integers(0, 255)
        ),
        max_size=80,
    ),
)
def test_dump_matches_the_per_counter_writer(banks, counter_rows, cpc, writes):
    """One ``%`` pass over the scan's columns writes the bytes, and the
    scan gives the items, of the per-counter f-strings and tuples."""
    geometry = DramGeometry(
        banks=banks,
        rows_per_bank=counter_rows * cpc,
        counter_rows_per_bank=counter_rows,
        counters_per_counter_row=cpc,
    )
    store = CounterArray(geometry)
    ref = legacy_writers.CounterArray(geometry)
    for bank, row, byte, value in writes:
        at = (bank % banks, row % counter_rows, byte % cpc)
        store.apply_writeback(*at, value)
        ref.apply_writeback(*at, value)
    got, want = io.StringIO(), io.StringIO()
    store.dump(got)
    ref.dump(want)
    assert got.getvalue() == want.getvalue()
    assert nonzero_items(store) == ref.nonzero_items()


def _replay(store, ref, seen, expected, rng, banks, counter_rows, cpc, length, ops):
    """Drive two stores through one random stream and check after each
    step that they return, count, hold and, as their recorders ``seen``
    and ``expected`` took, mitigate the same."""
    for _ in range(length):
        op = rng.choice(ops)
        bank = rng.randrange(banks)
        row, byte = rng.randrange(counter_rows), rng.randrange(cpc)
        if op in ("rmw", "big_rmw"):
            inc = rng.randint(1, 6) if op == "rmw" else rng.randint(50, 300)
            assert store.apply_rmw(bank, row, byte, inc) == ref.apply_rmw(
                bank, row, byte, inc
            )
        elif op == "writeback":
            value = rng.randrange(COUNTER_MAX + 1)
            assert store.apply_writeback(bank, row, byte, value) == ref.apply_writeback(
                bank, row, byte, value
            )
        elif op == "external_alert":
            store.external_alert(bank, row, byte)
            ref.external_alert(bank, row, byte)
        else:
            store.proactive_tick()
            ref.proactive_tick()
        assert seen.take() == expected.take()
        assert (store.alerts, store.mitigations) == (ref.alerts, ref.mitigations)
        assert np.array_equal(store.values, ref.values)


def _dump_bytes(store) -> str:
    buf = io.StringIO()
    store.dump(buf)
    return buf.getvalue()


@settings(deadline=None, max_examples=120)
@given(
    banks=st.integers(1, 3),
    counter_rows=st.one_of(st.integers(1, 4), st.integers(8, 64)),
    cpc=st.integers(1, 8),
    n_bo=st.one_of(st.none(), st.integers(1, 40)),
    rfms_per_alert=st.integers(1, 4),
    length=st.integers(100, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_refresh_pick_matches_the_histogram_store(
    record_mitigations, banks, counter_rows, cpc, n_bo, rfms_per_alert, length, seed
):
    """Every refresh, alert and saturating add picks and leaves the same
    counters, tells ``on_mitigate`` in the same order and dumps the same
    bytes as the store that searched each pick's value from its bank's
    first byte."""
    geometry = DramGeometry(
        banks=banks,
        rows_per_bank=counter_rows * cpc,
        counter_rows_per_bank=counter_rows,
        counters_per_counter_row=cpc,
    )
    kwargs = dict(n_bo=n_bo, rfms_per_alert=rfms_per_alert)
    store = CounterArray(geometry, **kwargs)
    ref = HistogramCounterArray(geometry, **kwargs)
    seen, expected = record_mitigations(store), record_mitigations(ref)
    rng = random.Random(seed)
    _replay(
        store, ref, seen, expected, rng, banks, counter_rows, cpc, length, COUNTER_OPS
    )
    assert _dump_bytes(store) == _dump_bytes(ref)
    while True:
        store.proactive_tick()
        picks = seen.take()
        assert picks == ref.proactive_tick() == expected.take()
        if not picks:
            break
    assert not store.values.any()


@settings(deadline=None, max_examples=60)
@given(
    banks=st.integers(1, 3),
    counter_rows=st.sampled_from((1, 2, 4, 16)),
    cpc=st.sampled_from((1, 4, 8)),
    n_bo=st.one_of(st.none(), st.integers(1, 40)),
    length=st.integers(100, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_store_without_bookkeeping_matches_a_refresh_store(
    record_mitigations, banks, counter_rows, cpc, n_bo, length, seed
):
    """Without refresh and with one refresh per alert, a store only writes
    values; its returns, counts, values and dump are a refresh store's."""
    geometry = DramGeometry(
        banks=banks,
        rows_per_bank=counter_rows * cpc,
        counter_rows_per_bank=counter_rows,
        counters_per_counter_row=cpc,
    )
    store = CounterArray(geometry, n_bo=n_bo, refresh=False)
    ref = CounterArray(geometry, n_bo=n_bo, refresh=True)
    seen, expected = record_mitigations(store), record_mitigations(ref)
    assert store._hist is None
    ops = ("rmw",) * 10 + ("big_rmw", "writeback", "external_alert")
    rng = random.Random(seed)
    _replay(store, ref, seen, expected, rng, banks, counter_rows, cpc, length, ops)
    assert _dump_bytes(store) == _dump_bytes(ref)


@settings(deadline=None, max_examples=120)
@given(
    banks=st.integers(1, 3),
    counter_rows=st.sampled_from((1, 2, 4, 16)),
    cpc=st.sampled_from((1, 4, 8)),
    n_bo=st.one_of(st.none(), st.integers(1, 40)),
    rfms_per_alert=st.integers(1, 4),
    refresh=st.booleans(),
    handler=st.booleans(),
    length=st.integers(100, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_store_matches_the_pick_list_store(
    record_mitigations,
    banks,
    counter_rows,
    cpc,
    n_bo,
    rfms_per_alert,
    refresh,
    handler,
    length,
    seed,
):
    """Each bank opened before its first write, as an engine opens it, a
    store whose refresh keeps no pick list mitigates the counters, in the
    order, that the store with pick lists told ``on_mitigate`` and its
    ticks returned, and holds and counts the same after every call,
    refused calls included.  Without a handler it counts the same."""
    geometry = DramGeometry(
        banks=banks,
        rows_per_bank=counter_rows * cpc,
        counter_rows_per_bank=counter_rows,
        counters_per_counter_row=cpc,
    )
    kwargs = dict(n_bo=n_bo, rfms_per_alert=rfms_per_alert, refresh=refresh)
    store = CounterArray(geometry, **kwargs)
    ref = PickListCounterArray(geometry, **kwargs)
    seen = record_mitigations(store) if handler else None
    expected = record_mitigations(ref)
    opened = set()
    rng = random.Random(seed)
    for _ in range(length):
        op = rng.choice(COUNTER_OPS)
        bank = rng.randrange(banks)
        row, byte = rng.randrange(counter_rows), rng.randrange(cpc)
        if bank not in opened:
            store.open_bank(bank)
            opened.add(bank)
        if op in ("rmw", "big_rmw"):
            inc = rng.randint(1, 6) if op == "rmw" else rng.randint(50, 300)
            assert store.apply_rmw(bank, row, byte, inc) == ref.apply_rmw(
                bank, row, byte, inc
            )
        elif op == "writeback":
            value = rng.randrange(COUNTER_MAX + 1)
            assert store.apply_writeback(bank, row, byte, value) == ref.apply_writeback(
                bank, row, byte, value
            )
        elif op == "external_alert":
            if n_bo is None and not refresh and rfms_per_alert > 1:
                with pytest.raises(ConfigError):
                    store.external_alert(bank, row, byte)
                with pytest.raises(ConfigError):
                    ref.external_alert(bank, row, byte)
            else:
                store.external_alert(bank, row, byte)
                ref.external_alert(bank, row, byte)
        elif refresh:
            before = len(expected)
            assert store.proactive_tick() is None
            assert ref.proactive_tick() == expected[before:]
        else:
            with pytest.raises(ConfigError):
                store.proactive_tick()
            with pytest.raises(ConfigError):
                ref.proactive_tick()
        if seen is not None:
            assert seen.take() == expected.take()
        assert (store.alerts, store.mitigations) == (ref.alerts, ref.mitigations)
        assert np.array_equal(store.values, ref.values)
