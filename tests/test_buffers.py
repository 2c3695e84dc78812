import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_buffers import (
    LEGACY_CLASSES,
    BatchItem,
    ServiceBatch,
    UnifiedApproxMaxBuffer,
    UnifiedFcfsBuffer,
    make_tuple_key_buffer,
)
from pracsim.buffers import (
    DESIGNS,
    K_TRIGGER_MODES,
    TRIG_BUFFER_FULL,
    TRIG_DRAIN,
    TRIG_K_LIMIT,
    TRIG_M_READY,
    BufferConfig,
    _merge_items,
    make_buffer,
)
from pracsim.errors import ConfigError

UNIFIED = ("unified_fcfs", "unified_sorted", "unified_approxmax")
BUFFERED = ("perrow",) + UNIFIED


def cfg(**kwargs):
    return BufferConfig(**kwargs)


def entry_counts(buf):
    """Rows currently buffered and how many entries each holds."""
    return {row: len(entries) for row, entries in buf._rows.items()}


def victim_of(buf):
    """The row the buffer's design would flush if its pool were full."""
    return buf._pick_victim(buf)


def pairs(batch):
    """A batch's items as (key, value) pairs, in service order."""
    return list(batch.items.items())


def normal_items(items):
    """Items as [(byte_id, increments, wb_value or None)] in service order,
    from an items dict or from a sequence of legacy ``BatchItem``."""
    if not isinstance(items, dict):
        return [tuple(item) for item in items]
    out = []
    for key, value in items.items():
        if key < 0:
            wb_value, increments = value
            out.append((~key, increments, wb_value))
        else:
            out.append((key, value, None))
    return out


def normalize(batch):
    """(bank, row_id, items as ``normal_items``, trigger); None stays None."""
    if batch is None:
        return None
    return (batch.bank, batch.row_id, normal_items(batch.items), batch.trigger)


def drained(buf):
    return [normalize(batch) for batch in buf.drain()]


def test_chronus_immediate():
    buf = make_buffer(0, cfg(design="chronus"))
    batch = buf.insert(3, 7)
    assert batch.row_id == 3
    assert batch.items == {7: 1}
    assert batch.trigger == TRIG_M_READY
    assert len(buf) == 0
    assert buf.drain() == []


def test_first_insert_buffers_quietly():
    for design in BUFFERED:
        buf = make_buffer(0, cfg(design=design))
        assert buf.insert(2, 5) is None
        assert len(buf) == 1


def test_k_limit_flush_coalesces_repeats():
    """Four activations of one counter at K=4 flush as a single batch of
    four increments."""
    for design in BUFFERED:
        buf = make_buffer(0, cfg(design=design, k_limit=4))
        assert buf.insert(1, 9) is None
        assert buf.insert(1, 9) is None
        assert buf.insert(1, 9) is None
        batch = buf.insert(1, 9)
        assert batch is not None, design
        assert batch.trigger == TRIG_K_LIMIT
        assert batch.items == {9: 4}
        assert len(buf) == 0


def test_k_limit_flushes_whole_row():
    buf = make_buffer(0, cfg(design="perrow", m_batch=4, k_limit=3))
    buf.insert(1, 0)
    buf.insert(1, 1)
    buf.insert(1, 0)
    batch = buf.insert(1, 0)
    assert batch.trigger == TRIG_K_LIMIT
    assert pairs(batch) == [(0, 3), (1, 1)]


def test_m_ready_at_four_distinct_bytes():
    for design in BUFFERED:
        buf = make_buffer(0, cfg(design=design, m_batch=4))
        for byte in (0, 1, 2):
            assert buf.insert(6, byte) is None
        batch = buf.insert(6, 3)
        assert batch is not None, design
        assert batch.trigger == TRIG_M_READY
        assert pairs(batch) == [(b, 1) for b in (0, 1, 2, 3)]
        assert len(buf) == 0


def test_buffer_full_victims_differ_by_design():
    """State rows {B:1 oldest, A:3}: FCFS evicts B, the count-based
    designs evict A."""
    sequences = {"unified_fcfs": 2, "unified_sorted": 5, "unified_approxmax": 5}
    for design, victim in sequences.items():
        buf = make_buffer(0, cfg(design=design, capacity=4, m_batch=4))
        buf.insert(2, 0)
        buf.insert(5, 0)
        buf.insert(5, 1)
        buf.insert(5, 2)
        assert victim_of(buf) == victim, design
        batch = buf.insert(7, 0)
        assert batch.trigger == TRIG_BUFFER_FULL
        assert batch.row_id == victim
        assert len(buf) == 4 - (1 if victim == 2 else 3) + 1


def test_sorted_ties_break_to_lowest_row():
    buf = make_buffer(0, cfg(design="unified_sorted", capacity=8))
    buf.insert(5, 0)
    buf.insert(5, 1)
    buf.insert(3, 0)
    buf.insert(3, 1)
    assert victim_of(buf) == 3


def test_approxmax_tracks_on_insert():
    buf = make_buffer(0, cfg(design="unified_approxmax", capacity=8))
    buf.insert(2, 0)
    assert victim_of(buf) == 2
    buf.insert(1, 0)
    assert victim_of(buf) == 2
    buf.insert(1, 1)
    assert victim_of(buf) == 1


def test_approxmax_defaults_to_oldest_after_removal():
    """After the tracked row flushes, the estimate falls back to the
    oldest remaining entry's row with its recomputed count."""
    buf = make_buffer(0, cfg(design="unified_approxmax", capacity=8, k_limit=2))
    buf.insert(4, 0)
    buf.insert(1, 0)
    buf.insert(1, 1)
    assert victim_of(buf) == 1
    batch = buf.insert(1, 0)
    assert batch.trigger == TRIG_K_LIMIT
    assert batch.row_id == 1
    assert victim_of(buf) == 4


def test_approxmax_estimate_can_go_stale_low():
    """The fallback row may not hold the true maximum; a later insert to a
    larger row catches the metadata up."""
    buf = make_buffer(0, cfg(design="unified_approxmax", capacity=16, k_limit=2))
    buf.insert(4, 0)
    buf.insert(7, 0)
    buf.insert(7, 1)
    buf.insert(7, 2)
    buf.insert(1, 0)
    buf.insert(1, 1)
    assert victim_of(buf) == 7
    buf.insert(7, 0)  # k-flush removes the tracked row
    assert victim_of(buf) == 4
    buf.insert(1, 2)
    assert victim_of(buf) == 1


def test_perrow_never_fills():
    buf = make_buffer(0, cfg(design="perrow", capacity=4, m_batch=4))
    for row in range(40):
        assert buf.insert(row, 0) is None
    assert len(buf) == 40


def test_deferred_full_row_serviced_next_shadow():
    """A row that reaches M while its shadow is consumed by buffer_full
    is flushed at the next opportunity."""
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=4, m_batch=4))
    buf.insert(9, 0)
    buf.insert(5, 0)
    buf.insert(5, 1)
    buf.insert(5, 2)
    batch = buf.insert(5, 3)
    assert batch.trigger == TRIG_BUFFER_FULL
    assert batch.row_id == 9
    assert entry_counts(buf) == {5: 4}
    follow = buf.insert(5, 0)
    assert follow.trigger == TRIG_M_READY
    assert follow.row_id == 5
    assert sorted(pairs(follow)) == [(0, 2), (1, 1), (2, 1), (3, 1)]
    assert len(buf) == 0


def test_deferred_row_flushed_by_unrelated_insert():
    buf = make_buffer(0, cfg(design="unified_sorted", capacity=6, m_batch=4))
    for byte in range(3):
        buf.insert(2, byte)
        buf.insert(5, byte)
    batch = buf.insert(5, 3)
    assert batch.trigger == TRIG_BUFFER_FULL
    assert batch.row_id == 2
    assert entry_counts(buf) == {5: 4}
    follow = buf.insert(7, 0)
    assert follow.trigger == TRIG_M_READY
    assert follow.row_id == 5
    assert len(follow.items) == 4
    assert entry_counts(buf) == {7: 1}


def test_writeback_coexists_and_merges():
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=8, k_limit=3))
    buf.insert(3, 6)
    assert buf.try_insert_writeback(3, 6, 42)
    assert len(buf) == 2
    buf.insert(3, 6)
    batch = buf.insert(3, 6)
    assert batch.trigger == TRIG_K_LIMIT
    assert pairs(batch) == [(~6, (42, 3))]


def test_writeback_alone_drains_as_pure_write():
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=8))
    assert buf.try_insert_writeback(2, 4, 17)
    batches = buf.drain()
    assert len(batches) == 1
    assert pairs(batches[0]) == [(~4, (17, 0))]
    assert batches[0].trigger == TRIG_DRAIN


def test_writeback_supersedes_previous_value():
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=8))
    assert buf.try_insert_writeback(2, 4, 10)
    assert buf.try_insert_writeback(2, 4, 11)
    assert len(buf) == 1
    assert pairs(buf.drain()[0]) == [(~4, (11, 0))]


def test_reset_writeback_zeroes_the_value_in_place():
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=8))
    buf.insert(2, 1)
    assert buf.try_insert_writeback(2, 4, 26)
    buf.insert(2, 5)
    buf.reset_writeback(2, 4)
    buf.reset_writeback(2, 5)  # an increment entry, not a writeback: untouched
    buf.reset_writeback(9, 4)  # no such row: a no-op
    assert len(buf) == 3
    assert pairs(buf.drain()[0]) == [(1, 1), (~4, (0, 0)), (5, 1)]


def test_writeback_refused_when_row_full():
    buf = make_buffer(0, cfg(design="perrow", m_batch=2))
    assert buf.try_insert_writeback(1, 0, 5)
    assert buf.try_insert_writeback(1, 1, 6)
    assert not buf.try_insert_writeback(1, 2, 7)


def test_writeback_refused_when_buffer_full():
    buf = make_buffer(0, cfg(design="unified_sorted", capacity=4, m_batch=4))
    for byte in range(3):
        buf.insert(0, byte)
    buf.insert(1, 0)
    assert not buf.try_insert_writeback(2, 0, 5)


def test_writeback_fills_row_to_deferred():
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=8, m_batch=2))
    buf.insert(4, 0)
    assert buf.try_insert_writeback(4, 1, 9)
    batch = buf.insert(6, 0)
    assert batch.trigger == TRIG_M_READY
    assert batch.row_id == 4
    assert pairs(batch) == [(0, 1), (~1, (9, 0))]


def test_drain_orders_rows_ascending():
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=8))
    buf.insert(7, 0)
    buf.insert(7, 1)
    buf.insert(2, 0)
    batches = buf.drain()
    assert [b.row_id for b in batches] == [2, 7]
    assert all(b.trigger == TRIG_DRAIN for b in batches)
    assert len(buf) == 0
    assert buf.drain() == []


def test_k_trigger_repcount_mode_flushes_one_later():
    buf = make_buffer(0, cfg(design="perrow", k_limit=4, k_trigger="repcount"))
    for _ in range(4):
        assert buf.insert(1, 1) is None
    batch = buf.insert(1, 1)
    assert batch.trigger == TRIG_K_LIMIT
    assert batch.items == {1: 5}


@pytest.mark.parametrize("mode, limit", [("pending", 4), ("repcount", 5)])
def test_pending_limit_per_k_trigger(mode, limit):
    assert cfg(k_limit=4, k_trigger=mode).pending_limit == limit


def test_k_limit_one_flushes_immediately():
    buf = make_buffer(0, cfg(design="unified_fcfs", k_limit=1))
    batch = buf.insert(3, 3)
    assert batch is not None
    assert batch.trigger == TRIG_K_LIMIT
    assert batch.items == {3: 1}


def test_k_limit_one_serves_an_increment_with_its_held_writeback():
    """At K = 1, an increment to a row held full goes out in its own
    shadow, merged with the queued writeback of its byte, so the next
    increment lags by one, not two."""
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=4, m_batch=1, k_limit=1))
    assert buf.try_insert_writeback(0, 12, 30)
    batch = buf.insert(0, 12)
    assert (pairs(batch), batch.trigger) == ([(~12, (30, 1))], TRIG_K_LIMIT)
    batch = buf.insert(0, 12)
    assert (pairs(batch), batch.trigger) == ([(12, 1)], TRIG_K_LIMIT)
    assert len(buf) == 0


def test_k_limit_one_serves_an_increment_beside_a_held_row():
    """At K = 1, an increment to a row held full without a writeback of
    its byte is served alone, and the row stays held."""
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=4, m_batch=1, k_limit=1))
    assert buf.try_insert_writeback(0, 5, 30)
    batch = buf.insert(0, 12)
    assert (pairs(batch), batch.trigger) == ([(12, 1)], TRIG_K_LIMIT)
    assert entry_counts(buf) == {0: 1}


def test_k_limit_one_serves_an_increment_in_a_full_pool():
    """At K = 1, an increment to a new row of a full pool is served alone
    and evicts nothing; one to a queued row with room takes the row."""
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=2, m_batch=2, k_limit=1))
    assert buf.try_insert_writeback(0, 1, 30)
    assert buf.try_insert_writeback(0, 2, 30)
    for _ in range(2):
        batch = buf.insert(2, 7)
        assert (pairs(batch), batch.trigger) == ([(7, 1)], TRIG_K_LIMIT)
    assert entry_counts(buf) == {0: 2}
    buf = make_buffer(0, cfg(design="unified_fcfs", capacity=2, m_batch=2, k_limit=1))
    assert buf.try_insert_writeback(0, 1, 30)
    assert buf.try_insert_writeback(1, 1, 20)
    batch = buf.insert(1, 3)
    assert (batch.row_id, pairs(batch)) == (1, [(~1, (20, 0)), (3, 1)])
    assert batch.trigger == TRIG_K_LIMIT
    assert entry_counts(buf) == {0: 1}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"design": "nosuch"},
        {"m_batch": 0},
        {"k_limit": 0},
        {"capacity": 3, "m_batch": 4},
        {"k_trigger": "sometimes"},
    ],
)
def test_bad_configs(kwargs):
    with pytest.raises(ConfigError):
        BufferConfig(**kwargs)


class _Replay:
    """Reference bookkeeping: true counts per counter, and the increments
    applied per counter by the batches the buffer emits."""

    def __init__(self, config):
        self.config = config
        self.true = {}
        self.applied = {}
        self.staleness_bound = config.pending_limit

    def record_insert(self, row, byte):
        key = (row, byte)
        self.true[key] = self.true.get(key, 0) + 1

    def absorb(self, batch, draining=False):
        assert 1 <= len(batch.items) <= self.config.m_batch
        items = normal_items(batch.items)
        bytes_seen = [byte_id for byte_id, _, _ in items]
        assert len(set(bytes_seen)) == len(bytes_seen)
        for byte_id, increments, _ in items:
            key = (batch.row_id, byte_id)
            self.applied[key] = self.applied.get(key, 0) + increments

    def check_staleness(self):
        for key, t in self.true.items():
            gap = t - self.applied.get(key, 0)
            assert gap <= self.staleness_bound, (key, gap)

    def check_conservation(self):
        for key, t in self.true.items():
            assert self.applied.get(key, 0) == t, key


@settings(deadline=None, max_examples=60)
@given(
    design=st.sampled_from(BUFFERED),
    k_trigger=st.sampled_from(("pending", "repcount")),
    capacity=st.sampled_from((4, 6, 8)),
    m_batch=st.sampled_from((1, 2, 4)),
    k_limit=st.sampled_from((1, 2, 4)),
    writebacks=st.sampled_from((0.0, 0.3)),
    length=st.integers(100, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_buffer_invariants_hold_on_random_streams(
    design, k_trigger, capacity, m_batch, k_limit, writebacks, length, seed
):
    """No counter lags its true count by more than the pending limit when
    a batch is served, a batch holds at most M counters, rows and the
    pool stay within bounds, and the drain applies every increment, with
    queued writebacks among the inserts."""
    config = BufferConfig(
        design=design,
        capacity=max(capacity, m_batch),
        m_batch=m_batch,
        k_limit=k_limit,
        k_trigger=k_trigger,
    )
    buf = make_buffer(0, config)
    replay = _Replay(config)
    rng = random.Random(seed)
    for _ in range(length):
        row, byte = rng.randrange(6), rng.randrange(6)
        if rng.random() < writebacks:
            buf.try_insert_writeback(row, byte, rng.randrange(41))
            continue
        replay.record_insert(row, byte)
        batch = buf.insert(row, byte)
        replay.check_staleness()
        if batch is not None:
            replay.absorb(batch)
        counts = entry_counts(buf)
        assert all(c <= m_batch for c in counts.values())
        if design != "perrow":
            assert len(buf) <= config.capacity
    for batch in buf.drain():
        assert batch.trigger == TRIG_DRAIN
        replay.absorb(batch, draining=True)
    replay.check_conservation()
    assert len(buf) == 0


@settings(deadline=None, max_examples=30)
@given(ops=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=200))
def test_approxmax_metadata_matches_true_count_on_update(ops):
    """The tracked count always equals the true entry count of the
    tracked row: promotion and fallback both set it exactly, and entries
    leave only through whole-row flushes."""
    config = BufferConfig(design="unified_approxmax", capacity=8)
    buf = make_buffer(0, config)
    for row, byte in ops:
        buf.insert(row, byte)
        if len(buf):
            victim = victim_of(buf)
            counts = entry_counts(buf)
            assert victim in counts
            assert counts[victim] == buf._meta_count
            assert buf._meta_count <= max(counts.values())


class _ArrivalOrderReference:
    """The scanning and sorting code that victim lookup and merging replaced.

    Stamps each entry with an arrival number as it is allocated, finds the
    oldest entry by scanning every entry, and merges a row's entries by
    sorting on arrival.  Mixed in ahead of a legacy per-design class, it
    swaps in only those parts, so it can run beside the production buffer.
    """

    def __init__(self, bank, config):
        super().__init__(bank, config)
        self.arrivals = {}  # id(entry) -> (arrival, entry); the entry pins its id

    def _allocate(self, row_id, byte_id, is_wb=False, wb_value=None):
        super()._allocate(row_id, byte_id, is_wb, wb_value)
        entry = self._rows[row_id][(byte_id, is_wb)]
        self.arrivals[id(entry)] = (len(self.arrivals), entry)

    def arrival(self, entry):
        return self.arrivals[id(entry)][0]

    def oldest_entry(self):
        best = None
        for entries in self._rows.values():
            for entry in entries.values():
                if best is None or self.arrival(entry) < self.arrival(best):
                    best = entry
        return best

    def reference_merge(self, entries):
        by_byte = {}
        for entry in sorted(entries.values(), key=self.arrival):
            pending = 0 if entry.is_wb else entry.rep_count + 1
            slot = by_byte.get(entry.byte_id)
            if slot is None:
                by_byte[entry.byte_id] = [
                    self.arrival(entry),
                    pending,
                    entry.wb_value if entry.is_wb else None,
                ]
            else:
                slot[1] += pending
                if entry.is_wb:
                    slot[2] = entry.wb_value
        merged = sorted(by_byte.items(), key=lambda kv: kv[1][0])
        return [BatchItem(byte_id, inc, wb) for byte_id, (_, inc, wb) in merged]

    def _flush_row(self, row_id, trigger):
        entries = self._rows.pop(row_id)
        self._total -= len(entries)
        self._full_rows.discard(row_id)
        batch = ServiceBatch(
            self.bank, row_id, tuple(self.reference_merge(entries)), trigger
        )
        self._after_flush(row_id)
        return batch


class _ReferenceFcfs(_ArrivalOrderReference, UnifiedFcfsBuffer):
    def _victim_row(self):
        return self.oldest_entry().row_id


class _ReferenceApproxMax(_ArrivalOrderReference, UnifiedApproxMaxBuffer):
    def _after_flush(self, row_id):
        if row_id != self._meta_row:
            return
        if self._total == 0:
            self._reset_metadata()
            return
        oldest = self.oldest_entry()
        self._meta_row = oldest.row_id
        self._meta_count = len(self._rows[oldest.row_id])


_REFERENCES = {"unified_fcfs": _ReferenceFcfs, "unified_approxmax": _ReferenceApproxMax}


@settings(deadline=None, max_examples=80)
@given(
    design=st.sampled_from(sorted(_REFERENCES)),
    capacity=st.sampled_from((4, 6, 8)),
    m_batch=st.sampled_from((2, 4)),
    k_limit=st.sampled_from((1, 2, 4)),
    length=st.integers(100, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_victim_and_merge_match_scanning_reference(
    design, capacity, m_batch, k_limit, length, seed
):
    """Random insert and writeback streams give the same batches, victim
    rows, approx-max meta pairs and merged items as the arrival-scanning
    reference, after every step and at the final drain."""
    config = BufferConfig(
        design=design, capacity=max(capacity, m_batch), m_batch=m_batch, k_limit=k_limit
    )
    buf = make_buffer(0, config)
    ref = _REFERENCES[design](0, config)
    rng = random.Random(seed)
    for _ in range(length):
        row, byte = rng.randrange(6), rng.randrange(6)
        if rng.random() < 0.5:
            value = rng.randrange(41)
            got = buf.try_insert_writeback(row, byte, value)
            assert got == ref.try_insert_writeback(row, byte, value)
        else:
            assert normalize(buf.insert(row, byte)) == normalize(ref.insert(row, byte))
        assert entry_counts(buf) == entry_counts(ref)
        if len(ref):
            assert victim_of(buf) == ref.victim_row()
        if design == "unified_approxmax":
            assert (buf._meta_row, buf._meta_count) == (ref._meta_row, ref._meta_count)
        for row_id, entries in buf._rows.items():
            assert normal_items(_merge_items(entries)) == normal_items(
                ref.reference_merge(ref._rows[row_id])
            )
    expected = []
    for row_id in sorted(ref._rows):
        items = ref.reference_merge(ref._rows[row_id])
        for start in range(0, len(items), m_batch):
            chunk = tuple(items[start : start + m_batch])
            expected.append(normalize(ServiceBatch(0, row_id, chunk, TRIG_DRAIN)))
    assert [normalize(b) for b in buf.drain()] == expected


# Mostly inserts, so rows fill and evict between the rarer drains.  The
# stream comes from a seeded generator rather than a drawn list: what
# exposes a tracked pair that misses a promotion (a flush of the tracked
# row, then a repeat into a fuller row before that row grows again) needs
# long, evenly random streams, which drawn lists rarely are.
STREAM_OPS = ("insert",) * 14 + ("writeback",) * 4 + ("reset", "drain")


@settings(deadline=None, max_examples=200)
@given(
    design=st.sampled_from(BUFFERED),
    k_trigger=st.sampled_from(K_TRIGGER_MODES),
    capacity=st.sampled_from((4, 6, 8)),
    m_batch=st.sampled_from((2, 4)),
    k_limit=st.sampled_from((1, 2, 4)),
    length=st.integers(100, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_class_matches_the_legacy_design_classes(
    design, k_trigger, capacity, m_batch, k_limit, length, seed
):
    """The one coalescing class behaves as the per-design class it
    replaced: the same batches, length, victim row, approx-max pair and
    drain after every insert, writeback, writeback reset and drain."""
    config = BufferConfig(
        design=design,
        capacity=max(capacity, m_batch),
        m_batch=m_batch,
        k_limit=k_limit,
        k_trigger=k_trigger,
    )
    buf = make_buffer(0, config)
    ref = LEGACY_CLASSES[design](0, config)
    rng = random.Random(seed)
    for _ in range(length):
        op = rng.choice(STREAM_OPS)
        row, byte = rng.randrange(8), rng.randrange(4)
        if op == "insert":
            assert normalize(buf.insert(row, byte)) == normalize(ref.insert(row, byte))
        elif op == "writeback":
            value = rng.randrange(41)
            got = buf.try_insert_writeback(row, byte, value)
            assert got == ref.try_insert_writeback(row, byte, value)
        elif op == "reset":
            buf.reset_writeback(row, byte)
            ref.reset_writeback(row, byte)
        else:
            assert drained(buf) == drained(ref)
        assert len(buf) == len(ref)
        assert entry_counts(buf) == entry_counts(ref)
        if design != "perrow" and len(ref):
            assert victim_of(buf) == ref.victim_row()
        if design == "unified_approxmax":
            assert (buf._meta_row, buf._meta_count) == (ref._meta_row, ref._meta_count)
    assert drained(buf) == drained(ref)
    assert len(buf) == len(ref) == 0


def tuple_keyed(rows):
    """Queued entries as [(row, [((byte_id, is_wb), value)])], in order,
    from int-keyed or ``(byte_id, is_wb)``-keyed row dicts."""
    out = []
    for row_id, entries in rows.items():
        pairs = []
        for key, value in entries.items():
            if isinstance(key, int):
                key = (~key, True) if key < 0 else (key, False)
            pairs.append((key, value))
        out.append((row_id, pairs))
    return out


@settings(deadline=None, max_examples=200)
@given(
    design=st.sampled_from(DESIGNS),
    k_trigger=st.sampled_from(K_TRIGGER_MODES),
    capacity=st.sampled_from((4, 6, 8)),
    m_batch=st.sampled_from((2, 4)),
    k_limit=st.sampled_from((1, 2, 4)),
    length=st.integers(100, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_entry_dict_batches_match_the_tuple_key_buffer(
    design, k_trigger, capacity, m_batch, k_limit, length, seed
):
    """A batch whose items are its row's entry dict, merged only when the
    row holds a writeback, services the same row, bytes, increments,
    writeback values and trigger, in the same order, as the buffer that
    keyed entries by (byte_id, is_wb) and merged every row into
    ``BatchItem`` tuples.  The queued entries match key for key, and the
    rows marked as holding a writeback are exactly those that do, after
    every insert, writeback, writeback reset and drain."""
    config = BufferConfig(
        design=design,
        capacity=max(capacity, m_batch),
        m_batch=m_batch,
        k_limit=k_limit,
        k_trigger=k_trigger,
    )
    buf = make_buffer(0, config)
    ref = make_tuple_key_buffer(0, config)
    # The baseline queues nothing, so it takes inserts alone.
    ops = ("insert",) if design == "chronus" else STREAM_OPS
    rng = random.Random(seed)
    for _ in range(length):
        op = rng.choice(ops)
        row, byte = rng.randrange(8), rng.randrange(4)
        if op == "insert":
            assert normalize(buf.insert(row, byte)) == normalize(ref.insert(row, byte))
        elif op == "writeback":
            value = rng.randrange(41)
            got = buf.try_insert_writeback(row, byte, value)
            assert got == ref.try_insert_writeback(row, byte, value)
        elif op == "reset":
            buf.reset_writeback(row, byte)
            ref.reset_writeback(row, byte)
        else:
            assert drained(buf) == drained(ref)
        if design != "chronus":
            assert tuple_keyed(buf._rows) == tuple_keyed(ref._rows)
            assert buf._wb_rows == {
                row_id
                for row_id, entries in ref._rows.items()
                if any(is_wb for _, is_wb in entries)
            }
    assert drained(buf) == drained(ref)
    assert len(buf) == len(ref) == 0
