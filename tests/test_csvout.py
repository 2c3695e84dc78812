"""The decimal CSV writer behind ``write_log``, ``CounterArray.dump`` and
``trace.write_text``: bytes, streaming and memory against the single
``%`` passes it replaced (``legacy_writers``)."""

import io
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_writers
from pracsim import csvout
from pracsim.buffers import TRIGGERS
from pracsim.counters import CounterArray
from pracsim.geometry import DramGeometry
from pracsim.oracle import ServiceLog, write_log
from pracsim.trace import Trace, write_text
from service_logs import make_log

# Each width and chunk boundary of a field, either side of it, and the ends
# of int64.
EDGES = [0, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 10**4 + 1, 10**8 - 1, 10**8]
EDGES += [10**8 + 1, 2**31, 10**12, 10**16 - 1, 10**16, 2**63 - 1]
INT64 = st.one_of(
    st.sampled_from(EDGES + [-x for x in EDGES] + [-(2**63)]),
    st.integers(-(2**63), 2**63 - 1),
)
# Any Python int: int64 most of the time, past it either way now and then.
WIDE = st.one_of(
    INT64,
    st.sampled_from([2**63, 2**64, 10**19, 2**70, -(2**63) - 1, -(2**64)]),
    st.integers(-(2**80), 2**80),
)
# Lines per chunk, down to one, or the module's own.
CHUNKS = st.sampled_from([1, 2, 3, 5, 8, 13, csvout.CHUNK])


class Discard:
    """A text stream that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)


def _text(writer, *args) -> str:
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


@settings(deadline=None, max_examples=200)
@given(
    rows=st.lists(st.tuples(INT64, INT64, INT64), max_size=25),
    arrays=st.booleans(),
    chunk=CHUNKS,
)
def test_write_takes_the_whole_int64_range(rows, arrays, chunk):
    """Columns of lists or int64 arrays, streamed a few fields at a time,
    give the ``%d`` bytes of every value from -2**63 to 2**63 - 1."""
    columns = [[row[k] for row in rows] for k in range(3)]
    if arrays:
        columns = [np.array(c, dtype=np.int64) for c in columns]
    out = io.StringIO()
    with mock.patch.object(csvout, "CHUNK", chunk):
        csvout.write(out, "a,b c\n", [columns[0], ",", columns[1], " ", columns[2]])
    assert out.getvalue() == "a,b c\n" + "".join("%d,%d %d\n" % row for row in rows)


@settings(deadline=None, max_examples=200)
@given(
    pairs=st.lists(
        st.tuples(
            WIDE, WIDE, WIDE, st.sampled_from(TRIGGERS), st.lists(WIDE, max_size=7)
        ),
        max_size=25,
    ),
    arrays=st.booleans(),
    chunk=CHUNKS,
)
def test_write_log_matches_the_percent_pass(pairs, arrays, chunk):
    """Logs built in memory, or as ``read_log`` returns them (int64
    columns, object ones past int64), with fields of any size and lines
    that straddle the streaming chunk."""
    log = make_log(*((s, b, r, t, tuple(ids)) for s, b, r, t, ids in pairs))
    if arrays:
        columns = []
        for column in (getattr(log, name) for name in ServiceLog.__slots__):
            try:
                columns.append(np.array(column, dtype=np.int64))
            except OverflowError:
                columns.append(np.array(column, dtype=object))
        log = ServiceLog(*columns)
    with mock.patch.object(csvout, "CHUNK", chunk):
        got = _text(write_log, log)
    assert got == _text(legacy_writers.percent_write_log, log)


@settings(deadline=None, max_examples=100)
@given(
    banks=st.sampled_from([1, 2, 9, 10, 11, 101, 10**4 + 1]),
    counter_rows=st.sampled_from([1, 9, 10, 11, 64]),
    cpc=st.sampled_from([1, 9, 10, 11, 100, 1000, 1024]),
    writes=st.lists(
        st.tuples(
            st.one_of(st.integers(0, 10**4), st.sampled_from([9, 10, 9999])),
            st.integers(0, 63),
            st.one_of(st.integers(0, 1023), st.sampled_from([9, 10, 99, 100, 999])),
            st.one_of(st.integers(0, 255), st.sampled_from([9, 10, 99, 100, 255])),
        ),
        max_size=60,
    ),
    chunk=CHUNKS,
)
def test_dump_matches_the_percent_pass(banks, counter_rows, cpc, writes, chunk):
    geometry = DramGeometry(
        banks=banks,
        rows_per_bank=counter_rows * cpc,
        counter_rows_per_bank=counter_rows,
        counters_per_counter_row=cpc,
    )
    store = legacy_writers.PercentCounterArray(geometry)
    for bank, row, byte, value in writes:
        store.apply_writeback(bank % banks, row % counter_rows, byte % cpc, value)
    with mock.patch.object(csvout, "CHUNK", chunk):
        got = _text(CounterArray.dump, store)
    assert got == _text(store.dump)


@settings(deadline=None, max_examples=150)
@given(pairs=st.lists(st.tuples(WIDE, WIDE), max_size=30), chunk=CHUNKS)
def test_write_text_matches_the_percent_pass(pairs, chunk):
    """Banks and rows of any size, negative or past int64 included."""
    trace = Trace([b for b, _ in pairs], [r for _, r in pairs])
    with mock.patch.object(csvout, "CHUNK", chunk):
        got = _text(write_text, trace)
    assert got == _text(legacy_writers.percent_write_text, trace)


def test_empty_outputs_are_the_header_alone(toy_geometry):
    """An empty log and an empty store write their header line, and an
    empty trace nothing, as the ``%`` passes did."""
    store = legacy_writers.PercentCounterArray(toy_geometry)
    log = _text(write_log, ServiceLog())
    assert log == _text(legacy_writers.percent_write_log, ServiceLog())
    assert log == "slot,bank,row_id,trigger,n_items,byte_ids\n"
    empty = _text(CounterArray.dump, store)
    assert empty == _text(store.dump) == "bank,row_id,byte_id,value\n"
    trace = _text(write_text, Trace())
    assert trace == _text(legacy_writers.percent_write_text, Trace()) == ""


def _peak(write) -> int:
    """The most memory ``write`` held at once, traced."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_writers_peak_at_half_the_percent_pass():
    """Streamed in chunks, the dump of 200,000 nonzero counters and the
    log of 100,000 batches hold at most half the memory their ``%``
    passes held on the same input, written to a sink that keeps nothing."""
    store = legacy_writers.PercentCounterArray(DramGeometry())
    flat = np.arange(0, 400_000, 2)
    store.values.reshape(-1)[flat] = flat % 255 + 1
    rng = np.random.default_rng(1)
    n = 100_000
    log = ServiceLog(
        list(range(0, 4 * n, 4)),
        rng.integers(0, 64, n).tolist(),
        rng.integers(0, 64, n).tolist(),
        rng.integers(0, len(TRIGGERS), n).tolist(),
        [4] * n,
        rng.integers(0, 1024, 4 * n).tolist(),
    )
    sink = Discard()
    percent = _peak(lambda: store.dump(sink))
    assert _peak(lambda: CounterArray.dump(store, sink)) <= percent / 2
    percent = _peak(lambda: legacy_writers.percent_write_log(log, sink))
    assert _peak(lambda: write_log(log, sink)) <= percent / 2


def test_the_chunk_tables_are_built_on_first_use():
    """Importing pracsim builds no table; the first write does."""
    code = (
        "import io, pracsim\n"
        "from pracsim import csvout, trace\n"
        "assert csvout._tables.cache_info().currsize == 0\n"
        "trace.write_text(trace.Trace([1], [2]), io.StringIO())\n"
        "assert csvout._tables.cache_info().currsize == 1\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
