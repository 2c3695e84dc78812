"""The nonzero counters of a counter store, as tests compare them."""

import io
from typing import List, Tuple


def nonzero_items(store) -> List[Tuple[int, int, int, int]]:
    """All nonzero counters as (bank, row_id, byte_id, value), sorted,
    read back from the store's state dump."""
    buf = io.StringIO()
    store.dump(buf)
    lines = buf.getvalue().splitlines()[1:]
    return [tuple(int(field) for field in line.split(",")) for line in lines]
