import pytest

from pracsim.geometry import DramGeometry


@pytest.fixture
def geometry():
    """Default full-size device."""
    return DramGeometry()


@pytest.fixture
def toy_geometry():
    """Small device for exhaustive sweeps: 2 banks, 4x4 counters."""
    return DramGeometry(
        banks=2, rows_per_bank=16, counter_rows_per_bank=4, counters_per_counter_row=4
    )


class MitigationRecorder(list):
    """An ``on_mitigate`` that records each counter reset as
    (bank, row_id, byte_id), then passes it on to the store's previous
    handler, if any."""

    def __init__(self, then=None):
        super().__init__()
        self.then = then

    def __call__(self, bank, row_id, byte_id):
        self.append((bank, row_id, byte_id))
        if self.then is not None:
            self.then(bank, row_id, byte_id)

    def take(self):
        """The resets recorded since the last take, oldest first."""
        taken = list(self)
        self.clear()
        return taken


def _record_mitigations(store):
    recorder = store.on_mitigate = MitigationRecorder(store.on_mitigate)
    return recorder


@pytest.fixture(scope="session")
def record_mitigations():
    """``record_mitigations(store)`` installs a ``MitigationRecorder`` as
    the store's ``on_mitigate``, in front of the handler it had, and
    returns it.  Stateless, so one instance serves every hypothesis
    example."""
    return _record_mitigations
