import pytest
from hypothesis import given
from hypothesis import strategies as st

from pracsim.energy import EnergyBreakdown, EnergyLedger, EnergyParams, breakdown
from pracsim.errors import ConfigError


def ledger(**kwargs):
    return EnergyLedger(**kwargs)


def overhead(led, params):
    """The overhead a run report carries for this ledger."""
    return breakdown(led, params).to_dict()["overhead"]


def test_immediate_service_closed_form():
    """One single-byte counter activation per data activation costs
    0.19 / 1.5 of the baseline when columns track activations."""
    led = ledger(data_acts=1000, data_cols=1000, counter_acts=1000, rmw_bytes=1000)
    assert overhead(led, EnergyParams()) == pytest.approx(0.19 / 1.5, rel=1e-12)


def test_no_counter_work_no_overhead():
    led = ledger(data_acts=500, data_cols=500)
    b = breakdown(led, EnergyParams())
    assert b.extra_total == 0.0
    assert b.to_dict()["overhead"] == 0.0


def test_terms_match_hand_computation():
    params = EnergyParams(e_act=2.0, e_col=1.0, counter_act_factor=0.25, e_extra_rmw=0.125)
    led = ledger(
        data_acts=100, data_cols=150, counter_acts=40, rmw_bytes=70, mitigation_acts=8
    )
    b = breakdown(led, params)
    assert b.baseline == 100 * 2.0 + 150 * 1.0
    assert b.activation_term == 40 * 0.25 * 2.0
    assert b.extra_rmw_term == 30 * 0.125
    assert b.mitigation_term == 8 * 0.25 * 2.0
    assert b.extra_total == b.activation_term + b.extra_rmw_term + b.mitigation_term
    assert b.to_dict()["overhead"] == b.extra_total / b.baseline


def test_to_dict_round_trips_fields():
    b = EnergyBreakdown(10.0, 1.0, 0.5, 0.25)
    d = b.to_dict()
    assert d == {
        "baseline": 10.0,
        "activation_term": 1.0,
        "extra_rmw_term": 0.5,
        "mitigation_term": 0.25,
        "extra_total": 1.75,
        "overhead": 0.175,
    }


def test_overhead_scale_invariant():
    params = EnergyParams()
    one = ledger(data_acts=100, data_cols=100, counter_acts=30, rmw_bytes=90)
    ten = ledger(data_acts=1000, data_cols=1000, counter_acts=300, rmw_bytes=900)
    assert overhead(one, params) == pytest.approx(overhead(ten, params), rel=1e-12)


def test_overhead_tracks_activation_ratio_without_rmw_term():
    """With the narrow-write cost zeroed and no mitigations, overheads
    stand in the same ratio as counter activation counts."""
    params = EnergyParams(e_extra_rmw=0.0)
    a = ledger(data_acts=1000, data_cols=1000, counter_acts=250, rmw_bytes=806)
    b = ledger(data_acts=1000, data_cols=1000, counter_acts=1000, rmw_bytes=1000)
    ratio = overhead(a, params) / overhead(b, params)
    assert ratio == pytest.approx(250 / 1000, rel=1e-12)


@given(
    counter_acts=st.integers(1, 10_000),
    extra_bytes=st.integers(0, 30_000),
    mitigations=st.integers(0, 1_000),
)
def test_breakdown_terms_always_reconcile(counter_acts, extra_bytes, mitigations):
    params = EnergyParams()
    led = ledger(
        data_acts=10_000,
        data_cols=10_000,
        counter_acts=counter_acts,
        rmw_bytes=counter_acts + extra_bytes,
        mitigation_acts=mitigations,
    )
    b = breakdown(led, params)
    assert b.activation_term == pytest.approx(counter_acts * 0.19, rel=1e-12)
    assert b.extra_rmw_term == pytest.approx(extra_bytes * 0.0625, rel=1e-12)
    assert b.mitigation_term == pytest.approx(mitigations * 0.19, rel=1e-12)
    assert b.to_dict()["overhead"] >= 0.0


def test_no_data_acts_is_an_error():
    with pytest.raises(ConfigError):
        breakdown(ledger(), EnergyParams())


def test_rmw_bytes_below_counter_acts_is_an_error():
    led = ledger(data_acts=10, data_cols=10, counter_acts=5, rmw_bytes=4)
    with pytest.raises(ConfigError):
        breakdown(led, EnergyParams())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"e_act": 0.0},
        {"e_act": -1.0},
        {"e_col": 0.0},
        {"counter_act_factor": 0.0},
        {"counter_act_factor": 1.0},
        {"e_extra_rmw": -0.1},
    ],
)
def test_bad_params(kwargs):
    with pytest.raises(ConfigError):
        EnergyParams(**kwargs)
