"""Dynamic-energy accounting for counter maintenance.

Costs are expressed relative to a data-row activation.  A counter-row
activate/precharge plus the first byte's read-modify-write costs a fixed
fraction of a data activation; each further byte updated during the same
activation adds only a narrow read-modify-write, priced as one eighth of
a full-width column access.  Mitigations are extra row activations and
are charged at the counter-activation rate.
"""

import math
from dataclasses import asdict, dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class EnergyParams:
    """Relative energy costs; defaults normalize e_act to 1."""

    e_act: float = 1.0
    e_col: float = 0.5
    counter_act_factor: float = 0.19
    e_extra_rmw: float = 0.0625

    def __post_init__(self):
        if not 0 < self.e_act < math.inf:
            raise ConfigError(f"e_act must be positive and finite, got {self.e_act}")
        if not 0 < self.e_col < math.inf:
            raise ConfigError(f"e_col must be positive and finite, got {self.e_col}")
        if not 0 < self.counter_act_factor < 1:
            raise ConfigError(
                f"counter_act_factor must be in (0, 1), got {self.counter_act_factor}"
            )
        if not 0 <= self.e_extra_rmw < math.inf:
            raise ConfigError(
                f"e_extra_rmw must be non-negative and finite, got {self.e_extra_rmw}"
            )


@dataclass
class EnergyLedger:
    """Raw activity counts accumulated over a run."""

    data_acts: int = 0
    data_cols: int = 0
    counter_acts: int = 0
    rmw_bytes: int = 0
    mitigation_acts: int = 0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy totals in e_act units; overhead is relative to baseline."""

    baseline: float
    activation_term: float
    extra_rmw_term: float
    mitigation_term: float

    @property
    def extra_total(self) -> float:
        return self.activation_term + self.extra_rmw_term + self.mitigation_term

    def to_dict(self) -> dict:
        """The terms, their total, and the total's share of the baseline."""
        extra = self.extra_total
        return dict(asdict(self), extra_total=extra, overhead=extra / self.baseline)


def breakdown(ledger: EnergyLedger, params: EnergyParams) -> EnergyBreakdown:
    """Split the counter-maintenance energy into its three terms.

    Each counter activation carries its first byte's read-modify-write
    inside the activation term, so only bytes beyond the first (one per
    activation) are charged the narrow-write increment.
    """
    if ledger.data_acts <= 0:
        raise ConfigError("energy overhead undefined for a ledger with no data acts")
    if ledger.rmw_bytes < ledger.counter_acts:
        raise ConfigError(
            f"rmw_bytes ({ledger.rmw_bytes}) cannot be below counter_acts "
            f"({ledger.counter_acts}): each activation services at least one byte"
        )
    base = ledger.data_acts * params.e_act + ledger.data_cols * params.e_col
    act_term = ledger.counter_acts * params.counter_act_factor * params.e_act
    extra_rmw = (ledger.rmw_bytes - ledger.counter_acts) * params.e_extra_rmw
    mit_term = ledger.mitigation_acts * params.counter_act_factor * params.e_act
    return EnergyBreakdown(base, act_term, extra_rmw, mit_term)
