"""Model parameters, sampling policies, numerics settings, and the
probabilistic primitives: the normal log density and the window mass.

The model: a state omega is drawn from the normal prior N(prior_mean,
prior_var). A signal source is high quality with probability high_share and
low quality otherwise; either way it reports s = omega + noise with noise
variance high_var or low_var. An agent may restrict sampling to the window
(prior_mean - r, prior_mean + r): signals are redrawn, source type included,
until one lands inside. The signal density conditional on the state is then
the mixture density divided by the mixture window mass, and zero outside;
inference._log_terms builds it from the pieces here.

Densities are computed in log space. The quadrature kernel,
inference._policy_pieces, exponentiates once per (state, signal) tensor: it
mixes the two types in the linear domain under a per-signal shift, the
larger of log(high_share) + max B_H and log(1 - high_share) + max B_L over
the state nodes (B_q is the type-q log integrand), so the largest entry of
every signal column is at least 1 and none overflows. The per-type passes
exponentiate under their own column maxima.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import log_ndtr


class _UnboundedType:
    """Singleton tag for an unrestricted policy. Deliberately not a float:
    it must never leak into an integrand."""

    _instance = None

    def __new__(cls) -> "_UnboundedType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Unbounded"

    def __reduce__(self):
        return (_UnboundedType, ())


UNBOUNDED = _UnboundedType()

Extent = Union[float, _UnboundedType]


def is_unbounded(x: object) -> bool:
    return x is UNBOUNDED or isinstance(x, _UnboundedType)


_LOG_MASS_FLOOR = -700.0  # below this the window mass underflows double range

ABS_TOL = 1e-8  # accuracy a printed number is held to
INVARIANT_TOL = 1e-6  # slack for identities, ties and surpluses in results


def _check_positive_finite(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Model parameters.

    high_var <= low_var is the canonical orientation and is validated at
    construction; a violating pair is rejected rather than silently swapped.
    """

    prior_mean: float = 0.0
    prior_var: float = 1.0
    high_var: float = 0.5
    low_var: float = 3.0
    high_share: float = 0.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.prior_mean):
            raise ValueError(f"prior_mean must be finite, got {self.prior_mean!r}")
        _check_positive_finite("prior_var", self.prior_var)
        _check_positive_finite("high_var", self.high_var)
        _check_positive_finite("low_var", self.low_var)
        if not 0.0 <= self.high_share <= 1.0:
            raise ValueError(f"high_share must lie in [0, 1], got {self.high_share!r}")
        if self.high_var > self.low_var:
            raise ValueError(
                "high_var must not exceed low_var "
                f"(got high_var={self.high_var!r}, low_var={self.low_var!r})"
            )

    def signal_var(self, q: str) -> float:
        if q == "H":
            return self.high_var
        if q == "L":
            return self.low_var
        raise ValueError(f"quality must be 'H' or 'L', got {q!r}")


@dataclass(frozen=True)
class Radius:
    """Hard truncation policy: sample only within prior_mean +/- r."""

    r: Extent

    def __post_init__(self) -> None:
        if is_unbounded(self.r):
            return
        if not (isinstance(self.r, (int, float)) and math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(
                f"radius must be a finite nonnegative real or UNBOUNDED, got {self.r!r}"
            )
        object.__setattr__(self, "r", float(self.r))

    @property
    def unbounded(self) -> bool:
        return is_unbounded(self.r)


@dataclass(frozen=True)
class NormalWeight:
    """Soft policy: a signal s is admitted with probability
    exp(-(s - mean)^2 / (2 var)). No restriction is Radius(UNBOUNDED)."""

    mean: float
    var: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"weight mean must be finite, got {self.mean!r}")
        if not (isinstance(self.var, (int, float)) and math.isfinite(self.var) and self.var > 0.0):
            raise ValueError(f"weight var must be strictly positive and finite, got {self.var!r}")
        object.__setattr__(self, "var", float(self.var))


SamplingPolicy = Union[Radius, NormalWeight]


@dataclass(frozen=True)
class NumericsConfig:
    quad_nodes: int = 7  # Gauss order n of the G_n/K_(2n+1) pair on each panel
    mc_seed: int = 20250823
    mc_n: int = 1_000_000

    def __post_init__(self) -> None:
        if self.quad_nodes < 1:
            raise ValueError(f"quad_nodes must be >= 1, got {self.quad_nodes!r}")
        if self.mc_n < 1:
            raise ValueError(f"mc_n must be >= 1, got {self.mc_n!r}")
        if not 0 <= int(self.mc_seed) < 2**64:
            raise ValueError("mc_seed must fit in an unsigned 64-bit integer")


DEFAULT_PARAMS = ModelParams()
DEFAULT_NUMERICS = NumericsConfig()


# ---------------------------------------------------------------------------
# densities

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def norm_logpdf(x, mean, var):
    # in place on the one fresh array x - mean; same operations as
    # -0.5 * (x - mean) ** 2 / var - 0.5 * log(var) - log(sqrt(2 pi))
    out = np.subtract(x, mean, dtype=float)
    out *= out
    out *= -0.5
    out /= var
    out -= 0.5 * np.log(var)
    out -= _LOG_SQRT_2PI
    return out


def _log_weights(params: ModelParams) -> tuple[float, float]:
    h = params.high_share
    lh = math.log(h) if h > 0.0 else -math.inf
    ll = math.log1p(-h) if h < 1.0 else -math.inf
    return lh, ll


def _interval_logmass(lo_z, hi_z):
    """log(Phi(hi_z) - Phi(lo_z)), evaluated through the better-conditioned
    tail so the difference never cancels catastrophically."""
    lo_z = np.asarray(lo_z, dtype=float)
    hi_z = np.asarray(hi_z, dtype=float)
    # mirror so that the interval sits in the lower tail
    flip = lo_z + hi_z > 0.0
    a = np.where(flip, -hi_z, lo_z)
    b = np.where(flip, -lo_z, hi_z)
    la = log_ndtr(a)
    lb = log_ndtr(b)
    with np.errstate(invalid="ignore"):
        out = lb + np.log1p(-np.exp(np.minimum(la - lb, 0.0)))
    out = np.where(np.isnan(out), -np.inf, out)
    return np.maximum(out, _LOG_MASS_FLOOR)


def window_logmass_component(omega, r: float, var: float, params: ModelParams):
    """log P(|s - prior_mean| < r | omega, one component of variance var)."""
    sd = math.sqrt(var)
    lo = (params.prior_mean - r - np.asarray(omega, dtype=float)) / sd
    hi = (params.prior_mean + r - np.asarray(omega, dtype=float)) / sd
    return _interval_logmass(lo, hi)


def window_logmass(omega, r: float, params: ModelParams):
    """log of the mixture window mass F(prior_mean + r | omega) - F(prior_mean - r | omega)."""
    lh, ll = _log_weights(params)
    a = lh + window_logmass_component(omega, r, params.high_var, params)
    b = ll + window_logmass_component(omega, r, params.low_var, params)
    return np.maximum(np.logaddexp(a, b), _LOG_MASS_FLOOR)
