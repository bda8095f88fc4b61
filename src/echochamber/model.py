"""Model parameters, sampling policies, numerics settings, and the
probabilistic primitives: the normal log density and the window mass.

The model: a state omega is drawn from the normal prior N(prior_mean,
prior_var). A signal source is high quality with probability high_share and
low quality otherwise; either way it reports s = omega + noise with noise
variance high_var or low_var. An agent may restrict sampling to the window
(prior_mean - r, prior_mean + r): signals are redrawn, source type included,
until one lands inside. The signal density conditional on the state is then
the mixture density divided by the mixture window mass, and zero outside;
inference._state_terms and inference._likes build it from the pieces here.
Every density and mass depends on omega and s only through their
deviations from the prior mean, so the kernel and window_logmass take
deviations, and only the public functions of inference and censor add the
prior mean back.

Densities are computed in log space, the window mass too, with no floor:
log_ndtr stays accurate far past the double range (log_ndtr(-1000) =
-500007.83), so a state far from a narrow window keeps its exact tilt
-log D_r(omega), and the admitted states' marginal is the prior. The kernel,
inference._policy_pieces, builds the log integrands in cache-sized blocks
of signals and reduces each block to moments as soon as it is built, so no
array of the whole (state, signal) size exists. It exponentiates each entry
once: it mixes the two types in the linear domain under a per-signal shift,
the larger of log(high_share) + max B_H and log(1 - high_share) + max B_L
over the state nodes (B_q is the type-q log integrand), so the largest
entry of every signal's row is at least 1 and none overflows. The per-type
passes exponentiate under their own maxima.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np
from scipy.special import log_ndtr


class _UnboundedType(enum.Enum):
    """The type of UNBOUNDED, the tag of an unrestricted policy: an enum of
    one member, so one object under every pickle protocol, copy and deepcopy.
    Deliberately not a float: it must never leak into an integrand."""

    UNBOUNDED = "Unbounded"

    def __repr__(self) -> str:
        return "Unbounded"


UNBOUNDED = _UnboundedType.UNBOUNDED

Extent = Union[float, _UnboundedType]


def is_unbounded(x: object) -> bool:
    return x is UNBOUNDED


ABS_TOL = 1e-8  # accuracy a printed number is held to
INVARIANT_TOL = 1e-6  # slack for identities, ties and surpluses in results
REFERENCE_RADIUS = 2.35  # the window, in prior sds, that figures and checks set beside Unbounded


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
        # every result depends on the variances only through these ratios
        _check_positive_finite("high_var/prior_var", self.high_var / self.prior_var)
        _check_positive_finite("low_var/prior_var", self.low_var / self.prior_var)
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
    exp(-(s - prior_mean - mean)^2 / (2 var)), so mean is the offset of the
    window centre from the prior mean, as Radius.r is a half-width about
    it. No restriction is Radius(UNBOUNDED)."""

    mean: float
    var: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"weight mean must be finite, got {self.mean!r}")
        if not (isinstance(self.var, (int, float)) and math.isfinite(self.var) and self.var > 0.0):
            raise ValueError(f"weight var must be strictly positive and finite, got {self.var!r}")
        object.__setattr__(self, "var", float(self.var))


SamplingPolicy = Union[Radius, NormalWeight]


def is_even(policy: SamplingPolicy) -> bool:
    """Whether the policy admits a signal x from the prior mean exactly as
    it admits -x: every Radius, and a soft window centred on the prior mean
    (offset 0). Sources are unbiased, so under such a policy the joint of
    (state, admitted signal) is even under (d, x) -> (-d, -x)."""
    return isinstance(policy, Radius) or (isinstance(policy, NormalWeight) and policy.mean == 0.0)


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


def standard(params: ModelParams) -> ModelParams:
    """The same model in prior sds from the prior mean: prior mean 0,
    prior variance 1, signal variances divided by prior_var."""
    high_var, low_var = params.high_var / params.prior_var, params.low_var / params.prior_var
    return replace(params, prior_mean=0.0, prior_var=1.0, high_var=high_var, low_var=low_var)


# ---------------------------------------------------------------------------
# densities

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def norm_logpdf(x, mean, var):
    d2 = np.subtract(x, mean, dtype=float)
    d2 *= d2
    return -0.5 * d2 / var - 0.5 * np.log(var) - _LOG_SQRT_2PI


def _log_weights(params: ModelParams) -> tuple[float, float]:
    h = params.high_share
    lh = math.log(h) if h > 0.0 else -math.inf
    ll = math.log1p(-h) if h < 1.0 else -math.inf
    return lh, ll


_NARROW = 1e-3  # width * (1 + |midpoint|) below which the tail difference cancels


def _interval_logmass(lo_z, hi_z, width):
    """log(Phi(hi_z) - Phi(lo_z)), with width = hi_z - lo_z a scalar formed
    before either end rounds. The tail difference would cancel where
    width * (1 + |mid|) < 1e-3, mid the midpoint; there it is the series
    log(width) + log phi(mid) + log1p(h^2 He_2(mid)/6 + h^4 He_4(mid)/120),
    h = width / 2, whose first omitted term is below 1e-22 of the mass.
    Elsewhere it goes through the better-conditioned lower tail, exact far
    below the double range; it loses about 2e-13 (1 + mid^2) in the log at
    the switch, less for wider intervals."""
    lo_z = np.asarray(lo_z, dtype=float)
    hi_z = np.asarray(hi_z, dtype=float)
    # mirror so that the interval sits in the lower tail
    flip = lo_z + hi_z > 0.0
    a = np.where(flip, -hi_z, lo_z)
    b = np.where(flip, -lo_z, hi_z)
    la = log_ndtr(a)
    lb = log_ndtr(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = lb + np.log1p(-np.exp(np.fmin(la - lb, 0.0)))
        if width >= _NARROW:
            return out
        mid = 0.5 * (a + b)
        m2, h2 = mid * mid, 0.25 * width * width
        hm2 = h2 * m2  # below 2.5e-7 where the series is used, so nothing overflows
        he = (hm2 - h2) / 6.0 + (hm2 * (hm2 - 6.0 * h2) + 3.0 * h2 * h2) / 120.0
        series = np.log(width) - 0.5 * m2 - _LOG_SQRT_2PI + np.log1p(he)
        return np.where(width * (1.0 + np.abs(mid)) < _NARROW, series, out)


def window_logmass(d, r: float, params: ModelParams):
    """log of the mixture window mass P(|s - prior_mean| < r | omega), at
    the state's deviation d = omega - prior_mean from the prior mean."""
    d = np.asarray(d, dtype=float)
    lw = _log_weights(params)
    sds = (math.sqrt(params.high_var), math.sqrt(params.low_var))
    a, b = (
        w + _interval_logmass((-r - d) / sd, (r - d) / sd, 2.0 * r / sd) for w, sd in zip(lw, sds)
    )
    return np.logaddexp(a, b)
