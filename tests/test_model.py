from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from echochamber.errors import DegenerateRadiusError
from echochamber.model import (
    DEFAULT_PARAMS,
    ModelParams,
    NormalWeight,
    Radius,
    UNBOUNDED,
    is_unbounded,
    mixture_cdf,
    mixture_density,
    truncated_density,
    window_logmass,
)


def test_default_parameter_point() -> None:
    p = DEFAULT_PARAMS
    assert (p.prior_mean, p.prior_var, p.high_var, p.low_var, p.high_share) == (
        0.0,
        1.0,
        0.5,
        3.0,
        0.5,
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"prior_var": 0.0},
        {"prior_var": -1.0},
        {"high_var": 0.0},
        {"low_var": -2.0},
        {"high_share": -0.1},
        {"high_share": 1.5},
    ],
)
def test_invalid_parameters_rejected(kwargs: dict) -> None:
    with pytest.raises(ValueError):
        replace(DEFAULT_PARAMS, **kwargs)


def test_variance_ordering_rejected_not_swapped() -> None:
    with pytest.raises(ValueError, match="high_var"):
        ModelParams(
            prior_mean=0.0, prior_var=1.0, high_var=3.0, low_var=0.5, high_share=0.5
        )


def test_equal_variances_allowed() -> None:
    p = replace(DEFAULT_PARAMS, high_var=2.0, low_var=2.0)
    assert p.high_var == p.low_var == 2.0


def test_radius_validation() -> None:
    with pytest.raises(ValueError):
        Radius(-1.0)
    assert Radius(0.0).r == 0.0
    assert not Radius(2.0).unbounded


def test_unbounded_radius_flag() -> None:
    r = Radius(UNBOUNDED)
    assert r.unbounded
    assert is_unbounded(r.r)
    assert not is_unbounded(2.0)


def test_normal_weight_validation() -> None:
    with pytest.raises(ValueError):
        NormalWeight(mean=0.0, var=0.0)
    with pytest.raises(ValueError):
        NormalWeight(mean=0.0, var=-1.0)
    assert not NormalWeight(mean=0.0, var=2.0).unbounded
    assert NormalWeight(mean=0.0, var=UNBOUNDED).unbounded


def test_mixture_density_value(oracle: dict) -> None:
    got = mixture_density(0.0, 0.0, DEFAULT_PARAMS)
    assert math.isclose(got, oracle["densities"]["mixture_pdf_s0_w0"], rel_tol=1e-12)


def test_mixture_density_hand_formula() -> None:
    # h * N(0; 0, 0.5) + (1 - h) * N(0; 0, 3)
    want = 0.5 / math.sqrt(2 * math.pi * 0.5) + 0.5 / math.sqrt(2 * math.pi * 3.0)
    assert math.isclose(mixture_density(0.0, 0.0, DEFAULT_PARAMS), want, rel_tol=1e-14)


def test_mixture_cdf_value(oracle: dict) -> None:
    got = mixture_cdf(1.0, 0.0, DEFAULT_PARAMS)
    assert math.isclose(got, oracle["densities"]["mixture_cdf_x1_w0"], rel_tol=1e-12)


def test_mixture_cdf_monotone_and_normalized() -> None:
    xs = np.linspace(-12.0, 12.0, 101)
    vals = np.array([mixture_cdf(x, 0.3, DEFAULT_PARAMS) for x in xs])
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] < 1e-8 and vals[-1] > 1.0 - 1e-8


def test_window_mass_value(oracle: dict) -> None:
    got = math.exp(window_logmass(0.0, 1.0, DEFAULT_PARAMS))
    assert math.isclose(got, oracle["densities"]["window_mass_w0_r1"], rel_tol=1e-12)


def test_window_mass_symmetric_in_state() -> None:
    for w in (0.7, 1.9, 4.2):
        left = window_logmass(DEFAULT_PARAMS.prior_mean - w, 2.0, DEFAULT_PARAMS)
        right = window_logmass(DEFAULT_PARAMS.prior_mean + w, 2.0, DEFAULT_PARAMS)
        assert math.isclose(left, right, rel_tol=1e-12)


def test_window_mass_far_tail_finite() -> None:
    # far states must give a finite log mass, not -inf from cancelled CDFs
    lm = window_logmass(40.0, 1.0, DEFAULT_PARAMS)
    assert math.isfinite(lm) and lm < -100.0


def test_truncated_density_value(oracle: dict) -> None:
    got = truncated_density(0.0, 0.0, DEFAULT_PARAMS, Radius(1.0))
    assert math.isclose(
        got, oracle["densities"]["truncated_pdf_s0_w0_r1"], rel_tol=1e-12
    )


def test_truncated_density_integrates_to_one() -> None:
    r = 1.7
    # the density is zero at |s - mean| = r exactly, so keep the grid inside
    xs = np.linspace(-r + 1e-9, r - 1e-9, 20001)
    vals = np.array(
        [truncated_density(x, 0.8, DEFAULT_PARAMS, Radius(r)) for x in xs]
    )
    total = float(np.trapezoid(vals, xs))
    assert math.isclose(total, 1.0, abs_tol=1e-6)


def test_truncated_density_zero_outside_window() -> None:
    assert truncated_density(2.1, 0.0, DEFAULT_PARAMS, Radius(2.0)) == 0.0
    assert truncated_density(-2.0, 0.0, DEFAULT_PARAMS, Radius(2.0)) == 0.0


def test_truncated_density_unbounded_is_mixture() -> None:
    got = truncated_density(1.3, 0.4, DEFAULT_PARAMS, Radius(UNBOUNDED))
    want = mixture_density(1.3, 0.4, DEFAULT_PARAMS)
    assert math.isclose(got, want, rel_tol=1e-14)


def test_truncated_density_degenerate_radius_raises() -> None:
    with pytest.raises(DegenerateRadiusError):
        truncated_density(0.0, 0.0, DEFAULT_PARAMS, Radius(0.0))

