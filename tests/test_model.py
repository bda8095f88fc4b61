from __future__ import annotations

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from echochamber.errors import DegenerateRadiusError
from echochamber.inference import _log_terms
from echochamber.model import (
    DEFAULT_PARAMS,
    ModelParams,
    NormalWeight,
    Radius,
    UNBOUNDED,
    _log_weights,
    is_unbounded,
    norm_logpdf,
    window_logmass,
)

P = DEFAULT_PARAMS


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


def test_unbounded_radius_survives_pickle_and_deepcopy() -> None:
    # the tag is a singleton, so a copy must be the tag itself; protocols 0
    # and 1 rebuild an object without calling __new__ unless told how
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(Radius(UNBOUNDED), protocol=k)) for k in protocols]
    for copied in (*copies, copy.deepcopy(Radius(UNBOUNDED))):
        assert copied.r is UNBOUNDED
        assert copied.unbounded


def test_normal_weight_validation() -> None:
    with pytest.raises(ValueError):
        NormalWeight(mean=0.0, var=0.0)
    with pytest.raises(ValueError):
        NormalWeight(mean=0.0, var=-1.0)
    with pytest.raises(ValueError):
        NormalWeight(mean=0.0, var=UNBOUNDED)


def test_mixture_density_value(oracle: dict) -> None:
    # unrestricted, the kernel's tilt is the log prior and the type terms
    # are the two component log densities
    _, like_H, like_L = _log_terms(0.0, 0.0, Radius(UNBOUNDED), P)
    lh, ll = _log_weights(P)
    got = math.exp(np.logaddexp(lh + like_H, ll + like_L))
    assert math.isclose(got, oracle["densities"]["mixture_pdf_s0_w0"], rel_tol=1e-12)


def test_mixture_density_hand_formula() -> None:
    # h * N(0; 0, 0.5) + (1 - h) * N(0; 0, 3)
    want = 0.5 / math.sqrt(2 * math.pi * 0.5) + 0.5 / math.sqrt(2 * math.pi * 3.0)
    _, like_H, like_L = _log_terms(0.0, 0.0, Radius(UNBOUNDED), P)
    got = 0.5 * math.exp(like_H) + 0.5 * math.exp(like_L)
    assert math.isclose(got, want, rel_tol=1e-14)


def test_mixture_cdf_value(oracle: dict) -> None:
    # at the prior mean the mixture is symmetric: F(1) = (1 + P(|s| < 1)) / 2
    got = (1.0 + math.exp(window_logmass(0.0, 1.0, P))) / 2.0
    assert math.isclose(got, oracle["densities"]["mixture_cdf_x1_w0"], rel_tol=1e-12)


def test_mixture_cdf_monotone_and_normalized() -> None:
    # the window mass F(m + r) - F(m - r) grows from 0 to 1 with r
    rs = np.geomspace(1e-9, 12.0, 101)
    vals = np.array([math.exp(window_logmass(0.3, r, P)) for r in rs])
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
    # and an exact one far below the double range: mpmath at 50 digits
    # gives -166341.469537354066 at omega = 1000
    far = window_logmass(1000.0, 1.0, DEFAULT_PARAMS)
    assert math.isclose(far, -166341.469537354066, rel_tol=1e-13)


def test_truncated_density_value(oracle: dict) -> None:
    # the tilt less the log prior leaves minus the log window mass
    tilt, like_H, like_L = _log_terms(0.0, 0.0, Radius(1.0), P)
    lh, ll = _log_weights(P)
    log_f = tilt - norm_logpdf(0.0, P.prior_mean, P.prior_var) + np.logaddexp(lh + like_H, ll + like_L)
    assert math.isclose(
        math.exp(log_f), oracle["densities"]["truncated_pdf_s0_w0_r1"], rel_tol=1e-12
    )


def test_truncated_density_integrates_to_one() -> None:
    r, omega = 1.7, 0.8
    # the density is zero at |s - mean| = r exactly, so keep the grid inside
    xs = np.linspace(-r + 1e-9, r - 1e-9, 20001)
    tilt, like_H, like_L = _log_terms(omega, xs, Radius(r), P)
    lh, ll = _log_weights(P)
    log_f = tilt - norm_logpdf(omega, P.prior_mean, P.prior_var) + np.logaddexp(lh + like_H, ll + like_L)
    total = float(np.trapezoid(np.exp(log_f), xs))
    assert math.isclose(total, 1.0, abs_tol=1e-6)


def test_truncated_density_degenerate_radius_raises() -> None:
    with pytest.raises(DegenerateRadiusError):
        _log_terms(0.0, 0.0, Radius(0.0), P)
