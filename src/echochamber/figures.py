"""Figure data builders and their CSV/SVG serializations.

Every figure is drawn on the standardized model (model.standard), so it
is the same at any prior mean and in any unit of the state: signals,
states, radii and actions are in prior sds from the prior mean, utilities
and variances in units of prior_var, and fig1's densities per prior sd.
Comparison figures that need a fixed finite window use REFERENCE_RADIUS,
the half-width highlighted throughout the default parameterization. CSV
output carries a single comment header with the parameter set as given
and the package version, then the column row, then values at 12
significant digits; no timestamps, so reruns are byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .censor import expected_action, signal_moments_vs_r, utility_curve
from .inference import posterior_summaries
from .model import (
    REFERENCE_RADIUS,
    UNBOUNDED,
    ModelParams,
    NumericsConfig,
    Radius,
    norm_logpdf,
    standard,
)
from .svgplot import render_lines


@dataclass(frozen=True)
class FigureData:
    title: str
    x_label: str
    y_label: str
    columns: tuple[str, ...]
    rows: list[tuple]


def fig1_data(params: ModelParams, cfg: NumericsConfig) -> FigureData:
    hw = 4.0 * math.sqrt(max(params.high_var, params.low_var))
    s = np.linspace(-hw, hw, 321)
    f_h = np.exp(norm_logpdf(s, 0.0, params.high_var))
    f_l = np.exp(norm_logpdf(s, 0.0, params.low_var))
    f_mix = params.high_share * f_h + (1.0 - params.high_share) * f_l
    rows = [tuple(map(float, row)) for row in zip(s, f_h, f_l, f_mix)]
    return FigureData(
        title="Signal densities by source type at the central state",
        x_label="signal s",
        y_label="density",
        columns=("s", "f_H", "f_L", "f_mix"),
        rows=rows,
    )


def fig2_data(params: ModelParams, cfg: NumericsConfig) -> FigureData:
    curve = utility_curve(params, np.linspace(0.1, 6.0, 60), cfg)
    benchmark = curve.utilities[-1]
    # drop the analytic r = 0 entry in front and the benchmark at the end
    rows = [(r, eu, benchmark) for r, eu in zip(curve.radii[1:-1], curve.utilities[1:-1])]
    return FigureData(
        title="Expected utility against the censoring radius",
        x_label="radius r",
        y_label="expected utility",
        columns=("r", "EU_censored", "EU_uncensored"),
        rows=rows,
    )


def fig3_data(params: ModelParams, cfg: NumericsConfig) -> FigureData:
    radii = np.linspace(0.1, 6.0, 60)
    rows = []
    for r in radii:
        var_s, corr = signal_moments_vs_r(params, Radius(float(r)), cfg)
        rows.append((float(r), var_s, corr))
    return FigureData(
        title="Admitted-signal variance and state correlation",
        x_label="radius r",
        y_label="moment",
        columns=("r", "signal_var", "state_corr"),
        rows=rows,
    )


def fig4_data(params: ModelParams, cfg: NumericsConfig) -> FigureData:
    s = np.linspace(-6.0, 6.0, 121)
    a_u, _, p_h, ah_u, al_u = posterior_summaries(s, Radius(UNBOUNDED), params, cfg)
    inside = np.abs(s) < REFERENCE_RADIUS
    a_c, _, _, ah_c, al_c = posterior_summaries(s[inside], Radius(REFERENCE_RADIUS), params, cfg)
    censored = zip(a_c.tolist(), ah_c.tolist(), al_c.tolist())
    uncensored = zip(s.tolist(), a_u.tolist(), ah_u.tolist(), al_u.tolist(), p_h.tolist())
    rows = []
    for (s_j, a, a_h, a_l, p), keep in zip(uncensored, inside):
        a_cen, h_cen, l_cen = next(censored) if keep else (None, None, None)
        rows.append((s_j, a, a_cen, a_h, a_l, h_cen, l_cen, p))
    return FigureData(
        title=f"Optimal action against the signal (window r={REFERENCE_RADIUS:g})",
        x_label="signal s",
        y_label="action",
        columns=("s", "a_uncensored", "a_censored", "aH_unc", "aL_unc", "aH_cen", "aL_cen", "pH"),
        rows=rows,
    )


def fig5_data(params: ModelParams, cfg: NumericsConfig) -> FigureData:
    omegas = np.linspace(-4.0, 4.0, 81)
    ea_c, ea_u = (
        expected_action(omegas, Radius(r), params, cfg) for r in (REFERENCE_RADIUS, UNBOUNDED)
    )
    rows = [tuple(map(float, row)) for row in zip(omegas, ea_c, ea_u)]
    return FigureData(
        title=f"Expected action against the state (window r={REFERENCE_RADIUS:g})",
        x_label="state",
        y_label="expected action",
        columns=("omega", "EA_censored", "EA_uncensored"),
        rows=rows,
    )


FIGURES = {
    "fig1": fig1_data,
    "fig2": fig2_data,
    "fig3": fig3_data,
    "fig4": fig4_data,
    "fig5": fig5_data,
}


def build_figure(fig_id: str, params: ModelParams, cfg: NumericsConfig) -> FigureData:
    if fig_id not in FIGURES:
        raise KeyError(f"unknown figure {fig_id!r}; available: {', '.join(FIGURES)}")
    return FIGURES[fig_id](standard(params), cfg)


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else f"{value:.12g}"


def csv_text(label: str, params: ModelParams, names, rows) -> str:
    """A CSV output: one comment line with the label, the full parameter
    set and the package version, then the column names, then one line per
    row, where a string cell is written as it is."""
    header = (
        f"# {label} prior_mean={params.prior_mean:.12g} "
        f"prior_var={params.prior_var:.12g} high_var={params.high_var:.12g} "
        f"low_var={params.low_var:.12g} high_share={params.high_share:.12g} "
        f"version={__version__}"
    )
    lines = (",".join(_cell(v) for v in row) for row in rows)
    return "\n".join([header, ",".join(names), *lines]) + "\n"


def svg_text(fig: FigureData) -> str:
    xs = [row[0] for row in fig.rows]
    series = []
    for k, col in enumerate(fig.columns[1:], start=1):
        series.append((col, xs, [row[k] for row in fig.rows]))
    return render_lines(fig.title, fig.x_label, fig.y_label, series)
