"""Figure data builders and their CSV/SVG serializations.

Comparison figures that need a fixed finite window use REFERENCE_RADIUS,
the half-width highlighted throughout the default parameterization. CSV
output carries a single comment header with the full parameter set and the
package version, then the column row, then values at 12 significant digits;
no timestamps, so reruns are byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .censor import _checked, _expected_action, signal_moments_vs_r, utility_curve
from .inference import posterior_summaries, prob_high_closed
from .model import (
    UNBOUNDED,
    ModelParams,
    NumericsConfig,
    Radius,
    norm_logpdf,
)
from .svgplot import render_lines

REFERENCE_RADIUS = 2.35


@dataclass(frozen=True)
class FigureData:
    name: str
    title: str
    x_label: str
    y_label: str
    columns: tuple[str, ...]
    rows: list[tuple]


def fig1_data(params: ModelParams, cfg: NumericsConfig) -> FigureData:
    hw = 4.0 * math.sqrt(max(params.high_var, params.low_var))
    s = np.linspace(params.prior_mean - hw, params.prior_mean + hw, 321)
    f_h = np.exp(norm_logpdf(s, params.prior_mean, params.high_var))
    f_l = np.exp(norm_logpdf(s, params.prior_mean, params.low_var))
    f_mix = params.high_share * f_h + (1.0 - params.high_share) * f_l
    rows = [tuple(map(float, row)) for row in zip(s, f_h, f_l, f_mix)]
    return FigureData(
        name="fig1",
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
        name="fig2",
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
        name="fig3",
        title="Admitted-signal variance and state correlation",
        x_label="radius r",
        y_label="moment",
        columns=("r", "signal_var", "state_corr"),
        rows=rows,
    )


def fig4_data(params: ModelParams, cfg: NumericsConfig) -> FigureData:
    s = np.linspace(-6.0, 6.0, 121) + params.prior_mean
    unb = Radius(UNBOUNDED)
    a_u, _, _, ah_u, al_u = posterior_summaries(s, unb, params, cfg)
    cen = Radius(REFERENCE_RADIUS)
    inside = np.abs(s - params.prior_mean) < REFERENCE_RADIUS
    a_c = np.full(len(s), np.nan)
    ah_c = np.full(len(s), np.nan)
    al_c = np.full(len(s), np.nan)
    if inside.any():
        a_in, _, _, ah_in, al_in = posterior_summaries(s[inside], cen, params, cfg)
        a_c[inside] = a_in
        ah_c[inside] = ah_in
        al_c[inside] = al_in
    if 0.0 < params.high_share < 1.0:
        p_h = np.asarray(prob_high_closed(s, params), dtype=float)
    else:
        p_h = np.full(len(s), params.high_share)
    rows = []
    for j in range(len(s)):
        rows.append(
            (
                float(s[j]),
                float(a_u[j]),
                None if not inside[j] else float(a_c[j]),
                float(ah_u[j]),
                float(al_u[j]),
                None if not inside[j] else float(ah_c[j]),
                None if not inside[j] else float(al_c[j]),
                float(p_h[j]),
            )
        )
    return FigureData(
        name="fig4",
        title=f"Optimal action against the signal (window r={REFERENCE_RADIUS:g})",
        x_label="signal s",
        y_label="action",
        columns=(
            "s",
            "a_uncensored",
            "a_censored",
            "aH_unc",
            "aL_unc",
            "aH_cen",
            "aL_cen",
            "pH",
        ),
        rows=rows,
    )


def fig5_data(params: ModelParams, cfg: NumericsConfig) -> FigureData:
    omegas = np.linspace(-4.0, 4.0, 81) + params.prior_mean

    columns = np.stack(
        [_expected_action(omegas, Radius(r), params, cfg) for r in (REFERENCE_RADIUS, UNBOUNDED)],
        axis=1,
    )  # (rule, column, omega)
    ea_c, ea_u = _checked("expected action", columns, math.sqrt(params.prior_var))
    rows = [tuple(map(float, row)) for row in zip(omegas, ea_c, ea_u)]
    return FigureData(
        name="fig5",
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
    return FIGURES[fig_id](params, cfg)


def _cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def csv_header(label: str, params: ModelParams) -> str:
    """The one-line comment header of every CSV output: the label, the full
    parameter set and the package version."""
    return (
        f"# {label} prior_mean={params.prior_mean:.12g} "
        f"prior_var={params.prior_var:.12g} high_var={params.high_var:.12g} "
        f"low_var={params.low_var:.12g} high_share={params.high_share:.12g} "
        f"version={__version__}"
    )


def csv_text(fig: FigureData, params: ModelParams) -> str:
    lines = [csv_header(f"figure={fig.name}", params), ",".join(fig.columns)]
    for row in fig.rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def svg_text(fig: FigureData) -> str:
    xs = [row[0] for row in fig.rows]
    series = []
    for k, col in enumerate(fig.columns[1:], start=1):
        series.append((col, xs, [row[k] for row in fig.rows]))
    return render_lines(fig.title, fig.x_label, fig.y_label, series)
