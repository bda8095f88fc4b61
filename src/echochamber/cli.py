"""Command-line interface.

Commands: figures (CSV/SVG reproduction), verify (the named check battery),
optimize radius|normal-sampling, and sweep (one-parameter grid study).

Config precedence: built-in defaults, then --config (JSON object or flat
key=value lines), then individual flags. Exit codes: 0 success,
1 verification failure, 2 configuration error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .censor import optimize_radius
from .errors import ConfigError, DomainError, NumericFailure
from .model import (
    DEFAULT_NUMERICS,
    DEFAULT_PARAMS,
    ModelParams,
    NumericsConfig,
    is_unbounded,
)
from .normal_sampling import optimize_sampling_variance
from .verify import format_report, report_json, run_checks

_PARAM_KEYS = {
    "omega0": "prior_mean",
    "sigma02": "prior_var",
    "sigmaH2": "high_var",
    "sigmaL2": "low_var",
    "h": "high_share",
}
_NUMERIC_KEYS = {
    "quad_nodes": int,
    "mc_seed": int,
    "mc_n": int,
}


def _parse_pairs(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ConfigError(f"expected key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _items(text: str, option: str) -> list[str]:
    """The comma-separated items of an option's value; naming none is a
    configuration error, since the command would then do nothing."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ConfigError(f"{option} names nothing: {text!r}")
    return items


def _load_config_file(path: str) -> dict[str, object]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path!r} must hold an object")
        return data
    out: dict[str, object] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value line in {path!r}, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _strict(kind, value):
    """kind(value), refusing what kind() would silently round: a JSON
    boolean, or a fractional number for an integer key."""
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise TypeError(f"{value!r} is not {kind.__name__}")
    return kind(value)


def _resolve(args: argparse.Namespace) -> tuple[ModelParams, NumericsConfig]:
    merged: dict[str, object] = {}
    if args.config:
        merged.update(_load_config_file(args.config))
    if args.params:
        for spec in args.params:
            merged.update(_parse_pairs(spec))

    p_kwargs: dict[str, float] = {}
    n_kwargs: dict[str, object] = {}
    for key, value in merged.items():
        if key in _PARAM_KEYS:
            try:
                p_kwargs[_PARAM_KEYS[key]] = _strict(float, value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"parameter {key}={value!r} is not a number") from exc
        elif key in _NUMERIC_KEYS:
            try:
                n_kwargs[key] = _strict(_NUMERIC_KEYS[key], value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"numeric option {key}={value!r} has the wrong type") from exc
        else:
            known = ", ".join(sorted((*_PARAM_KEYS, *_NUMERIC_KEYS)))
            raise ConfigError(f"unknown config key {key!r}; known keys: {known}")

    if args.seed is not None:
        n_kwargs["mc_seed"] = args.seed
    if args.mc_n is not None:
        n_kwargs["mc_n"] = args.mc_n

    try:
        params = replace(DEFAULT_PARAMS, **p_kwargs)
        cfg = replace(DEFAULT_NUMERICS, **n_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return params, cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or "echochamber_out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write(out: Path, name: str, text: str) -> None:
    """Write text to the file name in out and print its path."""
    path = out / name
    path.write_text(text)
    print(path)


def cmd_figures(args: argparse.Namespace, params: ModelParams, cfg: NumericsConfig) -> int:
    from .figures import FIGURES, build_figure, csv_text, svg_text

    formats = set(_items(args.format or "csv,svg", "--format"))
    if formats - {"csv", "svg"}:
        raise ConfigError(f"--format takes a subset of csv,svg; got {args.format!r}")
    if args.only is not None:
        selection = _items(args.only, "--only")
        unknown = [f for f in selection if f not in FIGURES]
        if unknown:
            raise ConfigError(
                f"unknown figure id(s) {unknown!r}; available: {', '.join(FIGURES)}"
            )
    else:
        selection = list(FIGURES)
    out = _out_dir(args)
    failed = []
    for fig_id in selection:
        try:
            fig = build_figure(fig_id, params, cfg)
        except NumericFailure as exc:
            print(f"figure {fig_id} aborted: {exc}", file=sys.stderr)
            failed.append(fig_id)
            continue
        if "csv" in formats:
            _write(out, f"{fig_id}.csv", csv_text(f"figure={fig_id}", params, fig.columns, fig.rows))
        if "svg" in formats:
            _write(out, f"{fig_id}.svg", svg_text(fig))
    return 3 if failed else 0


def cmd_verify(args: argparse.Namespace, params: ModelParams, cfg: NumericsConfig) -> int:
    names = None if args.check is None else _items(args.check, "--check")
    try:
        results = run_checks(params, cfg, names)
    except KeyError as exc:
        raise ConfigError(str(exc.args[0])) from exc
    sys.stdout.write(format_report(results))
    if args.out:
        report = json.dumps(report_json(results, params, cfg), sort_keys=True, indent=2)
        _write(_out_dir(args), "verify_report.json", report + "\n")
    return 0 if all(r.passed for r in results) else 1


# the fields that report an optimum: optimize prints them as name=text
# lines, and optimum.csv and sweep.csv hold them as columns
_OPTIMUM_FIELDS = ("family", "r_star", "utility_at_opt", "utility_uncensored", "is_finite")


def _optimum_texts(family: str, opt) -> list[str]:
    """An optimum's fields as printed, in the order of _OPTIMUM_FIELDS."""
    r_star = "Unbounded" if is_unbounded(opt.r_star) else f"{float(opt.r_star):.12g}"
    utilities = f"{opt.utility_at_opt:.12g}", f"{opt.utility_uncensored:.12g}"
    return [family, r_star, *utilities, f"{opt.is_finite}"]


def _run_family(family: str, params: ModelParams, cfg: NumericsConfig):
    if family == "radius":
        return optimize_radius(params, cfg)
    return optimize_sampling_variance(params, cfg)


def cmd_optimize(args: argparse.Namespace, params: ModelParams, cfg: NumericsConfig) -> int:
    opt = _run_family(args.family, params, cfg)
    texts = _optimum_texts(args.family, opt)
    lo, hi = (f"{b:.12g}" for b in opt.bracket)
    for name, text in zip(_OPTIMUM_FIELDS, texts):
        print(f"{name}={text}")
    print(f"bracket={lo},{hi}")
    if args.out:
        from .figures import csv_text  # loads figures and svgplot: only for the CSV

        cols = (*_OPTIMUM_FIELDS, "bracket_lo", "bracket_hi")
        text = csv_text(f"optimize family={args.family}", params, cols, [[*texts, lo, hi]])
        _write(_out_dir(args), "optimum.csv", text)
    return 0


def _sweep_values(args: argparse.Namespace) -> list[float]:
    if args.values is not None:
        values = _items(args.values, "--values")
        try:
            return [float(v) for v in values]
        except ValueError as exc:
            raise ConfigError(f"--values must be numbers, got {args.values!r}") from exc
    if args.lo is None or args.hi is None or args.steps is None:
        raise ConfigError("sweep needs either --values or all of --lo/--hi/--steps")
    if not (args.lo < args.hi and args.steps >= 2):
        raise ConfigError("sweep grid needs lo < hi and steps >= 2")
    if args.log:
        if args.lo <= 0:
            raise ConfigError("--log sweep needs lo > 0")
        return [float(v) for v in np.geomspace(args.lo, args.hi, args.steps)]
    return [float(v) for v in np.linspace(args.lo, args.hi, args.steps)]


def cmd_sweep(args: argparse.Namespace, params: ModelParams, cfg: NumericsConfig) -> int:
    from .figures import csv_text

    if args.vary not in ("sigmaL2", "h", "sigma02"):
        raise ConfigError(f"--vary must be one of sigmaL2, h, sigma02; got {args.vary!r}")
    field = _PARAM_KEYS[args.vary]
    values = _sweep_values(args)
    rows = []
    for value in values:
        try:
            p = replace(params, **{field: value})
        except ValueError as exc:
            raise ConfigError(f"{args.vary}={value!r}: {exc}") from exc
        opt = _run_family(args.family, p, cfg)
        rows.append([args.vary, f"{value:.12g}", *_optimum_texts(args.family, opt)])
    title = f"sweep vary={args.vary} family={args.family}"
    text = csv_text(title, params, ("vary", "value", *_OPTIMUM_FIELDS), rows)
    sys.stdout.write(text)
    if args.out:
        _write(_out_dir(args), "sweep.csv", text)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--params",
        action="append",
        metavar="KEY=VALUE[,...]",
        help="model overrides: omega0, sigma02, sigmaH2, sigmaL2, h",
    )
    sub.add_argument("--config", metavar="PATH", help="JSON or key=value config file")
    sub.add_argument("--out", metavar="DIR", help="output directory")
    sub.add_argument("--seed", type=int, metavar="U64", help="Monte Carlo seed")
    sub.add_argument("--mc-n", type=int, metavar="N", help="Monte Carlo sample size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echochamber",
        description=(
            "Bayesian decision model with heterogeneous-quality signal "
            "sources and self-imposed sampling windows"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fig = subs.add_parser("figures", help="emit figure CSV/SVG files")
    _add_common(fig)
    fig.add_argument("--only", metavar="ID[,...]", help="subset of fig1..fig5")
    fig.add_argument("--format", metavar="csv,svg", help="output formats (default both)")
    fig.set_defaults(func=cmd_figures)

    ver = subs.add_parser("verify", help="run the named verification checks")
    _add_common(ver)
    ver.add_argument("--check", metavar="NAME[,...]", help="subset of checks")
    ver.set_defaults(func=cmd_verify)

    opt = subs.add_parser("optimize", help="run one of the policy optimizers")
    opt.add_argument("family", choices=("radius", "normal-sampling"))
    _add_common(opt)
    opt.set_defaults(func=cmd_optimize)

    sweep = subs.add_parser("sweep", help="optimize along a one-parameter grid")
    _add_common(sweep)
    sweep.add_argument("--vary", required=True, metavar="KEY", help="sigmaL2, h, or sigma02")
    sweep.add_argument("--values", metavar="V1,V2,...", help="explicit grid values")
    sweep.add_argument("--lo", type=float, help="grid start")
    sweep.add_argument("--hi", type=float, help="grid end")
    sweep.add_argument("--steps", type=int, help="grid size")
    sweep.add_argument("--log", action="store_true", help="logarithmic grid spacing")
    sweep.add_argument(
        "--family",
        choices=("radius", "normal-sampling"),
        default="radius",
        help="which optimizer to sweep",
    )
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params, cfg = _resolve(args)
        code = args.func(args, params, cfg)
        sys.stdout.flush()  # so a reader that left early is seen here
        return code
    except BrokenPipeError:
        # stdout's reader has gone (say, `| head`): point stdout at devnull,
        # so the flush at exit cannot raise again, and exit 1 as for EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
