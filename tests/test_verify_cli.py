from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from echochamber import mc
from echochamber.cli import main
from echochamber.model import ABS_TOL, DEFAULT_NUMERICS, DEFAULT_PARAMS
from echochamber.verify import ALL_CHECKS, format_report, run_checks

P = DEFAULT_PARAMS
C = DEFAULT_NUMERICS


def _read_csv(path):
    lines = path.read_text().splitlines()
    header, columns = lines[0], lines[1].split(",")
    rows = list(csv.reader(lines[2:]))
    return header, columns, rows


def test_run_checks_subset_and_order() -> None:
    results = run_checks(P, C, ["prop3", "lemma1"])
    assert [r.name for r in results] == ["prop3", "lemma1"]
    assert all(r.passed for r in results)


def test_run_checks_unknown_name() -> None:
    with pytest.raises(KeyError, match="unknown check"):
        run_checks(P, C, ["lemma1", "nope"])


def test_run_checks_records_blowups_as_failures() -> None:
    # the quality belief is undefined in a single-type model; the check must
    # come back failed, not raise
    results = run_checks(replace(P, high_share=1.0), C, ["hvanish"])
    assert not results[0].passed
    assert "raised" in results[0].measured


def test_format_report_layout() -> None:
    results = run_checks(P, C, ["lemma1", "prop3"])
    text = format_report(results)
    lines = text.splitlines()
    assert lines[0].startswith("PASS lemma1")
    assert lines[2].startswith("PASS prop3")
    assert lines[-1] == "2/2 checks passed"
    for r in results:
        assert r.tolerance in text and r.detail in text


@pytest.mark.skipif(
    shutil.which("echochamber") is None,
    reason="no echochamber console script on PATH; install with pip install -e .",
)
def test_console_script_is_installed() -> None:
    exe = shutil.which("echochamber")
    assert exe is not None
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "echochamber" in proc.stdout


def test_cli_verify_subset(capsys, tmp_path) -> None:
    code = main(["verify", "--check", "prop3", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS prop3" in out
    assert "1/1 checks passed" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == ["prop3"]
    assert report["params"]["low_var"] == P.low_var


def test_cli_verify_failure_exits_1(capsys) -> None:
    # tripling the high-type variance kills the vanishing-contribution bound
    code = main(["verify", "--check", "hvanish", "--params", "sigmaH2=3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL hvanish" in out


def test_cli_closed_stdout_exits_1_quietly(capsys, monkeypatch, tmp_path) -> None:
    # stdout is a pipe whose reader has gone, as in `echochamber ... | head -2`:
    # every write raises BrokenPipeError
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    with open(write_fd, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["verify", "--check", "lemma1", "--out", str(tmp_path)])
        monkeypatch.undo()
    assert code == 1
    assert capsys.readouterr().err == ""


def test_cli_verify_unknown_check_exits_2(capsys) -> None:
    code = main(["verify", "--check", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err


def test_cli_bad_parameter_exits_2(capsys) -> None:
    assert main(["verify", "--check", "lemma1", "--params", "h=2"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["optimize", "radius", "--params", "bogus=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert main(["figures", "--only", "fig9"]) == 2
    assert "unknown figure" in capsys.readouterr().err
    # a selection that names nothing would do nothing and exit 0
    for argv in (
        ["verify", "--check", ","],
        ["figures", "--only", ","],
        ["sweep", "--vary", "sigmaL2", "--values", ","],
    ):
        assert main(argv) == 2, argv
        assert "configuration error" in capsys.readouterr().err, argv
    # numeric settings that are fixed constants, not config keys
    for key, value in (("abs_tol", "1e-8"), ("invariant_tol", "1e-6"), ("support_halfwidth_sd", "10")):
        assert main(["verify", "--check", "lemma1", "--params", f"{key}={value}"]) == 2
        assert "unknown config key" in capsys.readouterr().err


def test_cli_optimize_radius_default(capsys) -> None:
    code = main(["optimize", "radius"])
    out = capsys.readouterr().out
    assert code == 0
    assert "family=radius" in out
    assert "r_star=Unbounded" in out
    assert "is_finite=False" in out


def test_cli_optimize_normal_sampling_wide_low_var(capsys) -> None:
    # the scan follows the model's scale, so a huge low_var neither runs off
    # the grid nor trips the scan-bound error
    code = main(["optimize", "normal-sampling", "--params", "sigmaL2=1e8"])
    capsys.readouterr()
    assert code == 0


def _optimum(argv: list[str], capsys) -> tuple[int, dict[str, str]]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def test_cli_optimize_radius_surplus_is_relative_to_prior_var(capsys) -> None:
    # h=0.999 is finite with a surplus of 4.6e-6 over the benchmark; the
    # same model with every variance 10x smaller has a surplus of 4.6e-7,
    # which is still 4.6e-6 prior_var, so it must be finite too
    unit = _optimum(["optimize", "radius", "--params", "h=0.999"], capsys)
    small = _optimum(
        ["optimize", "radius", "--params", "h=0.999,sigma02=0.1,sigmaH2=0.05,sigmaL2=0.3"],
        capsys,
    )
    assert unit[0] == small[0] == 0
    assert unit[1]["is_finite"] == small[1]["is_finite"] == "True"
    assert math.isclose(float(small[1]["r_star"]), float(unit[1]["r_star"]) / 10**0.5, rel_tol=1e-6)


def test_cli_optimize_radius_self_check_is_relative_to_prior_var(capsys) -> None:
    # the sigmaL2=300 model in units 1e4 times larger: its benchmark's
    # Kronrod-Gauss gap is 0.79, 7.9e-9 of prior_var, and must pass
    code, fields = _optimum(
        ["optimize", "radius", "--params", "sigma02=1e8,sigmaH2=5e7,sigmaL2=3e10"], capsys
    )
    assert code == 0
    assert fields["is_finite"] == "True"
    assert math.isclose(float(fields["utility_uncensored"]), -0.754564728669e8, rel_tol=1e-11)


def test_cli_optimize_radius_answers_when_window_ends_round_together(capsys) -> None:
    # at low_var 1e32 the low type's window is narrower than the float
    # spacing of its standardized ends at most state nodes, so both ends
    # round to one value; its mass is then width * phi, not log1p(-1). The
    # low type is pure noise, so the window's utility is the high type's
    # alone, -high_var * prior_var / (high_var + prior_var) = -1/3 at the
    # defaults, and the benchmark mixes that with the prior's loss -1 in
    # shares h and 1 - h: -(h / 3 + 1 - h) = -2/3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, fields = _optimum(["optimize", "radius", "--params", "sigmaL2=1e32"], capsys)
    assert code == 0 and not caught
    assert fields["is_finite"] == "True"
    assert math.isclose(float(fields["utility_at_opt"]), -1.0 / 3.0, rel_tol=0.0, abs_tol=1e-9)
    assert math.isclose(float(fields["utility_uncensored"]), -2.0 / 3.0, rel_tol=0.0, abs_tol=1e-9)
    # r* sits on a plateau: its digits are not pinned, only its bracket
    lo, hi = map(float, fields["bracket"].split(","))
    assert lo <= float(fields["r_star"]) <= hi


@pytest.mark.parametrize(
    ("params", "r_star"),
    [("sigmaH2=0.01,sigmaL2=3e5", "3.52042358085"), ("sigmaH2=0.03,sigmaL2=3e5", "3.30802550942")],
)
def test_cli_optimize_radius_refines_a_refused_scan_point(capsys, params, r_star) -> None:
    # a scan point here fails the check on the rule as configured (the
    # estimate, G7's error, is 1.1 and 1.6 times the gate while K15 is
    # within 2e-9 of a 61-node rule) and passes at twice the order, so the
    # run answers; the pins hold at any BLAS thread count
    code, fields = _optimum(["optimize", "radius", "--params", params], capsys)
    assert code == 0
    assert (fields["r_star"], fields["is_finite"]) == (r_star, "True")


def test_cli_optimize_radius_csv(capsys, tmp_path) -> None:
    code = main(
        ["optimize", "radius", "--params", "sigmaL2=300", "--out", str(tmp_path)]
    )
    capsys.readouterr()
    assert code == 0
    text = (tmp_path / "optimum.csv").read_text()
    header, cols, row = text.splitlines()
    assert header.startswith("# optimize family=radius")
    assert "low_var=300" in header and "version=" in header
    assert cols.split(",")[:2] == ["family", "r_star"]
    fields = row.split(",")
    assert fields[4] == "True"
    assert abs(float(fields[1]) - 2.5058) < 5e-3


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "radius", "--params", "sigmaL2=300,quad_nodes=1"],
        ["sweep", "--vary", "sigmaL2", "--values", "300", "--params", "quad_nodes=1"],
        ["optimize", "radius", "--params", "quad_nodes=1"],
        ["optimize", "normal-sampling", "--params", "sigmaL2=300,quad_nodes=1"],
    ],
    ids=["optimize", "sweep", "default-params", "normal-sampling"],
)
def test_cli_optimize_coarse_quadrature_exits_3(capsys, argv) -> None:
    # too coarse a rule leaves the unrestricted benchmark visibly wrong: at
    # quad_nodes=1 K3 is 1.0e-4 off at sigmaL2=300 and 9.2e-7 off at the
    # defaults, and the pair at twice the order still fails the gate of
    # 1e-5. Both optimizers must abort the run rather than print it, and say
    # so instead of blaming the scan bound
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric failure" in err
    assert "failed its self-check" in err and "scan bound" not in err


def test_cli_verify_prop2_coarse_quadrature_fails(capsys) -> None:
    code = main(["verify", "--check", "prop2", "--params", "quad_nodes=1"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("FAIL prop2") and "raised QuadratureError" in out


def test_cli_figures_fig2_coarse_quadrature_exits_3(capsys, tmp_path) -> None:
    # at quad_nodes=1 the unrestricted benchmark's Kronrod-Gauss estimate
    # is 1.3e-3, and 4.0e-5 at twice the order; fig2 self-checks it instead
    # of printing it
    code = main(
        ["figures", "--only", "fig2", "--format", "csv", "--out", str(tmp_path),
         "--params", "quad_nodes=1"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "figure fig2 aborted" in err and "failed its self-check" in err
    assert not (tmp_path / "fig2.csv").exists()


def test_cli_figures_fig2_curve_points_are_checked(capsys, tmp_path) -> None:
    # here the benchmark passes, but on the rule as built the r = 1.1
    # point's Kronrod-Gauss estimate is 3.4e-4 and its Kronrod value
    # -0.76092905821, 2.2e-7 off a 30-node rule. Every point of the curve is
    # checked, not only the benchmark, so that value is refused and the
    # point is evaluated again at twice the order, which passes and gives
    # the 30-node value to ABS_TOL
    code = main(
        ["figures", "--only", "fig2", "--format", "csv", "--out", str(tmp_path),
         "--params", "quad_nodes=3,sigmaH2=0.1,sigmaL2=30"]
    )
    capsys.readouterr()
    assert code == 0
    with open(tmp_path / "fig2.csv", newline="") as fh:
        rows = {row[0]: row[1] for row in csv.reader(line for line in fh if line[0] != "#")}
    assert abs(float(rows["1.1"]) - -0.76092883891) < 1e-8


def test_cli_figures_fig2_signal_axis_gap_answers(capsys, tmp_path) -> None:
    # at quad_nodes=3, sigmaL2=30 the Kronrod-Gauss gap of some points sits
    # on the signal axis; the rule at twice the order refines both axes, so
    # the figure is drawn, and every utility matches a 30-node rule
    curves = {}
    for nodes in (3, 30):
        out = tmp_path / str(nodes)
        code = main(
            ["figures", "--only", "fig2", "--format", "csv", "--out", str(out),
             "--params", f"quad_nodes={nodes},sigmaL2=30"]
        )
        assert code == 0
        curves[nodes] = _read_csv(out / "fig2.csv")[2]
    capsys.readouterr()
    assert [row[0] for row in curves[3]] == [row[0] for row in curves[30]]
    for coarse, fine in zip(curves[3], curves[30]):
        for a, b in zip(coarse[1:], fine[1:]):
            assert abs(float(a) - float(b)) < ABS_TOL, (coarse, fine)


def test_cli_verify_at_quad_nodes_2_passes(capsys, tmp_path) -> None:
    # every check the two-node rule cannot settle is settled at twice the order
    code = main(["verify", "--out", str(tmp_path), "--params", "quad_nodes=2"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert json.loads((tmp_path / "verify_report.json").read_text())["passed"] is True


def test_cli_optimize_radius_answers_at_a_sampled_domain_point(capsys) -> None:
    # a random domain point where a scan value failed its check on the rule
    # as configured and the run exited 3; at twice the order it answers
    code, fields = _optimum(
        ["optimize", "radius", "--params",
         "sigma02=14.523350130266536,sigmaH2=0.18004094483670416,"
         "sigmaL2=0.27785667542948683,h=0.020215573356146876"],
        capsys,
    )
    assert code == 0
    assert fields["r_star"] == "Unbounded"
    assert fields["utility_uncensored"] == "-0.270736481294"


@pytest.mark.parametrize("family", ["radius", "normal-sampling"])
def test_cli_optimize_radius_does_not_depend_on_the_prior_mean(capsys, family) -> None:
    # built about the prior mean, the rules dropped window-end panels, and
    # omega0=10 printed r_star=2.03400631766 with no error; the soft
    # window's two-step rule, taken in absolute signals, printed
    # r_star=1.94578129304 at omega0=1e10 for 1.94614159271
    assert main(["optimize", family, "--params", "sigmaL2=300"]) == 0
    want = capsys.readouterr().out
    for omega0 in ("10", "1000", "1e5", "1e10"):
        assert main(["optimize", family, "--params", f"omega0={omega0},sigmaL2=300"]) == 0
        assert capsys.readouterr().out == want, omega0


def test_cli_verify_does_not_depend_on_the_prior_mean(capsys) -> None:
    # the checks run on the standardized model, so neither the prior mean
    # nor the unit of the state moves a digit of the report. Run in
    # absolute units, omega0=1e10 failed lemma1 on the spacing of the
    # doubles there, and 4x the default variances failed prop4 and hvanish
    argv = ["verify", "--mc-n", "30000", "--params"]
    assert main(argv + ["omega0=0"]) == 0
    want = capsys.readouterr().out
    assert want.endswith("15/15 checks passed\n")
    for params in (
        "omega0=1000",
        "omega0=1e10",
        "sigma02=4,sigmaH2=2,sigmaL2=12",
        "sigma02=1e4,sigmaH2=5e3,sigmaL2=3e4",
    ):
        assert main(argv + [params]) == 0, params
        assert capsys.readouterr().out == want, params


def test_cli_figures_radius_curves_do_not_depend_on_the_prior_mean(capsys, tmp_path) -> None:
    # every figure is drawn on the standardized model, so moving the prior
    # or rescaling the three variances changes only the CSV header; far
    # from 0, absolute coordinates would round to the spacing of the doubles
    bodies = []
    for spec in ("omega0=0", "omega0=1e10", "sigma02=4,sigmaH2=2,sigmaL2=12"):
        out = tmp_path / spec.replace(",", "_")
        assert main(["figures", "--out", str(out), "--params", spec]) == 0, spec
        body = {}
        for fig in ("fig1", "fig2", "fig3", "fig4", "fig5"):
            csv_lines = (out / f"{fig}.csv").read_text().splitlines()
            assert csv_lines[0].startswith(f"# figure={fig} "), spec
            body[fig] = csv_lines[1:], (out / f"{fig}.svg").read_text()
        bodies.append(body)
    capsys.readouterr()
    for body in bodies[1:]:
        for fig in body:
            assert body[fig] == bodies[0][fig], fig


def test_cli_figures_header_keeps_the_parameters_as_given(tmp_path) -> None:
    out = tmp_path / "out"
    argv = ["figures", "--only", "fig1", "--format", "csv", "--out", str(out)]
    assert main(argv + ["--params", "omega0=1e10,sigma02=4"]) == 0
    header = (out / "fig1.csv").read_text().splitlines()[0]
    assert "prior_mean=10000000000 prior_var=4 " in header


def test_cli_figures_fig3_signal_axis_gap_exits_3(capsys, tmp_path) -> None:
    # at r = 1.7 fig3's signal variance is 0.746 under the Kronrod rule, for
    # 0.848 under a 29822-node uniform rule; its Kronrod-Gauss gap is 0.081,
    # and 0.114 at twice the order, so fig3 refuses it instead of printing it
    code = main(
        ["figures", "--only", "fig3", "--format", "csv", "--out", str(tmp_path),
         "--params", "sigmaH2=5e-5,sigmaL2=3e-4"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "figure fig3 aborted" in err and "signal moments failed its self-check" in err
    assert not (tmp_path / "fig3.csv").exists()


def test_cli_figures_fig5_far_from_prior_exits_3(capsys, tmp_path) -> None:
    # a precise high type (sigmaH2 = 0.01) has a likelihood narrower than
    # the signal panels a few prior sds out, where the Unbounded column is
    # 1.5e-4 off a 60-per-panel rule; fig5 self-checks both columns
    code = main(
        ["figures", "--only", "fig5", "--format", "csv", "--out", str(tmp_path),
         "--params", "sigmaH2=0.01,sigmaL2=300"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "figure fig5 aborted" in err and "failed its self-check" in err
    assert not (tmp_path / "fig5.csv").exists()


def test_cli_verify_benchmark_checks_coarse_quadrature_fail(capsys) -> None:
    code = main(["verify", "--check", "lemma2,mc_eu_unbounded", "--params", "quad_nodes=1"])
    out = capsys.readouterr().out
    assert code == 1
    for name in ("lemma2", "mc_eu_unbounded"):
        line = next(ln for ln in out.splitlines() if ln.split()[1:2] == [name])
        assert line.startswith("FAIL") and "raised QuadratureError" in line


def test_exante_total_var_measured_line_is_pinned() -> None:
    # the standard error is computed in place; it must not move a digit
    (result,) = run_checks(P, C, ["exante_total_var"])
    assert result.passed
    assert result.measured == "sample var 2.7460 vs total-variance value 2.7500, z 1.81156"


def test_exante_total_var_fails_a_biased_simulator(monkeypatch) -> None:
    # every signal shifted by half a prior sd leaves the signals' own spread
    # as it was; the check must see the shift, as its variance is taken
    # about the prior mean
    draw_attempts = mc._draw_attempts

    def biased(u, params, flags, s, tmp) -> None:
        draw_attempts(u, params, flags, s, tmp)
        s += 0.5

    monkeypatch.setattr(mc, "_draw_attempts", biased)
    (result,) = run_checks(P, replace(C, mc_n=50_000), ["exante_total_var"])
    assert not result.passed, result.measured


def test_exante_total_var_prints_five_significant_digits_at_any_scale() -> None:
    # at low_var 1e16 four decimals would print the estimate to its last
    # bits, which follow the order of its summation, not the sample
    params, cfg = replace(P, low_var=1e16), replace(C, mc_n=20_000)
    measured = run_checks(params, cfg, ["exante_total_var"])[0].measured
    value, target = measured.removeprefix("sample var ").split(", z ")[0].split(" vs total-variance value ")
    assert target == "5.0000e+15"
    assert len(value) == len("4.9934e+15") and value.endswith("e+15"), value


@pytest.mark.parametrize(
    "name, measured",
    [
        (
            "prop1",
            "high fraction at r=1: 0.5658+/-0.0005 -> 0.7912+/-0.0004 -> 0.9227+/-0.0003; "
            "step z 351.632, 270.316",
        ),
        ("mc_eu_unbounded", "MC -0.61908+/-0.00094 vs quadrature -0.61871, z 0.400571"),
        ("mc_eu_radius", "MC -0.65928+/-0.00106 vs quadrature -0.65971, z 0.400137"),
    ],
    ids=["prop1", "mc_eu_unbounded", "mc_eu_radius"],
)
def test_monte_carlo_measured_lines_are_pinned(name: str, measured: str) -> None:
    # each check simulates chunk by chunk and keeps one value per record;
    # its line is the one it printed while it reduced the full draw sets
    (result,) = run_checks(P, C, [name])
    assert result.passed
    assert result.measured == measured


def test_cli_figures_all_csv(capsys, tmp_path) -> None:
    code = main(["figures", "--format", "csv", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"fig{i}.csv" for i in range(1, 6)]
    _, _, rows = _read_csv(tmp_path / "fig3.csv")
    assert len(rows) == 60


@pytest.mark.parametrize(
    "h, p_high", [("0.5", 0.6202), ("0", 0.0), ("1", 1.0)], ids=["mixed", "all-low", "all-high"]
)
def test_cli_figures_fig4_csv(capsys, tmp_path, h, p_high) -> None:
    # at a pure share the quality belief is the share itself at every signal
    code = main(
        ["figures", "--only", "fig4", "--format", "csv", "--out", str(tmp_path), "--params", f"h={h}"]
    )
    capsys.readouterr()
    assert code == 0
    header, columns, rows = _read_csv(tmp_path / "fig4.csv")
    assert header.startswith("# figure=fig4") and "version=" in header
    assert columns == ["s", "a_uncensored", "a_censored", "aH_unc", "aL_unc", "aH_cen", "aL_cen", "pH"]
    assert len(rows) == 121
    i_cen = columns.index("a_censored")
    for row in rows:
        s = float(row[0])
        if abs(s) >= 2.35:
            assert row[i_cen] == ""
        else:
            assert row[i_cen] != ""
    center = next(row for row in rows if float(row[0]) == 0.0)
    assert abs(float(center[columns.index("pH")]) - p_high) < 1e-3
    if h != "0.5":
        assert {float(row[columns.index("pH")]) for row in rows} == {p_high}
    assert abs(float(center[columns.index("a_uncensored")])) < 1e-12


def test_cli_figures_single_type_densities_coincide(capsys, tmp_path) -> None:
    code = main(
        [
            "figures",
            "--only",
            "fig1",
            "--format",
            "csv",
            "--params",
            "h=1",
            "--out",
            str(tmp_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    _, columns, rows = _read_csv(tmp_path / "fig1.csv")
    i_h, i_mix = columns.index("f_H"), columns.index("f_mix")
    for row in rows:
        assert row[i_h] == row[i_mix]


def test_cli_figures_rerun_is_byte_identical(capsys, tmp_path) -> None:
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["figures", "--only", "fig1,fig4", "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("fig1.csv", "fig4.csv", "fig1.svg", "fig4.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_cli_config_file_and_flag_precedence(capsys, tmp_path) -> None:
    cfg_kv = tmp_path / "cfg.txt"
    cfg_kv.write_text("sigmaL2 = 300  # noisy minority\n")
    out1 = tmp_path / "o1"
    assert main(
        ["figures", "--only", "fig1", "--format", "csv", "--config", str(cfg_kv), "--out", str(out1)]
    ) == 0
    header1, _, _ = _read_csv(out1 / "fig1.csv")
    assert "low_var=300" in header1

    cfg_json = tmp_path / "cfg.json"
    cfg_json.write_text(json.dumps({"sigmaL2": 300}))
    out2 = tmp_path / "o2"
    assert main(
        [
            "figures",
            "--only",
            "fig1",
            "--format",
            "csv",
            "--config",
            str(cfg_json),
            "--params",
            "sigmaL2=7",
            "--out",
            str(out2),
        ]
    ) == 0
    capsys.readouterr()
    header2, _, _ = _read_csv(out2 / "fig1.csv")
    assert "low_var=7" in header2


def test_cli_json_config_values_are_not_rounded(capsys, tmp_path) -> None:
    # int() would run 20.5 as 20 nodes, float() a JSON true as h = 1, and
    # int() of a JSON Infinity raises OverflowError, not a config error
    cfg_json = tmp_path / "cfg.json"
    for data in ({"quad_nodes": 20.5}, {"h": True}, {"quad_nodes": math.inf}):
        cfg_json.write_text(json.dumps(data))
        assert main(["verify", "--check", "lemma1", "--config", str(cfg_json)]) == 2, data
        assert "configuration error" in capsys.readouterr().err
    cfg_json.write_text(json.dumps({"mc_n": 1e6}))  # an integral number is an integer
    assert main(["verify", "--check", "lemma1", "--config", str(cfg_json)]) == 0
    capsys.readouterr()


def test_cli_sweep_radius_over_low_var(capsys, tmp_path) -> None:
    argv = ["sweep", "--vary", "sigmaL2", "--values", "3,300", "--family", "radius"]
    code = main([*argv, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    # stdout is the table sweep.csv holds, then that file's path
    path = tmp_path / "sweep.csv"
    assert out == f"{path.read_text()}{path}\n"
    lines = out.splitlines()
    assert lines[0].startswith("# sweep vary=sigmaL2")
    assert lines[1] == "vary,value,family,r_star,utility_at_opt,utility_uncensored,is_finite"
    row3 = lines[2].split(",")
    row300 = lines[3].split(",")
    assert row3[3] == "Unbounded" and row3[6] == "False"
    assert row300[6] == "True"
    assert abs(float(row300[3]) - 2.5058) < 5e-3


def test_cli_sweep_log_grid(capsys) -> None:
    code = main(["sweep", "--vary", "sigmaL2", "--lo", "3", "--hi", "300", "--steps", "3", "--log"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split(",")[1] for line in lines[2:]] == ["3", "30", "300"]


def test_cli_sweep_needs_a_grid(capsys) -> None:
    assert main(["sweep", "--vary", "sigmaL2"]) == 2
    assert "sweep needs" in capsys.readouterr().err
    # a grid that runs backwards, or a log grid through 0, is no grid either
    for grid in (
        ["--lo", "3", "--hi", "1", "--steps", "3"],
        ["--lo", "0", "--hi", "1", "--steps", "3", "--log"],
    ):
        assert main(["sweep", "--vary", "sigmaL2", *grid]) == 2, grid
        capsys.readouterr()


def test_cli_sweep_linear_grid(capsys) -> None:
    code = main(["sweep", "--vary", "h", "--lo", "0.5", "--hi", "0.9", "--steps", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split(",")[1] for line in lines[2:]] == ["0.5", "0.7", "0.9"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--vary", "omega0", "--values", "1"], "--vary must be one of"),
        (["--vary", "sigmaL2", "--values", "1,x"], "--values must be numbers"),
        (["--vary", "sigmaL2", "--values", "0.1"], "sigmaL2=0.1: high_var must not exceed"),
    ],
    ids=["vary", "values", "model"],
)
def test_cli_sweep_refusals_exit_2(capsys, argv, message) -> None:
    assert main(["sweep", *argv]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_cli_figures_unknown_format_exits_2(capsys, tmp_path) -> None:
    assert main(["figures", "--format", "pdf", "--out", str(tmp_path)]) == 2
    assert "--format takes a subset of csv,svg" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config file"),
        ("{sigmaL2: 300}", "invalid JSON in"),
        ('["sigmaL2=300"]', "must hold an object"),
        ("sigmaL2 300\n", "expected key=value line in"),
    ],
    ids=["unreadable", "invalid-json", "json-array", "no-equals"],
)
def test_cli_bad_config_file_exits_2_naming_it(capsys, tmp_path, text, message) -> None:
    path = tmp_path / "cfg"
    if text is not None:
        path.write_text(text)
    assert main(["verify", "--check", "lemma1", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and repr(str(path)) in err


def test_cli_seed_reaches_the_monte_carlo_checks(capsys) -> None:
    code = main(["verify", "--check", "prop1", "--seed", "7", "--mc-n", "20000"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].endswith("; seed 7")


@pytest.mark.parametrize(
    "params, utilities",
    [
        ("sigma02=1e-200,sigmaH2=1e-200,sigmaL2=1e-200", ("-5e-201", "-5e-201")),
        ("sigma02=1e200,sigmaH2=1e200,sigmaL2=1e200", ("-5e+199", "-5e+199")),
        ("sigma02=1e-300,sigmaH2=5e-301,sigmaL2=3e-300", ("-6.18706702731e-301",) * 2),
        ("sigma02=1e-12,sigmaH2=5e-13,sigmaL2=3e-10", ("-5.41940872867e-13", "-5.9248051757e-13")),
    ],
    ids=["1e-200", "1e200", "1e-300", "1e-12"],
)
def test_cli_optimize_answers_at_extreme_absolute_scales(capsys, params, utilities) -> None:
    # products of two variances are formed in prior sds, and Brent searches
    # in prior sds: in absolute units the products underflowed or overflowed
    # and each run exited 1 with a traceback, and at 1e-12 Brent's absolute
    # tolerance stopped the soft window at utility -5.92753326606e-13
    for family, utility in zip(("radius", "normal-sampling"), utilities):
        code = main(["optimize", family, "--params", params])
        out, err = capsys.readouterr()
        assert code == 0 and err == "", family
        assert f"utility_at_opt={utility}\n" in out, family


def test_every_registered_check_has_a_callable() -> None:
    for name, fn in ALL_CHECKS.items():
        assert callable(fn), name


def test_cli_stdout_does_not_depend_on_the_blas_thread_count() -> None:
    # at h = 0.999 the optimum is so flat that a utility's last bits move
    # r* in its 8th digit; every reduction sums in an order of its own,
    # not BLAS's, so one and two threads print the same r*
    import echochamber

    outs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(echochamber.__file__).parents[1]),
            OPENBLAS_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "echochamber", "optimize", "radius", "--params", "h=0.999"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert "is_finite=True" in outs[0]
    assert outs[0] == outs[1]


def test_python_dash_m_reaches_the_cli() -> None:
    import echochamber

    env = dict(os.environ, PYTHONPATH=str(Path(echochamber.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "echochamber", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "echochamber" in proc.stdout


def test_thread_pool_loads_only_with_the_simulator() -> None:
    # importing the CLI and evaluating a utility leave the thread pool
    # unloaded, and building the action map of the Monte Carlo checks too
    # leaves scipy.optimize and scipy.interpolate unloaded; each costs
    # start-up time or resident memory in every run that never needs it
    import echochamber

    code = (
        "import sys; import echochamber.cli\n"
        "from echochamber.censor import expected_utility\n"
        "from echochamber.inference import action_map\n"
        "from echochamber.mc import simulate_draws\n"
        "from echochamber.model import DEFAULT_NUMERICS as C, DEFAULT_PARAMS as P, Radius\n"
        "loaded = lambda: [m in sys.modules for m in\n"
        "    ('concurrent.futures.thread', 'scipy.optimize', 'scipy.interpolate')]\n"
        "expected_utility(Radius(2.0), P, C)\n"
        "print(*loaded())\n"
        "simulate_draws(P, Radius(2.0), 1000, 1)\n"
        "print(*loaded())\n"
        "action_map(Radius(2.0), P, C)\n"
        "print(*loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(echochamber.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    pool, optimize, interpolate = zip(*(line.split() for line in proc.stdout.splitlines()))
    assert pool == ("False", "True", "True")
    assert optimize == interpolate == ("False", "False", "False")


def test_optimize_loads_figures_only_for_its_csv(tmp_path) -> None:
    # optimize prints its optimum without the figure modules; only the
    # optimum.csv of --out needs figures.csv_text, and with it svgplot. The
    # script reports on stderr, apart from the optimum on stdout
    import echochamber

    code = (
        "import sys; from echochamber.cli import main\n"
        "loaded = lambda: [m in sys.modules for m in ('echochamber.figures', 'echochamber.svgplot')]\n"
        "main(['optimize', 'radius'])\n"
        "print(*loaded(), file=sys.stderr)\n"
        "main(['optimize', 'radius', '--out', sys.argv[1]])\n"
        "print(*loaded(), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(echochamber.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["False False", "True True"]
    assert (tmp_path / "optimum.csv").is_file()


def test_the_package_imports_form_no_cycle() -> None:
    # every import counts, at module level or inside a function, and
    # `from . import` is an import of the package's __init__: a cycle
    # works only while its modules happen to load in one order
    import ast
    import graphlib

    import echochamber

    src = Path(echochamber.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}
    graph: dict[str, set[str]] = {}
    for path in src.glob("*.py"):
        targets = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets.append(node.module)
            elif isinstance(node, ast.ImportFrom) and node.module:
                targets.append(f"echochamber.{node.module}")
            elif isinstance(node, ast.ImportFrom):
                targets += ["echochamber", *(f"echochamber.{alias.name}" for alias in node.names)]
        graph[path.stem] = set()
        for target in targets:
            top, _, rest = target.partition(".")
            stem = rest.partition(".")[0] or "__init__"
            if top == "echochamber" and stem in modules:
                graph[path.stem].add(stem)
    assert "normal_sampling" not in graph["censor"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_the_kernel_pieces_and_the_self_check_each_have_one_home() -> None:
    # the kernel's building blocks are named in inference alone, so every
    # reduction of the joint is the kernel's; the Kronrod-Gauss self-check
    # is defined once, beside the rules it judges
    import re

    import echochamber

    sources = {p.stem: p.read_text() for p in Path(echochamber.__file__).parent.glob("*.py")}
    for piece in ("_state_terms", "_likes", "_linear_mix", "_moments"):
        named = sorted(m for m, text in sources.items() if re.search(rf"\b{piece}\b", text))
        assert named == ["inference"], (piece, named)
    defined = [m for m, text in sources.items() for _ in re.finditer(r"^def _checked\(", text, re.M)]
    assert defined == ["quadrature"], defined


@pytest.mark.parametrize("sigma_h2", ["1e-12", "1e-200"])
def test_cli_state_rule_too_large_exits_3(capsys, sigma_h2) -> None:
    # the state rule grows as sqrt(prior_var / high_var): at 1e-12 it would
    # need 1e8 nodes, a 763 MiB array, so it is refused before it is built
    code = main(["optimize", "radius", "--params", f"sigmaH2={sigma_h2}"])
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric failure: the state rule would need" in err
    assert f"high_var/prior_var = {float(sigma_h2):.6g}" in err


def test_cli_optimize_radius_tiny_high_var_still_fails_its_self_check(capsys) -> None:
    # 100530 state nodes, under the cap: the run is refused by the
    # self-check of a narrow scan window, a signal-axis gap
    code = main(["optimize", "radius", "--params", "sigmaH2=1e-6"])
    err = capsys.readouterr().err
    assert code == 3
    assert "failed its self-check" in err and "state rule" not in err


@pytest.mark.parametrize(
    "argv, ratio",
    [
        (["verify", "--params", "sigma02=1e308,sigmaH2=1e-20"], "high_var/prior_var"),
        (["figures", "--params", "sigma02=1e308,sigmaH2=1e-20"], "high_var/prior_var"),
        (["optimize", "radius", "--params", "sigma02=1e-300,sigmaH2=1e-300,sigmaL2=1e10"],
         "low_var/prior_var"),
    ],
    ids=["verify", "figures", "optimize"],
)
def test_cli_variance_ratio_out_of_range_exits_2(capsys, tmp_path, argv, ratio) -> None:
    # each variance is a positive double, but high_var/prior_var rounds to
    # 0 or low_var/prior_var overflows, and every result depends on these
    code = main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"configuration error: {ratio} must be strictly positive and finite" in err
