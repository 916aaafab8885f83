import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotvac
from rotvac import montecarlo
from rotvac.cli import main
from rotvac.constants import SI
from rotvac.thermo import CASIMIR_MODEL_C


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_table(text):
    meta, header, rows = {}, None, []
    lines = text.splitlines()
    for line in lines:
        if line.startswith("#") and "=" in line:
            key, _, val = line[1:].partition("=")
            meta[key.strip()] = val.strip()
    for cells in csv.reader(line for line in lines if not line.startswith("#")):
        if header is None:
            header = cells
        else:
            assert len(cells) == len(header), f"{cells} under {header}"
            rows.append(dict(zip(header, cells)))
    return meta, header, rows


class TestTetradCommand:
    def test_static_orbit_identity_rows(self, capsys):
        code, out = run_cli(capsys, "tetrad", "--omega", "0", "--radius", "2.0",
                            "--tau-steps", "3")
        assert code == 0
        meta, header, rows = parse_table(out)
        assert meta["kind"] == "frenet-serret"
        identity = np.eye(4).ravel()
        for row in rows:
            comps = [float(row[h]) for h in header[1:17]]
            assert comps == pytest.approx(list(identity), abs=1e-14)

    def test_residual_column_small(self, capsys):
        code, out = run_cli(capsys, "tetrad", "--beta", "0.9", "--tau-steps", "9")
        assert code == 0
        _, _, rows = parse_table(out)
        assert all(float(r["residual"]) < 1e-10 for r in rows)

    def test_transport_kind_flag(self, capsys):
        _, out_fs = run_cli(capsys, "tetrad", "--beta", "0.5", "--tau-steps", "2",
                            "--tau-max", "1.0")
        _, out_fw = run_cli(capsys, "tetrad", "--beta", "0.5", "--tau-steps", "2",
                            "--tau-max", "1.0", "--kind", "fermi-walker")
        assert "kind = fermi-walker" in out_fw
        m1, _, r1 = parse_table(out_fs)
        m2, _, r2 = parse_table(out_fw)
        # the frames genuinely differ away from tau = 0
        assert r1[1]["mu1_x"] != r2[1]["mu1_x"]


class TestCfCommand:
    def test_closed_and_quadrature_agree(self, capsys):
        code, out = run_cli(capsys, "cf", "--beta", "0.5", "--method", "all",
                            "--delta-steps", "3", "--delta-min", "0.5",
                            "--delta-max", "2.0", "--seeds", "50")
        assert code == 0
        _, _, rows = parse_table(out)
        by_delta = {}
        for r in rows:
            by_delta.setdefault(r["delta"], {})[r["method"]] = float(r["value"])
        for methods in by_delta.values():
            assert methods["quadrature"] == pytest.approx(methods["closed-form"], rel=1e-8)

    def test_discrete_periodicity(self, capsys):
        args = ["cf", "--beta", "0.3", "--spectrum", "discrete", "--method",
                "quadrature", "--delta-steps", "1"]
        _, out1 = run_cli(capsys, *args, "--delta-min", "1.5", "--delta-max", "1.5")
        _, out2 = run_cli(capsys, *args, "--delta-min", str(1.5 + 2.0 * math.pi),
                          "--delta-max", str(1.5 + 2.0 * math.pi))
        v1 = float(parse_table(out1)[2][0]["value"])
        v2 = float(parse_table(out2)[2][0]["value"])
        assert v2 == pytest.approx(v1, rel=1e-10)

    def test_null_pair_column(self, capsys):
        code, out = run_cli(capsys, "cf", "--beta", "0.5", "--pair", "13",
                            "--method", "quadrature", "--delta-steps", "3")
        assert code == 0
        _, _, rows = parse_table(out)
        assert all(abs(float(r["value"])) < 1e-12 for r in rows)

    def test_resonant_rows_flagged(self, capsys):
        code, out = run_cli(capsys, "cf", "--beta", "0.3", "--spectrum", "discrete",
                            "--method", "quadrature", "--delta-steps", "1",
                            "--delta-min", str(2.0 * math.pi),
                            "--delta-max", str(2.0 * math.pi))
        assert code == 1
        _, _, rows = parse_table(out)
        assert rows[0]["flag"].startswith("error")

    def test_discrete_all_runs_each_route_once(self, capsys):
        # on the discrete spectrum closed-form and quadrature are one route,
        # the ladder quadrature; Monte Carlo is the second (EM only)
        args = ["cf", "--beta", "0.3", "--spectrum", "discrete", "--method", "all",
                "--delta-steps", "2", "--delta-min", "0.5", "--delta-max", "2.0"]
        code, out = run_cli(capsys, *args, "--seeds", "4", "--n-max", "2",
                            "--mc-theta", "8", "--mc-phi", "16")
        assert code == 0
        meta, _, rows = parse_table(out)
        assert [r["method"] for r in rows] == ["quadrature", "monte-carlo"] * 2
        assert meta["mc_note"].startswith("estimate on the ladder truncated at n_max = 2")
        code, out = run_cli(capsys, *args, "--kind", "scalar")
        assert code == 0
        assert [r["method"] for r in parse_table(out)[2]] == ["quadrature"] * 2

    def test_discrete_error_rows_name_the_route_that_ran(self, capsys):
        # the default closed-form request runs the ladder quadrature on the
        # discrete spectrum, so its resonant row is labelled like its ok row
        code, out = run_cli(capsys, "cf", "--beta", "0.3", "--spectrum", "discrete",
                            "--delta-min", "0", "--delta-max", str(2.0 * math.pi),
                            "--delta-steps", "2")
        assert code == 1
        _, _, rows = parse_table(out)
        assert [r["method"] for r in rows] == ["quadrature", "quadrature"]
        assert all(r["flag"].startswith("error") for r in rows)
        code, out = run_cli(capsys, "cf", "--beta", "0.3", "--spectrum", "discrete",
                            "--delta-min", "0", "--delta-max", "1.5", "--delta-steps", "2")
        _, _, rows = parse_table(out)
        assert [(r["method"], r["flag"][:5]) for r in rows] == [("quadrature", "error"),
                                                                ("quadrature", "ok")]

    def test_scalar_preamble_names_no_pair(self, capsys):
        args = ["cf", "--beta", "0.3", "--kind", "scalar", "--pair", "23",
                "--delta-steps", "1"]
        code, out = run_cli(capsys, *args)
        assert code == 0
        meta, _, _ = parse_table(out)
        assert "pair" not in meta and meta["kind"] == "scalar"
        code, out = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        assert "pair" not in json.loads(out)["meta"]
        _, out = run_cli(capsys, "cf", "--beta", "0.3", "--pair", "23", "--delta-steps", "1")
        assert parse_table(out)[0]["pair"] == "23"

    def test_monte_carlo_lags_match_single_lag_calls(self, capsys):
        # one call over every lag gives each lag's row of a one-lag call, up
        # to the roundoff of the wider matrix product
        args = ["cf", "--beta", "0.3", "--method", "monte-carlo", "--seeds", "20",
                "--n-max", "2", "--mc-theta", "8", "--mc-phi", "16"]
        code, out = run_cli(capsys, *args, "--delta-min", "0.5", "--delta-max", "2.0",
                            "--delta-steps", "4")
        assert code == 0
        _, _, rows = parse_table(out)
        for row in rows:
            _, one = run_cli(capsys, *args, "--delta-min", row["delta"],
                             "--delta-max", row["delta"], "--delta-steps", "1")
            [single] = parse_table(one)[2]
            assert float(row["value"]) == pytest.approx(float(single["value"]), rel=1e-12,
                                                        abs=1e-12 * float(single["stat_error"]))
            assert float(row["stat_error"]) == pytest.approx(float(single["stat_error"]),
                                                             rel=1e-12)

    @pytest.mark.parametrize("spectrum", ["continuous", "discrete"])
    def test_scalar_monte_carlo_rejected(self, capsys, spectrum):
        code = main(["cf", "--beta", "0.3", "--kind", "scalar", "--spectrum", spectrum,
                     "--method", "monte-carlo", "--delta-steps", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no Monte Carlo route for the scalar field" in captured.err

    def test_near_luminal_quadrature_row(self, capsys):
        code, out = run_cli(capsys, "cf", "--beta", "0.999", "--method", "quadrature",
                            "--delta-min", "0.1", "--delta-max", "0.1", "--delta-steps", "1")
        assert code == 0
        _, _, rows = parse_table(out)
        assert rows[0]["flag"] == "ok"
        assert math.isfinite(float(rows[0]["value"]))

    def test_unconverged_quadrature_row_flagged(self, capsys):
        # 1e-15 is below what the tensor route reaches at beta = 0.99999
        code, out = run_cli(capsys, "cf", "--beta", "0.99999", "--pair", "12",
                            "--method", "quadrature", "--tol", "1e-15",
                            "--delta-min", "0.1", "--delta-max", "0.1", "--delta-steps", "1")
        assert code == 1
        _, _, rows = parse_table(out)
        assert rows[0]["value"] == ""
        assert rows[0]["flag"].startswith("error: sphere quadrature did not converge")

    @pytest.mark.parametrize("argv, n_rows", [
        (["--omega", "1e300", "--method", "all"], 6),
        (["--omega", "1e-300", "--units", "SI", "--method", "quadrature"], 2),
        (["--omega", "1e300", "--kind", "scalar", "--method", "all"], 4),
    ], ids=["huge-omega", "tiny-omega-si", "huge-omega-scalar"])
    def test_lag_scale_outside_float64_flagged(self, capsys, argv, n_rows):
        # (c dt)^4 would underflow (a division by zero) or overflow, and the
        # Monte Carlo amplitudes overflow
        with np.errstate(all="ignore"):
            code, out = run_cli(capsys, "cf", *argv, "--delta-steps", "2")
        assert code == 1
        _, _, rows = parse_table(out)
        assert len(rows) == n_rows
        assert all("outside the float64 range" in r["flag"] for r in rows)

    def test_monte_carlo_time_range_flagged(self, capsys):
        # with --method all a lag beyond the Monte Carlo's phase range flags
        # the Monte Carlo rows; the other routes still print theirs
        code, out = run_cli(capsys, "cf", "--beta", "0.3", "--method", "all", "--seeds", "4",
                            "--delta-min", "1", "--delta-max", "1e8", "--delta-steps", "2")
        assert code == 1
        _, _, rows = parse_table(out)
        assert [r["method"] for r in rows] == ["closed-form", "quadrature", "monte-carlo"] * 2
        for r in rows:
            if r["method"] == "monte-carlo":
                assert "float64 no longer resolves the drawn phases" in r["flag"]
            else:
                assert r["flag"] == "ok"

    def test_csv_rows_match_header(self, capsys):
        # the Monte Carlo flag at this omega holds a comma; it stays one field
        code, out = run_cli(capsys, "cf", "--units", "SI", "--omega", "1e-300", "--beta", "0.3",
                            "--method", "all", "--delta-steps", "2")
        assert code == 1
        _, header, rows = parse_table(out)      # asserts the field count of every row
        assert len(rows) == 6 and header[-1] == "flag"
        assert any("," in r["flag"] for r in rows if r["method"] == "monte-carlo")

    def test_sign_definite_tight_tolerance_flagged(self, capsys):
        # the rounding floor covers only the cancelled share of the mass: at
        # beta = 0.999 the (1,2) tensor route cannot reach 1e-15, and the row
        # says so instead of passing at about 3e-13
        code, out = run_cli(capsys, "cf", "--beta", "0.999", "--pair", "12",
                            "--method", "quadrature", "--tol", "1e-15",
                            "--delta-min", "0.1", "--delta-max", "0.1", "--delta-steps", "1")
        assert code == 1
        _, _, rows = parse_table(out)
        assert rows[0]["value"] == ""
        assert rows[0]["flag"].startswith("error: sphere quadrature did not converge")


class TestForceCurve:
    def test_monotone_negative_and_rejection(self, capsys):
        code, out = run_cli(capsys, "force-curve", "--omega", "2e3",
                            "--r-steps", "12", "--r-max", "0.95")
        assert code == 0
        _, _, rows = parse_table(out)
        fs = [float(r["f_vac"]) for r in rows]
        assert fs[0] == 0.0
        assert all(b < a for a, b in zip(fs[1:], fs[2:]))
        assert all(f <= 0.0 for f in fs)

    def test_superluminal_rows_rejected(self, capsys):
        code, out = run_cli(capsys, "force-curve", "--omega", "2e3",
                            "--r-steps", "4", "--r-min", "0.5", "--r-max", "1.1")
        assert code == 1
        _, _, rows = parse_table(out)
        assert any(r["flag"].startswith("rejected") for r in rows)

    def test_natural_units_leave_gev_column_empty(self, capsys):
        code, out = run_cli(capsys, "force-curve", "--omega", "1", "--units", "natural",
                            "--r-steps", "3", "--r-max", "0.5", "--sphere-radius", "1e-3")
        assert code == 0
        _, _, rows = parse_table(out)
        assert all(r["F_sphere"] != "" and r["F_gev_per_fermi"] == "" for r in rows)

    def test_hadron_scale_point(self, capsys):
        # consistency with the hadron estimator at the same orbit
        r0 = 1e-15
        omega = 299792458.0 / r0
        x = 0.5
        code, out = run_cli(capsys, "force-curve", "--omega", str(omega),
                            "--r-steps", "1", "--r-min", str(x), "--r-max", str(x),
                            "--sphere-radius", "1e-18")
        assert code == 0
        _, _, rows = parse_table(out)
        from rotvac.thermo import hadron_estimates
        est = hadron_estimates(1e-18, r0, x)
        assert float(rows[0]["F_gev_per_fermi"]) == pytest.approx(
            est.force_gev_per_fermi, rel=1e-10)


class TestEstimateHadron:
    def test_reference_point(self, capsys):
        code, out = run_cli(capsys, "estimate-hadron")
        assert code == 0
        _, _, rows = parse_table(out)
        vals = {r["quantity"]: float(r["value"]) for r in rows}
        assert vals["force_gev_per_fermi"] == pytest.approx(-0.4652676198961045, rel=1e-10)
        assert vals["T_rot"] == pytest.approx(3.644464405648135e11, rel=1e-10)

    def test_casimir_force_opposes_vacuum_force(self, capsys):
        # the Casimir-model force at the particle radius is repulsive, the
        # vacuum force at the orbit attractive
        code, out = run_cli(capsys, "estimate-hadron", "--a", "2e-18")
        assert code == 0
        vals = {r["quantity"]: float(r["value"]) for r in parse_table(out)[2]}
        expected = -CASIMIR_MODEL_C * SI.hbar * SI.c / (2.0 * 2e-18**2)
        assert vals["casimir_force_newton"] == pytest.approx(expected, rel=1e-12)
        assert vals["casimir_force_newton"] > 0.0 > vals["force_newton"]

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "estimate-hadron", "--format", "json")
        doc = json.loads(out)
        assert doc["meta"]["r0"] == 1e-15
        assert any(row[0] == "force_newton" for row in doc["rows"])


class TestEnergyCommand:
    def test_report_fields(self, capsys):
        code, out = run_cli(capsys, "energy", "--beta", "0.3", "--n-max", "5")
        assert code == 0
        _, _, rows = parse_table(out)
        vals = {r["quantity"]: r["value"] for r in rows}
        assert float(vals["anisotropy_factor"]) > 2.0
        assert float(vals["w_total_cutoff"]) == pytest.approx(
            float(vals["w_zp_cutoff"]) + float(vals["w_thermal"]), rel=1e-12)

    @pytest.mark.parametrize("field", ["em", "scalar"])
    def test_quantity_column(self, capsys, field):
        # the rows come from ThermoReport's fields: a new, dropped or moved
        # field changes the printed table
        code, out = run_cli(capsys, "energy", "--field", field, "--beta", "0.3")
        assert code == 0
        assert [r["quantity"] for r in parse_table(out)[2]] == [
            "field_kind", "T_rot", "w_zp_cutoff", "w_thermal", "w_total_cutoff",
            "anisotropy_factor", "cutoff_n_max", "mixed_moment_residual"]


class TestSpectrumCommand:
    def test_split_consistency_column(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--phase-steps", "5",
                            "--phase-max", "5.5")
        assert code == 0
        _, _, rows = parse_table(out)
        assert all(float(r["rel_consistency"]) < 1e-8 for r in rows)


class TestMcValidate:
    def test_reproducible_and_green(self, capsys):
        args = ["mc-validate", "--beta", "0.3", "--seeds", "80", "--n-max", "4",
                "--seed", "5"]
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == 0 and code2 == 0
        v1 = parse_table(out1)[2]
        v2 = parse_table(out2)[2]
        assert v1[0]["measured"] == v2[0]["measured"]  # fixed seed, identical output

    def test_worker_determinism_sees_one_standard_error(self, capsys, monkeypatch):
        # the multi-worker run differs by one ulp of lab_h2_err alone
        real = montecarlo.empirical_energy_density

        def skewed(*args, n_workers=1, **kwargs):
            est = real(*args, n_workers=n_workers, **kwargs)
            if n_workers == 1:
                return est
            return dataclasses.replace(est, lab_h2_err=np.nextafter(est.lab_h2_err, np.inf))

        monkeypatch.setattr(montecarlo, "empirical_energy_density", skewed)
        code, out = run_cli(capsys, "mc-validate", "--beta", "0.3", "--seeds", "20",
                            "--n-max", "2", "--mc-theta", "8", "--mc-phi", "16")
        rows = {r["check"]: r for r in parse_table(out)[2]}
        assert code == 1
        assert rows["worker_determinism"]["pull_or_flag"] == "MISMATCH"


class TestInputErrors:
    """Bad input exits 2 with a message, never a traceback or a NaN row."""

    @pytest.mark.parametrize("argv", [
        ["cf", "--method", "monte-carlo", "--seed", "-1"],
        ["validate", "--seed", "-1"],
        ["mc-validate", "--seeds", "1"],
        ["energy", "--tol", "1e-8"],
        ["cf", "--pair", "1"],
        ["cf", "--pair", "123"],
        ["cf", "--pair", "04", "--method", "monte-carlo"],
        ["cf", "--omega=--"],
        ["validate", "--sigma-perturb", "nan"],
        ["validate", "--sigma-perturb", "inf"],
        ["validate", "--sigma-perturb", "0"],
        ["validate", "--sigma-perturb=-1"],
        ["mc-validate", "--workers", "0"],
        ["mc-validate", "--workers=-3"],
        ["cf", "--tol", "nan"],
        ["cf", "--tol", "0"],
        ["cf", "--tol", "inf"],
        ["cf", "--tol=-1"],
    ], ids=["cf-negative-seed", "validate-negative-seed", "mc-validate-one-seed",
            "energy-tol", "cf-one-digit-pair", "cf-three-digit-pair", "cf-zero-component",
            "cf-double-dash-value", "validate-nan-sigma-perturb",
            "validate-inf-sigma-perturb", "validate-zero-sigma-perturb",
            "validate-negative-sigma-perturb", "mc-validate-zero-workers",
            "mc-validate-negative-workers", "cf-nan-tol", "cf-zero-tol", "cf-inf-tol",
            "cf-negative-tol"])
    def test_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_closed_pipe_exits_without_traceback(self):
        # 2,000 tetrad rows overfill the pipe, so the CLI is still writing
        # when the reader closes it after one line
        env = dict(os.environ, PYTHONPATH=str(Path(rotvac.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "rotvac.cli", "tetrad", "--tau-steps", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"# rotvac tetrad")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) != 0
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("argv", [
        ["force-curve", "--omega", "0"],
        ["energy", "--omega", "nan"],
        ["force-curve", "--omega", "2e3", "--sphere-radius", "nan"],
        ["force-curve", "--omega", "2e3", "--r-max", "0.9", "--sphere-radius=-1e-9"],
        ["estimate-hadron", "--a", "nan"],
        ["estimate-hadron", "--a", "inf"],
        ["cf", "--omega", "0"],
        ["mc-validate", "--omega", "0"],
        ["energy", "--omega", "1e300", "--units", "SI"],
        ["energy", "--omega", "1e77"],
        ["force-curve", "--omega", "1e80", "--r-steps", "3", "--r-max", "0.9"],
        ["estimate-hadron", "--r0", "1e-66", "--one-minus-x", "0.5", "--a", "1e-70"],
    ], ids=["force-curve-zero-omega", "energy-nan-omega",
            "force-curve-nan-sphere-radius", "force-curve-negative-sphere-radius",
            "estimate-hadron-nan-a", "estimate-hadron-inf-a", "cf-zero-omega",
            "mc-validate-zero-omega", "energy-overflow", "energy-infinite-product",
            "force-curve-infinite-product", "estimate-hadron-r0-underflow"])
    def test_domain_errors(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv, cause", [
        (["spectrum", "--phase-min", "nan", "--phase-steps", "2"], "--phase-min nan"),
        (["cf", "--delta-min", "nan", "--delta-steps", "1"], "--delta-min nan"),
        (["tetrad", "--tau-min", "nan", "--tau-steps", "1"], "--tau-min nan"),
        (["tetrad", "--tau-min=-1e308", "--tau-max", "1e308"], "finite sweep"),
        (["force-curve", "--omega", "2e3", "--r-min", "nan"], "--r-min nan"),
        (["force-curve", "--omega", "2e3", "--r-max", "inf"], "--r-max inf"),
        (["force-curve", "--omega", "1e-300"], "r0 = c / omega = inf"),
        (["cf", "--beta", "-0.3"], "beta must be finite and non-negative"),
        (["mc-validate", "--beta", "-0.3"], "beta must be finite and non-negative"),
        (["tetrad", "--beta", "nan"], "beta must be finite and non-negative"),
        (["tetrad", "--omega", "1e-300", "--beta", "0.9", "--units", "SI"],
         "radius = beta c / omega overflows"),
        (["energy", "--omega", "1e-300", "--beta", "0.3"],
         "w_zp_cutoff flushes to 0.0 from a non-zero value"),
        (["energy", "--omega", "1e-300", "--beta", "0.3", "--units", "SI"],
         "T_rot flushes to 0.0 from a non-zero value"),
        (["energy", "--omega", "1e-300", "--beta", "0.3", "--field", "scalar"],
         "energy at --omega 1e-300: w_zp_cutoff flushes to 0.0"),
        (["energy", "--omega", "1e300", "--units", "SI"],
         "energy at --omega 1e+300: T_rot = 1.2156624719518911e+288 overflows"),
        (["energy", "--omega", "1e300", "--units", "SI", "--field", "scalar"],
         "energy at --omega 1e+300: k_B T / hbar = 1.5915494309189535e+299 overflows"),
        (["cf", "--units", "SI", "--omega", "1e-300", "--method", "monte-carlo",
          "--delta-steps", "2"],
         "Monte Carlo modes at --omega 1e-300: k0 = omega / c is 3.33564095198152e-309"),
        (["mc-validate", "--units", "SI", "--omega", "1e-300", "--seeds", "2"],
         "Monte Carlo modes at --omega 1e-300: k0 = omega / c"),
        (["cf", "--omega", "1e308", "--beta", "0.3", "--method", "monte-carlo"],
         "outside the float64 range: Monte Carlo band cutoff --n-max 6 x --omega 1e+308 is inf"),
        (["estimate-hadron", "--a", "1e-200"], "Casimir-model force at a = 1e-200 is inf"),
        (["estimate-hadron", "--a", "1e200"], "sphere radius = 1e+200 overflows at the power 3"),
        (["force-curve", "--omega", "2e3", "--sphere-radius", "1e200"],
         "sphere radius = 1e+200 overflows at the power 3"),
        (["estimate-hadron", "--r0", "1e70"], "r0 = 1e+70 overflows at the power 5"),
        (["cf", "--beta", "0.3", "--method", "monte-carlo", "--delta-min", "1e8",
          "--delta-max", "1e8", "--delta-steps", "1"],
         "float64 no longer resolves the drawn phases"),
    ], ids=["spectrum-nan-phase", "cf-nan-delta", "tetrad-nan-tau", "tetrad-span-overflow",
            "force-curve-nan-r-min", "force-curve-inf-r-max", "force-curve-r0-overflow",
            "cf-negative-beta", "mc-validate-negative-beta", "tetrad-nan-beta",
            "tetrad-radius-overflow", "energy-underflow", "energy-underflow-si",
            "energy-scalar-underflow", "energy-overflow-si", "energy-scalar-overflow-si",
            "cf-monte-carlo-underflow-si", "mc-validate-underflow-si",
            "cf-monte-carlo-cutoff-overflow", "estimate-hadron-casimir-overflow",
            "estimate-hadron-radius-cube-overflow", "force-curve-radius-cube-overflow",
            "estimate-hadron-r0-overflow", "cf-monte-carlo-phase-range"])
    def test_errors_name_their_cause(self, capsys, argv, cause):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert cause in captured.err

    @pytest.mark.parametrize("field", ["em", "scalar"])
    @pytest.mark.parametrize("units", ["SI", "natural"])
    def test_zero_omega_energy_is_exactly_zero(self, capsys, field, units):
        code, out = run_cli(capsys, "energy", "--omega", "0", "--field", field,
                            "--units", units)
        assert code == 0
        vals = {r["quantity"]: r["value"] for r in parse_table(out)[2]}
        for name in ("T_rot", "w_zp_cutoff", "w_thermal", "w_total_cutoff"):
            assert float(vals[name]) == 0.0


@pytest.mark.parametrize("kind", ["EE", "HH", "EH", "scalar"])
@pytest.mark.parametrize("method", ["monte-carlo", "quadrature"])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(pair=st.text(alphabet="01234", min_size=2, max_size=2) | st.text(min_size=2, max_size=2))
def test_cf_pair_property(method, kind, pair):
    # no traceback, an exit code in {0, 1, 2}, and an ok row only for a
    # pair in {1,2,3}^2, with a finite value
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(["cf", "--beta", "0.3", "--kind", kind, f"--pair={pair}",
                         "--method", method, "--delta-steps", "1", "--delta-min", "1.0",
                         "--delta-max", "1.0", "--seeds", "2", "--n-max", "1",
                         "--mc-theta", "8", "--mc-phi", "16"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    _, _, rows = parse_table(out.getvalue())
    for row in rows:
        if row["flag"] == "ok":
            assert set(pair) <= set("123")
            assert math.isfinite(float(row["value"]))


# NaN, infinities, zeros, negatives and magnitudes up to 1e300
FLOATS = (st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1e-9, 1e300])
          | st.floats(min_value=-1e300, max_value=1e300))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(command=st.sampled_from(["energy-em", "energy-scalar", "force-curve",
                                "estimate-hadron"]),
       units=st.sampled_from(["SI", "natural"]), omega=FLOATS,
       motion=st.tuples(st.sampled_from(["--beta", "--radius"]), FLOATS),
       sphere_radius=FLOATS, a=FLOATS, r0=FLOATS, one_minus_x=FLOATS)
def test_thermal_commands_property(command, units, omega, motion, sphere_radius, a, r0,
                                   one_minus_x):
    # no traceback, an exit code in {0, 1, 2}, and no non-finite value in a
    # row flagged ok; energy and estimate-hadron rows carry no flag and count
    # as ok.  Values go in --opt=value form so that a negative one is no flag.
    if command.startswith("energy"):
        argv = ["energy", f"--field={command[7:]}", f"--units={units}",
                f"--omega={omega!r}", f"{motion[0]}={motion[1]!r}"]
    elif command == "force-curve":
        argv = ["force-curve", f"--units={units}", f"--omega={omega!r}", "--r-steps=5",
                f"--sphere-radius={sphere_radius!r}"]
    else:
        argv = ["estimate-hadron", f"--a={a!r}", f"--r0={r0!r}",
                f"--one-minus-x={one_minus_x!r}"]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    for row in parse_table(out.getvalue())[2]:
        if row.get("flag", "ok") == "ok":
            values = [v for k, v in row.items() if k not in ("quantity", "flag")]
            assert all(math.isfinite(float(v)) for v in values
                       if v not in ("", "em", "scalar")), (argv, row)


MOTION_FLOATS = FLOATS | st.sampled_from([1e-300, 5e-324, 0.3, 1.0 - 1e-13])


@settings(max_examples=120, derandomize=True, deadline=None)
@given(command=st.sampled_from(["tetrad", "cf", "spectrum", "energy"]),
       units=st.sampled_from(["SI", "natural"]),
       omega=st.none() | MOTION_FLOATS,
       motion=st.none() | st.tuples(st.sampled_from(["beta", "radius"]), MOTION_FLOATS))
def test_motion_options_property(command, units, omega, motion):
    # no traceback, an exit code in {0, 1, 2}, no non-finite value in an ok
    # row, and an exit-2 message that names an option the user passed
    argv = [command, f"--units={units}"]
    passed = []
    if omega is not None:
        argv.append(f"--omega={omega!r}")
        passed.append("omega")
    if motion is not None:
        argv.append(f"--{motion[0]}={motion[1]!r}")
        passed.append(motion[0])
    steps = {"tetrad": "--tau-steps=3", "cf": "--delta-steps=3",
             "spectrum": "--phase-steps=3", "energy": "--n-max=3"}[command]
    argv.append(steps)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert any(name in err.getvalue() for name in passed), (argv, err.getvalue())
    for row in parse_table(out.getvalue())[2]:
        if row.get("flag", "ok") == "ok":
            values = [v for k, v in row.items() if k not in ("quantity", "method", "flag")]
            assert all(math.isfinite(float(v)) for v in values
                       if v not in ("", "em", "scalar")), (argv, row)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(command=st.sampled_from(["cf-closed-form", "cf-quadrature", "spectrum", "tetrad"]),
       lo=FLOATS, hi=FLOATS, steps=st.integers(min_value=0, max_value=3))
def test_sweep_bounds_property(command, lo, hi, steps):
    # no traceback, an exit code in {0, 1, 2}, and no non-finite value in a
    # row that passes: flagged ok for cf and spectrum, a residual <= 1e-10
    # for tetrad
    name = {"cf": "delta", "spectrum": "phase", "tetrad": "tau"}[command.split("-")[0]]
    argv = [command.split("-")[0], "--beta=0.3", f"--{name}-min={lo!r}",
            f"--{name}-max={hi!r}", f"--{name}-steps={steps}"]
    if command.startswith("cf"):
        argv.append(f"--method={command[3:]}")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if not all(math.isfinite(x) for x in (lo, hi, hi - lo)):
        assert code == 2, argv
    for row in parse_table(out.getvalue())[2]:
        passes = (float(row["residual"]) <= 1e-10 if command == "tetrad"
                  else row["flag"] == "ok")
        if passes:
            values = [v for k, v in row.items() if k not in ("method", "flag")]
            assert all(math.isfinite(float(v)) for v in values if v != ""), (argv, row)


class TestValidate:
    def test_quick_suite_known_failures_only(self, capsys):
        code, out = run_cli(capsys, "validate", "--suite", "quick")
        assert code == 1  # the documented scalar reference-value check fails
        meta, _, rows = parse_table(out)
        status = {r["check"]: r["status"] for r in rows}
        assert status["scalar-bath-ratio"] == "known-fail"
        assert status["hadron-force-reference"] == "pass"
        assert status["hadron-temperature-reference"] == "pass"
        unexpected = [k for k, v in status.items() if v == "FAIL"]
        assert unexpected == []
        assert (meta["failures"], meta["known_failures"], meta["unexpected_failures"]) \
            == ("1", "1", "0")
        # one preamble line with the wall time of every check group
        [line] = [ln for ln in out.splitlines() if ln.startswith("# check_seconds = ")]
        groups = dict(item.split("=") for item in line.split(" = ", 1)[1].split())
        assert "offdiagonal_nullity" in groups and len(groups) == 13
        assert all(float(t) >= 0.0 for t in groups.values())

    def test_quick_suite_runs_every_criterion_4_row(self, capsys):
        code, out = run_cli(capsys, "validate", "--suite", "quick", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        status = {row[0]: row[1] for row in doc["rows"]}
        for name in ("offdiag-quadrature-null", "offdiag-mc-null",
                     "offdiag-mc-null-coincidence"):
            assert status[name] == "pass"
        assert doc["meta"]["checks"] == len(doc["rows"])
        assert doc["meta"]["known_failures"] == 1
        assert doc["meta"]["unexpected_failures"] == 0
        assert doc["meta"]["failures"] == 1
        seconds = doc["meta"]["check_seconds"]
        assert len(seconds) == 13 and all(t >= 0.0 for t in seconds.values())
        assert seconds["em_energy_density"] > 0.0

    def test_sigma_perturbation_negative_control(self, capsys):
        code, out = run_cli(capsys, "validate", "--suite", "quick",
                            "--sigma-perturb", "1.01")
        meta, _, rows = parse_table(out)
        status = {r["check"]: r["status"] for r in rows}
        assert status["em-thermal-closed-form"] == "FAIL"
        assert int(meta["unexpected_failures"]) >= 1
        assert int(meta["known_failures"]) == 1
