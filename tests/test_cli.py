import json
import math

import numpy as np
import pytest

from rotvac.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_table(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
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


class TestInputErrors:
    """Bad input exits 2 with a message, never a traceback or a NaN row."""

    @pytest.mark.parametrize("argv", [
        ["cf", "--method", "monte-carlo", "--seed", "-1"],
        ["validate", "--seed", "-1"],
        ["mc-validate", "--seeds", "1"],
        ["energy", "--tol", "1e-8"],
    ], ids=["cf-negative-seed", "validate-negative-seed", "mc-validate-one-seed",
            "energy-tol"])
    def test_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["force-curve", "--omega", "0"],
        ["energy", "--omega", "nan"],
        ["cf", "--tol", "nan"],
    ], ids=["force-curve-zero-omega", "energy-nan-omega", "cf-nan-tol"])
    def test_domain_errors(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestValidate:
    def test_quick_suite_known_failures_only(self, capsys):
        code, out = run_cli(capsys, "validate", "--suite", "quick")
        assert code == 1  # the documented scalar reference-value check fails
        _, _, rows = parse_table(out)
        status = {r["check"]: r["status"] for r in rows}
        assert status["scalar-bath-ratio"] == "known-fail"
        assert status["hadron-force-reference"] == "pass"
        assert status["hadron-temperature-reference"] == "pass"
        unexpected = [k for k, v in status.items() if v == "FAIL"]
        assert unexpected == []

    def test_sigma_perturbation_negative_control(self, capsys):
        code, out = run_cli(capsys, "validate", "--suite", "quick",
                            "--sigma-perturb", "1.01")
        _, _, rows = parse_table(out)
        status = {r["check"]: r["status"] for r in rows}
        assert status["em-thermal-closed-form"] == "FAIL"
