"""Smoke tests of the experiment scripts: each main() runs on tiny inputs
and writes its CSV."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_cf_delta_sweep(monkeypatch, tmp_path):
    run_script(monkeypatch, "cf_delta_sweep.py", "--points", "4", "--outdir", str(tmp_path))
    for beta in (0.1, 0.5, 0.9):
        lines = (tmp_path / f"cf_sweep_beta_{beta:.2f}.csv").read_text().splitlines()
        assert lines[1] == "delta,em_continuous,em_discrete,scalar"
        assert len(lines) == 2 + 4


def test_force_curve_sweep(monkeypatch, tmp_path):
    run_script(monkeypatch, "force_curve_sweep.py", "--omegas", "1e3", "--points", "5",
               "--outdir", str(tmp_path))
    lines = (tmp_path / "force_curve_omega_1.000e+03.csv").read_text().splitlines()
    assert "r,x,w_thermal,f_vac" in lines
    assert len(lines) == 4 + 5


def test_mc_convergence(monkeypatch, tmp_path):
    out = tmp_path / "mc.csv"
    run_script(monkeypatch, "mc_convergence.py", "--seeds", "10", "20", "--workers", "1",
               "--out", str(out))
    lines = out.read_text().splitlines()
    assert lines[2] == "n_seeds,w,stat_error,deviation"
    assert [row.split(",")[0] for row in lines[3:]] == ["10", "20"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_mc_convergence_rejects_workers_below_one(monkeypatch, tmp_path, capsys, workers):
    out = tmp_path / "mc.csv"
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, "mc_convergence.py", "--seeds", "10", f"--workers={workers}",
                   "--out", str(out))
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()
