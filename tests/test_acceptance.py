"""Acceptance criteria, one test per criterion.

The criteria are implemented once, by the check_* functions of
rotvac.validation that `rotvac validate` runs; each test calls them at its
own Monte Carlo settings, bounds the elapsed time where a criterion states a
bound, prints a single pass/fail line (visible with -s or in the failure
report) and asserts that every returned row passes.  Criterion 9 measures the
scalar thermal-part ratio by sphere quadrature; the measurement gives
(4 gamma^2 - 1) / 3, not the stated 2 (4 gamma^2 - 1) / 9, so it fails until
the paper's definition of the scalar energy density is in the repository
(README, "Known check failures").
"""

import dataclasses
import math
import time

import pytest

from rotvac import montecarlo as mc
from rotvac import validation as v
from rotvac.constants import NATURAL
from rotvac.kinematics import RotationParams


def assert_rows(tag, rows, max_seconds=None, elapsed=0.0):
    ok = all(r.passed for r in rows) and (max_seconds is None or elapsed < max_seconds)
    detail = ", ".join(f"{r.name} {r.measured:.3g}" for r in rows)
    if max_seconds is not None:
        detail += f", {elapsed:.1f}s (bound {max_seconds:g}s)"
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, "failed rows: " + "; ".join(
        f"{r.name} measured {r.measured!r}, target {r.target!r}, tolerance {r.tolerance!r}"
        for r in rows if not r.passed)


def timed(check, *args, **kwargs):
    t0 = time.monotonic()
    rows = check(*args, **kwargs)
    return rows, time.monotonic() - t0


def mc_orbit(n_max, n_theta, n_phi):
    """The beta 0.3 orbit of the suite's Monte Carlo energy checks, with the
    ladder mode set on it."""
    params = RotationParams.from_beta(1.0, 0.3, NATURAL)
    return params, mc.build_mode_set(params, n_max=n_max, n_theta=n_theta, n_phi=n_phi)


def test_c01_sine_power_integrals():
    rows, elapsed = timed(v.check_sine_power_integrals)
    assert_rows("c01 sine-power-integrals", rows, 1.0, elapsed)
    exact = [r for r in rows if r.name.endswith("-exact")]
    assert len(exact) == 3 and all(abs(r.measured - r.target) < 1e-15 for r in exact)


def test_c02_phi_kernels():
    assert_rows("c02 phi-kernels", v.check_phi_kernels())


def test_c03_em_cf_continuous():
    rows, elapsed = timed(v.check_em_cf_continuous)
    assert_rows("c03 em-cf-continuous", rows, 10.0, elapsed)


def test_c04_offdiagonal_nullity():
    rows = (v.check_offdiagonal_nullity(n_seeds=1000, n_theta=16, n_phi=32, n_max=6,
                                        seed=20240817)
            + v.check_coincidence_nullity())
    assert_rows("c04 offdiagonal-nullity", rows)


def test_c05_scalar_cf():
    assert_rows("c05 scalar-cf", v.check_scalar_cf())


def test_c06_abel_plana_machinery():
    assert_rows("c06 abel-plana", v.check_abel_plana())


def test_c07_planck_factor_emergence():
    assert_rows("c07 planck-factor", v.check_planck_identity())


def test_c07_fails_at_a_wrong_temperature(monkeypatch):
    # negative control: a Planck weight at 1.01 T_rot misses both thermal parts
    real = v.cfd.rotation_temperature
    monkeypatch.setattr(v.cfd, "rotation_temperature", lambda params: 1.01 * real(params))
    rows = v.check_planck_identity()
    assert [r.name for r in rows] == ["planck-thermal-part-em", "planck-thermal-part-scalar"]
    assert not any(r.passed for r in rows)


def test_c08_em_energy_density():
    # the estimate is made inside timed, so the bound covers it
    params, ms = mc_orbit(20, 64, 128)
    rows, elapsed = timed(lambda: v.check_em_energy_density(
        params, ms, mc.empirical_energy_density(params, ms, n_seeds=1000, seed=4321,
                                                n_workers=4)))
    assert_rows("c08 em-energy-density", rows, 300.0, elapsed)


def test_c09_scalar_energy_ratio():
    # stated target: thermal-part ratio 2 (4 gamma^2 - 1) / 9 at rel 1e-10;
    # the measurement gives (4 gamma^2 - 1) / 3 (asserted at 1e-12 in
    # test_thermo), so this criterion fails as stated
    (row,) = v.check_scalar_ratio()
    print(f"ACCEPTANCE c09 scalar-energy-ratio: {'PASS' if row.passed else 'FAIL'} "
          f"measured {row.measured:.12f}, stated {row.target:.12f}, {row.detail}")
    assert row.passed, (
        f"thermal-part ratio measured by sphere quadrature is {row.measured:.12f}; "
        f"the stated factor {row.target:.12f} is not reproduced by the defining "
        "spectral formulas (documented known failure)"
    )


def test_c10_vacuum_force():
    assert_rows("c10 vacuum-force", v.check_vacuum_force())


def test_c11_hadron_reproduction():
    assert_rows("c11 hadron-reproduction", v.check_hadron_estimates())


def test_c12_mc_determinism():
    rows = v.check_determinism(*mc_orbit(6, 16, 32), n_seeds=100, seed=7, workers=(1, 3, 8))
    assert_rows("c12 mc-determinism", rows)


def _nan_at(module, name, hit):
    """module.name, with a NaN value wherever hit(*args) holds."""
    real = getattr(module, name)

    def patched(*args):
        out = real(*args)
        if not hit(*args):
            return out
        return math.nan if isinstance(out, float) else dataclasses.replace(out, value=math.nan)
    return patched


def _nan_second_pair(real):
    def patched(pairs, *args, **kwargs):
        first, (cf,), *rest = real(pairs, *args, **kwargs)
        return [first, (dataclasses.replace(cf, value=math.nan),), *rest]
    return patched


@pytest.mark.parametrize("module, name, patch, check, row", [
    (v.cfc, "scalar_cf_quadrature",
     _nan_at(v.cfc, "scalar_cf_quadrature", lambda t1, t2, params: params.beta == 0.5),
     v.check_scalar_cf, "scalar-cf-closed-vs-quadrature"),
    (v.cfc, "phi_kernel_integral", _nan_at(v.cfc, "phi_kernel_integral", lambda m, b: b == 0.8),
     v.check_phi_kernels, "phi-kernels-vs-quadrature"),
    (v.mc, "empirical_cfs", _nan_second_pair(v.mc.empirical_cfs),
     v.check_coincidence_nullity, "offdiag-mc-null-coincidence"),
], ids=["scalar-cf-quadrature", "phi-kernel", "coincidence-second-pull"])
def test_a_nan_from_one_route_fails_its_row(monkeypatch, module, name, patch, check, row):
    # one NaN among errors or pulls that are otherwise far below the bound
    monkeypatch.setattr(module, name, patch)
    (result,) = [r for r in check() if r.name == row]
    assert math.isnan(result.measured) and not result.passed


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite 'medium'"):
        v.run_suite("medium")


def test_full_suite_builds_the_energy_mode_set_after_the_nullity_check(monkeypatch):
    # the energy group's 327,680-mode ModeSet is not alive during the
    # nullity check's peak: run_suite builds it when that group runs
    events = []

    def stub(name):
        def check(**kwargs):
            events.append(name)
            return []
        return check

    for name in dir(v):
        if name.startswith("check_"):
            monkeypatch.setattr(v, name, stub(name))
    real = mc.build_mode_set

    def recording(params, *args, **kwargs):
        ms = real(params, *args, **kwargs)
        events.append(("build_mode_set", ms.mode_count))
        return ms

    monkeypatch.setattr(mc, "build_mode_set", recording)
    # the stubbed checks read no estimate: skip the 1,000-seed one
    monkeypatch.setattr(mc, "empirical_energy_density", lambda *args, **kwargs: None)
    v.run_suite("full")
    energy_set = ("build_mode_set", 64 * 128 * 20 * 2)
    assert energy_set in events
    assert events.index(energy_set) > events.index("check_offdiagonal_nullity")
