import json
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import delta_to_tau
from rotvac.cf_discrete import em_cf_discrete, ladder_phase
from rotvac.constants import NATURAL
from rotvac.fields import angular_weight_kernel_grid
from rotvac.kinematics import RotationParams, lab_position
from rotvac.montecarlo import (ModeSet, build_mode_set, draw_phases,
                               empirical_cf, empirical_energy_density,
                               eval_lab_fields, run_manifest, write_manifest)
from rotvac.numerics import integrate_sphere
from rotvac.thermo import em_energy_density


@pytest.fixture(scope="module")
def params():
    return RotationParams.from_beta(1.0, 0.3, NATURAL)


@pytest.fixture(scope="module")
def modes(params):
    return build_mode_set(params, n_max=6, n_theta=16, n_phi=32)


class TestModeSet:
    def test_weights_sum_to_sphere(self, modes):
        assert modes.weights.sum() == pytest.approx(4.0 * math.pi, abs=1e-12)

    def test_mode_count(self, modes):
        assert modes.mode_count == 16 * 32 * 6 * 2

    def test_exact_ladder_wavenumbers(self, modes, params):
        k0 = params.omega / params.constants.c
        assert np.array_equal(modes.wavenumbers, k0 * np.arange(1, 7))

    def test_single_rung(self, params):
        ms = build_mode_set(params, n_max=1, n_theta=8, n_phi=16)
        assert ms.wavenumbers.shape == (1,)
        assert ms.wavenumbers[0] == pytest.approx(params.omega / params.constants.c)

    def test_minimum_grid_enforced(self, params):
        with pytest.raises(ValueError):
            build_mode_set(params, n_max=2, n_theta=4, n_phi=16)

    def test_azimuthal_resolution_guard(self):
        p = RotationParams.from_beta(1.0, 0.9, NATURAL)
        with pytest.raises(ValueError):
            build_mode_set(p, n_max=40, n_theta=16, n_phi=32)

    def test_one_point_normalization_sum_rule(self, modes, params):
        # deterministic (not statistical): the per-mode amplitudes reproduce
        # the transverse angular moment of the truncated ladder exactly
        const = params.constants
        k0 = params.omega / const.c
        ladder = float((modes.harmonics**3).sum())
        target = const.hbar * const.c * k0**4 / (2.0 * math.pi**2) \
            * (8.0 * math.pi / 3.0) * ladder
        for i in range(3):
            det = 0.5 * (modes.amp2.sum(axis=1)
                         * (modes.eps1[:, i] ** 2 + modes.eps2[:, i] ** 2)).sum()
            assert det == pytest.approx(target, rel=1e-10)

    def test_continuous_band(self, params):
        ms = build_mode_set(params, spectrum="continuous", omega_cutoff=4.0,
                            n_radial=12, n_theta=8, n_phi=16)
        assert ms.spectrum == "continuous"
        assert ms.wavenumbers.max() < 4.0 / params.constants.c
        assert ms.mode_count == 8 * 16 * 12 * 2

    def test_describe_roundtrip(self, modes, params):
        man = run_manifest(params, modes, n_seeds=10, seed=3)
        blob = json.dumps(man)
        back = json.loads(blob)
        assert back["mode_set"]["n_max"] == 6
        assert back["params"]["beta"] == pytest.approx(0.3)

    def test_manifest_file(self, tmp_path, modes, params):
        path = tmp_path / "run.json"
        write_manifest(path, run_manifest(params, modes, 5, 1))
        assert json.loads(path.read_text())["n_seeds"] == 5


class TestPhases:
    def test_deterministic(self, modes):
        a = draw_phases(modes, seed=9, index=4)
        b = draw_phases(modes, seed=9, index=4)
        assert np.array_equal(a.phases, b.phases)
        c = draw_phases(modes, seed=9, index=5)
        assert not np.array_equal(a.phases, c.phases)

    def test_range(self, modes):
        ph = draw_phases(modes, seed=1).phases
        assert ph.min() >= 0.0 and ph.max() < 2.0 * math.pi

    def test_seed_outside_uint64_rejected(self, modes):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                draw_phases(modes, seed=seed)

    def test_moment_laws(self, params):
        # >= 1e4 iid phases: <cos> -> 0 and <cos^2> -> 1/2 within 5 sigma
        big = build_mode_set(params, n_max=10, n_theta=16, n_phi=32)
        ph = draw_phases(big, seed=123).phases.ravel()
        n = ph.size
        assert n >= 10000
        assert abs(np.cos(ph).mean()) < 5.0 / math.sqrt(2.0 * n)
        assert abs(np.sin(ph).mean()) < 5.0 / math.sqrt(2.0 * n)
        var_cos2 = 1.0 / 8.0
        assert abs((np.cos(ph) ** 2).mean() - 0.5) < 5.0 * math.sqrt(var_cos2 / n)

    def test_cross_mode_independence(self, params):
        ms = build_mode_set(params, n_max=2, n_theta=8, n_phi=16)
        n_seeds = 2000
        cos0, cos1, cos2 = [], [], []
        for i in range(n_seeds):
            ph = draw_phases(ms, seed=55, index=i).phases
            cos0.append(math.cos(ph[0, 0, 0]))
            cos1.append(math.cos(ph[0, 0, 1]))
            cos2.append(math.cos(ph[37, 1, 0]))
        cos0, cos1, cos2 = map(np.array, (cos0, cos1, cos2))
        se = 0.5 / math.sqrt(n_seeds)
        assert abs((cos0 * cos1).mean()) < 5.0 * se
        assert abs((cos0 * cos2).mean()) < 5.0 * se
        assert (cos0 * cos0).mean() == pytest.approx(0.5, abs=5.0 * math.sqrt(1.0 / 8.0 / n_seeds))


class TestFieldEvaluation:
    def test_single_mode_plane_wave(self, params):
        # one mode along +z with zero phase is just that plane wave at the
        # detector position
        khat = np.array([[0.0, 0.0, 1.0]])
        eps1 = np.array([[1.0, 0.0, 0.0]])
        eps2 = np.array([[0.0, 0.0, 0.0]])  # second polarization switched off
        k = 2.0
        ms = ModeSet(spectrum="discrete", k0=1.0, wavenumbers=np.array([k]),
                     harmonics=np.array([2.0]), khat=khat,
                     weights=np.array([1.0]), eps1=eps1, eps2=eps2,
                     amp2=np.array([[4.0]]), n_theta=1, n_phi=1)
        phases = draw_phases(ms, seed=0)
        phases = phases.__class__(seed=0, phases=np.zeros_like(phases.phases))
        tau = 0.4
        f = eval_lab_fields(ms, phases, params, tau)
        t, x, y, z = lab_position(params, tau)
        c = params.constants.c
        # k . r vanishes on the orbit plane, leaving the pure time phase
        expect = 2.0 * math.cos(k * z - c * t * k)
        assert f.E == pytest.approx([expect, 0.0, 0.0])
        assert f.H == pytest.approx([0.0, expect, 0.0])  # khat x eps1 = yhat

    def test_mixed_moment_matches_deterministic_expectation(self, params, modes):
        # analytic moments oracle: expectation of E1(tau1) H3(tau2) as an
        # explicit mode sum, no phase sampling
        tau1, tau2 = 0.0, 0.9
        t1, x1, y1, z1 = lab_position(params, tau1)
        t2, x2, y2, z2 = lab_position(params, tau2)
        const = params.constants
        dphi = (np.outer(modes.khat @ np.array([x1 - x2, y1 - y2, z1 - z2]),
                         modes.wavenumbers)
                - const.c * (t1 - t2) * modes.wavenumbers[None, :])
        expect = 0.0
        for eps in (modes.eps1, modes.eps2):
            heps = np.cross(modes.khat, eps)
            expect += float((modes.amp2 * 0.5 * np.cos(dphi)).sum(axis=1)
                            @ (eps[:, 0] * heps[:, 2]))
        n_seeds = 600
        vals = []
        for i in range(n_seeds):
            ph = draw_phases(modes, seed=31, index=i)
            f1 = eval_lab_fields(modes, ph, params, tau1)
            f2 = eval_lab_fields(modes, ph, params, tau2)
            vals.append(f1.E[0] * f2.H[2])
        vals = np.array(vals)
        pull = abs(vals.mean() - expect) / (vals.std(ddof=1) / math.sqrt(n_seeds))
        assert pull < 3.0

    def test_stationary_marginals(self, params, modes):
        # distribution of a field component does not depend on tau
        taus = (0.0, 1.3)
        samples = {tau: [] for tau in taus}
        for i in range(400):
            ph = draw_phases(modes, seed=62, index=i)
            for tau in taus:
                samples[tau].append(eval_lab_fields(modes, ph, params, tau).E[0])
        stat = ks_2samp(samples[taus[0]], samples[taus[1]])
        assert stat.pvalue > 0.01


class TestEmpiricalCF:
    def test_single_seed_rejected(self, params, modes):
        # one seed has no standard error; it must not pass as a zero pull
        with pytest.raises(ValueError):
            empirical_cf((1, 1), "EE", 0.0, 1.0, params, modes, n_seeds=1)
        with pytest.raises(ValueError):
            empirical_energy_density(params, modes, n_seeds=1)

    def test_offdiagonal_null_pairs(self, params, modes):
        tau2 = delta_to_tau(params, math.pi / 2.0)
        for pair in ((1, 3), (2, 3)):
            cf = empirical_cf(pair, "EE", 0.0, tau2, params, modes,
                              n_seeds=300, seed=7)
            assert abs(cf.value) < 3.0 * cf.stat_error

    def test_discrete_ladder_agreement(self, params, modes):
        # the empirical CF carries the energy-density normalization: twice
        # the correlation-function convention of the analytic ladder CF
        delta = math.pi / 2.0
        tau2 = delta_to_tau(params, delta)

        def truncated(th, ph):
            ky = np.sin(th) * np.sin(ph)
            phase = ladder_phase(delta, ky, params)
            ladder = sum(m**3 * np.cos(m * phase) for m in range(1, 7))
            return angular_weight_kernel_grid(th, ph, delta, params) * ladder

        val, _ = integrate_sphere(truncated)
        analytic = 2.0 / (3.0 * math.pi) * params.omega**4 * val
        cf = empirical_cf((1, 1), "EE", 0.0, tau2, params, modes,
                          n_seeds=800, seed=5)
        assert cf.value == pytest.approx(2.0 * analytic, abs=3.0 * cf.stat_error)

    def test_full_ladder_cf_within_band(self, params):
        # against the closed (untruncated) ladder CF the truncation bias is
        # tiny at this lag; stays within the statistical band at 2x convention
        delta = math.pi / 2.0
        tau2 = delta_to_tau(params, delta)
        ms = build_mode_set(params, n_max=12, n_theta=16, n_phi=32)
        cf = empirical_cf((1, 1), "EE", 0.0, tau2, params, ms, n_seeds=800, seed=15)
        analytic = em_cf_discrete(0.0, tau2, params).value
        assert cf.value == pytest.approx(2.0 * analytic, abs=3.0 * cf.stat_error)

    def test_mixed_field_moment_null(self, params, modes):
        tau = 0.4
        vals = []
        for i in range(400):
            ph = draw_phases(modes, seed=99, index=i)
            f = eval_lab_fields(modes, ph, params, tau)
            vals.append(f.E[0] * f.H[2] - f.E[2] * f.H[0])
        vals = np.array(vals)
        pull = abs(vals.mean()) / (vals.std(ddof=1) / math.sqrt(len(vals)))
        assert pull < 3.0

    def test_error_scaling(self, params):
        ms = build_mode_set(params, n_max=3, n_theta=8, n_phi=16)
        tau2 = delta_to_tau(params, 1.0)
        ns = [100, 316, 1000, 3162, 10000]
        errs = [empirical_cf((1, 1), "EE", 0.0, tau2, params, ms,
                             n_seeds=n, seed=2).stat_error for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestEmpiricalEnergyDensity:
    def test_component_squares_match(self, params, modes):
        est = empirical_energy_density(params, modes, n_seeds=400, seed=8)
        for i in range(3):
            pull = abs(est.lab_e2[i] - est.lab_h2[i]) / math.sqrt(
                est.lab_e2_err[i] ** 2 + est.lab_h2_err[i] ** 2)
            assert pull < 3.0

    def test_matches_truncated_ladder(self, params, modes):
        est = empirical_energy_density(params, modes, n_seeds=400, seed=8)
        rep = em_energy_density(params, cutoff_n_max=6)
        assert abs(est.w - rep.w_zp_cutoff) < 3.0 * est.w_err

    def test_static_orbit_tau_independent(self):
        # beta = 0: same seeds at different tau give statistically identical
        # estimates
        p = RotationParams(omega=1.0, radius=0.0, constants=NATURAL)
        ms = build_mode_set(p, n_max=4, n_theta=8, n_phi=16)
        ws = []
        for tau in np.linspace(0.0, 5.0, 5):
            est = empirical_energy_density(p, ms, n_seeds=150, seed=10, tau=float(tau))
            ws.append((est.w, est.w_err))
        base = ws[0][0]
        for w, err in ws[1:]:
            assert abs(w - base) < 4.0 * err

    def test_frame_attachment_time_irrelevant(self, params, modes):
        # the energy density does not depend on where along the orbit the
        # comoving frame is attached, also away from the static limit
        a = empirical_energy_density(params, modes, n_seeds=200, seed=21, tau=0.0)
        b = empirical_energy_density(params, modes, n_seeds=200, seed=21, tau=2.3)
        assert abs(a.w - b.w) < 4.0 * math.hypot(a.w_err, b.w_err)

    def test_bit_identical_across_workers(self, params, modes):
        a = empirical_energy_density(params, modes, n_seeds=60, seed=3, n_workers=1)
        b = empirical_energy_density(params, modes, n_seeds=60, seed=3, n_workers=4)
        assert a.w == b.w
        assert np.array_equal(a.e2, b.e2)
        assert np.array_equal(a.h2, b.h2)
        assert a.mixed == b.mixed
