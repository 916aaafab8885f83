import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Philox
from scipy.stats import ks_2samp

from oracles import (angular_weight_kernel_grid, delta_to_tau, empirical_cf_per_seed,
                     lab_field_design, lab_fields_mode_sum, ladder_phase, mc_exact_cf_mean,
                     write_manifest)
from rotvac import montecarlo, validation
from rotvac.cf_continuous import em_cf_continuous, em_cf_tensor_quadrature
from rotvac.cf_discrete import em_cf_discrete
from rotvac.constants import NATURAL, SI
from rotvac.fields import projection_rows
from rotvac.kinematics import RotationParams, lab_position
from rotvac.montecarlo import (BLOCK_ELEMENTS, EmpiricalEnergyDensity, ModeSet,
                               build_mode_set, draw_phases,
                               empirical_cf, empirical_cfs, empirical_energy_density,
                               eval_lab_fields, run_manifest)
from rotvac.numerics import integrate_sphere
from rotvac.thermo import em_energy_density


@pytest.fixture(scope="module")
def params():
    return RotationParams.from_beta(1.0, 0.3, NATURAL)


@pytest.fixture(scope="module")
def modes(params):
    return build_mode_set(params, n_max=6, n_theta=16, n_phi=32)


class TestModeSet:
    def test_weights_sum_to_sphere(self, modes, params):
        # the first rung's amplitude^2 is (hbar c k0^4 / pi^2) times the node weight
        const = params.constants
        k0 = params.omega / const.c
        weights = modes.amp[:, 0] ** 2 * math.pi**2 / (const.hbar * const.c * k0**4)
        assert weights.sum() == pytest.approx(4.0 * math.pi, abs=1e-12)

    def test_band_weights_integrate_the_spectrum(self, params):
        # sum of amplitude^2 = (hbar c / pi^2) 4 pi int_0^K k^3 dk: the node
        # weights sum to 4 pi and Gauss-Legendre integrates k^3 exactly
        const = params.constants
        ms = build_mode_set(params, "continuous", n_max=3, n_theta=8, n_phi=16)
        k_cut = 3 * params.omega / const.c
        assert (ms.amp**2).sum() == pytest.approx(const.hbar * const.c * k_cut**4 / math.pi,
                                                  rel=1e-12)

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

    def test_zero_band_rejected(self, params):
        # a ladder at omega = 0 or an empty band has no amplitude, so every
        # standard error would be 0
        with pytest.raises(ValueError, match="omega > 0"):
            build_mode_set(RotationParams(0.0, 1.0, NATURAL), n_max=2, n_theta=8, n_phi=16)
        with pytest.raises(ValueError, match="omega > 0"):
            build_mode_set(RotationParams(0.0, 1.0, NATURAL), "continuous", n_max=2,
                           n_theta=8, n_phi=16)
        for n_max in (0, -1):
            for spectrum in ("discrete", "continuous"):
                with pytest.raises(ValueError, match="n_max must be >= 1"):
                    build_mode_set(params, spectrum, n_max=n_max, n_theta=8, n_phi=16)

    def test_infinite_band_cutoff_names_n_max(self):
        # n_max omega / c overflows: an OverflowError naming both, on either
        # spectrum, before the amplitudes are checked
        p = RotationParams(1e308, 0.0, NATURAL)
        for spectrum in ("discrete", "continuous"):
            with pytest.raises(OverflowError, match=r"top wavenumber at n_max = 2, omega = 1e\+308"):
                build_mode_set(p, spectrum, n_max=2, n_theta=8, n_phi=16)

    def test_one_point_normalization_sum_rule(self, modes, params):
        # deterministic (not statistical): the per-mode amplitudes reproduce
        # the transverse angular moment of the truncated ladder exactly
        const = params.constants
        k0 = params.omega / const.c
        ladder = float((np.arange(1, modes.n_max + 1) ** 3).sum())
        target = const.hbar * const.c * k0**4 / (2.0 * math.pi**2) \
            * (8.0 * math.pi / 3.0) * ladder
        for i in range(3):
            det = 0.5 * ((modes.amp**2).sum(axis=1)
                         * (modes.pol[0, 0, :, i] ** 2 + modes.pol[1, 0, :, i] ** 2)).sum()
            assert det == pytest.approx(target, rel=1e-10)

    def test_continuous_band(self, params):
        # BAND_NODES_PER_RUNG n_max Gauss-Legendre nodes below n_max k0
        ms = build_mode_set(params, spectrum="continuous", n_max=3, n_theta=8, n_phi=16)
        assert ms.spectrum == "continuous"
        assert ms.wavenumbers.max() < 3 * params.omega / params.constants.c
        assert ms.mode_count == 8 * 16 * (4 * 3) * 2

    def test_describe_roundtrip(self, modes, params):
        man = run_manifest(params, modes, n_seeds=10, seed=3)
        blob = json.dumps(man)
        back = json.loads(blob)
        assert back["mode_set"]["n_max"] == 6
        assert back["params"]["beta"] == pytest.approx(0.3)

    def test_describe_names_n_max_on_both_spectra(self, params):
        for spectrum in ("discrete", "continuous"):
            ms = build_mode_set(params, spectrum, n_max=3, n_theta=8, n_phi=16)
            assert ms.describe() == {"spectrum": spectrum, "k0": 1.0, "n_theta": 8,
                                     "n_phi": 16, "mode_count": ms.mode_count, "n_max": 3}

    def test_manifest_records_the_phase_draw(self, modes, params):
        man = run_manifest(params, modes, n_seeds=10, seed=3)
        assert man["phases"] == {"generator": "philox4x64", "key": "(seed, index)",
                                 "lattice_bits": 20}

    def test_manifest_file(self, tmp_path, modes, params):
        path = tmp_path / "run.json"
        write_manifest(path, run_manifest(params, modes, 5, 1))
        assert json.loads(path.read_text())["n_seeds"] == 5

    @pytest.mark.parametrize("omega, units, spectrum", [
        (1e-300, SI, "discrete"), (1e-300, SI, "continuous"), (1e100, NATURAL, "discrete"),
        (1e100, NATURAL, "continuous")], ids=["k0-underflow", "k0-underflow-band",
                                              "amp-overflow", "amp-overflow-band"])
    def test_amplitudes_outside_float64_rejected(self, omega, units, spectrum):
        # the amplitudes scale with omega^4: underflowed ones gave an ok row
        # of 0.0 with stat error 0.0, overflowed ones NaN values
        p = RotationParams(omega, 0.0, units)
        with pytest.raises(OverflowError, match="not a normal float64"):
            build_mode_set(p, spectrum, n_max=2, n_theta=8, n_phi=16)


class TestModeSetInvariants:
    """A ModeSet built by hand or by build_mode_set: its polarization
    columns are (eps, khat x eps) with unit eps perpendicular to khat."""

    @staticmethod
    def hand_built():
        rng = np.random.default_rng(3)
        khat = rng.standard_normal((5, 3))
        khat /= np.linalg.norm(khat, axis=1)[:, None]
        eps1 = np.cross(khat, [0.0, 0.0, 1.0])
        eps1 /= np.linalg.norm(eps1, axis=1)[:, None]
        pol = np.stack([np.stack([eps, np.cross(khat, eps)])
                        for eps in (eps1, np.cross(khat, eps1))])
        return ModeSet(spectrum="continuous", n_max=1, n_theta=1, n_phi=5, k0=1.0,
                       wavenumbers=np.array([0.5, 1.5]), khat=khat,
                       amp=np.sqrt(rng.random((5, 2))), pol=pol)

    @pytest.mark.parametrize("spectrum", ["discrete", "continuous"])
    def test_pol_is_eps_and_khat_cross_eps(self, params, spectrum):
        ms = build_mode_set(params, spectrum, n_max=3, n_theta=8, n_phi=16)
        assert ms.pol.shape == (2, 2) + ms.khat.shape
        assert ms.amp.shape == (ms.khat.shape[0], ms.wavenumbers.size)
        for eps, heps in ms.pol:
            assert np.array_equal(heps, np.cross(ms.khat, eps))
            assert np.abs(np.linalg.norm(eps, axis=1) - 1.0).max() < 1e-15
            assert np.abs(np.einsum("mi,mi->m", eps, ms.khat)).max() < 1e-15
        # the two polarizations are orthogonal
        assert np.abs(np.einsum("mi,mi->m", ms.pol[0, 0], ms.pol[1, 0])).max() < 1e-15

    @pytest.mark.parametrize("tau", [0.0, 0.7, 3.1])
    def test_eval_lab_fields_matches_mode_sum(self, params, tau):
        for ms in (build_mode_set(params, n_max=3, n_theta=8, n_phi=16), self.hand_built()):
            ph = draw_phases(ms, seed=12, index=3)
            f = eval_lab_fields(ms, ph, params, tau)
            ref = lab_fields_mode_sum(ms, ph * montecarlo.LATTICE_STEP, params, tau)
            assert np.abs(f - ref).max() <= 1e-12 * np.abs(ref).max()


    def test_no_libm_cos_of_mode_size(self, params, modes, monkeypatch):
        # the drawn phases take their e^{i phi} from the lattice tables; libm's
        # np.cos sees only the (M, Q) base phases, half the mode count
        counted = []
        cos = np.cos
        monkeypatch.setattr(np, "cos", lambda x, *a, **k: counted.append(np.size(x))
                            or cos(x, *a, **k))
        eval_lab_fields(modes, draw_phases(modes, seed=2), params, 2.5)
        assert all(n < modes.mode_count for n in counted)


class TestTimeRange:
    """Proper times whose base phases float64 cannot resolve are a ValueError
    on every Monte Carlo route."""

    ROUTES = {
        "fields": lambda tau, params, ms: eval_lab_fields(ms, draw_phases(ms, 1), params, tau),
        "cf-tau1": lambda tau, params, ms: empirical_cf((1, 1), "EE", tau, 0.0, params, ms,
                                                         n_seeds=2),
        "cfs-tau2": lambda tau, params, ms: empirical_cfs([(1, 1)], "EE", 0.0, [0.5, tau],
                                                          params, ms, n_seeds=2),
        "energy": lambda tau, params, ms: empirical_energy_density(params, ms, n_seeds=2,
                                                                   tau=tau),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("tau, cause", [
        (math.nan, "tau = nan is not finite"), (math.inf, "tau = inf is not finite"),
        (-math.inf, "tau = -inf is not finite"),
        (1e300, "float64 no longer resolves the drawn phases"),
        (-1e8, "float64 no longer resolves the drawn phases")])
    def test_rejected(self, params, modes, route, tau, cause):
        with pytest.raises(ValueError, match=cause):
            self.ROUTES[route](tau, params, modes)

    def test_bound_is_the_largest_base_phase(self, params, modes):
        # |k . r - c k t| <= k_max (|r| + c |t|) = n_max (beta + gamma tau) here
        k_max, limit = float(modes.wavenumbers[-1]), montecarlo.PHASE_LIMIT
        edge = (limit / k_max - params.radius) / params.gamma
        eval_lab_fields(modes, draw_phases(modes, 1), params, 0.999 * edge)
        with pytest.raises(ValueError):
            eval_lab_fields(modes, draw_phases(modes, 1), params, edge)


class TestPhases:
    def test_deterministic(self, modes):
        a = draw_phases(modes, seed=9, index=4)
        b = draw_phases(modes, seed=9, index=4)
        assert np.array_equal(a, b)
        c = draw_phases(modes, seed=9, index=5)
        assert not np.array_equal(a, c)

    def test_range(self, modes):
        ph = draw_phases(modes, seed=1) * montecarlo.LATTICE_STEP
        assert ph.min() >= 0.0 and ph.max() < 2.0 * math.pi

    def test_seed_outside_uint64_rejected(self, modes):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                draw_phases(modes, seed=seed)

    def test_index_outside_uint64_rejected(self, modes):
        # a ValueError that names the index, as for the seed
        for index in (-1, 2**64):
            with pytest.raises(ValueError, match="index"):
                draw_phases(modes, seed=1, index=index)
        assert draw_phases(modes, seed=1, index=2**64 - 1).shape == modes.amp.shape + (2,)

    def test_moment_laws(self, params):
        # >= 1e4 iid phases: <cos> -> 0 and <cos^2> -> 1/2 within 5 sigma
        big = build_mode_set(params, n_max=10, n_theta=16, n_phi=32)
        ph = (draw_phases(big, seed=123) * montecarlo.LATTICE_STEP).ravel()
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
            ph = draw_phases(ms, seed=55, index=i) * montecarlo.LATTICE_STEP
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
        pol = np.stack([np.stack([eps, np.cross(khat, eps)]) for eps in (eps1, eps2)])
        ms = ModeSet(spectrum="discrete", n_max=2, n_theta=1, n_phi=1, k0=1.0,
                     wavenumbers=np.array([k]), khat=khat, amp=np.array([[2.0]]), pol=pol)
        phases = np.zeros_like(draw_phases(ms, seed=0))
        tau = 0.4
        f = eval_lab_fields(ms, phases, params, tau)
        t, x, y, z = lab_position(params, tau)
        c = params.constants.c
        # k . r vanishes on the orbit plane, leaving the pure time phase
        expect = 2.0 * math.cos(k * z - c * t * k)
        # E along eps1 = xhat, H along khat x eps1 = yhat
        assert f == pytest.approx([expect, 0.0, 0.0, 0.0, expect, 0.0])

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
        for eps in modes.pol[:, 0]:
            heps = np.cross(modes.khat, eps)
            expect += float((modes.amp**2 * 0.5 * np.cos(dphi)).sum(axis=1)
                            @ (eps[:, 0] * heps[:, 2]))
        n_seeds = 600
        vals = []
        for i in range(n_seeds):
            ph = draw_phases(modes, seed=31, index=i)
            f1 = eval_lab_fields(modes, ph, params, tau1)
            f2 = eval_lab_fields(modes, ph, params, tau2)
            vals.append(f1[0] * f2[5])
        vals = np.array(vals)
        pull = abs(vals.mean() - expect) / (vals.std(ddof=1) / math.sqrt(n_seeds))
        assert pull < 3.0

    def test_caller_buffers_give_the_same_fields(self, params, modes):
        # the energy path computes amp e^{-ib} once per call and passes it to
        # every seed's eval_lab_fields as work
        work = montecarlo._field_base(modes, params, 0.6)
        for index in (0, 1):
            ph = draw_phases(modes, seed=8, index=index)
            a = eval_lab_fields(modes, ph, params, 0.6)
            b = eval_lab_fields(modes, ph, params, 0.6, work=work)
            assert np.array_equal(a, b)

    def test_stationary_marginals(self, params, modes):
        # distribution of a field component does not depend on tau
        taus = (0.0, 1.3)
        samples = {tau: [] for tau in taus}
        for i in range(400):
            ph = draw_phases(modes, seed=62, index=i)
            for tau in taus:
                samples[tau].append(eval_lab_fields(modes, ph, params, tau)[0])
        stat = ks_2samp(samples[taus[0]], samples[taus[1]])
        assert stat.pvalue > 0.01


class TestLatticePhases:
    """Phases on the lattice 2 pi j / 2**20 and their e^{i phi} tables."""

    N = 2**montecarlo.LATTICE_BITS

    # E cos^a sin^b of a uniform phase where it is not 0 (odd a or b)
    UNIFORM = {(0, 0): 1.0, (2, 0): 0.5, (0, 2): 0.5, (4, 0): 0.375, (0, 4): 0.375,
               (2, 2): 0.125}

    @classmethod
    def moments_off(cls, c, s):
        """Largest deviation of the means of cos^a sin^b, a + b <= 4, from
        those of a uniform phase."""
        return max(abs((c**a * s**b).mean() - cls.UNIFORM.get((a, b), 0.0))
                   for a in range(5) for b in range(5 - a))

    def test_tables_match_long_double_at_every_lattice_point(self):
        j = np.arange(self.N, dtype=np.uint32)
        z = montecarlo._cis(j)
        two_pi = np.longdouble("6.28318530717958647692528676655900576839")
        phi = j.astype(np.longdouble) * (two_pi / self.N)
        assert np.abs(z.real - np.cos(phi)).max() <= 2.0**-52
        assert np.abs(z.imag - np.sin(phi)).max() <= 2.0**-52

    def test_exact_at_quarter_turns(self):
        z = montecarlo._cis(np.array([0, 2**18, 2**19, 3 * 2**18], dtype=np.uint32))
        assert np.array_equal(z, [1.0, 1j, -1.0, -1j])

    def test_moments_of_the_lattice_are_those_of_uniform_phases(self):
        z = montecarlo._cis(np.arange(self.N, dtype=np.uint32))
        assert self.moments_off(z.real, z.imag) <= 1e-15
        # negative control: on the 4-point lattice e^{4 i phi} = 1, so the
        # fourth moments are off by 1/8, E cos^4 = 1/2 and E cos^2 sin^2 = 0
        c, s = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, -1.0])
        assert (c**4).mean() == 0.5 and self.moments_off(c, s) == 0.125

    def test_draw_phases_are_exact_lattice_multiples(self, modes):
        j = draw_phases(modes, seed=5, index=2)
        assert j.dtype == np.uint32 and j.shape == modes.amp.shape + (2,)
        assert j.max() < self.N
        phases = j * montecarlo.LATTICE_STEP
        assert np.array_equal(phases, j * montecarlo.LATTICE_STEP)
        assert np.array_equal(np.rint(phases / montecarlo.LATTICE_STEP), j)
        assert phases.min() >= 0.0 and phases.max() < 2.0 * math.pi

    def test_indices_are_the_top_bits_of_each_half_word(self, modes):
        # mode 2w from the low 32-bit half of the Philox word w, 2w + 1 from
        # its high half
        words = Philox(key=np.array([5, 2], dtype=np.uint64)).random_raw(modes.mode_count // 2)
        low, high = (words & 0xFFFFFFFF) >> 12, words >> 44
        want = np.stack([low, high], axis=-1).reshape(-1)
        assert np.array_equal(draw_phases(modes, seed=5, index=2).reshape(-1), want)


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

        def truncated(k):
            phase = ladder_phase(delta, k[..., 1], params)
            ladder = sum(m**3 * np.cos(m * phase) for m in range(1, 7))
            return angular_weight_kernel_grid(k[..., 0], k[..., 1], delta, params) * ladder

        val, _ = integrate_sphere(truncated)
        analytic = 2.0 / (3.0 * math.pi) * params.omega**4 * val
        cf = empirical_cf((1, 1), "EE", 0.0, tau2, params, modes,
                          n_seeds=800, seed=5)
        assert cf.value == pytest.approx(2.0 * analytic, abs=3.0 * cf.stat_error)

    def test_full_ladder_cf_within_band(self, params):
        # against the closed (untruncated) ladder CF at 2x convention.  The
        # truncation bias is not small: the exact ensemble mean of this grid
        # is -3.60 against a target of 0.23, and the truncated ladder does
        # not approach the Abel-regularized value as n_max grows.  The check
        # passes because its 3-sigma band (3 x 107.8) is far wider than both;
        # it catches gross errors only
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
            vals.append(f[0] * f[5] - f[2] * f[3])
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


class TestSeedBlockEngine:
    """empirical_cf against the per-seed oracle: one phase draw, the lab
    fields mode by mode at each time, the tetrad projection."""

    @pytest.fixture(scope="class")
    def band(self, params):
        return build_mode_set(params, spectrum="continuous", n_max=1, n_theta=8, n_phi=16)

    @pytest.mark.parametrize("spectrum", ["discrete", "continuous"])
    @pytest.mark.parametrize("taus", [(0.0, 1.1), (0.4, 0.4)], ids=["separated", "coincident"])
    @pytest.mark.parametrize("pair", [(1, 1), (1, 3), (2, 3), (3, 2)], ids=str)
    @pytest.mark.parametrize("kind", ["EE", "HH", "EH"])
    def test_matches_per_seed_oracle(self, params, modes, band, spectrum, taus, pair, kind):
        ms = modes if spectrum == "discrete" else band
        # one block plus two seeds: the seeds span two blocks
        n_seeds = BLOCK_ELEMENTS // ms.mode_count + 2
        cf = empirical_cf(pair, kind, *taus, params, ms, n_seeds=n_seeds, seed=17)
        vals = empirical_cf_per_seed(pair, kind, *taus, params, ms, n_seeds, 17)
        assert abs(cf.value - vals.mean()) <= 1e-12 * cf.stat_error
        assert cf.stat_error == pytest.approx(vals.std(ddof=1) / math.sqrt(n_seeds),
                                              rel=1e-12)

    def test_libm_trig_elements_per_call(self, params, modes, monkeypatch):
        # the drawn phases take their e^{i phi} from the lattice tables; only
        # the design takes libm's cos and sin, each once over its (M, Q, T)
        # base phases.  A libm pass over the phases would pass
        # 2 x n_seeds x mode_count elements
        counted = []
        for name in ("cos", "sin"):
            def counting(x, *args, _libm=getattr(np, name), **kwargs):
                counted.append(np.size(x))
                return _libm(x, *args, **kwargs)
            monkeypatch.setattr(np, name, counting)
        n_seeds = BLOCK_ELEMENTS // modes.mode_count + 1
        empirical_cf((1, 1), "EE", 0.0, 1.1, params, modes, n_seeds=n_seeds, seed=3)
        base = modes.amp.size * 2
        assert counted and max(counted) <= base
        assert sum(counted) <= 2 * base

    def test_bit_identical_across_workers(self, params, modes):
        n_seeds = 3 * (BLOCK_ELEMENTS // modes.mode_count) + 2
        a = empirical_cf((1, 2), "EH", 0.0, 0.9, params, modes, n_seeds=n_seeds,
                         seed=4, n_workers=1)
        b = empirical_cf((1, 2), "EH", 0.0, 0.9, params, modes, n_seeds=n_seeds,
                         seed=4, n_workers=3)
        assert a.value == b.value
        assert a.stat_error == b.stat_error


class TestSharedDrawEngine:
    """empirical_cfs: several pairs and lags from one draw per seed."""

    def test_pairs_equal_separate_calls(self, params, modes):
        pairs = [(1, 1), (1, 3), (2, 3), (3, 2)]
        n_seeds = 2 * (BLOCK_ELEMENTS // modes.mode_count) + 3
        batch = empirical_cfs(pairs, "EH", 0.2, [1.3], params, modes, n_seeds=n_seeds,
                              seed=9)
        for pair, (cf,) in zip(pairs, batch):
            one = empirical_cf(pair, "EH", 0.2, 1.3, params, modes, n_seeds=n_seeds, seed=9)
            assert (cf.value, cf.stat_error, cf.pair, cf.tau2) == \
                (one.value, one.stat_error, one.pair, one.tau2)

    def test_lags_over_chunks_match_per_seed_oracle(self, params, modes, monkeypatch):
        # 512 nodes of 2 x 6 modes; room for 161 nodes rounds down to chunks
        # of 160, a multiple of 4: three chunks and a remainder of 32.  One
        # block plus two seeds spans two blocks of a chunk
        monkeypatch.setattr(montecarlo, "CHUNK_MODES", 161 * 12)
        chunks = []
        build = montecarlo._lab_field_design
        monkeypatch.setattr(montecarlo, "_lab_field_design",
                            lambda *a: chunks.append(a[4]) or build(*a))
        pairs, lags = [(1, 1), (2, 3)], [0.3, 0.9, 2.2]
        n_seeds = BLOCK_ELEMENTS // (160 * 12) + 2
        batch = empirical_cfs(pairs, "EE", 0.1, lags, params, modes, n_seeds=n_seeds,
                              seed=23)
        assert [(c.start, c.stop) for c in chunks] == [(0, 160), (160, 320), (320, 480),
                                                       (480, 640)]
        for pair, row in zip(pairs, batch):
            for tau2, cf in zip(lags, row):
                vals = empirical_cf_per_seed(pair, "EE", 0.1, tau2, params, modes,
                                             n_seeds, 23)
                assert (cf.pair, cf.tau2) == (pair, tau2)
                assert abs(cf.value - vals.mean()) <= 1e-12 * cf.stat_error
                assert cf.stat_error == pytest.approx(
                    vals.std(ddof=1) / math.sqrt(n_seeds), rel=1e-12)

    def test_designs_bounded_on_the_full_suite_grid(self, params, monkeypatch):
        # validate --suite full's 327,680 modes: no design holds more than
        # CHUNK_MODES modes, and the chunks give the same bits for any
        # worker count
        ms = build_mode_set(params, n_max=20, n_theta=64, n_phi=128)
        shapes = []
        build = montecarlo._lab_field_design

        def recording(*args):
            design = build(*args)
            shapes.append(design.shape)
            return design

        monkeypatch.setattr(montecarlo, "_lab_field_design", recording)
        pairs, lags = [(1, 3), (2, 3)], [1.1]
        empirical_cfs(pairs, "EE", 0.0, lags, params, ms, n_seeds=2, seed=8)
        assert len(shapes) >= 3
        for shape in shapes:
            assert shape[0] == len(pairs) and shape[2] == 1 + len(lags)
            assert 0 < shape[1] <= 2 * montecarlo.CHUNK_MODES
        assert sum(shape[1] for shape in shapes) == 2 * ms.mode_count
        a, b = (empirical_cfs(pairs, "EE", 0.0, lags, params, ms, n_seeds=3, seed=8,
                              n_workers=k) for k in (1, 3))
        assert [[(c.value, c.stat_error) for c in row] for row in a] == \
            [[(c.value, c.stat_error) for c in row] for row in b]

    def test_no_seed_block_has_one_row(self, params, modes, monkeypatch):
        # OpenBLAS threads the sum of a one-row product, whose bits would
        # then follow the BLAS thread count: a lone last seed joins the
        # block before it, and a block narrower than a chunk's modes takes
        # 2 seeds
        sizes = []
        draw = montecarlo._draw_block
        monkeypatch.setattr(montecarlo, "_draw_block",
                            lambda seed, idx, *a: sizes.append(len(idx)) or draw(seed, idx, *a))
        per_block = BLOCK_ELEMENTS // modes.mode_count
        empirical_cf((1, 1), "EE", 0.0, 1.1, params, modes, n_seeds=per_block + 1, seed=3)
        assert sizes == [per_block + 1]
        sizes.clear()
        monkeypatch.setattr(montecarlo, "BLOCK_ELEMENTS", modes.mode_count // 2)
        empirical_cf((1, 1), "EE", 0.0, 1.1, params, modes, n_seeds=5, seed=3)
        assert sizes == [2, 3]

    def test_bits_do_not_depend_on_blas_threads(self):
        # 128,000 modes in chunks of about CHUNK_MODES: a block of one seed
        # in a chunk this wide is a one-row product whose sum OpenBLAS splits
        # across its threads, and its last digits follow the thread count
        script = (
            "from rotvac import montecarlo as mc, RotationParams, NATURAL\n"
            "p = RotationParams.from_beta(1.0, 0.3, NATURAL)\n"
            "ms = mc.build_mode_set(p, n_max=20, n_theta=40, n_phi=80)\n"
            "cfs = mc.empirical_cfs([(1, 3), (2, 3)], 'EE', 0.0, [1.1], p, ms, n_seeds=5, seed=8)\n"
            "print([(c.value.hex(), c.stat_error.hex()) for (c,) in cfs])\n")
        env = dict(os.environ, PYTHONPATH=str(Path(montecarlo.__file__).parents[1]))
        out = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, env=dict(env, OPENBLAS_NUM_THREADS=str(n))).stdout
               for n in (1, 2)]
        assert out[0] and out[0] == out[1]

    def test_bit_identical_across_workers(self, params, modes):
        n_seeds = 3 * (BLOCK_ELEMENTS // modes.mode_count) + 2
        a, b = (empirical_cfs([(1, 2), (3, 3)], "HH", 0.0, [0.4, 1.7, 5.0], params, modes,
                              n_seeds=n_seeds, seed=6, n_workers=k) for k in (1, 3))
        assert [[(c.value, c.stat_error) for c in row] for row in a] == \
            [[(c.value, c.stat_error) for c in row] for row in b]


class TestExactMean:
    """oracles.mc_exact_cf_mean, the phase-ensemble mean of one seed's CF
    value, against the angular-resolution rule, the engine's design and
    its estimates."""

    # the worst cases of a probe over beta {0.3, 0.5, 0.9, 0.99, 0.999},
    # n_max {2, 6, 12, 20}, both spectra, (1,1) EE, (2,2) HH, (3,3) EE,
    # (1,2) EE, (1,3) EH, (2,3) HH and lags {0.3, 1, 2, 3, 5}; an
    # azimuth-only rule's 8 x 48 grid put the (1,1) case at beta 0.99 2e-2 off
    @pytest.mark.parametrize("beta, n_max, spectrum, pair, kind", [
        (0.999, 20, "discrete", (1, 1), "EE"), (0.9, 20, "discrete", (1, 3), "EH"),
        (0.999, 20, "continuous", (3, 3), "EE"), (0.999, 6, "discrete", (2, 2), "HH")])
    def test_minimum_grid_resolves_the_swing(self, beta, n_max, spectrum, pair, kind):
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        # the least grid build_mode_set accepts
        n_theta, n_phi = math.ceil(n_max * beta) + 6, math.ceil(3 * n_max * beta) + 10
        coarse = build_mode_set(p, spectrum, n_max=n_max, n_theta=n_theta, n_phi=n_phi)
        fine = build_mode_set(p, spectrum, n_max=n_max, n_theta=96,
                              n_phi=math.ceil(4 * n_max * beta) + 48)
        tau2 = delta_to_tau(p, 3.0)
        mean, _ = mc_exact_cf_mean(coarse, p, pair, kind, 0.0, tau2)
        want, scale = mc_exact_cf_mean(fine, p, pair, kind, 0.0, tau2)
        assert abs(mean - want) <= 1e-5 * scale
        for grid in ((n_theta - 1, n_phi), (n_theta, n_phi - 1)):
            with pytest.raises(ValueError, match="too coarse"):
                build_mode_set(p, spectrum, n_max=n_max, n_theta=grid[0], n_phi=grid[1])

    @pytest.mark.parametrize("spectrum, beta", [("discrete", 0.3), ("continuous", 0.9)])
    def test_design_products_are_the_exact_mean(self, spectrum, beta):
        # half the product of a pair's design columns at tau1 and at a lag
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        ms = build_mode_set(p, spectrum, n_max=3, n_theta=16, n_phi=32)
        pairs, kind, tau1, tau2s = [(1, 1), (1, 3), (2, 3)], "EH", 0.2, [0.5, 1.7]
        rows = np.array([[projection_rows(pair, kind, p, tau1, tau2s[0])[0]]
                         + [projection_rows(pair, kind, p, tau1, t)[1] for t in tau2s]
                         for pair in pairs])
        design = montecarlo._lab_field_design(ms, p, (tau1, *tau2s), rows)
        for pair, d in zip(pairs, design):
            for j, tau2 in enumerate(tau2s, 1):
                mean, scale = mc_exact_cf_mean(ms, p, pair, kind, tau1, tau2)
                assert abs(0.5 * d[:, 0] @ d[:, j] - mean) <= 1e-12 * scale

    def test_estimates_pull_against_the_exact_mean(self, params, modes):
        pairs = [(1, 1), (1, 3), (2, 3)]
        lags = [delta_to_tau(params, delta) for delta in (0.5, math.pi / 2.0, 3.0)]
        cfs = empirical_cfs(pairs, "EE", 0.0, lags, params, modes, n_seeds=400, seed=12)
        for pair, row in zip(pairs, cfs):
            for tau2, cf in zip(lags, row):
                mean, _ = mc_exact_cf_mean(modes, params, pair, "EE", 0.0, tau2)
                assert abs(cf.value - mean) < 4.0 * cf.stat_error


class TestFoldedDesign:
    """The engine's per-pair designs and its block draw."""

    @pytest.mark.parametrize("tau2s", [[1.3], [0.3, 0.9, 2.2]], ids=["one-lag", "three-lags"])
    @pytest.mark.parametrize("kind", ["EE", "EH"])
    def test_columns_match_six_column_oracle(self, params, modes, kind, tau2s):
        pairs, tau1 = [(1, 1), (1, 3), (2, 3)], 0.2
        rows = np.array([[projection_rows(pair, kind, params, tau1, tau2s[0])[0]]
                         + [projection_rows(pair, kind, params, tau1, t)[1] for t in tau2s]
                         for pair in pairs])
        taus = (tau1, *tau2s)
        design = montecarlo._lab_field_design(modes, params, taus, rows)
        oracle = lab_field_design(modes, params, taus)
        assert design.shape == (len(pairs), 2 * modes.mode_count, len(taus))
        assert design[0].flags.c_contiguous
        for p in range(len(pairs)):
            for j in range(len(taus)):
                col = design[p, :, j]
                want = oracle[:, 6 * j:6 * j + 6] @ rows[p, j]
                assert np.max(np.abs(col - want)) <= 1e-14 * np.max(np.abs(col))

    def test_block_draw_matches_draw_phases(self, params, modes, monkeypatch):
        # chunks of 160 nodes of 12 modes (room for 161 rounds down to a
        # multiple of 4), and one block plus two seeds: the seeds span two
        # blocks in each of the three whole chunks and one in the remainder,
        # and the engine constructs one Philox per block, not one per seed
        monkeypatch.setattr(montecarlo, "CHUNK_MODES", 161 * 12)
        n_seeds = BLOCK_ELEMENTS // (160 * 12) + 2
        built, drawn = [], {}
        real_philox, real_draw = montecarlo.Philox, montecarlo._draw_block

        def counting(*args, **kwargs):
            built.append(kwargs)
            return real_philox(*args, **kwargs)

        def recording(seed, indices, n_modes, first):
            block = real_draw(seed, indices, n_modes, first)
            drawn.update(((first, i), row) for i, row in zip(indices, block.copy()))
            return block

        monkeypatch.setattr(montecarlo, "Philox", counting)
        monkeypatch.setattr(montecarlo, "_draw_block", recording)
        empirical_cf((1, 1), "EE", 0.0, 1.1, params, modes, n_seeds=n_seeds, seed=41)
        monkeypatch.undo()
        firsts = [0, 1920, 3840, 5760]
        assert len(built) == 7
        assert sorted(drawn) == [(f, i) for f in firsts for i in range(n_seeds)]
        for (first, i), row in drawn.items():
            assert row.dtype == np.uint32
            want = draw_phases(modes, 41, i).reshape(-1)[first:first + len(row)]
            assert len(row) == min(1920, modes.mode_count - first)
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, params, modes, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            empirical_cf((1, 1), "EE", 0.0, 1.1, params, modes, n_seeds=2, seed=seed)

    def test_offdiagonal_check_design_is_a_third(self, modes, monkeypatch):
        # check_offdiagonal_nullity's call: 2 pairs at 1 lag on the
        # 6,144-mode grid; P (1 + L) columns against the twelve of the
        # six-column design of two times
        designs = []
        build = montecarlo._lab_field_design
        monkeypatch.setattr(montecarlo, "_lab_field_design",
                            lambda *a: designs.append(build(*a)) or designs[-1])
        validation.check_offdiagonal_nullity(n_seeds=20)
        (design,) = designs
        n, n_pairs, n_lags = modes.mode_count, 2, 1
        assert n == 6144
        assert design.shape == (n_pairs, 2 * n, 1 + n_lags)
        assert design.nbytes <= (2 * n * 12 * 8) / 3


class TestPairValidation:
    """Every CF route rejects a component outside 1..3 and an unknown kind,
    the scalar's included: the electromagnetic routes do not fall back to
    the scalar integrand."""

    ROUTES = {
        "monte-carlo": lambda pair, kind, params, ms: empirical_cf(
            pair, kind, 0.0, 1.0, params, ms, n_seeds=2),
        "tensor": lambda pair, kind, params, ms: em_cf_tensor_quadrature(
            pair, kind, 0.0, 1.0, params),
        "continuous": lambda pair, kind, params, ms: em_cf_continuous(
            pair, kind, 0.0, 1.0, params, "quadrature"),
        "closed-form": lambda pair, kind, params, ms: em_cf_continuous(
            pair, kind, 0.0, 1.0, params, "closed-form"),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("pair, kind", [((4, 1), "HH"), ((0, 1), "EE"), ((1, -1), "EE"),
                                            ((1, 2, 3), "EE"), ((1, 1), "XX"), ((1, 1), "HE"),
                                            ((0, 0), "scalar")])
    def test_rejected(self, params, modes, route, pair, kind):
        with pytest.raises(ValueError):
            self.ROUTES[route](pair, kind, params, modes)


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

    def test_bit_identical_across_workers_over_chunks(self, params):
        # 768 nodes of 2 x 15 modes: a node chunk of TRIG_CHUNK // 30 = 546
        # nodes and a remainder
        ms = build_mode_set(params, n_max=15, n_theta=24, n_phi=32)
        n_nodes, per_chunk = ms.amp.shape[0], montecarlo.TRIG_CHUNK // (2 * 15)
        assert per_chunk < n_nodes < 2 * per_chunk
        runs = [empirical_energy_density(params, ms, n_seeds=9, seed=14, n_workers=k, tau=3.7)
                for k in (1, 2, 4)]
        for other in runs[1:]:
            for name in ("e2", "h2", "lab_e2", "lab_h2", "e2_err", "w", "w_err", "mixed"):
                assert np.array_equal(getattr(other, name), getattr(runs[0], name)), name

    def test_bit_identical_across_workers(self, params, modes):
        a = empirical_energy_density(params, modes, n_seeds=60, seed=3, n_workers=1)
        b = empirical_energy_density(params, modes, n_seeds=60, seed=3, n_workers=4)
        assert b.same_as(a)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(EmpiricalEnergyDensity)])
    def test_same_as_compares_every_field(self, params, name):
        est = empirical_energy_density(params, build_mode_set(params, n_max=2, n_theta=8,
                                                              n_phi=16), n_seeds=4, seed=1)
        value = getattr(est, name)
        other = dataclasses.replace(est, **{name: np.nextafter(value, np.inf)
                                            if isinstance(value, (float, np.ndarray))
                                            else value + 1})
        assert est.same_as(est) and not est.same_as(other)

    def test_determinism_check_sees_one_standard_error(self, monkeypatch):
        # a run that differs from the 1-worker run by one ulp of lab_h2_err
        # alone fails the check
        real = montecarlo.empirical_energy_density

        def skewed(*args, n_workers=1, **kwargs):
            est = real(*args, n_workers=n_workers, **kwargs)
            if n_workers == 1:
                return est
            return dataclasses.replace(est, lab_h2_err=np.nextafter(est.lab_h2_err, np.inf))

        monkeypatch.setattr(montecarlo, "empirical_energy_density", skewed)
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        ladder = montecarlo.build_mode_set(p, n_max=2, n_theta=8, n_phi=16)
        (row,) = validation.check_determinism(p, ladder, n_seeds=4)
        assert not row.passed
