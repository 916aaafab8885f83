import math

import numpy as np
import pytest

from oracles import scalar_bath_quadpack, scalar_lab_stress_diagonal
from rotvac import thermo
from rotvac.cf_discrete import rotation_temperature
from rotvac.constants import NATURAL, SI
from rotvac.kinematics import LuminalOrbitError, RotationParams
from rotvac.validation import check_em_energy_density
from rotvac.numerics import integrate_sphere
from rotvac.thermo import (CASIMIR_MODEL_C, casimir_force, em_anisotropy_factor,
                           em_energy_density, em_thermal_density_at,
                           em_thermal_density_quadrature, hadron_estimates,
                           scalar_bath_factor, scalar_bath_thermal_density,
                           scalar_energy_density,
                           scalar_thermal_density_quadrature, vacuum_force_density)

# frozen CODATA arithmetic for the hadron-scale checkpoint
HADRON_FORCE_GEV_PER_FERMI = -0.4652676198961045
HADRON_FORCE_NEWTON = -74544.0909154332
HADRON_T_ROT = 3.644464405648135e11
BLACKBODY_AT_3P4E11 = 1.011036170874618e31  # 4 sigma / c * (3.4e11 K)^4


class TestEmEnergyDensity:
    def test_static_limit(self):
        p = RotationParams(omega=0.0, radius=1.0, constants=SI)
        rep = em_energy_density(p, cutoff_n_max=10)
        assert rep.w_thermal == 0.0
        assert rep.anisotropy_factor == pytest.approx(2.0)
        assert rep.T_rot == 0.0

    def test_thermal_closed_form_vs_quadrature(self):
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        rep = em_energy_density(p, cutoff_n_max=5)
        assert em_thermal_density_quadrature(p) == pytest.approx(rep.w_thermal, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("const, omega", [(NATURAL, 1.0), (SI, 1.0e6)],
                             ids=["natural", "SI"])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.9, 0.999, 0.99999])
    def test_doppler_route_vs_closed_form(self, const, omega, beta):
        p = (RotationParams(omega, 0.0, const) if beta == 0.0
             else RotationParams.from_beta(omega, beta, const))
        # abs=0: the SI densities are about 1e-38, below approx's default abs
        assert em_thermal_density_quadrature(p) == pytest.approx(
            em_energy_density(p, cutoff_n_max=5).w_thermal, rel=1e-13, abs=0.0)

    def test_doppler_route_measures_the_factor(self, monkeypatch):
        # with the scalar's (4 g^2 - 1) / 3 in place of the EM factor, only the
        # closed form moves, so the check comparing the two routes must fail
        monkeypatch.setattr(thermo, "em_anisotropy_factor",
                            lambda params: (4.0 * params.gamma**2 - 1.0) / 3.0)
        rows = check_em_energy_density(n_seeds=2, n_theta=8, n_phi=16, n_max=1)
        row = next(r for r in rows if r.name == "em-thermal-closed-form")
        assert not row.passed
        assert row.measured == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_blackbody_arithmetic(self):
        # at T = 3.4e11 K the blackbody density is about 1.01e31 J/m^3
        assert 4.0 * SI.sigma / SI.c * (3.4e11) ** 4 == pytest.approx(
            BLACKBODY_AT_3P4E11, rel=1e-12, abs=0.0)

    def test_thermal_closed_identity(self):
        # w_thermal / (4 sigma T^4 / c) is exactly the anisotropy factor
        p = RotationParams.from_beta(10.0, 0.77, SI)
        rep = em_energy_density(p, cutoff_n_max=3)
        blackbody = 4.0 * SI.sigma / SI.c * rep.T_rot**4
        assert rep.w_thermal / blackbody == pytest.approx(
            em_anisotropy_factor(p), rel=1e-14, abs=0.0)

    def test_angular_moment_behind_factor(self):
        # int dO (1 - khat_i^2) = 8 pi / 3 for each axis
        for i in range(3):
            def integrand(k, i=i):
                return 1.0 - k[..., i] ** 2
            val, _ = integrate_sphere(integrand)
            assert val == pytest.approx(8.0 * math.pi / 3.0, rel=1e-10, abs=0.0)

    def test_cutoff_monotone(self):
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        w1 = em_energy_density(p, cutoff_n_max=8).w_zp_cutoff
        w2 = em_energy_density(p, cutoff_n_max=16).w_zp_cutoff
        assert w2 > w1

    def test_mixed_moment_cross_check(self):
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        rep = em_energy_density(p, cutoff_n_max=4)
        assert abs(rep.mixed_moment_residual) < 1e-12

    def test_total_is_sum(self):
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        rep = em_energy_density(p, cutoff_n_max=7)
        assert rep.w_total_cutoff == rep.w_zp_cutoff + rep.w_thermal

    def test_cutoff_validation(self):
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        with pytest.raises(ValueError):
            em_energy_density(p, cutoff_n_max=0)


class TestScalarEnergyDensity:
    def test_bath_ratio_identity(self):
        # the thermal density measured by sphere quadrature of the periodic
        # CF, over the bath reference, equals (4 gamma^2 - 1) / 3; it is also
        # the thermal part that scalar_energy_density reports
        for beta in (0.0, 0.3, 0.8):
            p = (RotationParams(1.0, 0.0, NATURAL) if beta == 0.0
                 else RotationParams.from_beta(1.0, beta, NATURAL))
            measured = scalar_thermal_density_quadrature(p)
            bath = scalar_bath_thermal_density(rotation_temperature(p), NATURAL)
            assert measured / bath == pytest.approx(scalar_bath_factor(p), rel=1e-12, abs=0.0)
            assert measured == pytest.approx(
                scalar_energy_density(p, cutoff_n_max=4).w_thermal, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("const, temperatures", [
        (NATURAL, (1e-3, 0.1, 1.0, 7.5, 1e3)),
        (SI, (2.7, 300.0, 1.0e6, 3.4e11)),
    ], ids=["natural", "SI"])
    def test_closed_bath_vs_quadpack(self, const, temperatures):
        for T in temperatures:
            assert scalar_bath_thermal_density(T, const) == pytest.approx(
                scalar_bath_quadpack(T, const), rel=1e-13, abs=0.0)
        assert scalar_bath_thermal_density(0.0, const) == 0.0

    @pytest.mark.parametrize("T", [-1.0, -1e-300, -math.inf, math.inf, math.nan])
    def test_bath_outside_its_domain_rejected(self, T):
        # the density is even in T, so a negative T would pass as its absolute value
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            scalar_bath_thermal_density(T, NATURAL)

    def test_static_limit(self):
        p = RotationParams(omega=0.0, radius=0.5, constants=NATURAL)
        rep = scalar_energy_density(p, cutoff_n_max=4)
        assert rep.w_thermal == 0.0

    def test_lab_stress_isotropy(self):
        p = RotationParams.from_beta(1.0, 0.4, NATURAL)
        t11, t22, t33, t44 = scalar_lab_stress_diagonal(p, cutoff_n_max=6)
        assert t11 == pytest.approx(t44 / 3.0, rel=1e-10, abs=0.0)
        assert t22 == pytest.approx(t44 / 3.0, rel=1e-10, abs=0.0)
        assert t33 == pytest.approx(t44 / 3.0, rel=1e-10, abs=0.0)

    def test_cutoff_monotone(self):
        p = RotationParams.from_beta(1.0, 0.4, NATURAL)
        assert (scalar_energy_density(p, 12).w_zp_cutoff
                > scalar_energy_density(p, 6).w_zp_cutoff)


class TestVacuumForce:
    def test_zero_at_center(self):
        p = RotationParams(omega=1.0e3, radius=0.0, constants=SI)
        assert vacuum_force_density(p, 0.0).f_vac == 0.0

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_matches_finite_difference(self, x):
        omega = 2.0e3
        r0 = SI.c / omega
        p = RotationParams(omega=omega, radius=0.0, constants=SI)
        r = x * r0
        h = 1e-6 * r0
        fd = -(em_thermal_density_at(omega, r + h) - em_thermal_density_at(omega, r - h)) / (2.0 * h)
        assert vacuum_force_density(p, r).f_vac == pytest.approx(fd, rel=1e-6, abs=0.0)

    def test_linear_small_radius_regime(self):
        omega = 2.0e3
        r0 = SI.c / omega
        p = RotationParams(omega=omega, radius=0.0, constants=SI)
        ratios = [vacuum_force_density(p, x * r0).f_vac / (x * r0)
                  for x in (1e-4, 2e-4)]
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-6, abs=0.0)

    def test_monotone_negative(self):
        omega = 2.0e3
        r0 = SI.c / omega
        p = RotationParams(omega=omega, radius=0.0, constants=SI)
        fs = [vacuum_force_density(p, x * r0).f_vac for x in np.linspace(0.01, 0.99, 50)]
        assert all(f < 0.0 for f in fs)
        assert all(b < a for a, b in zip(fs, fs[1:]))

    def test_luminal_orbit_rejected(self):
        omega = 2.0e3
        p = RotationParams(omega=omega, radius=0.0, constants=SI)
        with pytest.raises(LuminalOrbitError):
            vacuum_force_density(p, SI.c / omega)

    def test_sphere_force(self):
        omega = 2.0e3
        r0 = SI.c / omega
        p = RotationParams(omega=omega, radius=0.0, constants=SI)
        pt = vacuum_force_density(p, 0.5 * r0, sphere_radius=2.0)
        assert pt.F_sphere == pytest.approx(pt.f_vac * (4.0 / 3.0) * math.pi * 8.0, rel=1e-14, abs=0.0)


class TestCasimirModel:
    def test_repulsive_sign(self):
        res = casimir_force(1e-10)
        assert CASIMIR_MODEL_C < 0.0
        assert res.energy > 0.0
        assert res.force > 0.0  # opposite in direction to the vacuum force

    def test_energy_force_relation(self):
        a = 3.7e-9
        res = casimir_force(a)
        assert abs(res.force) == pytest.approx(abs(res.energy) / a, rel=1e-14, abs=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            casimir_force(0.0)


class TestHadronEstimates:
    def test_checkpoint_values(self):
        est = hadron_estimates(a_sphere=1e-18, r0=1e-15, x=1.0 - 1e-6)
        assert est.force_gev_per_fermi == pytest.approx(HADRON_FORCE_GEV_PER_FERMI, rel=1e-10, abs=0.0)
        assert est.force_newton == pytest.approx(HADRON_FORCE_NEWTON, rel=1e-10, abs=0.0)
        assert est.T_rot == pytest.approx(HADRON_T_ROT, rel=1e-10, abs=0.0)

    def test_compound_formula_consistency(self):
        # the printed compound form equals the force-density route exactly
        est = hadron_estimates(a_sphere=1e-18, r0=1e-15, x=0.5)
        direct = -est.x / (1.0 - est.x**2) ** 2 * est.prefactor_j_per_m
        assert est.force_newton == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_prefactor_value(self):
        est = hadron_estimates(a_sphere=1e-18, r0=1e-15, x=0.5)
        assert est.prefactor_j_per_m == pytest.approx(2.981763636855521e-07, rel=1e-12, abs=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            hadron_estimates(1e-18, 1e-15, 0.0)
        with pytest.raises(ValueError):
            hadron_estimates(1e-18, 1e-15, 1.0)
        with pytest.raises(ValueError):
            hadron_estimates(-1e-18, 1e-15, 0.5)
