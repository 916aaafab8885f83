import math

import numpy as np
import pytest
from scipy.special import polygamma

from conftest import delta_to_tau
from oracles import (cubic_ladder_partial_fraction, make_kernel,
                     thermal_ladder_quadpack)
from rotvac.cf_continuous import (CoincidenceError, em_cf_continuous,
                                  scalar_cf_quadrature)
from rotvac.cf_discrete import (ResonanceError, cubic_ladder_split,
                                cubic_ladder_sum_closed, em_cf_discrete,
                                ladder_phase, linear_ladder_split,
                                linear_ladder_sum_closed, rotation_temperature,
                                scalar_cf_discrete, thermal_ladder_integral)
from rotvac.constants import NATURAL, SI
from rotvac.kinematics import RotationParams
from rotvac.numerics import abel_sum

# frozen CODATA arithmetic: hbar / (2 pi k_B) and the r0 = 1 fm orbit
T_ROT_AT_UNIT_OMEGA = 1.215662471951891e-12   # K s
T_ROT_AT_PROTON_SCALE = 3.644464405648135e11  # K


class TestRotationTemperature:
    def test_unit_angular_velocity(self):
        p = RotationParams(omega=1.0, radius=0.0, constants=SI)
        assert rotation_temperature(p) == pytest.approx(T_ROT_AT_UNIT_OMEGA, rel=1e-12)

    def test_proton_scale(self):
        p = RotationParams(omega=SI.c / 1e-15, radius=0.0, constants=SI)
        assert rotation_temperature(p) == pytest.approx(T_ROT_AT_PROTON_SCALE, rel=1e-12)

    def test_static_limit(self):
        p = RotationParams(omega=0.0, radius=1.0, constants=SI)
        assert rotation_temperature(p) == 0.0


class TestLadderSums:
    def test_cubic_at_half_period(self):
        assert cubic_ladder_sum_closed(math.pi) == pytest.approx(0.125, rel=1e-15)

    def test_cubic_at_third_period(self):
        assert cubic_ladder_sum_closed(2.0 * math.pi / 3.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_linear_at_half_period(self):
        assert linear_ladder_sum_closed(math.pi) == pytest.approx(-0.25, rel=1e-15)

    @pytest.mark.parametrize("phase,target", [(math.pi, 0.125), (2.0 * math.pi / 3.0, 1.0 / 3.0)])
    def test_cubic_vs_abel_oracle(self, phase, target):
        oracle = abel_sum(lambda n: n**3 * np.cos(n * phase))
        assert oracle.value == pytest.approx(cubic_ladder_sum_closed(phase), abs=1e-6)
        assert cubic_ladder_sum_closed(phase) == pytest.approx(target, rel=1e-12)

    def test_linear_vs_abel_oracle(self):
        oracle = abel_sum(lambda n: n * np.cos(n * math.pi))
        assert oracle.value == pytest.approx(linear_ladder_sum_closed(math.pi), abs=1e-8)

    def test_small_phase_leading_term(self):
        # S * phase^4 -> 6 as phase -> 0 (zero-point dominance)
        ph = 1e-2
        assert cubic_ladder_sum_closed(ph) * ph**4 == pytest.approx(6.0, rel=1e-9)

    def test_partial_fraction_route(self):
        for ph in (0.5, 1.0, 2.5):
            assert cubic_ladder_partial_fraction(ph, 10000) == pytest.approx(
                cubic_ladder_sum_closed(ph), rel=1e-8)

    def test_resonance_raises(self):
        for ph in (0.0, 2.0 * math.pi, -4.0 * math.pi):
            with pytest.raises(ResonanceError):
                cubic_ladder_sum_closed(ph)
            with pytest.raises(ResonanceError):
                linear_ladder_sum_closed(ph)

    def test_periodicity(self):
        for ph in (0.7, 2.0, 5.5):
            assert cubic_ladder_sum_closed(ph + 2.0 * math.pi) == pytest.approx(
                cubic_ladder_sum_closed(ph), rel=1e-12)


class TestNoSilentNonFinite:
    """Each ladder closed form and split either answers finitely or raises a
    typed error, at non-finite phases and where the zero-point part diverges."""

    @pytest.mark.parametrize("f, phase", [
        *[(f, ph) for f in (cubic_ladder_sum_closed, linear_ladder_sum_closed)
          for ph in (math.nan, math.inf, -math.inf, np.array([1.0, math.nan]))],
        (thermal_ladder_integral, math.nan),
        (thermal_ladder_integral, np.array([0.5, math.nan])),
        *[(f, ph) for f in (cubic_ladder_split, linear_ladder_split)
          for ph in (0.0, np.float64(0.0), 1e-200, math.nan, math.inf)],
    ], ids=lambda v: getattr(v, "__name__", None)
       or f"{type(v).__name__}({np.asarray(v).tolist()})".replace(" ", ""))
    def test_raises_resonance_error(self, f, phase):
        with pytest.raises(ResonanceError):
            f(phase)


class TestThermalSplit:
    @pytest.mark.parametrize("phase", [1e-3, 0.5, 1.0, 2.0, math.pi, 4.0, 5.0, 6.0])
    def test_cubic_total_matches_closed(self, phase):
        split = cubic_ladder_split(phase)
        assert split.total == pytest.approx(cubic_ladder_sum_closed(phase), rel=1e-8)

    def test_thermal_low_phase_limit(self):
        # cosh -> 1: the pure Bose integral 2 Gamma(4) zeta(4) / (2 pi)^4
        assert thermal_ladder_integral(0.0, p=3) == pytest.approx(1.0 / 120.0, rel=1e-10)

    def test_divergence_guard(self):
        with pytest.raises(ResonanceError):
            thermal_ladder_integral(2.0 * math.pi, p=3)
        with pytest.raises(ResonanceError):
            cubic_ladder_split(6.5)

    @pytest.mark.parametrize("phase", [1e-3, 0.5, 2.0, math.pi, 5.0])
    def test_linear_total_matches_closed(self, phase):
        split = linear_ladder_split(phase)
        assert split.total == pytest.approx(linear_ladder_sum_closed(phase), rel=1e-8)

    @pytest.mark.parametrize("p", [1, 3])
    def test_closed_form_matches_quadpack_oracle(self, p):
        mags = np.concatenate([np.logspace(-6, 0, 7), np.linspace(1.5, 6.0, 10), [6.2]])
        for ph in np.concatenate([[0.0], mags, -mags]):
            assert thermal_ladder_integral(float(ph), p) == pytest.approx(
                thermal_ladder_quadpack(float(ph), p), rel=1e-13)

    @pytest.mark.parametrize("p", [1, 3])
    def test_array_call_matches_scalar_calls(self, p):
        phases = np.linspace(-6.2, 6.2, 12).reshape(3, 4)
        out = thermal_ladder_integral(phases, p)
        assert isinstance(thermal_ladder_integral(1.0, p), float)
        assert out.shape == phases.shape
        assert all(out[i] == thermal_ladder_integral(float(phases[i]), p)
                   for i in np.ndindex(phases.shape))

    @pytest.mark.parametrize("p", [1, 3])
    def test_bit_identical_to_polygamma(self, p):
        # the zeta form is the one scipy's polygamma evaluates, term for term,
        # on phase / 2 pi from -0.99 to 0.99 and at 0
        phases = 2.0 * math.pi * np.append(np.linspace(-0.99, 0.99, 1981), 0.0)
        x = phases / (2.0 * math.pi)
        ref = (polygamma(p, 1.0 + x) + polygamma(p, 1.0 - x)) / (2.0 * math.pi) ** (p + 1)
        assert np.array_equal(thermal_ladder_integral(phases, p), ref)
        assert all(thermal_ladder_integral(float(ph), p) == r for ph, r in zip(phases, ref))

    def test_array_with_divergent_phase_raises(self):
        for bad in (2.0 * math.pi, -7.0):
            with pytest.raises(ResonanceError):
                thermal_ladder_integral(np.array([0.5, 1.0, bad]), p=3)

    def test_even_power_rejected(self):
        # the polygamma form holds for odd powers only
        with pytest.raises(ValueError):
            thermal_ladder_integral(1.0, p=2)

    def test_linear_parts_signs(self):
        split = linear_ladder_split(2.0)
        assert split.zero_point_part < 0.0
        assert split.thermal_part < 0.0


class TestPlanckStructure:
    def test_rotation_vs_planck_weights(self):
        # the Planck exponent hbar w / k_B T_rot is the ladder weight's 2 pi w / omega
        p = RotationParams.from_beta(250.0, 0.4, SI)
        T = rotation_temperature(p)
        w = np.linspace(0.3, 9.0, 25) * p.omega
        x = SI.hbar * w / (SI.k_B * T)
        assert np.max(np.abs(x / (2.0 * math.pi * w / p.omega) - 1.0)) < 1e-12

    def test_coincidence_matches_rest_frame_integrand(self):
        # at phase 0 the thermal integrals are the rest-frame Planck ones,
        # 2 p! zeta(p + 1) / (2 pi)^(p + 1)
        assert thermal_ladder_integral(0.0, 3) == pytest.approx(1.0 / 120.0, rel=1e-14)
        assert thermal_ladder_integral(0.0, 1) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_zero_point_integrand_on_axis_plane(self):
        # with ky = 0 the phase is the angular lag for any beta, so the
        # zero-point part is the rest-frame 6 / delta^4
        p = RotationParams.from_beta(1.0, 0.8, NATURAL)
        delta = 1.1
        ph = float(ladder_phase(delta, 0.0, p))
        assert ph == delta
        assert cubic_ladder_split(ph).zero_point_part == pytest.approx(6.0 / delta**4,
                                                                       rel=1e-15)


class TestKernel:
    def test_phase_and_lag_bookkeeping(self):
        p = RotationParams.from_beta(2.0, 0.5, NATURAL)
        kern = make_kernel(1.2, 0.3, p)
        assert kern.phase == pytest.approx(1.2 - 2.0 * 0.5 * 0.3 * math.sin(0.6), rel=1e-14)
        assert kern.phase == pytest.approx(kern.omega0 * kern.time_lag, rel=1e-14)
        assert kern.k0 == pytest.approx(p.omega / p.constants.c, rel=1e-15)

    def test_vectorized_phase(self):
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        ky = np.array([-1.0, 0.0, 1.0])
        ph = ladder_phase(2.0, ky, p)
        assert ph[1] == pytest.approx(2.0)
        assert ph[0] > ph[1] > ph[2]


class TestEmDiscrete:
    def test_periodic_under_full_turns(self):
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        base = em_cf_discrete(0.0, delta_to_tau(p, math.pi / 2.0), p)
        for n in (1, 2):
            shifted = em_cf_discrete(
                0.0, delta_to_tau(p, math.pi / 2.0 + 2.0 * math.pi * n), p)
            assert shifted.value == pytest.approx(base.value, rel=1e-10)

    def test_split_parts_sum_to_total(self):
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        cf, parts = em_cf_discrete(0.0, delta_to_tau(p, math.pi / 2.0), p, split=True)
        assert parts.total == pytest.approx(cf.value, rel=1e-6)
        assert parts.thermal_part > 0.0

    @pytest.mark.parametrize("beta", [0.999, 0.99999])
    @pytest.mark.parametrize("delta", [0.1, 1.0])
    def test_near_luminal_split_sums_to_total(self, beta, delta):
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        cf, parts = em_cf_discrete(0.0, delta_to_tau(p, delta), p, split=True)
        assert parts.total == pytest.approx(cf.value, rel=1e-11)

    def test_resonant_lag_rejected(self):
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        with pytest.raises(ResonanceError):
            em_cf_discrete(0.0, delta_to_tau(p, 2.0 * math.pi), p)

    @pytest.mark.parametrize("beta, offset", [(0.3, 1e-10), (0.999999, 1e-5),
                                              (0.999999, -1e-6)])
    def test_lags_within_tolerance_of_resonance_rejected_up_front(self, beta, offset):
        # the phase range [lag - half, lag + half] comes within RESONANCE_TOL
        # of 2 pi without containing it, or contains it near k_y = -1 / beta
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for cf in (em_cf_discrete, scalar_cf_discrete):
            with pytest.raises(ResonanceError, match="meets the resonance manifold"):
                cf(0.0, delta_to_tau(p, 2.0 * math.pi + offset), p)

    def test_no_interior_crossing_for_subluminal_orbits(self):
        # |phase - 2 pi m| >= |lag - 2 pi m| - 2 beta |sin(lag/2)| > 0 off the
        # exact resonant lags, because 2 |sin(e/2)| < |e|; nearby lags must
        # therefore evaluate cleanly even at high beta
        p = RotationParams.from_beta(1.0, 0.9, NATURAL)
        for delta in (2.0 * math.pi - 0.05, 2.0 * math.pi + 0.05):
            cf = em_cf_discrete(0.0, delta_to_tau(p, delta), p)
            assert math.isfinite(cf.value)

    def test_split_domain_guard(self):
        # the thermal integral only converges while |phase| < 2 pi everywhere
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        with pytest.raises(ResonanceError):
            em_cf_discrete(0.0, delta_to_tau(p, 7.0), p, split=True)

    def test_coincidence_guard(self):
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        with pytest.raises(CoincidenceError):
            em_cf_discrete(0.3, 0.3, p)


class TestScalarDiscrete:
    def test_periodicity(self):
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        base = scalar_cf_discrete(0.0, delta_to_tau(p, 1.0), p)
        shifted = scalar_cf_discrete(0.0, delta_to_tau(p, 1.0 + 2.0 * math.pi), p)
        assert shifted.value == pytest.approx(base.value, rel=1e-10)

    def test_split_parts(self):
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        cf, parts = scalar_cf_discrete(0.0, delta_to_tau(p, 1.0), p, split=True)
        assert parts.total == pytest.approx(cf.value, rel=1e-6)
        assert parts.zero_point_part < 0.0
        assert parts.thermal_part < 0.0

    def test_static_limit_reduces_to_uniform_kernel(self):
        # beta -> 0: phase loses its direction dependence, so the CF equals
        # the closed ladder value times the full solid angle
        p = RotationParams(omega=1.0, radius=0.0, constants=NATURAL)
        delta = 1.0
        cf = scalar_cf_discrete(0.0, delta_to_tau(p, delta), p)
        k0 = p.omega / p.constants.c
        expect = (p.constants.hbar * p.constants.c * k0**2 / (4.0 * math.pi**2)
                  * 4.0 * math.pi * linear_ladder_sum_closed(delta))
        assert cf.value == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("const", [NATURAL, SI], ids=["natural", "SI"])
@pytest.mark.parametrize("beta", [0.3, 0.9, 0.999, 0.99999])
@pytest.mark.parametrize("delta", [0.1, 1.0, 2.5])
def test_split_zero_point_is_continuous_quadrature(const, beta, delta):
    # the split takes its zero point from the continuous closed forms; the
    # sphere integrals of the regularized 6/phase^4 and -1/phase^2 stay their
    # cross-check (SI values ~1e-48, hence abs=0)
    p = RotationParams.from_beta(1.0, beta, const)
    tau2 = delta_to_tau(p, delta)
    _, em = em_cf_discrete(0.0, tau2, p, split=True)
    em_quad = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "quadrature").value
    assert em.zero_point_part == pytest.approx(em_quad, rel=1e-12, abs=0.0)
    _, scalar = scalar_cf_discrete(0.0, tau2, p, split=True)
    assert scalar.zero_point_part == pytest.approx(scalar_cf_quadrature(0.0, tau2, p).value,
                                                   rel=1e-12, abs=0.0)
