import math

import numpy as np
import pytest
from scipy.special import polygamma

from oracles import (angular_weight_kernel_grid, cubic_ladder_partial_fraction,
                     delta_to_tau, em_cf_discrete_mp, ladder_phase, make_kernel,
                     scalar_cf_discrete_mp, thermal_ladder_quadpack)
from rotvac import cf_discrete as cfd
from rotvac.cf_continuous import (CoincidenceError, _lag, _scaled, em_cf_continuous,
                                  scalar_cf_quadrature)
from rotvac.cf_discrete import (ResonanceError, cubic_ladder_split,
                                cubic_ladder_sum_closed, em_cf_discrete,
                                linear_ladder_split,
                                linear_ladder_sum_closed, rotation_temperature,
                                scalar_cf_discrete, thermal_ladder_integral)
from rotvac.constants import NATURAL, SI
from rotvac.kinematics import RotationParams
from rotvac.numerics import abel_sum, integrate_sphere

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

    @pytest.mark.parametrize("phase", [1e78, -1e155, 1e300])
    @pytest.mark.parametrize("split", [cubic_ladder_split, linear_ladder_split])
    def test_huge_phase_is_resonance_error(self, split, phase):
        # the domain |phase| < 2 pi is checked before phase^4 or phase^2 can
        # overflow into Python's nameless OverflowError
        with pytest.raises(ResonanceError, match=r"needs \|phase\| < 2 pi"):
            split(phase)

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
        # on phase / 2 pi from -0.99 to 0.99 and at 0, at the arguments 1 + x
        # and the reduced 1 - x, x = |phase| / 2 pi
        phases = 2.0 * math.pi * np.append(np.linspace(-0.99, 0.99, 1981), 0.0)
        mag = np.abs(phases)
        one_minus_x = ((2.0 * math.pi - mag) + 2.4492935982947064e-16) / (2.0 * math.pi)
        ref = ((polygamma(p, 1.0 + mag / (2.0 * math.pi)) + polygamma(p, one_minus_x))
               / (2.0 * math.pi) ** (p + 1))
        assert np.array_equal(thermal_ladder_integral(phases, p), ref)
        assert all(thermal_ladder_integral(float(ph), p) == r for ph, r in zip(phases, ref))

    def test_keeps_its_digits_next_to_two_pi(self):
        # against the split of the closed sums, whose error there is under
        # 1e-15; 1 - x taken as 1 - |phase| / 2 pi would keep only 8 digits
        for mag in (2.0 * math.pi - 1e-6, 6.2831852, 6.283185245, 6.28318529, 6.2831853):
            for ph in (mag, -mag):
                assert thermal_ladder_integral(ph, 3) == pytest.approx(
                    cubic_ladder_sum_closed(ph) - 6.0 / ph**4, rel=2e-15)
                assert thermal_ladder_integral(ph, 1) == pytest.approx(
                    -linear_ladder_sum_closed(ph) - 1.0 / ph**2, rel=2e-15)

    def test_array_with_divergent_phase_raises(self):
        for bad in (2.0 * math.pi, -7.0):
            with pytest.raises(ResonanceError):
                thermal_ladder_integral(np.array([0.5, 1.0, bad]), p=3)

    @pytest.mark.parametrize("p", [2, 0, -1, 3.5, math.nan, math.inf])
    def test_power_other_than_odd_integer_rejected(self, p):
        # the polygamma form holds for odd integer powers only: a fraction
        # or a NaN would return a number
        with pytest.raises(ValueError, match="odd integers"):
            thermal_ladder_integral(1.0, p=p)

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

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.9])
    def test_integrands_are_the_printed_weight_and_phase(self, monkeypatch, beta):
        # the quadrature routes of the periodic CFs integrate the lab
        # kernel of the (1,1) EE rows (1 for the scalar) against the ladder at delta (1 - khat . chord), in
        # the lag frame at -s/2 and s/2, whatever the orbit phase the lag
        # starts from; that frame is the printed one, so the integrand at k
        # is (8 pi / 3) times the printed angular weight against the ladder
        # at the printed phase, both at k
        captured = []
        monkeypatch.setattr(cfd, "integrate_sphere",
                            lambda f, tol: captured.append(f) or (0.0, 0.0))
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        rng = np.random.default_rng(20261020)
        k = rng.normal(size=(64, 3))
        k /= np.linalg.norm(k, axis=1)[:, None]
        for tau1 in (0.0, 0.8):
            for delta in (0.3, 2.0, 4.0):
                em_cf_discrete(tau1, tau1 + delta_to_tau(p, delta), p, method="quadrature")
                scalar_cf_discrete(tau1, tau1 + delta_to_tau(p, delta), p, method="quadrature")
                em, scalar = captured
                captured.clear()
                phase = ladder_phase(delta, k[:, 1], p)
                weight = 8.0 * math.pi / 3.0 * angular_weight_kernel_grid(
                    k[:, 0], k[:, 1], delta, p)
                np.testing.assert_allclose(em(k), weight * cubic_ladder_sum_closed(phase),
                                           rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(scalar(k), linear_ladder_sum_closed(phase),
                                           rtol=1e-12, atol=0.0)


class TestEmDiscrete:
    @pytest.mark.parametrize("beta", [0.3, 0.9])
    def test_matches_printed_weight_route(self, beta):
        # 2 hbar omega^4 / (3 pi c^3) times the sphere integral of the printed
        # angular weight against the cubic ladder at the printed phase
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (1.0, 3.5):
            def printed(k):
                return (angular_weight_kernel_grid(k[..., 0], k[..., 1], delta, p)
                        * cubic_ladder_sum_closed(ladder_phase(delta, k[..., 1], p)))
            val, _ = integrate_sphere(printed)
            value = em_cf_discrete(0.0, delta_to_tau(p, delta), p).value
            assert value == pytest.approx(2.0 / (3.0 * math.pi) * val, rel=1e-11)

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

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.9, 0.99, 0.99999])
    def test_forty_digit_closed_form(self, beta):
        # at every orbit phase the lag starts from, against the closed form
        # of the float inputs to 40 digits (tests/oracles.py); next to
        # 2 pi Z the ladder magnifies the rounding of delta itself
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (0.05, 1.0, 3.5, 6.2):
            for phase in (0.0, 0.8, 5.3, 500.0):
                tau1 = delta_to_tau(p, phase)
                tau2 = tau1 + delta_to_tau(p, delta)
                exact = scalar_cf_discrete_mp(p, tau1, tau2)
                assert scalar_cf_discrete(tau1, tau2, p).value == pytest.approx(
                    exact, rel=1e-11, abs=0.0), (delta, phase)


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


# every field of the periodic closed form: 9 pairs x EE, HH, EH, and the scalar
PERIODIC_FIELDS = [((a, b), kind) for a in (1, 2, 3) for b in (1, 2, 3)
                   for kind in ("EE", "HH", "EH")] + [None]
PERIODIC_LAGS = (0.3, 1.0, 2.0, 3.5, 5.0, 6.0, -2.0, 7.5)


def _quadrature_tol(lag):
    """1e-14, or twice the sphere rule's conditioning floor where that is
    higher (beta 0.99 at lags below 2), so that the ladder quadrature is
    good to about 1e-13 next to 2 pi as well."""
    return max(1e-14, 8.0 * math.ulp(1.0) * abs(lag.n) / lag.gap)


class TestClosedForm:
    """The periodic CF as the sum of the continuous closed form over the
    images delta + 2 pi m of the lag, against the ladder over the sphere and
    the 40-digit image sums of tests/oracles.py."""

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.9, 0.99])
    def test_every_pair_and_kind_matches_the_ladder_quadrature(self, beta):
        # the closed form is within 1.2e-16 of em_cf_discrete_mp where the
        # quadrature is 6.4e-14 off (beta 0.99, lag 6, phase 2 pi - 3.8e-3)
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in PERIODIC_LAGS:
            tau2 = delta_to_tau(p, delta)
            size = abs(em_cf_discrete(0.0, tau2, p).value)
            for field in PERIODIC_FIELDS:
                lag = _lag(field, p, 0.0, tau2)
                closed = _scaled(p, lag, lag.delta ** (2 if field is None else 4)
                                 * cfd._periodic_closed_form(lag, p.beta), "closed form")
                quad = cfd._periodic(field, 0.0, tau2, p, "quadrature",
                                     _quadrature_tol(lag)).value
                scale = abs(quad) if field is None else size
                assert abs(closed - quad) <= 1e-13 * scale, (delta, field)

    @pytest.mark.parametrize("beta", [1e-6, 1e-4])
    def test_small_chords_take_the_series(self, beta):
        # w = 2 beta sin(delta / 2) is below 2e-4: sigma, tau1 and tau2 come
        # from their series in w^2, where the closed forms of the last two
        # would keep no digit
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in PERIODIC_LAGS:
            tau2 = delta_to_tau(p, delta)
            assert em_cf_discrete(0.0, tau2, p).value == pytest.approx(
                em_cf_discrete_mp((1, 1), p, 0.0, tau2), rel=1e-13, abs=0.0), delta
            assert scalar_cf_discrete(0.0, tau2, p).value == pytest.approx(
                scalar_cf_discrete_mp(p, 0.0, tau2), rel=1e-13, abs=0.0), delta

    @pytest.mark.parametrize("one_minus_beta", [10.0**-e for e in range(6, 12)])
    def test_near_luminal_digits(self, one_minus_beta):
        # delta - w is delta gap at the image m = 0, as in the continuous
        # closed form, so 1 - n keeps its digits where it is 1e-11
        p = RotationParams.from_beta(1.0, 1.0 - one_minus_beta, NATURAL)
        for delta in (1e-4, 1e-3, 0.01, 0.1, 1.0, 3.0):
            tau2 = delta_to_tau(p, delta)
            assert em_cf_discrete(0.0, tau2, p).value == pytest.approx(
                em_cf_discrete_mp((1, 1), p, 0.0, tau2), rel=1e-13, abs=0.0), delta
            assert scalar_cf_discrete(0.0, tau2, p).value == pytest.approx(
                scalar_cf_discrete_mp(p, 0.0, tau2), rel=1e-13, abs=0.0), delta

    @pytest.mark.parametrize("one_minus_beta", [1e-9, 1e-10, 1e-11])
    def test_no_false_resonance_at_small_lags(self, one_minus_beta):
        # delta - 2 beta sin(delta / 2) is about 4e-11 at delta 1e-3, inside
        # RESONANCE_TOL, but it is the m = 0 image's distance to its light
        # cone, the coincidence, and the CF is finite; the ladder quadrature
        # keeps the check of its phase range and still refuses the lag at a
        # tol above its conditioning floor (2.1e-8 here)
        p = RotationParams.from_beta(1.0, 1.0 - one_minus_beta, NATURAL)
        tau2 = delta_to_tau(p, 1e-3)
        value = em_cf_discrete(0.0, tau2, p).value
        assert value == pytest.approx(em_cf_discrete_mp((1, 1), p, 0.0, tau2), rel=1e-13,
                                      abs=0.0)
        with pytest.raises(ResonanceError, match="meets the resonance manifold"):
            em_cf_discrete(0.0, tau2, p, 1e-6, method="quadrature")

    @pytest.mark.parametrize("delta", [1.0, 1000.5, 1e6 + 0.5])
    def test_large_lags_keep_their_digits(self, delta):
        # the closed form reads the lag through its exact reduction mod 2 pi
        # and sin(delta / 2), so it loses nothing in proportion to the lag;
        # the oracles take the package's float lag, whose own rounding, up to
        # eps delta (8e-11 at 1e6), no route can undo
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        tau2 = delta_to_tau(p, delta)
        lag = p.alpha(tau2)
        assert scalar_cf_discrete(0.0, tau2, p).value == pytest.approx(
            scalar_cf_discrete_mp(p, 0.0, tau2, delta=lag), rel=1e-13, abs=0.0)
        assert em_cf_discrete(0.0, tau2, p).value == pytest.approx(
            em_cf_discrete_mp((1, 1), p, 0.0, tau2, delta=lag), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.9, 0.99, 0.999])
    def test_thermal_part_matches_the_ladder_quadrature(self, beta):
        # the images m != 0 summed as they stand, against the sphere integral
        # of the thermal ladder, wherever |phase| < 2 pi; the zero-point
        # parts are the same continuous closed form
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (1e-3, 0.3, 1.0, 2.0, 3.1, 3.2, 5.0, -2.0, -4.0):
            tau2 = delta_to_tau(p, delta)
            for cf, field in ((em_cf_discrete, ((1, 1), "EE")), (scalar_cf_discrete, None)):
                value, parts = cf(0.0, tau2, p, split=True)
                _, quad = cf(0.0, tau2, p, _quadrature_tol(_lag(field, p, 0.0, tau2)),
                             split=True, method="quadrature")
                assert parts.thermal_part == pytest.approx(quad.thermal_part, rel=1e-12,
                                                           abs=0.0), (delta, field)
                assert parts.zero_point_part == quad.zero_point_part
                assert parts.total == pytest.approx(value.value, rel=1e-14, abs=0.0)

    def test_unknown_method_is_a_value_error(self):
        p = RotationParams.from_beta(1.0, 0.3, NATURAL)
        for cf in (em_cf_discrete, scalar_cf_discrete):
            with pytest.raises(ValueError, match="unknown method 'ladder'"):
                cf(0.0, 1.0, p, method="ladder")
