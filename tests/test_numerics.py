import math

import numpy as np
import pytest

from rotvac.numerics import (QuadratureError, QuadratureSpec, SeriesError,
                             abel_plana_check, abel_sum, integrate_1d,
                             integrate_sphere, neville_to_zero)

# closed form of the p = 1 sine-power integral at k = 0.5 (rational value)
SINE_POWER_P1_K05 = 1624.0 / 405.0


class TestIntegrate1D:
    def test_sine_over_half_period(self):
        val, err = integrate_1d(math.sin, 0.0, math.pi)
        assert val == pytest.approx(2.0, rel=1e-12)
        assert err < 1e-8

    def test_full_period_cancellation(self):
        val, _ = integrate_1d(math.sin, 0.0, 2.0 * math.pi)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_peaked_rational_kernel(self):
        k = 0.5
        val, _ = integrate_1d(
            lambda th: math.sin(th) / (1.0 - k * k * math.sin(th) ** 2) ** 3.5,
            0.0, math.pi)
        assert val == pytest.approx(SINE_POWER_P1_K05, rel=1e-10)

    def test_semi_infinite_domain(self):
        def bose(u):
            return u**3 * math.exp(-u) / (1.0 - math.exp(-u)) if u > 0 else 0.0
        val, _ = integrate_1d(bose, 0.0, math.inf)
        assert val == pytest.approx(math.pi**4 / 15.0, rel=1e-10)

    def test_budget_exhaustion_carries_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14, max_subdivisions=2)
        with pytest.raises(QuadratureError) as exc:
            integrate_1d(lambda x: math.cos(200.0 * x * x), 0.0, 10.0, spec)
        assert exc.value.best_estimate is not None
        assert math.isfinite(exc.value.best_estimate)

    def test_error_estimates_conservative(self):
        # randomized smooth family with known antiderivatives
        rng = np.random.default_rng(42)
        hits = 0
        trials = 100
        for _ in range(trials):
            a, b, c = rng.uniform(0.5, 3.0, 3)
            exact = (-a / b * (math.cos(b * 2.0 + c) - math.cos(c))) + 8.0 / 3.0
            val, err = integrate_1d(lambda x: a * math.sin(b * x + c) + x * x, 0.0, 2.0)
            if abs(val - exact) <= max(err, 1e-15):
                hits += 1
        assert hits >= 95


class TestIntegrateSphere:
    def test_unit_function(self):
        val, _ = integrate_sphere(lambda th, ph: np.ones_like(th))
        assert val == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_odd_component_vanishes(self):
        val, _ = integrate_sphere(lambda th, ph: np.sin(th) * np.sin(ph))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_second_moment(self):
        val, _ = integrate_sphere(lambda th, ph: (np.sin(th) * np.cos(ph)) ** 2)
        assert val == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


class TestAbelSum:
    def test_cubic_alternating(self):
        res = abel_sum(lambda n: n**3 * np.cos(n * np.pi))
        assert res.regularization == "abel"
        assert res.value == pytest.approx(0.125, abs=1e-6)

    def test_linear_alternating(self):
        res = abel_sum(lambda n: n * np.cos(n * np.pi))
        assert res.value == pytest.approx(-0.25, abs=1e-8)

    def test_convergent_direct_equals_abel(self):
        direct = abel_sum(lambda n: n**3 * np.exp(-n), mode="direct")
        abel = abel_sum(lambda n: n**3 * np.exp(-n), mode="abel")
        assert direct.regularization == "direct"
        assert abel.value == pytest.approx(direct.value, rel=1e-10)

    def test_auto_prefers_direct(self):
        res = abel_sum(lambda n: n**3 * np.exp(-n))
        assert res.regularization == "direct"

    def test_direct_mode_rejects_divergent(self):
        with pytest.raises(SeriesError):
            abel_sum(lambda n: n**3 * np.cos(n * 1.0), mode="direct")

    def test_non_stabilizing_raises(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SeriesError):
                abel_sum(lambda n: np.exp(n), mode="abel")


class TestAbelPlana:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_cubic_exponential_family(self, s):
        assert abel_plana_check(lambda x: x**3 * np.exp(-s * x)) < 1e-8

    def test_pure_exponential(self):
        # direct sum is the geometric series 1 / (1 - e^-1)
        assert abel_plana_check(lambda x: np.exp(-x)) < 1e-10

    def test_zero_function(self):
        assert abel_plana_check(lambda x: 0.0 * np.asarray(x)) == 0.0


def test_neville_extrapolation_linear():
    xs = [0.4, 0.2, 0.1, 0.05]
    ys = [3.0 + 2.0 * x for x in xs]
    val, err = neville_to_zero(xs, ys)
    assert val == pytest.approx(3.0, rel=1e-12)
    assert err < 1e-10


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=bad)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=bad)
