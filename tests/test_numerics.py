import math
import signal

import numpy as np
import pytest

from oracles import abel_stops, abel_sums_per_eta, abel_weights_compensated
from rotvac import numerics
from rotvac.cf_discrete import cubic_ladder_sum_closed, linear_ladder_sum_closed
from rotvac.numerics import (ABEL_ETA_GRID, QuadratureError, SeriesError,
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
        # 2,000 subintervals do not resolve cos(200 x^2) on [0, 10]
        with pytest.raises(QuadratureError) as exc:
            integrate_1d(lambda x: math.cos(200.0 * x * x), 0.0, 10.0)
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


# rule axes: the default (y) and a tilted one, both in the xy plane
AXES = [(0.0, 1.0, 0.0), (math.cos(0.7), math.sin(0.7), 0.0)]


def peaked_integral(k):
    """Exact integral of (1 + k u)^-4 over the sphere, u = khat . n."""
    return 2.0 * math.pi * ((1.0 - k) ** -3 - (1.0 + k) ** -3) / (3.0 * k)


def _count_calls(monkeypatch, module):
    """Route module's integrate_sphere through a wrapper that records the
    node array of every integrand call; returns that list."""
    seen = []

    def counting(f, *args, **kwargs):
        def wrapped(k):
            seen.append(k)
            return f(k)
        return integrate_sphere(wrapped, *args, **kwargs)

    monkeypatch.setattr(module, "integrate_sphere", counting)
    return seen


class TestIntegrateSphere:
    @pytest.mark.parametrize("f", [
        lambda k: np.where(k[..., 0] > 0.999, math.nan, 1.0),
        lambda k: np.full(k.shape[:-1], math.inf),
        lambda k: np.where(k[..., 2] > 0.0, -math.inf, 1.0),
    ], ids=["nan-where-kx-above-0.999", "inf", "-inf-on-a-half"])
    def test_non_finite_integrand_raises_at_once(self, f):
        # such integrands once made err NaN, so that no test refined the grid
        # and the node budget never tripped: a hang
        def expired(signum, frame):
            raise TimeoutError("integrate_sphere did not return within 10 s")
        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(10)
        try:
            with pytest.raises(QuadratureError, match="not finite"):
                integrate_sphere(f)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_unit_function(self):
        val, _ = integrate_sphere(lambda k: np.ones(k.shape[:-1]))
        assert val == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_odd_component_vanishes(self):
        val, _ = integrate_sphere(lambda k: k[..., 1])
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_second_moment(self):
        val, _ = integrate_sphere(lambda k: k[..., 0] ** 2)
        assert val == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_moments_about_tilted_axis(self):
        val, _ = integrate_sphere(lambda k: np.ones(k.shape[:-1]), axis=AXES[1])
        assert val == pytest.approx(4.0 * math.pi, rel=1e-12)
        val, _ = integrate_sphere(lambda k: k[..., 1], axis=AXES[1])
        assert val == pytest.approx(0.0, abs=1e-12)
        val, _ = integrate_sphere(lambda k: k[..., 0] ** 2, axis=AXES[1])
        assert val == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    @pytest.mark.parametrize("axis", AXES)
    def test_near_luminal_peak_on_axis(self, axis):
        # (1 + k u)^-4 peaks at u = 1 with width 1 - |k| = 1e-5.  The node u
        # itself carries a rounding of eps near |u| = 1, which the peak
        # amplifies to 4 eps / (1 - |k|) = 4.4e-11 relative: the bound below
        # is that conditioning, not the rule's discretization error
        k = -0.99999
        n = np.array(axis)
        val, _ = integrate_sphere(lambda kh: (1.0 + k * (kh @ n)) ** -4, axis=axis)
        assert val == pytest.approx(peaked_integral(k), rel=1e-10)

    @pytest.mark.parametrize("axis", AXES)
    def test_odd_in_kz_cancels_to_roundoff(self, axis):
        # about an in-plane axis the nodes pair exactly under k_z -> -k_z, so
        # every level cancels to roundoff however poorly the peak on n is
        # resolved
        k, n = -0.99999, np.array(AXES[1])
        levels = []

        def odd(kh):
            levels.append(kh.reshape(-1, 3))
            return kh[..., 2] * (1.0 + k * (kh @ n)) ** -4

        val, err = integrate_sphere(odd, axis=axis)
        floor = 100.0 * np.finfo(float).eps * peaked_integral(k)
        assert abs(val) <= floor
        assert err <= floor
        for nodes in levels:
            mirrored = nodes * [1.0, 1.0, -1.0]
            assert np.array_equal(nodes[np.lexsort(nodes.T)],
                                  mirrored[np.lexsort(mirrored.T)])

    def test_t_levels_are_the_interleaved_grid(self):
        # every memoised level is read-only and equals the grid that halving
        # the step and interleaving the new nodes builds, with du/dt on the
        # whole grid and u = tanh x, s = sech x on the new nodes alone,
        # x = pi/2 sinh t
        h = numerics.SPHERE_H0 / 2
        n = round(numerics.SPHERE_T_MAX / h)
        t = np.arange(-n, n + 1) * h
        x = 0.5 * np.pi * np.sinh(t)
        u, s = np.tanh(x), 1.0 / np.cosh(x)
        for _ in range(10):
            w = 0.5 * np.pi * np.cosh(t) / np.cosh(0.5 * np.pi * np.sinh(t)) ** 2
            level = numerics._t_level(h)
            for got, want in zip(level, (t, w, u, s)):
                assert not got.flags.writeable
                assert np.array_equal(got, want)
            h /= 2
            mid = t[:-1] + h
            x = 0.5 * np.pi * np.sinh(mid)
            t = numerics._interleave(t, mid, 0)
            u = numerics._interleave(u, np.tanh(x), 0)
            s = numerics._interleave(s, 1.0 / np.cosh(x), 0)

    def test_stationary_bracket_node_count(self, monkeypatch):
        # the (1,1) bracket is a trig polynomial of degree 2 in the azimuth,
        # and the start grid of 129 u nodes by 8 azimuths (t step 1/16)
        # already meets the tolerance: one integrand call of 1,032 nodes,
        # where starting at step 1/4 took 3 calls and refining both
        # directions together, each level afresh, took 5,500 nodes
        from rotvac import cf_continuous as cfc
        from rotvac.constants import NATURAL
        from rotvac.kinematics import RotationParams

        seen = _count_calls(monkeypatch, cfc)
        params = RotationParams.from_beta(1.0, 0.3, NATURAL)
        cfc.em_cf_continuous((1, 1), "EE", 0.0, 1.0 / params.gamma, params, "quadrature")
        assert [k.shape for k in seen] == [(129, 8, 3)]

    @pytest.mark.parametrize("route", ["scalar", "discrete"])
    def test_stationary_routes_take_one_call(self, monkeypatch, route):
        # the scalar and the discrete-spectrum values at beta 0.3 converge on
        # the start grid as well
        from oracles import delta_to_tau
        from rotvac import cf_continuous as cfc, cf_discrete as cfd
        from rotvac.constants import NATURAL
        from rotvac.kinematics import RotationParams

        params = RotationParams.from_beta(1.0, 0.3, NATURAL)
        tau2 = delta_to_tau(params, 1.0)
        if route == "scalar":
            seen = _count_calls(monkeypatch, cfc)
            cfc.scalar_cf_quadrature(0.0, tau2, params)
        else:
            seen = _count_calls(monkeypatch, cfd)
            cfd.em_cf_discrete(0.0, tau2, params)
        assert [k.shape for k in seen] == [(129, 8, 3)]

    def test_azimuth_error_does_not_refine_t(self):
        # k_z^4 has degree 4 in the azimuth, which the 4 azimuths of err_psi's
        # subset miss, and is smooth in u: err_t compares t levels at all
        # azimuths, so only the azimuths double, at the same 129 u nodes
        seen = []

        def kz4(k):
            seen.append(k)
            return k[..., 2] ** 4

        val, _ = integrate_sphere(kz4)
        assert val == pytest.approx(4.0 * math.pi / 5.0, rel=1e-12)
        assert [k.shape for k in seen] == [(129, 8, 3), (129, 8, 3)]
        assert np.array_equal(seen[0][:, 0, 1], seen[1][:, 0, 1])   # same u nodes
        nodes = np.concatenate(seen).reshape(-1, 3)
        assert len(np.unique(nodes, axis=0)) == len(nodes)

    @pytest.mark.parametrize("axis", AXES)
    def test_azimuth_dependent_integrands(self, axis):
        # neither integrand is a low trig polynomial in the azimuth about the
        # rule's axis, so the azimuth refinement must engage to reach them
        azimuths = set()

        def record(k):
            e1 = np.array([axis[1], -axis[0], 0.0]) / np.hypot(*axis[:2])
            azimuths.update(np.round(np.arctan2(k[..., 2], k @ e1), 12).ravel())

        def exp_kz(k):
            record(k)
            return np.exp(3.0 * k[..., 2])

        val, _ = integrate_sphere(exp_kz, axis=axis)
        assert val == pytest.approx(4.0 * math.pi * math.sinh(3.0) / 3.0, rel=1e-10)
        assert len(azimuths) > 8
        n = np.array([0.6, 0.0, 0.8])   # off the xy plane, so off every rule axis
        azimuths.clear()

        def off_axis_peak(k):
            record(k)
            return (1.0 - 0.9 * (k @ n)) ** -4

        val, _ = integrate_sphere(off_axis_peak, axis=axis)
        assert val == pytest.approx(peaked_integral(-0.9), rel=1e-10)
        assert len(azimuths) > 8

    def test_node_budget_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "SPHERE_MAX_NODES", 64)
        with pytest.raises(QuadratureError) as exc:
            integrate_sphere(lambda kh: (1.0 - 0.99 * kh[..., 1]) ** -4)
        assert math.isfinite(exc.value.best_estimate)
        assert math.isfinite(exc.value.error_estimate)

    def test_budget_below_start_grid_allows_no_refinement(self, monkeypatch):
        # the start grid has 1,032 nodes, so below a budget of 64 x 17 =
        # 1,088 nodes an integrand that needs more azimuths raises
        def kz4(k):
            return k[..., 2] ** 4

        monkeypatch.setattr(numerics, "SPHERE_MAX_NODES", 64 * 16)
        with pytest.raises(QuadratureError):
            integrate_sphere(kz4)
        monkeypatch.setattr(numerics, "SPHERE_MAX_NODES", 64 * 17)
        val, _ = integrate_sphere(kz4)
        assert val == pytest.approx(4.0 * math.pi / 5.0, rel=1e-12)

    def test_axis_whose_norm_underflows(self):
        # the norm of the axis is taken without squaring its components
        def f(k):
            return (1.0 + 0.9 * (k @ [0.6, -0.8, 0.0])) ** -4
        unit, _ = integrate_sphere(f, axis=(0.6, -0.8, 0.0))
        val, _ = integrate_sphere(f, axis=(3e-300, -4e-300, 0.0))
        assert val == pytest.approx(unit, rel=1e-14)
        # a subnormal axis carries fewer digits, so its rule is off the peak
        val, _ = integrate_sphere(f, axis=(1.5e-311, -2e-311, 0.0))
        assert val == pytest.approx(unit, rel=1e-10)

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 0.0), (1.0, math.nan, 0.0), (1.0, 0.0),
                                      (0.0, 0.0, 1.0), (math.inf, 0.0, 0.0),
                                      (1e-320, 0.0, 1e-320)])
    def test_bad_axis_rejected(self, axis):
        with pytest.raises(ValueError):
            integrate_sphere(lambda k: k[..., 0], axis=axis)


class TestAbelSum:
    def test_cubic_alternating(self):
        res = abel_sum(lambda n: n**3 * np.cos(n * np.pi))
        assert res.value == pytest.approx(0.125, abs=1e-6)

    def test_linear_alternating(self):
        res = abel_sum(lambda n: n * np.cos(n * np.pi))
        assert res.value == pytest.approx(-0.25, abs=1e-8)

    def test_convergent_direct_equals_abel(self):
        # a convergent series: its Abel value is its ordinary sum, whose
        # terms beyond n = 100 are below 1e-37
        n = np.arange(1, 101, dtype=float)
        direct = float(np.sum(n**3 * np.exp(-n)))
        abel = abel_sum(lambda n: n**3 * np.exp(-n))
        assert abel.value == pytest.approx(direct, rel=1e-10)

    def test_terms_evaluated_once_per_route(self):
        # once for the whole eta grid
        calls = []

        def terms(n):
            calls.append(len(n))
            return n**3 * np.cos(n * 2.0)

        abel_sum(terms)
        assert len(calls) == 1

    def test_exp_elements_per_call(self, monkeypatch):
        # cold: two ladders of about sqrt(stop) exponentials per eta; one
        # 80-bit exp per term and eta would pass sum(stops) = 56,851 elements.
        # Warm: the weights are memoised, so a second call takes no exp
        numerics._abel_table.cache_clear()
        counted = []
        exp = np.exp

        def counting_exp(x, *args, **kwargs):
            x = np.asarray(x)
            if x.dtype == np.longdouble:
                counted.append(x.size)
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counting_exp)
        abel_sum(lambda n: n**3 * np.cos(n * 2.0))
        assert 0 < sum(counted) <= 4096
        assert len(counted) == 2 * len(ABEL_ETA_GRID)
        counted.clear()
        abel_sum(lambda n: n**3 * np.cos(n * 2.0))
        assert sum(counted) == 0

    @pytest.mark.parametrize("p", [3, 1], ids=["cubic", "linear"])
    def test_cold_and_warm_table_agree(self, p):
        def sums_and_value(ph):
            def terms(n):
                return n**p * np.cos(n * ph)
            res = abel_sum(terms)
            return numerics._abel_sums(terms), res.value, res.extrapolation_error_estimate

        phases = [0.15, 0.6, 2.0, 3.7, 6.1]
        cold = []
        for ph in phases:
            numerics._abel_table.cache_clear()
            cold.append(sums_and_value(ph))
        assert cold == [sums_and_value(ph) for ph in phases]

    def test_cached_sums_equal_per_call_composition(self):
        # the prefix of each eta, up to eta n = 3 ln(3 / eta) + 50, with its
        # weights built on the spot, not read from the table
        stops = [int((3.0 * math.log(max(4.0, 3.0 / eta)) + 50.0) / eta) + 10
                 for eta in ABEL_ETA_GRID]
        n = np.arange(1, max(stops) + 1, dtype=np.longdouble)
        for p, ph in [(3, 0.4), (3, 2.0), (1, 5.9), (1, math.pi)]:
            def terms(n, p=p, ph=ph):
                return n**p * np.cos(n * ph)
            a = np.asarray(terms(n), dtype=np.longdouble)
            direct = [(a[:stop] * numerics._abel_weights(eta, stop)).sum(dtype=np.longdouble)
                      for eta, stop in zip(ABEL_ETA_GRID, stops)]
            assert numerics._abel_sums(terms) == direct

    def test_cached_table_is_read_only(self):
        n, weights = numerics._abel_table()
        assert n.dtype == np.longdouble and len(weights) == len(ABEL_ETA_GRID)
        for arr in (n, *weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        seen = []
        abel_sum(lambda n: seen.append(n.flags.writeable) or n * np.cos(n * 2.0))
        assert seen == [False]

    def test_weights_match_extended_exp(self):
        # every eta over its full prefix, against e^(-eta n) with the
        # argument carried exactly, and against the plain 80-bit exp(-eta n),
        # which rounds eta n to 64 bits once n > 2^12
        for eta, stop in zip(ABEL_ETA_GRID, abel_stops()):
            w = numerics._abel_weights(eta, stop)
            ref = abel_weights_compensated(eta, stop)
            assert w.dtype == np.longdouble and w.shape == (stop,)
            assert np.all(np.abs(w - ref) <= 8 * np.spacing(ref)), eta
            arg = np.longdouble(eta) * np.arange(1, stop + 1, dtype=np.longdouble)
            plain = np.exp(-arg)
            assert np.all(np.abs(w - plain) <= 8 * np.spacing(plain)
                          + plain * np.spacing(arg)), eta

    @pytest.mark.parametrize("p, closed", [(3, cubic_ladder_sum_closed),
                                           (1, linear_ladder_sum_closed)],
                             ids=["cubic", "linear"])
    def test_as_accurate_as_one_exp_per_term(self, p, closed):
        # every eta's sum that abel_sum extrapolates (ladder weights, prefix to
        # eta n = 3 ln(3 / eta) + 50) against one 80-bit exp per term on the
        # longer +80 prefix: within 4 ulp of the sum of |a_n| e^(-eta n), which
        # bounds the roundoff of either.  An error statistic of the extrapolated
        # values would compare two roundoff realizations once both reach it.
        eps = np.finfo(np.longdouble).eps
        stops = abel_stops()
        n = np.arange(1, max(stops) + 1, dtype=np.longdouble)
        weights = [np.exp(-np.longdouble(eta) * n[:stop])
                   for eta, stop in zip(ABEL_ETA_GRID, stops)]
        errors = []
        for ph in np.linspace(0.6, 5.7, 52):
            def terms(n, ph=ph):
                return n**p * np.cos(n * ph)
            size = np.abs(terms(n))
            mass = [(size[:w.size] * w).sum() for w in weights]
            ours = numerics._abel_sums(terms)
            oracle = abel_sums_per_eta(terms)
            for eta, s, ref, m in zip(ABEL_ETA_GRID, ours, oracle, mass):
                assert abs(s - ref) <= 4 * eps * m, (ph, eta, float((s - ref) / (eps * m)))
            errors.append(abs(abel_sum(terms).value / closed(ph) - 1.0))
        assert max(errors) < 1e-4

    @pytest.mark.parametrize("p, closed, p90, worst", [
        (3, cubic_ladder_sum_closed, 1e-7, 1e-6),
        (1, linear_ladder_sum_closed, 1e-12, 1e-11)], ids=["cubic", "linear"])
    def test_bulk_accuracy(self, p, closed, p90, worst):
        # the grid 0.1 * 2^-j, j < 7 read p90 7.9e-7 and max 1.7e-5 (cubic)
        errors = np.array([abs(abel_sum(lambda n: n**p * np.cos(n * ph)).value
                               / closed(ph) - 1.0)
                           for ph in np.linspace(0.6, 5.7, 52)])
        assert np.quantile(errors, 0.9) <= p90
        assert errors.max() <= worst

    @pytest.mark.parametrize("p, closed", [(3, cubic_ladder_sum_closed),
                                           (1, linear_ladder_sum_closed)],
                             ids=["cubic", "linear"])
    @pytest.mark.parametrize("ph", [0.15, 0.2, 0.3, 6.0, 6.1, 6.15])
    def test_near_resonance(self, p, closed, ph):
        # a grid whose smallest eta is too large to resolve the peak at phase 0
        # (mod 2 pi), such as 0.3 * 2^(-j/2), j < 11, does not stabilize here
        res = abel_sum(lambda n: n**p * np.cos(n * ph))
        assert res.value == pytest.approx(closed(ph), rel=1e-5)

    def test_terms_prefix(self):
        # the grid 0.1 * 2^-j, j < 7 evaluated the terms on 46,525 indices
        seen = []

        def terms(n):
            seen.append(n.size)
            return n**3 * np.cos(n * 2.0)

        abel_sum(terms)
        assert len(seen) == 1 and seen[0] <= 16000

    def test_non_stabilizing_raises(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SeriesError):
                abel_sum(lambda n: np.exp(n))


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
    for bad in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(ValueError):
            integrate_sphere(lambda k: k[..., 0], tol=bad)
