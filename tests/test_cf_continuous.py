import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bracket_quadrature, delta_to_tau, diag_bracket, em_cf_11_printed,
                     em_cf_ee_mp, lab_tensor_integrand, scalar_cf_mp)
from rotvac import cf_continuous as cfc
from rotvac.cf_continuous import (CoincidenceError, em_cf_continuous, em_cf_tensor_quadrature,
                                  phi_kernel_integral, scalar_cf_continuous,
                                  scalar_cf_quadrature, sin_power_integral)
from rotvac.constants import NATURAL, SI
from rotvac.fields import _lab_kernel, projection_matrix, projection_rows
from rotvac.kinematics import RotationParams, lab_position
from rotvac.numerics import QuadratureError, integrate_1d, integrate_sphere

SINE_POWER_P1_K05 = 1624.0 / 405.0


class TestSinPowerIntegral:
    @pytest.mark.parametrize("p,expect", [(1, 2.0), (3, 4.0 / 3.0), (5, 16.0 / 15.0)])
    def test_flat_limit(self, p, expect):
        assert sin_power_integral(p, 0.0) == pytest.approx(expect, rel=1e-15)

    def test_half_coupling_value(self):
        assert sin_power_integral(1, 0.5) == pytest.approx(SINE_POWER_P1_K05, rel=1e-14)

    @pytest.mark.parametrize("p", [1, 3, 5])
    @pytest.mark.parametrize("k", [0.3, -0.6, 0.9])
    def test_against_quadrature(self, p, k):
        closed = sin_power_integral(p, k)
        val, _ = integrate_1d(
            lambda th: math.sin(th) ** p / (1.0 - k * k * math.sin(th) ** 2) ** 3.5,
            0.0, math.pi)
        assert val == pytest.approx(closed, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sin_power_integral(1, 1.0)
        with pytest.raises(ValueError):
            sin_power_integral(2, 0.5)
        # NaN fails every comparison, so the guard must accept, not reject
        for k in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be < 1"):
                sin_power_integral(3, k)


class TestPhiKernelIntegral:
    def test_flat_limits(self):
        assert phi_kernel_integral(0, 0.0) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert phi_kernel_integral(1, 0.0) == 0.0
        assert phi_kernel_integral(2, 0.0) == pytest.approx(math.pi, rel=1e-15)

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("b", [0.3, -0.45, 0.8])
    def test_against_quadrature(self, m, b):
        closed = phi_kernel_integral(m, b)
        val, _ = integrate_1d(
            lambda ph: math.sin(ph) ** m / (1.0 + b * math.sin(ph)) ** 4,
            0.0, 2.0 * math.pi)
        assert val == pytest.approx(closed, rel=1e-10, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            phi_kernel_integral(0, -1.0)
        for b in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be < 1"):
                phi_kernel_integral(1, b)
        with pytest.raises(ValueError, match="m must be 0, 1 or 2, got 3"):
            phi_kernel_integral(3, 0.3)


class TestEmContinuous:
    def test_closed_vs_quadrature_midpoint(self):
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        tau2 = delta_to_tau(p, 1.0)
        closed = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "closed-form")
        quad = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "quadrature")
        assert quad.value == pytest.approx(closed.value, rel=1e-10)

    def test_closed_vs_kernel_assembly(self):
        # second analytic route: azimuthal kernels in closed form, polar
        # integral by quadrature
        for beta in (0.1, 0.5, 0.9):
            p = RotationParams.from_beta(1.0, beta, NATURAL)
            for delta in (0.5, 2.0, 5.0):
                tau2 = delta_to_tau(p, delta)
                closed = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "closed-form").value
                k = -beta * math.sin(delta / 2.0) / (delta / 2.0)
                ch = math.cos(delta / 2.0)
                c0 = math.cos(delta)
                amp = beta * beta - ch * ch

                def polar(th):
                    b = k * math.sin(th)
                    s = math.sin(th)
                    return (c0 * s * phi_kernel_integral(0, b)
                            + amp * s**3 * phi_kernel_integral(0, b)
                            + 2.0 * beta * ch * s * s * phi_kernel_integral(1, b)
                            + s**3 * phi_kernel_integral(2, b))

                val, _ = integrate_1d(polar, 0.0, math.pi)
                dt_lab = p.gamma * tau2
                assembled = 3.0 / (2.0 * math.pi**2 * dt_lab**4) * p.gamma**2 * val
                assert assembled == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.9, 0.99, 0.99999])
    def test_closed_form_matches_tensor_quadrature_for_every_pair(self, beta):
        # one closed form for every pair and kind, null pairs included, held
        # to 1e-13 of the size of the (1,1) CF
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (0.3, 1.0, 2.0, 5.0, -2.0, 7.5):
            tau2 = delta_to_tau(p, delta)
            size = em_11_size(p, delta)
            for pair in [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]:
                for kind in ("EE", "HH", "EH"):
                    closed = em_cf_continuous(pair, kind, 0.0, tau2, p, "closed-form")
                    tensor = em_cf_tensor_quadrature(pair, kind, 0.0, tau2, p).value
                    assert (closed.pair, closed.kind, closed.method) == (pair, kind,
                                                                         "closed-form")
                    assert abs(closed.value - tensor) <= 1e-13 * size, (delta, pair, kind)

    @pytest.mark.parametrize("beta", [0.0, 0.05, 0.3, 0.9, 0.99, 0.99999])
    def test_11_rows_are_the_printed_form(self, beta):
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (0.05, 0.3, 1.0, 2.0, 5.0, -2.0, 7.5):
            tau2 = delta_to_tau(p, delta)
            printed = em_cf_11_printed(p, 0.0, tau2)
            for kind in ("EE", "HH"):
                assert em_cf_continuous((1, 1), kind, 0.0, tau2, p).value == pytest.approx(
                    printed, rel=1e-14, abs=0.0), (delta, kind)

    def test_small_beta_continuity(self):
        # beta -> 0 limit approaches the non-rotating evaluation smoothly
        delta = 1.3
        p0 = RotationParams(omega=1.0, radius=0.0, constants=NATURAL)
        p1 = RotationParams.from_beta(1.0, 1e-6, NATURAL)
        a = em_cf_continuous((1, 1), "EE", 0.0, delta_to_tau(p0, delta), p0, "quadrature")
        b = em_cf_continuous((1, 1), "EE", 0.0, delta_to_tau(p1, delta), p1, "quadrature")
        assert b.value == pytest.approx(a.value, rel=1e-6)

    def test_magnetic_equals_electric_diagonal(self):
        p = RotationParams.from_beta(1.0, 0.6, NATURAL)
        tau2 = delta_to_tau(p, 1.7)
        for pair in ((1, 1), (2, 2), (3, 3)):
            ee = em_cf_continuous(pair, "EE", 0.0, tau2, p, "quadrature")
            hh = em_cf_continuous(pair, "HH", 0.0, tau2, p, "quadrature")
            assert hh.value == pytest.approx(ee.value, rel=1e-9)

    @pytest.mark.parametrize("pair", [(1, 1), (2, 2), (3, 3)])
    def test_bracket_is_rotated_lab_kernel(self, pair):
        # the bracket polynomial at k' is the polarization-summed lab kernel
        # of the projection rows at phases 0 and delta, at k = R_z(delta/2) k'
        rng = np.random.default_rng(20240818)
        k = rng.normal(size=(64, 3))
        k /= np.linalg.norm(k, axis=1)[:, None]
        row = pair[0] - 1
        for beta in (0.2, 0.6, 0.9):
            p = RotationParams.from_beta(1.0, beta, NATURAL)
            for delta in (0.3, 1.3, 4.0):
                c, s = math.cos(delta / 2.0), math.sin(delta / 2.0)
                rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
                rows = (projection_matrix(p, tau)[row] for tau in (0.0, delta_to_tau(p, delta)))
                lab = _lab_kernel(*rows)(k @ rot.T)
                bracket = diag_bracket(pair, p, delta, k[:, 0], k[:, 1])
                assert np.max(np.abs(bracket - lab)) < 1e-13

    @pytest.mark.parametrize("beta", [0.3, 0.9, 1.0 - 1e-8])
    def test_tensor_integrand_matches_term_by_term_oracle(self, monkeypatch, beta):
        # the one-product integrand against five separate products, np.cross
        # and a float power, at random directions and along +/- the rule's
        # default axis yhat, the chord of the lag frame at -s/2 and s/2, where
        # near beta = 1 the kernel's O(gamma^2) terms cancel and khat . chord
        # - 1 is small.  The bound is 1e-13 of the rounding scale of both: the
        # kernel's terms in absolute value, and the conditioning of the fourth
        # power of khat . chord - 1
        captured = []
        monkeypatch.setattr(cfc, "integrate_sphere",
                            lambda f, tol: captured.append(f) or (0.0, 0.0))
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        rng = np.random.default_rng(20261019)
        u = 1.0 - np.logspace(-16, -0.01, 64)
        along = u[:, None] * [0.0, 1.0, 0.0] + np.sqrt(1.0 - u * u)[:, None] * [1.0, 0.0, 0.0]
        for delta in (0.1, 1.0, 3.0, 6.0):
            s = delta_to_tau(p, delta)
            t1, x1, y1, _ = lab_position(p, -s / 2)
            t2, x2, y2, _ = lab_position(p, s / 2)
            chord = np.array([x1 - x2, y1 - y2, 0.0]) / (t1 - t2)
            for pair, kind in (((1, 1), "EE"), ((1, 2), "EE"), ((2, 1), "HH"),
                               ((1, 3), "EE"), ((2, 3), "EH"), ((3, 3), "HH")):
                em_cf_tensor_quadrature(pair, kind, 0.0, s, p)
                integrand = captured.pop()
                k = rng.normal(size=(4, 16, 3))
                k /= np.linalg.norm(k, axis=-1, keepdims=True)
                row1, row2 = projection_rows(pair, kind, p, -s / 2, s / 2)
                e1, h1, e2, h2 = row1[:3], row1[3:], row2[:3], row2[3:]
                eh = np.cross(e1, h2) - np.cross(h1, e2)
                for kh in (k, along, -along):
                    ref = lab_tensor_integrand(row1, row2, chord)(kh)
                    terms = (abs(e1 @ e2) + abs(h1 @ h2) + np.abs((kh @ e1) * (kh @ e2))
                             + np.abs((kh @ h1) * (kh @ h2)) + np.abs(kh @ eh))
                    geom = kh @ chord - 1.0
                    scale = (6.0 * terms / geom**4
                             + 4.0 * np.abs(ref) * (1.0 + np.abs(kh @ chord)) / np.abs(geom))
                    got = integrand(kh)
                    assert got.shape == kh.shape[:-1]
                    assert np.all(np.abs(got - ref) <= 1e-13 * scale), (delta, pair, kind)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.9])
    def test_bracket_quadrature_matches_tensor_route(self, beta):
        # the stationary quadrature of the printed bracket against the lab
        # kernel that em_cf_continuous integrates, at two orbit phases
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (0.3, 2.0):
            for tau1 in (0.0, 0.8):
                tau2 = tau1 + delta_to_tau(p, delta)
                for pair in ((1, 1), (2, 2), (3, 3)):
                    bracket = bracket_quadrature(pair, p, tau1, tau2)
                    quad = em_cf_continuous(pair, "EE", tau1, tau2, p, "quadrature").value
                    tensor = em_cf_tensor_quadrature(pair, "HH", tau1, tau2, p).value
                    assert quad == pytest.approx(bracket, rel=1e-10)
                    assert tensor == pytest.approx(bracket, rel=1e-10)

    def test_quadrature_route_calls_no_public_cf(self, monkeypatch):
        # a traced run replays each public function's results in call order,
        # which a nested public call would break
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        tau2 = delta_to_tau(p, 1.0)
        expect = {pair: em_cf_tensor_quadrature(pair, "EH", 0.0, tau2, p).value
                  for pair in ((1, 1), (1, 3))}

        def nested(*args, **kwargs):
            raise AssertionError("em_cf_continuous called em_cf_tensor_quadrature")
        monkeypatch.setattr(cfc, "em_cf_tensor_quadrature", nested)
        for pair, value in expect.items():
            assert em_cf_continuous(pair, "EH", 0.0, tau2, p, "quadrature").value == value

    def test_tensor_route_on_a_chord_whose_norm_underflows(self):
        # chords below about 1e-154 have a norm that underflows; the rule's
        # pole still sits on them, and the value is that of the static orbit,
        # for the electromagnetic and the scalar quadrature
        p0 = RotationParams.from_beta(1.0, 0.0, NATURAL)
        routes = ((lambda p: em_cf_tensor_quadrature((1, 1), "EE", 0.0, 1.0, p),
                   em_cf_continuous((1, 1), "EE", 0.0, 1.0, p0, "closed-form")),
                  (lambda p: scalar_cf_quadrature(0.0, 1.0, p), scalar_cf_continuous(0.0, 1.0, p0)))
        for route, closed in routes:
            static = route(p0).value
            assert static == pytest.approx(closed.value, rel=1e-14)
            for p in (RotationParams.from_beta(1.0, 1e-300, NATURAL),
                      RotationParams(omega=1.0, radius=1e-170, constants=NATURAL)):
                assert route(p).value == static

    def test_z_coupled_off_diagonals_vanish(self):
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        tau2 = delta_to_tau(p, 1.0)
        diag = abs(em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "closed-form").value)
        for pair in ((1, 3), (3, 1), (2, 3), (3, 2)):
            v = em_cf_tensor_quadrature(pair, "EE", 0.0, tau2, p).value
            assert abs(v) < 1e-12 * diag

    def test_in_plane_off_diagonal_is_nonzero_and_antisymmetric(self):
        # note: the (1,2) pair does not vanish at separated times; it is
        # antisymmetric and dies only at coincidence
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        tau2 = delta_to_tau(p, 1.0)
        v12 = em_cf_tensor_quadrature((1, 2), "EE", 0.0, tau2, p).value
        v21 = em_cf_tensor_quadrature((2, 1), "EE", 0.0, tau2, p).value
        diag = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "closed-form").value
        assert abs(v12) > 0.1 * abs(diag)
        assert v21 == pytest.approx(-v12, rel=1e-9)

    def test_in_plane_off_diagonal_small_beta_closed_form(self):
        # at beta -> 0 the pair reduces to -(2/3) sin(delta) times the
        # isotropic trace integral, i.e. -6 sin(delta) / (pi dt^4)
        delta = 1.0
        p = RotationParams(omega=1.0, radius=1e-9, constants=NATURAL)
        tau2 = delta_to_tau(p, delta)
        v = em_cf_tensor_quadrature((1, 2), "EE", 0.0, tau2, p).value
        expect = -(2.0 / 3.0) * 6.0 / (math.pi * tau2**4) * math.sin(delta)
        assert v == pytest.approx(expect, rel=1e-8)

    def test_mixed_kind_structure(self):
        # electric-magnetic diagonals vanish; the (1,3) mixed pair does not
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        tau2 = delta_to_tau(p, 1.0)
        diag = abs(em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "closed-form").value)
        for pair in ((1, 1), (2, 2), (3, 3), (1, 2)):
            v = em_cf_tensor_quadrature(pair, "EH", 0.0, tau2, p).value
            assert abs(v) < 1e-12 * diag
        v13 = em_cf_tensor_quadrature((1, 3), "EH", 0.0, tau2, p).value
        v31 = em_cf_tensor_quadrature((3, 1), "EH", 0.0, tau2, p).value
        assert abs(v13) > 0.1 * diag
        assert v31 == pytest.approx(-v13, rel=1e-9)

    def test_stationarity(self):
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        tau2 = delta_to_tau(p, 1.0)
        shift = 0.93
        for method in ("closed-form", "quadrature"):
            a = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, method)
            b = em_cf_continuous((1, 1), "EE", shift, tau2 + shift, p, method)
            assert b.value == pytest.approx(a.value, rel=1e-12)
        a = em_cf_tensor_quadrature((1, 2), "EE", 0.0, tau2, p)
        b = em_cf_tensor_quadrature((1, 2), "EE", shift, tau2 + shift, p)
        assert b.value == pytest.approx(a.value, rel=1e-9)

    @pytest.mark.parametrize("beta", [0.3, 0.9])
    @pytest.mark.parametrize("tau1", [0.8, 5.3])
    def test_routes_equal_the_integral_at_the_callers_orbit_phases(self, tau1, beta):
        # the routes integrate in the lag frame, from time 0; the stationarity
        # oracle integrates at the caller's own times: the projection rows at
        # tau1 and tau2, and the chord between the two lab positions
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (0.3, 2.0):
            tau2 = tau1 + delta_to_tau(p, delta)
            t1, x1, y1, _ = lab_position(p, tau1)
            t2, x2, y2, _ = lab_position(p, tau2)
            chord = np.array([x1 - x2, y1 - y2, 0.0]) / (t1 - t2)
            for pair, kind in (((1, 1), "EE"), ((1, 2), "EE"), ((1, 3), "EH")):
                integrand = lab_tensor_integrand(*projection_rows(pair, kind, p, tau1, tau2), chord)
                val, _ = integrate_sphere(integrand, axis=tuple(chord))
                ref = val / (4.0 * math.pi**2 * (t2 - t1) ** 4)
                for route in (em_cf_tensor_quadrature(pair, kind, tau1, tau2, p),
                              em_cf_continuous(pair, kind, tau1, tau2, p, "quadrature")):
                    assert route.value == pytest.approx(ref, rel=1e-12, abs=0.0), (delta, pair)
            val, _ = integrate_sphere(lambda k: -1.0 / (1.0 - k @ chord) ** 2, axis=tuple(chord))
            ref = val / (4.0 * math.pi**2 * (t2 - t1) ** 2)
            assert scalar_cf_quadrature(tau1, tau2, p).value == pytest.approx(ref, rel=1e-12,
                                                                             abs=0.0)

    def test_exchange_symmetry(self):
        # I_(ab)(tau1, tau2) = I_(ba)(tau2, tau1): same classical product
        p = RotationParams.from_beta(1.0, 0.4, NATURAL)
        tau2 = delta_to_tau(p, 1.4)
        for pair in ((1, 2), (1, 3), (2, 2)):
            a = em_cf_tensor_quadrature(pair, "EE", 0.0, tau2, p).value
            b = em_cf_tensor_quadrature(pair[::-1], "EE", tau2, 0.0, p).value
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_inverse_quartic_scaling(self):
        # fixed (beta, delta): value scales like (lab time difference)^-4
        delta = 1.2
        p1 = RotationParams(omega=1.0, radius=0.5, constants=NATURAL)
        p2 = RotationParams(omega=0.5, radius=1.0, constants=NATURAL)
        a = em_cf_continuous((1, 1), "EE", 0.0, delta_to_tau(p1, delta), p1, "closed-form")
        b = em_cf_continuous((1, 1), "EE", 0.0, delta_to_tau(p2, delta), p2, "closed-form")
        assert b.value == pytest.approx(a.value / 16.0, rel=1e-12)

    def test_coincidence_guard(self):
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        with pytest.raises(CoincidenceError):
            em_cf_continuous((1, 1), "EE", 1.0, 1.0 + 1e-12, p, "closed-form")

    def test_bad_requests(self):
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        tau2 = delta_to_tau(p, 1.0)
        # every pair has a closed form, the (1,2) one among them
        closed = em_cf_continuous((1, 2), "EE", 0.0, tau2, p, "closed-form").value
        quad = em_cf_continuous((1, 2), "EE", 0.0, tau2, p, "quadrature").value
        assert abs(closed - quad) <= 1e-12 * em_11_size(p, 1.0)
        with pytest.raises(ValueError):
            em_cf_continuous((1, 1), "XX", 0.0, tau2, p)
        with pytest.raises(ValueError):
            em_cf_continuous((0, 1), "EE", 0.0, tau2, p)
        with pytest.raises(ValueError):
            em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "variational")
        # a tolerance out of range is a bad request, not one below the
        # conditioning floor
        for tol in (0.0, -1e-10):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                em_cf_tensor_quadrature((1, 1), "EE", 0.0, tau2, p, tol)
            with pytest.raises(ValueError, match="tolerance must be positive"):
                scalar_cf_quadrature(0.0, tau2, p, tol)


class TestScalarContinuous:
    def test_rest_frame_reduction(self):
        p = RotationParams(omega=1.0, radius=0.0, constants=NATURAL)
        tau = 1.7
        v = scalar_cf_continuous(0.0, tau, p)
        assert v.value == pytest.approx(-1.0 / (math.pi * tau * tau), rel=1e-14)

    @pytest.mark.parametrize("beta", [0.1, 0.6, 0.9])
    @pytest.mark.parametrize("delta", [0.5, 2.0, 5.0])
    def test_against_quadrature(self, beta, delta):
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        tau2 = delta_to_tau(p, delta)
        closed = scalar_cf_continuous(0.0, tau2, p)
        quad = scalar_cf_quadrature(0.0, tau2, p)
        assert quad.value == pytest.approx(closed.value, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.3, 0.9, 1.0 - 1e-8])
    def test_quadrature_integrand_has_its_pole_on_the_chord(self, monkeypatch, beta):
        # as for the tensor route: the rule's axis lies along the chord of the
        # lag frame, between the lab positions at -s/2 and s/2, and the
        # integrand is -1 / (1 - khat . chord)^2 at random directions and
        # along +/- the axis, for a lag that starts at orbit phase 0 and one
        # that starts away from it (5657 at beta 1 - 1e-8, tau1 0.8), and for
        # a negative lag and one beyond a turn.  The bound is 1e-13 of the
        # rounding scale of 1 - khat . chord, squared
        captured = []
        monkeypatch.setattr(
            cfc, "integrate_sphere",
            lambda f, tol, axis=(0.0, 1.0, 0.0): captured.append((f, axis)) or (0.0, 0.0))
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        rng = np.random.default_rng(20261021)
        u = 1.0 - np.logspace(-16, -0.01, 64)
        for tau1 in (0.0, 0.8):
            for delta in (0.1, 1.0, 3.0, 6.0, -2.0, 8.0):
                tau2 = tau1 + delta_to_tau(p, delta)
                s = tau2 - tau1
                t1, x1, y1, _ = lab_position(p, -s / 2)
                t2, x2, y2, _ = lab_position(p, s / 2)
                chord = np.array([x1 - x2, y1 - y2, 0.0]) / (t1 - t2)
                scalar_cf_quadrature(tau1, tau2, p)
                integrand, axis = captured.pop()
                a = np.asarray(axis) / np.linalg.norm(axis)
                assert a[2] == 0.0
                assert abs(a[0] * chord[1] - a[1] * chord[0]) <= 1e-15 * np.linalg.norm(chord)
                along = u[:, None] * a + np.sqrt(1.0 - u * u)[:, None] * [a[1], -a[0], 0.0]
                k = rng.normal(size=(4, 16, 3))
                k /= np.linalg.norm(k, axis=-1, keepdims=True)
                for kh in (k, along, -along):
                    proj = kh @ chord
                    ref = -1.0 / (1.0 - proj) ** 2
                    got = integrand(kh)
                    assert got.shape == kh.shape[:-1]
                    scale = np.abs(ref) * (1.0 + 2.0 * (1.0 + np.abs(proj)) / np.abs(1.0 - proj))
                    assert np.all(np.abs(got - ref) <= 1e-13 * scale), (tau1, delta)

    def test_azimuthal_identity(self):
        # int dphi (B - E sin phi)^-2 = 2 pi B / (B^2 - E^2)^(3/2)
        B, E = 2.0, 1.3
        val, _ = integrate_1d(lambda ph: (B - E * math.sin(ph)) ** -2, 0.0, 2.0 * math.pi)
        assert val == pytest.approx(2.0 * math.pi * B / (B * B - E * E) ** 1.5, rel=1e-10)

    def test_denominator_positive(self):
        for beta in (0.3, 0.9, 0.999):
            p = RotationParams.from_beta(1.0, beta, NATURAL)
            for delta in np.linspace(0.05, 20.0, 40):
                tau = delta_to_tau(p, float(delta))
                denom = (p.gamma * tau) ** 2 \
                    - 4.0 * p.radius**2 * math.sin(p.alpha(tau) / 2.0) ** 2
                assert denom > 0.0

    def test_inverse_square_scaling(self):
        delta = 1.2
        p1 = RotationParams(omega=1.0, radius=0.5, constants=NATURAL)
        p2 = RotationParams(omega=0.5, radius=1.0, constants=NATURAL)
        a = scalar_cf_continuous(0.0, delta_to_tau(p1, delta), p1)
        b = scalar_cf_continuous(0.0, delta_to_tau(p2, delta), p2)
        assert b.value == pytest.approx(a.value / 4.0, rel=1e-12)

    def test_coincidence_guard(self):
        p = RotationParams.from_beta(1.0, 0.5, NATURAL)
        with pytest.raises(CoincidenceError):
            scalar_cf_continuous(0.5, 0.5, p)


# near-luminal orbits: the width 1 - |k| of the (1 + k k_y)^-4 peak falls to
# 1.1e-4 at beta = 0.99999, delta = 0.1
NEAR_LUMINAL = [(beta, delta) for beta in (0.999, 0.99999) for delta in (0.1, 1.0)]


class TestNearLuminal:
    @pytest.mark.parametrize("beta,delta", NEAR_LUMINAL)
    def test_em_11_quadrature_routes(self, beta, delta):
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        tau2 = delta_to_tau(p, delta)
        closed = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "closed-form").value
        bracket = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "quadrature").value
        tensor = em_cf_tensor_quadrature((1, 1), "EE", 0.0, tau2, p).value
        assert bracket == pytest.approx(closed, rel=1e-11)
        assert tensor == pytest.approx(closed, rel=1e-11)

    @pytest.mark.parametrize("beta,delta", [(0.99999, 0.05)] + NEAR_LUMINAL)
    @pytest.mark.parametrize("phase", [0.0, 0.8, 5.3, 5657.0])
    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_scalar_quadrature(self, units, phase, beta, delta):
        # at every orbit phase the lag starts from: the digits of 1 - |chord|
        # (1.1e-4 at beta 0.99999, delta 0.05) do not depend on it
        const, omega = (NATURAL, 1.0) if units == "natural" else (SI, 2.0e3)
        p = RotationParams.from_beta(omega, beta, const)
        tau1 = phase / (p.omega * p.gamma)
        tau2 = tau1 + delta_to_tau(p, delta)
        closed = scalar_cf_continuous(tau1, tau2, p).value
        assert scalar_cf_quadrature(tau1, tau2, p).value == pytest.approx(closed, rel=1e-11,
                                                                          abs=0.0)

    @pytest.mark.parametrize("beta,delta", [(0.99, 0.1)] + NEAR_LUMINAL)
    def test_routes_in_si_units(self, beta, delta):
        # the integrands are dimensionless, so the absolute tolerance of the
        # sphere rule does not swallow an SI-sized integral (values ~1e-48,
        # hence abs=0 in the comparisons too)
        p = RotationParams.from_beta(1.0, beta, SI)
        tau2 = delta_to_tau(p, delta)
        closed = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "closed-form").value
        tensor = em_cf_tensor_quadrature((1, 1), "EE", 0.0, tau2, p).value
        assert tensor == pytest.approx(closed, rel=1e-11, abs=0.0)
        scalar = scalar_cf_continuous(0.0, tau2, p).value
        assert scalar_cf_quadrature(0.0, tau2, p).value == pytest.approx(scalar, rel=1e-11,
                                                                         abs=0.0)


# 40-digit grid (tests/oracles.py): lag 0.1 from four orbit phases, NATURAL
# units at omega 1, where from_beta keeps beta exact; 1 - |chord| is 4.2e-4
DIGITS = [(beta, tau1) for beta in (1.0 - 1e-8, 0.99999) for tau1 in (0.0, 0.8, 5.3, 100.0)]


def _digits_case(beta, tau1):
    p = RotationParams.from_beta(1.0, beta, NATURAL)
    return p, tau1 + delta_to_tau(p, 0.1)


class TestFortyDigits:
    @pytest.mark.parametrize("beta,tau1", DIGITS)
    def test_scalar_routes(self, beta, tau1):
        p, tau2 = _digits_case(beta, tau1)
        exact = scalar_cf_mp(p, tau1, tau2)
        for route in (scalar_cf_continuous(tau1, tau2, p), scalar_cf_quadrature(tau1, tau2, p)):
            assert route.value == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta,tau1", DIGITS)
    def test_tensor_route_equals_the_closed_form(self, beta, tau1):
        # both take 1 - |chord| from the one lag record, so they share its rounding
        p, tau2 = _digits_case(beta, tau1)
        closed = em_cf_continuous((1, 1), "EE", tau1, tau2, p).value
        tensor = em_cf_tensor_quadrature((1, 1), "EE", tau1, tau2, p).value
        assert tensor == pytest.approx(closed, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("one_minus_beta", [10.0**-e for e in range(5, 12)])
    def test_closed_forms_at_small_lags(self, one_minus_beta):
        # the scalar denominator (c dt)^2 gap (1 + n) and the EM form's
        # 1 / (1 - n^2)^3 = 1 / (gap (1 + n))^3 keep their digits where 1 - n
        # cancels (1e-9 at delta 1e-4): gap is the lag record's, without
        # cancellation, and the numerator reads the rows in the frame whose
        # chord is n yhat, where the (2,2) one cancels only between its two
        # terms
        p = RotationParams.from_beta(1.0, 1.0 - one_minus_beta, NATURAL)
        for delta in (1e-4, 1e-3, 0.01, 0.1, 1.0, 3.0):
            tau2 = delta_to_tau(p, delta)
            assert scalar_cf_continuous(0.0, tau2, p).value == pytest.approx(
                scalar_cf_mp(p, 0.0, tau2), rel=1e-14, abs=0.0), delta
            for pair in ((1, 1), (2, 2), (3, 3), (1, 2), (2, 1)):
                assert em_cf_continuous(pair, "EE", 0.0, tau2, p).value == pytest.approx(
                    em_cf_ee_mp(pair, p, 0.0, tau2), rel=1e-14, abs=0.0), (delta, pair)

    @pytest.mark.parametrize("beta,tau1", DIGITS)
    def test_conditioning_floor(self, beta, tau1):
        # every tolerance at or above q eps n / (1 - n) is met to that floor,
        # and every one below it is refused
        p, tau2 = _digits_case(beta, tau1)
        n = beta * math.sin(0.05) / 0.05
        routes = ((2, scalar_cf_mp(p, tau1, tau2),
                   lambda tol: scalar_cf_quadrature(tau1, tau2, p, tol)),
                  (4, em_cf_ee_mp((1, 1), p, tau1, tau2),
                   lambda tol: em_cf_tensor_quadrature((1, 1), "EE", tau1, tau2, p, tol)),
                  (4, em_cf_ee_mp((1, 2), p, tau1, tau2),
                   lambda tol: em_cf_tensor_quadrature((1, 2), "EE", tau1, tau2, p, tol)))
        for q, exact, route in routes:
            floor = q * np.finfo(float).eps * n / (1.0 - n)
            for tol in (1e-10, 1e-11, 3e-12, 1e-12, 1e-13):
                if tol >= floor:
                    assert abs(route(tol).value - exact) <= floor * abs(exact), (q, tol)
                else:
                    with pytest.raises(QuadratureError, match="conditioning floor"):
                        route(tol)


def em_11_size(p, delta):
    """Size of the (1,1) CF at lag delta: the bracket-quadrature prefactor
    times gamma^2 times the integral of (1 + k k_y)^-4 over the sphere."""
    k = -p.beta * math.sin(delta / 2.0) / (delta / 2.0)
    mass = (4.0 * math.pi if k == 0.0 else
            2.0 * math.pi * ((1.0 - k) ** -3 - (1.0 + k) ** -3) / (3.0 * k))
    dt_lab = delta / p.omega
    return 6.0 / (4.0 * math.pi**2 * dt_lab**4) * p.gamma**2 * mass


@settings(max_examples=25, derandomize=True, deadline=None)
@given(beta=st.floats(0.0, 0.99999), delta=st.floats(0.05, 6.2))
def test_quadrature_routes_match_closed_forms(beta, delta):
    # the (1,1) CF crosses zero twice per turn, so its agreement is also
    # allowed 1e-10 of the CF's size there
    p = RotationParams.from_beta(1.0, beta, NATURAL)
    tau2 = delta_to_tau(p, delta)
    closed = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "closed-form").value
    bracket = em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "quadrature").value
    assert bracket == pytest.approx(closed, rel=1e-10, abs=1e-10 * em_11_size(p, delta))
    scalar = scalar_cf_continuous(0.0, tau2, p).value
    assert scalar_cf_quadrature(0.0, tau2, p).value == pytest.approx(scalar, rel=1e-10)
