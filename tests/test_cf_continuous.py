import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import delta_to_tau
from oracles import lab_tensor_integrand
from rotvac import cf_continuous as cfc
from rotvac.cf_continuous import (CoincidenceError, _lab_kernel,
                                  em_cf_continuous, em_cf_tensor_quadrature,
                                  phi_kernel_integral, scalar_cf_continuous,
                                  scalar_cf_quadrature, shape_constant,
                                  sin_power_integral)
from rotvac.constants import NATURAL, SI
from rotvac.fields import diag_bracket, projection_matrix, projection_rows
from rotvac.kinematics import RotationParams, lab_position
from rotvac.numerics import integrate_1d

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
                k = shape_constant(p, delta)
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
                lab, _ = _lab_kernel(projection_matrix(0.0, beta)[row],
                                     projection_matrix(delta, beta)[row],
                                     np.zeros(3))(k @ rot.T)
                bracket = diag_bracket(pair, p, delta, k[:, 0], k[:, 1])
                assert np.max(np.abs(bracket - lab)) < 1e-13

    @pytest.mark.parametrize("beta", [0.3, 0.9, 1.0 - 1e-8])
    def test_tensor_integrand_matches_term_by_term_oracle(self, monkeypatch, beta):
        # the one-product integrand against five separate products, np.cross
        # and a float power, at random directions and along +/- the rule's
        # axis (the chord), where near beta = 1 the kernel's O(gamma^2) terms
        # cancel and khat . chord - 1 is small.  The bound is 1e-13 of the
        # rounding scale of both: the kernel's terms in absolute value, and
        # the conditioning of the fourth power of khat . chord - 1
        captured = []
        monkeypatch.setattr(cfc, "integrate_sphere",
                            lambda f, tol, axis: captured.append((f, axis)) or (0.0, 0.0))
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        rng = np.random.default_rng(20261019)
        u = 1.0 - np.logspace(-16, -0.01, 64)
        for delta in (0.1, 1.0, 3.0, 6.0):
            tau2 = delta_to_tau(p, delta)
            t1, x1, y1, _ = lab_position(p, 0.0)
            t2, x2, y2, _ = lab_position(p, tau2)
            chord = np.array([x1 - x2, y1 - y2, 0.0]) / (t1 - t2)
            for pair, kind in (((1, 1), "EE"), ((1, 2), "EE"), ((2, 1), "HH"),
                               ((1, 3), "EE"), ((2, 3), "EH"), ((3, 3), "HH")):
                em_cf_tensor_quadrature(pair, kind, 0.0, tau2, p)
                integrand, axis = captured.pop()
                a = np.asarray(axis) / np.linalg.norm(axis)
                along = u[:, None] * a + np.sqrt(1.0 - u * u)[:, None] * [a[1], -a[0], 0.0]
                k = rng.normal(size=(4, 16, 3))
                k /= np.linalg.norm(k, axis=-1, keepdims=True)
                row1, row2 = projection_rows(pair, kind, p, 0.0, tau2)
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
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (0.3, 2.0):
            tau2 = delta_to_tau(p, delta)
            for pair in ((2, 2), (3, 3)):
                bracket = em_cf_continuous(pair, "EE", 0.0, tau2, p, "quadrature").value
                tensor = em_cf_tensor_quadrature(pair, "EE", 0.0, tau2, p).value
                assert bracket == pytest.approx(tensor, rel=1e-10)

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
        with pytest.raises(ValueError):
            em_cf_continuous((1, 2), "EE", 0.0, tau2, p, "closed-form")
        with pytest.raises(ValueError):
            em_cf_continuous((1, 1), "XX", 0.0, tau2, p)
        with pytest.raises(ValueError):
            em_cf_continuous((0, 1), "EE", 0.0, tau2, p)
        with pytest.raises(ValueError):
            em_cf_continuous((1, 1), "EE", 0.0, tau2, p, "variational")


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

    @pytest.mark.parametrize("beta,delta", NEAR_LUMINAL)
    def test_scalar_quadrature(self, beta, delta):
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        tau2 = delta_to_tau(p, delta)
        closed = scalar_cf_continuous(0.0, tau2, p).value
        assert scalar_cf_quadrature(0.0, tau2, p).value == pytest.approx(closed, rel=1e-11)

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


def em_11_size(p, delta):
    """Size of the (1,1) CF at lag delta: the bracket-quadrature prefactor
    times gamma^2 times the integral of (1 + k k_y)^-4 over the sphere."""
    k = shape_constant(p, delta)
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
