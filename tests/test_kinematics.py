import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coordinate_acceleration, fd_step, four_velocity, tetrad_acceleration
from rotvac.constants import NATURAL, SI
from rotvac.kinematics import (METRIC, LuminalOrbitError, RotationParams,
                               fermi_walker_tetrad, frenet_serret_tetrad,
                               lab_position, orthonormality_residual)

orbit_params = st.builds(
    RotationParams,
    omega=st.floats(0.1, 50.0),
    radius=st.floats(0.0, 0.0199),  # beta <= 0.995 at omega <= 50
    constants=st.just(NATURAL),
).filter(lambda p: p.beta <= 0.999)


class TestRotationParams:
    def test_derived_quantities(self):
        p = RotationParams(omega=2.0, radius=0.25, constants=NATURAL)
        assert p.beta == 0.5
        assert p.gamma == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-15)

    def test_gamma_is_one_iff_beta_zero(self):
        assert RotationParams(omega=0.0, radius=3.0, constants=NATURAL).gamma == 1.0
        assert RotationParams(omega=3.0, radius=0.0, constants=NATURAL).gamma == 1.0
        assert RotationParams(omega=1.0, radius=0.1, constants=NATURAL).gamma > 1.0

    def test_luminal_guard(self):
        with pytest.raises(LuminalOrbitError):
            RotationParams(omega=1.0, radius=1.0, constants=NATURAL)
        with pytest.raises(LuminalOrbitError):
            RotationParams(omega=1.0, radius=1.0 - 1e-13, constants=NATURAL)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            RotationParams(omega=-1.0, radius=0.1, constants=NATURAL)
        with pytest.raises(ValueError):
            RotationParams(omega=1.0, radius=-0.1, constants=NATURAL)

    def test_non_finite_inputs_rejected(self):
        for omega, radius in ((math.nan, 0.1), (1.0, math.nan), (math.inf, 0.0), (0.0, math.inf)):
            with pytest.raises(ValueError):
                RotationParams(omega=omega, radius=radius, constants=NATURAL)

    def test_from_beta(self):
        p = RotationParams.from_beta(4.0, 0.8, NATURAL)
        assert p.beta == pytest.approx(0.8, rel=1e-15)
        assert p.radius == pytest.approx(0.2, rel=1e-15)

    @pytest.mark.parametrize("omega, beta, cause", [
        (1.0, -0.3, "beta must be finite and non-negative"),
        (1.0, math.nan, "beta must be finite and non-negative"),
        (1.0, math.inf, "beta must be finite and non-negative"),
        (0.0, 0.3, "finite omega > 0"),
        (math.inf, 0.3, "finite omega > 0"),
        (1e-300, 0.9, "radius = beta c / omega overflows"),
    ])
    def test_from_beta_names_the_bad_input(self, omega, beta, cause):
        with pytest.raises(ValueError, match=cause):
            RotationParams.from_beta(omega, beta, SI)

    def test_si_units(self):
        p = RotationParams(omega=1.0, radius=1.0, constants=SI)
        assert p.beta == pytest.approx(1.0 / SI.c)


class TestFourVelocity:
    def test_rest_frame(self):
        for p in (RotationParams(0.0, 5.0, NATURAL), RotationParams(5.0, 0.0, NATURAL)):
            u = four_velocity(p, 1.3)
            assert u == pytest.approx([0.0, 0.0, 0.0, 1.0])

    def test_normalization_identity(self, params_mid):
        c = params_mid.constants.c
        for tau in (0.0, 0.4, 2.9, -1.7):
            u = four_velocity(params_mid, tau)
            assert u @ METRIC @ u == pytest.approx(-c * c, rel=1e-12)

    def test_quarter_turn_value(self):
        # beta = 0.5, alpha = pi/2: U = c (-0.5 gamma, 0, 0, gamma), gamma = 2/sqrt(3)
        p = RotationParams(omega=1.0, radius=0.5, constants=NATURAL)
        tau = (math.pi / 2.0) / (p.omega * p.gamma)
        g = 2.0 / math.sqrt(3.0)
        u = four_velocity(p, tau)
        assert u == pytest.approx([-0.5 * g, 0.0, 0.0, g], abs=1e-14)

    def test_matches_position_derivative(self, params_mid):
        # d(lab position)/dtau against the 4-velocity components
        h = 1e-6 * (2.0 * math.pi / (params_mid.omega * params_mid.gamma))
        tau = 0.83
        tp = np.array(lab_position(params_mid, tau + h))
        tm = np.array(lab_position(params_mid, tau - h))
        dt, dx, dy, dz = (tp - tm) / (2.0 * h)
        u = four_velocity(params_mid, tau)
        c = params_mid.constants.c
        assert dx == pytest.approx(u[0], rel=1e-8)
        assert dy == pytest.approx(u[1], rel=1e-8)
        assert dz == pytest.approx(u[2], abs=1e-12)
        assert c * dt == pytest.approx(u[3], rel=1e-8)


class TestLabPosition:
    def test_phase_origin(self, params_mid):
        assert lab_position(params_mid, 0.0) == pytest.approx(
            (0.0, params_mid.radius, 0.0, 0.0))

    def test_periodicity(self, params_mid):
        tau = 2.0 * math.pi / (params_mid.omega * params_mid.gamma)
        t, x, y, z = lab_position(params_mid, tau)
        assert (x, y, z) == pytest.approx((params_mid.radius, 0.0, 0.0), abs=1e-12)
        assert t == pytest.approx(params_mid.gamma * tau)


class TestFrenetSerret:
    def test_identity_frame_at_rest(self):
        p = RotationParams(0.0, 0.0, NATURAL)
        m = frenet_serret_tetrad(p, 2.1)
        assert m == pytest.approx(np.eye(4))

    def test_detector_at_rest_in_frame(self, params_mid):
        # mu_(a) . U = (0, 0, 0, -c)
        for tau in (0.0, 0.9, -2.4):
            legs = frenet_serret_tetrad(params_mid, tau)
            comps = legs @ METRIC @ four_velocity(params_mid, tau)
            assert comps == pytest.approx([0.0, 0.0, 0.0, -1.0], abs=1e-12)

    def test_constant_acceleration(self, params_mid):
        expect = -params_mid.radius * params_mid.omega**2 * params_mid.gamma**2
        for tau in (0.0, 1.1, 5.2):
            acc = tetrad_acceleration(params_mid, tau, "frenet-serret")
            assert acc == pytest.approx([expect, 0.0, 0.0, 0.0], abs=1e-12)

    def test_inertial_acceleration_vanishes(self, params_rest):
        assert tetrad_acceleration(params_rest, 1.0) == pytest.approx([0, 0, 0, 0])

    def test_transport_equations(self, params_mid):
        # residuals of the transport system with curvature coefficients
        # b = -beta omega gamma^2, c = omega gamma^2, torsion 0
        p = params_mid
        h = fd_step(p)
        tau = 0.37
        b = -p.beta * p.omega * p.gamma**2
        ctil = p.omega * p.gamma**2
        m0 = frenet_serret_tetrad(p, tau)
        dm = (frenet_serret_tetrad(p, tau + h)
              - frenet_serret_tetrad(p, tau - h)) / (2.0 * h)
        scale = max(abs(b), abs(ctil))
        assert np.max(np.abs(dm[3] - b * m0[0])) < 1e-6 * scale
        assert np.max(np.abs(dm[0] - (ctil * m0[1] + b * m0[3]))) < 1e-6 * scale
        assert np.max(np.abs(dm[1] - (-ctil * m0[0]))) < 1e-6 * scale
        assert np.max(np.abs(dm[2])) < 1e-6 * scale

    def test_time_translation_covariance(self, params_mid):
        tau, shift = 0.6, 1.9
        ang = params_mid.omega * params_mid.gamma * shift
        rot = np.eye(4)
        rot[0, 0] = rot[1, 1] = math.cos(ang)
        rot[0, 1], rot[1, 0] = -math.sin(ang), math.sin(ang)
        a = frenet_serret_tetrad(params_mid, tau + shift)
        b = frenet_serret_tetrad(params_mid, tau) @ rot.T
        assert a == pytest.approx(b, abs=1e-12)


class TestFermiWalker:
    def test_coincides_with_frenet_serret_without_rotation(self):
        p = RotationParams(0.0, 2.0, NATURAL)
        for tau in (0.0, 1.4, 7.7):
            a = fermi_walker_tetrad(p, tau)
            b = frenet_serret_tetrad(p, tau)
            assert a == pytest.approx(b, abs=1e-15)

    def test_precessing_acceleration(self, params_mid):
        p = params_mid
        mag = p.radius * p.omega**2 * p.gamma**2
        for tau in (0.2, 1.3, 4.1):
            ang = p.gamma * p.alpha(tau)
            acc = tetrad_acceleration(p, tau, "fermi-walker")
            expect = [-mag * math.cos(ang), -mag * math.sin(ang), 0.0, 0.0]
            assert acc == pytest.approx(expect, abs=1e-12)

    def test_quarter_precession_value(self):
        # rotated-phase pi/2: acceleration points along the second leg
        p = RotationParams(omega=1.0, radius=0.5, constants=NATURAL)
        tau = (math.pi / 2.0) / (p.omega * p.gamma**2)
        mag = p.radius * p.omega**2 * p.gamma**2
        acc = tetrad_acceleration(p, tau, "fermi-walker")
        assert acc == pytest.approx([0.0, -mag, 0.0, 0.0], abs=1e-12)

    def test_constant_magnitude(self, params_mid):
        mag = params_mid.radius * params_mid.omega**2 * params_mid.gamma**2
        for tau in np.linspace(0.0, 9.0, 11):
            acc = tetrad_acceleration(params_mid, float(tau), "fermi-walker")
            assert np.linalg.norm(acc[:3]) == pytest.approx(mag, rel=1e-12)

    def test_transport_equation(self, params_mid):
        # d e_a / dtau = (e_a . A) U / c^2 - (e_a . U) A / c^2
        p = params_mid
        h = fd_step(p)
        tau = 0.9
        u = four_velocity(p, tau)
        acc = coordinate_acceleration(p, tau)
        m0 = fermi_walker_tetrad(p, tau)
        dm = (fermi_walker_tetrad(p, tau + h)
              - fermi_walker_tetrad(p, tau - h)) / (2.0 * h)
        for leg in range(4):
            e = m0[leg]
            rhs = (e @ METRIC @ acc) * u - (e @ METRIC @ u) * acc
            assert np.max(np.abs(dm[leg] - rhs)) < 1e-6 * max(1.0, np.max(np.abs(rhs)))

    def test_unknown_kind_rejected(self, params_mid):
        with pytest.raises(ValueError):
            tetrad_acceleration(params_mid, 0.0, "comoving")


@settings(max_examples=60, deadline=None)
@given(p=orbit_params, tau=st.floats(-20.0, 20.0))
def test_orthonormality_both_kinds(p, tau):
    assert orthonormality_residual(frenet_serret_tetrad(p, tau)) < 1e-10
    assert orthonormality_residual(fermi_walker_tetrad(p, tau)) < 1e-10


def test_four_vector_dot_signature():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert v @ METRIC @ v == 1.0 + 4.0 + 9.0 - 16.0
