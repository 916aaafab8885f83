import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotvac.constants import NATURAL
from rotvac.fields import projection_matrix, projection_rows
from oracles import (Direction, angular_weight_kernel, angular_weight_kernel_grid,
                     polarization_basis, polarization_sum_matrix,
                     project_fields_to_tetrad, project_fields_via_tensor)
from rotvac.kinematics import RotationParams
from rotvac.montecarlo import ModeSet, draw_phases, eval_lab_fields
from rotvac.numerics import integrate_sphere

finite = st.floats(-10.0, 10.0)
triple = st.tuples(finite, finite, finite)
directions = st.builds(Direction, theta=st.floats(0.0, math.pi),
                       phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True))


class TestProjection:
    def test_identity_frame(self):
        p = RotationParams(0.0, 0.0, NATURAL)
        out = project_fields_to_tetrad([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], p, 0.0)
        assert out == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_magnetic_z_at_phase_origin(self):
        # pure H_z input mixes into the first electric and third magnetic legs
        p = RotationParams(omega=1.0, radius=0.7, constants=NATURAL)
        out = project_fields_to_tetrad([0.0, 0.0, 0.0, 0.0, 0.0, 1.0], p, 0.0)
        bg = p.beta * p.gamma
        assert out == pytest.approx([-bg, 0.0, 0.0, 0.0, 0.0, p.gamma], abs=1e-15)

    def test_nonfinite_rejected(self):
        # one infinite amplitude: eval_lab_fields' own guard stops it, which
        # numpy's warnings, silenced here, would otherwise pre-empt
        # eps (1, 0, 0) and (0, 1, 0) along khat = +z, each with its khat x eps
        pol = np.array([[[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]],
                        [[[0.0, 1.0, 0.0]], [[-1.0, 0.0, 0.0]]]])
        ms = ModeSet(spectrum="discrete", n_max=1, n_theta=1, n_phi=1, k0=1.0,
                     wavenumbers=np.array([1.0]), khat=np.array([[0.0, 0.0, 1.0]]),
                     amp=np.array([[np.inf]]), pol=pol)
        p = RotationParams(omega=1.0, radius=0.5, constants=NATURAL)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            eval_lab_fields(ms, draw_phases(ms, seed=0), p, 0.3)

    @settings(max_examples=50, deadline=None)
    @given(e1=triple, h1=triple, e2=triple, h2=triple,
           a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, e1, h1, e2, h2, a, b):
        p = RotationParams(omega=1.0, radius=0.6, constants=NATURAL)
        tau = 0.8
        f1, f2 = np.array(e1 + h1), np.array(e2 + h2)
        lhs = project_fields_to_tetrad(a * f1 + b * f2, p, tau)
        r1 = project_fields_to_tetrad(f1, p, tau)
        r2 = project_fields_to_tetrad(f2, p, tau)
        assert lhs == pytest.approx(a * r1 + b * r2, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(e=triple, h=triple, beta=st.floats(0.0, 0.95), tau=st.floats(-5, 5))
    def test_tensor_contraction_oracle(self, e, h, beta, tau):
        p = (RotationParams(0.0, 0.0, NATURAL) if beta == 0.0
             else RotationParams.from_beta(1.0, beta, NATURAL))
        lab = np.array(e + h)
        direct = project_fields_to_tetrad(lab, p, tau)
        tensor = project_fields_via_tensor(lab, p, tau)
        assert np.max(np.abs(direct - tensor)) < 1e-12

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0 - 1e-6])
    @pytest.mark.parametrize("kind", ["EE", "HH", "EH"])
    def test_rows_are_rows_of_the_matrix(self, kind, beta):
        # bit for bit, signed zeros included (alpha 0 and beta 0 give -0.0)
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        taus = [a / (p.omega * p.gamma) for a in (0.0, 0.7, math.pi / 2, math.pi, 5.0)]
        for pair in itertools.product((1, 2, 3), repeat=2):
            for tau1, tau2 in itertools.product(taus, repeat=2):
                rows = projection_rows(pair, kind, p, tau1, tau2)
                ref = np.array([projection_matrix(p, tau)[a - 1 + 3 * (f == "H")]
                                for f, a, tau in zip(kind, pair, (tau1, tau2))])
                assert np.array_equal(rows, ref), (pair, tau1, tau2)
                assert np.array_equal(np.signbit(rows), np.signbit(ref)), (pair, tau1, tau2)


class TestPolarization:
    def test_z_axis_sum_rule(self):
        m = polarization_sum_matrix(Direction(0.0, 0.0))
        assert m == pytest.approx(np.diag([1.0, 1.0, 0.0]))

    @settings(max_examples=80, deadline=None)
    @given(d=directions.filter(lambda d: math.sin(d.theta) > 1e-7))
    def test_completeness(self, d):
        k = d.unit_vector
        m = polarization_sum_matrix(d)
        assert np.max(np.abs(m - (np.eye(3) - np.outer(k, k)))) < 1e-12

    def test_completeness_in_pole_patch(self):
        # inside the pinned-basis patch the residual is bounded by the patch size
        d = Direction(5e-9, 1.0)
        k = d.unit_vector
        m = polarization_sum_matrix(d)
        assert np.max(np.abs(m - (np.eye(3) - np.outer(k, k)))) < 2e-8

    @settings(max_examples=80, deadline=None)
    @given(d=directions.filter(lambda d: math.sin(d.theta) > 1e-7))
    def test_transversality_and_norms(self, d):
        e1, e2 = polarization_basis(d)
        k = d.unit_vector
        assert abs(e1 @ k) < 1e-14
        assert abs(e2 @ k) < 1e-14
        assert abs(e1 @ e2) < 1e-14
        assert np.linalg.norm(e1) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(e2) == pytest.approx(1.0, abs=1e-14)

    def test_pole_convention(self):
        e1, e2 = polarization_basis(Direction(1e-9, 0.3))
        assert e1 == pytest.approx([1.0, 0.0, 0.0], abs=1e-8)
        assert e2 == pytest.approx([0.0, 1.0, 0.0], abs=1e-8)


class TestAngularWeight:
    def test_static_limit_form(self):
        p = RotationParams(0.0, 0.0, NATURAL)
        for d in (Direction(0.3, 1.0), Direction(2.0, 4.4)):
            kx = d.unit_vector[0]
            expect = 3.0 / (8.0 * math.pi) * (1.0 - kx * kx)
            assert angular_weight_kernel(d, 0.0, p) == pytest.approx(expect, rel=1e-14)

    def test_unit_normalization_at_rest(self):
        p = RotationParams(0.0, 0.0, NATURAL)
        val, _ = integrate_sphere(
            lambda k: angular_weight_kernel_grid(k[..., 0], k[..., 1], 0.0, p))
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.9])
    def test_coincidence_moment(self, beta):
        p = RotationParams.from_beta(1.0, beta, NATURAL)
        val, _ = integrate_sphere(
            lambda k: angular_weight_kernel_grid(k[..., 0], k[..., 1], 0.0, p))
        assert val == pytest.approx(p.gamma**2 * (1.0 + beta**2), rel=1e-10)

    def test_azimuth_mirror_invariance(self, params_mid):
        # only kx^2 and ky enter, so phi -> pi - phi leaves the kernel alone
        d = Direction(1.2, 0.7)
        d_mir = Direction(d.theta, (math.pi - d.phi) % (2.0 * math.pi))
        for delta in (0.4, 2.9):
            assert angular_weight_kernel(d_mir, delta, params_mid) == pytest.approx(
                angular_weight_kernel(d, delta, params_mid), rel=1e-12)

    def test_shift_by_period_flips_ky(self, params_mid):
        # the ky-linear term flips sign with the half-angle cosine, so a 2 pi
        # shift in delta is equivalent to the reflection ky -> -ky
        d = Direction(1.2, 0.7)
        d_ref = Direction(d.theta, (-d.phi) % (2.0 * math.pi))
        for delta in (0.4, 2.9):
            shifted = angular_weight_kernel(d, delta + 2.0 * math.pi, params_mid)
            reflected = angular_weight_kernel(d_ref, delta, params_mid)
            assert shifted == pytest.approx(reflected, rel=1e-12)

    def test_grid_matches_scalar(self, params_mid):
        dirs = [Direction(0.4, 0.2), Direction(1.3, 5.0)]
        k = np.array([d.unit_vector for d in dirs])
        delta, b, g = 1.1, params_mid.beta, params_mid.gamma
        grid = angular_weight_kernel_grid(k[:, 0], k[:, 1], delta, params_mid)
        for i, d in enumerate(dirs):
            kx, ky, _ = k[i]
            expect = 3.0 / (8.0 * math.pi) * g * g * (
                math.cos(delta) + 2.0 * b * math.cos(delta / 2.0) * ky
                + (b * b - math.cos(delta / 2.0) ** 2) * kx * kx
                + (b * b + math.sin(delta / 2.0) ** 2) * ky * ky)
            assert grid[i] == pytest.approx(expect, rel=1e-14)
            assert angular_weight_kernel(d, delta, params_mid) == pytest.approx(expect, rel=1e-14)
