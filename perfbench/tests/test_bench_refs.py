"""The reference formulas against brute-force quadratures that share none of
their algebra: full 2-D sphere integrals with the kernel built from explicit
polarization vectors, the defining integrals and series of the thermal
parts, and finite differences.  Nothing here imports rotvac."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import refs

PSI_NODES = 64  # trapezoid in the azimuth; exact for the trigonometric degrees met here


def sphere_2d(f, axis):
    """int over the sphere of f(k) for k of shape (N, 3): adaptive in the
    cosine u about ``axis``, trapezoid in the azimuth psi."""
    axis = np.asarray(axis, float) / np.linalg.norm(axis)
    e_a = np.cross(axis, [0.0, 0.0, 1.0] if abs(axis[2]) < 0.9 else [1.0, 0.0, 0.0])
    e_a /= np.linalg.norm(e_a)
    e_b = np.cross(axis, e_a)
    psi = 2.0 * np.pi * np.arange(PSI_NODES) / PSI_NODES

    def ring(u):
        s = math.sqrt(max(0.0, 1.0 - u * u))
        k = (u * axis[None, :] + s * np.cos(psi)[:, None] * e_a[None, :]
             + s * np.sin(psi)[:, None] * e_b[None, :])
        return 2.0 * np.pi * float(np.mean(f(k)))

    mass, _ = quad(lambda u: abs(ring(u)), -1.0, 1.0, epsrel=1e-6, limit=400)
    val, _ = quad(ring, -1.0, 1.0, epsabs=1e-13 * mass, epsrel=1e-12, limit=400)
    return val


def polarizations(k):
    """Two unit vectors orthogonal to each row of k and to each other."""
    ref = np.where(np.abs(k[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    e1 = np.cross(ref, k)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return e1, np.cross(k, e1)


def em_cf_brute(pair, kind, beta, delta):
    """Sum over both polarizations of (row1 . (eps, k x eps)) (row2 . (eps, k x eps))
    against 6 / (k . (x1 - x2) - c (t1 - t2))^4, over the whole sphere."""
    rows1, rows2 = refs.tetrad_rows(0.0, beta), refs.tetrad_rows(delta, beta)
    a, b = pair
    row1 = rows1[a - 1 if kind[0] == "E" else 2 + a]
    row2 = rows2[b - 1 if kind[1] == "E" else 2 + b]
    dr = np.array([beta * (1.0 - math.cos(delta)), -beta * math.sin(delta), 0.0])

    def f(k):
        total = 0.0
        for eps in polarizations(k):
            field = np.concatenate([eps, np.cross(k, eps)], axis=1)
            total = total + (field @ row1) * (field @ row2)
        return total * 6.0 / (k @ dr + delta) ** 4

    return sphere_2d(f, -dr) / (4.0 * math.pi**2)


POINTS = [(0.05, 0.7), (0.5, 2.4), (0.9, 5.1), (0.99, 0.4), (0.99999, 0.1)]


@pytest.mark.parametrize("beta,delta", POINTS)
@pytest.mark.parametrize("pair,kind", [((1, 1), "EE"), ((2, 2), "EE"), ((3, 3), "EE"),
                                       ((1, 2), "EE"), ((2, 1), "EE"), ((1, 3), "EH")])
def test_em_continuous_reduction(beta, delta, pair, kind):
    value, mass = refs.em_cf_continuous_ref(pair, kind, beta, delta)
    brute = em_cf_brute(pair, kind, beta, delta)
    assert abs(value - brute) <= 1e-9 * mass


@pytest.mark.parametrize("beta,delta", POINTS)
def test_em_continuous_z_coupled_pairs_vanish(beta, delta):
    _, mass = refs.em_cf_continuous_ref((1, 1), "EE", beta, delta)
    for pair in ((1, 3), (2, 3)):
        assert abs(refs.em_cf_continuous_ref(pair, "EE", beta, delta)[0]) <= 1e-13 * mass


@pytest.mark.parametrize("beta,delta", POINTS)
def test_scalar_continuous(beta, delta):
    ey = np.array([0.0, 1.0, 0.0])
    e0 = 2.0 * beta * math.sin(delta / 2.0)
    brute = sphere_2d(lambda k: -1.0 / (delta - e0 * (k @ ey)) ** 2, ey) / (4.0 * math.pi**2)
    assert refs.scalar_cf_continuous_ref(beta, delta) == pytest.approx(brute, rel=1e-10)
    assert refs.scalar_cf_closed_ref(beta, delta) == pytest.approx(brute, rel=1e-10)


def angular_weight_3d(beta, delta, k):
    g2 = refs.gamma_of(beta) ** 2
    kx, ky = k[:, 0], k[:, 1]
    return 3.0 / (8.0 * math.pi) * g2 * (
        math.cos(delta) + 2.0 * beta * math.cos(delta / 2.0) * ky
        + (beta**2 - math.cos(delta / 2.0) ** 2) * kx**2
        + (beta**2 + math.sin(delta / 2.0) ** 2) * ky**2)


def direct_cubic_ladder(phase, n=200000):
    """Abel-free value of sum n^3 cos(n phase) from the partial fractions
    6 sum_m (phase + 2 pi m)^-4."""
    m = np.arange(-n, n + 1, dtype=float)
    return 6.0 * np.sum((phase + 2.0 * np.pi * m) ** -4.0)


@pytest.mark.parametrize("beta,delta", [(0.05, 0.7), (0.3, 2.4), (0.6, 4.5), (0.99, 0.4),
                                        (0.99999, 0.1)])
def test_em_discrete_reduction(beta, delta):
    ey = np.array([0.0, 1.0, 0.0])

    def f(k):
        ph = refs.ladder_phase(beta, delta, k @ ey)
        s2 = np.sin(ph / 2.0) ** 2
        return angular_weight_3d(beta, delta, k) * (3.0 - 2.0 * s2) / (8.0 * s2 * s2)

    value, mass = refs.em_discrete_ref(beta, delta)
    brute = refs.EM_DISCRETE_PREF * sphere_2d(f, ey)
    assert abs(value - brute) <= 1e-9 * mass


@pytest.mark.parametrize("beta,delta", [(0.3, 0.9), (0.3, 4.4)])
def test_truncated_ladder_reduction(beta, delta):
    ey = np.array([0.0, 1.0, 0.0])

    def f(k):
        ph = refs.ladder_phase(beta, delta, k @ ey)
        return angular_weight_3d(beta, delta, k) * sum(n**3 * np.cos(n * ph) for n in range(1, 7))

    brute = refs.EM_DISCRETE_PREF * sphere_2d(f, ey)
    assert refs.em_discrete_truncated_ref(beta, delta, 6) == pytest.approx(brute, rel=1e-9)


@pytest.mark.parametrize("phase", [0.05, 1.0, 3.0, 5.5, 6.2])
def test_thermal_parts(phase):
    def defining(p):
        # int_0^inf 2 u^p cosh(u phase) / (e^{2 pi u} - 1) du
        f = lambda u: 2.0 * u**p * (math.exp(-(2 * math.pi - phase) * u)
                                    + math.exp(-(2 * math.pi + phase) * u)) / 2.0 \
            / -math.expm1(-2.0 * math.pi * u) if u > 0 else 0.0
        return quad(f, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=400)[0]

    assert refs.thermal_cubic(phase) == pytest.approx(defining(3), rel=1e-10)
    assert refs.thermal_linear(phase) == pytest.approx(defining(1), rel=1e-10)
    assert refs.cubic_ladder(phase) == pytest.approx(direct_cubic_ladder(phase), rel=1e-10)
    assert 6.0 / phase**4 + refs.thermal_cubic(phase) == pytest.approx(
        refs.cubic_ladder(phase), rel=1e-12)
    assert -1.0 / phase**2 - refs.thermal_linear(phase) == pytest.approx(
        refs.linear_ladder(phase), rel=1e-12)


@pytest.mark.parametrize("beta,delta", [(0.3, 1.2), (0.6, 5.0)])
def test_split_parts_sum_to_total(beta, delta):
    (zp, _), (th, _) = refs.em_discrete_split_ref(beta, delta)
    total, mass = refs.em_discrete_ref(beta, delta)
    assert abs(zp + th - total) <= 1e-11 * (abs(zp) + mass)
    zp_s, th_s = refs.scalar_discrete_split_ref(beta, delta)
    assert zp_s + th_s == pytest.approx(refs.scalar_discrete_closed_ref(beta, delta), rel=1e-11)


def test_thermodynamics():
    omega = 1.0e6
    temp = refs.rotation_temperature_ref(omega)
    sigma = math.pi**2 * refs.K_B**4 / (60.0 * refs.HBAR**3 * refs.C_LIGHT**2)
    assert refs.blackbody_density_ref(omega) == pytest.approx(4.0 * sigma / refs.C_LIGHT * temp**4,
                                                              rel=1e-13)
    # scalar bath from the Planck integral int u^3 / (e^u - 1) du
    planck = quad(lambda u: u**3 * math.exp(-u) / -math.expm1(-u) if u > 0 else 0.0,
                  0.0, math.inf, epsrel=1e-12)[0]
    scale = refs.K_B * temp / refs.HBAR
    bath = 2.0 * refs.HBAR / (math.pi * refs.C_LIGHT**3) * scale**4 * planck
    assert refs.scalar_bath_ref(omega) == pytest.approx(bath, rel=1e-11)
    # vacuum force is minus the r derivative of the thermal density
    w = 2.0e3
    r0 = refs.C_LIGHT / w
    dens = lambda r: (2.0 * (4.0 / (1.0 - (w * r / refs.C_LIGHT) ** 2) - 1.0) / 3.0
                      * refs.blackbody_density_ref(w))
    for x in (0.1, 0.5, 0.9):
        h = 1e-5 * r0
        fd = -(dens(x * r0 + h) - dens(x * r0 - h)) / (2.0 * h)
        assert refs.vacuum_force_ref(w, x * r0) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.9])
def test_monte_carlo_field_covariance(beta):
    # the tetrad covariance carries the truncated-ladder energy density, and
    # its seed spread follows from sampling Gaussian fields with it
    cov = refs.mc_tetrad_covariance(beta, 6, alpha=1.3)
    assert np.trace(cov) / (8.0 * math.pi) == pytest.approx(refs.mc_energy_density_ref(beta, 6),
                                                            rel=1e-13)
    rng = np.random.default_rng(4)
    x = rng.multivariate_normal(np.zeros(6), cov, size=200000)
    w = np.sum(x * x, axis=1) / (8.0 * math.pi)
    assert np.std(w) == pytest.approx(refs.mc_energy_seed_sd(beta, 6), rel=0.02)
    assert np.std(x[:, 0] * x[:, 1]) == pytest.approx(
        math.sqrt(cov[0, 0] * cov[1, 1] + cov[0, 1] ** 2), rel=0.02)
