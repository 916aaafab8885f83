"""Reference values computed apart from rotvac.

Nothing here imports rotvac.  Every sphere integral the benchmarked routes
evaluate is reduced to one dimension and done with scipy's QUADPACK, the
ladder sums and the thermal parts of their zero-point/thermal split are typed
from their closed forms (the thermal parts through polygamma functions), and
the thermodynamic figures are typed from CODATA constants.

The sphere reduction: with u the direction cosine along an axis n, the
surface element is du dpsi (Archimedes).  An integrand that is a polynomial
of degree <= 2 in the direction k times a function of u has the circle
averages <k> = u n and <k_i k_j> = u^2 n_i n_j + (1 - u^2)/2 (delta_ij -
n_i n_j), so the sphere integral is 2 pi times a 1-D integral over u.  In
particular an integrand that depends on k_x only through k_x^2 at fixed k_y
= u has <k_x^2> = (1 - u^2)/2.

Conventions follow the paper: natural units (hbar = c = 1) and omega = 1 for
the correlation functions, so the angular lag delta equals the lab time
difference, the orbit radius equals beta, and the ladder phase in the
direction with k_y = u is delta - 2 beta u sin(delta/2).
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import polygamma

# CODATA 2018: h, c, k_B are exact
H_PLANCK = 6.62607015e-34
HBAR = H_PLANCK / (2.0 * math.pi)
C_LIGHT = 299792458.0
K_B = 1.380649e-23

_EPSREL = 1e-13


def integrate_u(g, abs_scale: float = 0.0) -> float:
    """int_{-1}^{1} g(u) du by QUADPACK to 1e-13 relative, or to 1e-13 of
    abs_scale for an integral that cancels; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        val, _ = quad(g, -1.0, 1.0, epsabs=_EPSREL * abs_scale, epsrel=_EPSREL, limit=400)
    return val


def mass_u(g) -> float:
    """int_{-1}^{1} |g(u)| du to 1e-6: the roundoff scale of an integral
    that may cancel."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda u: abs(g(u)), -1.0, 1.0, epsabs=0.0, epsrel=1e-6, limit=400)
    return val


def gamma_of(beta: float) -> float:
    return 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))


def ladder_phase(beta: float, delta: float, u):
    """Phase of the harmonic ladder in the direction with k_y = u."""
    return delta - 2.0 * beta * u * math.sin(delta / 2.0)


# --- ladder sums and the thermal parts of their split -----------------------

def cubic_ladder(phase):
    """Abel-regularized sum_{n>=0} n^3 cos(n phase) = (3 - 2 s^2) / (8 s^4)."""
    s2 = np.sin(np.asarray(phase) / 2.0) ** 2
    return (3.0 - 2.0 * s2) / (8.0 * s2 * s2)


def linear_ladder(phase):
    """Abel-regularized sum_{n>=0} n cos(n phase) = -1 / (4 s^2)."""
    return -1.0 / (4.0 * np.sin(np.asarray(phase) / 2.0) ** 2)


def truncated_cubic_ladder(phase, n_max: int):
    """sum_{n=1}^{n_max} n^3 cos(n phase)."""
    phase = np.asarray(phase, dtype=float)
    return sum(n**3 * np.cos(n * phase) for n in range(1, n_max + 1))


def thermal_cubic(phase):
    """m != 0 part of 6 sum_m (phase + 2 pi m)^-4:
    (2 pi)^-4 [psi3(1 + phase/2pi) + psi3(1 - phase/2pi)]."""
    x = np.asarray(phase) / (2.0 * math.pi)
    return (polygamma(3, 1.0 + x) + polygamma(3, 1.0 - x)) / (2.0 * math.pi) ** 4


def thermal_linear(phase):
    """m != 0 part of sum_m (phase + 2 pi m)^-2:
    (2 pi)^-2 [psi1(1 + phase/2pi) + psi1(1 - phase/2pi)]."""
    x = np.asarray(phase) / (2.0 * math.pi)
    return (polygamma(1, 1.0 + x) + polygamma(1, 1.0 - x)) / (2.0 * math.pi) ** 2


# --- continuous-spectrum correlation functions ------------------------------

def _tetrad(alpha: float, beta: float) -> np.ndarray:
    """Frenet-Serret legs on (x, y, z, ct) slots, rows mu1..mu4."""
    g = gamma_of(beta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return np.array([
        [ca, sa, 0.0, 0.0],
        [-g * sa, g * ca, 0.0, beta * g],
        [0.0, 0.0, 1.0, 0.0],
        [-beta * g * sa, beta * g * ca, 0.0, g],
    ])


def _field_tensor(e, h) -> np.ndarray:
    """F_4k = E_k and (F_23, F_31, F_12) = (H_1, H_2, H_3)."""
    f = np.zeros((4, 4))
    f[3, :3] = e
    f[:3, 3] = -np.asarray(e)
    f[1, 2], f[2, 1] = h[0], -h[0]
    f[2, 0], f[0, 2] = h[1], -h[1]
    f[0, 1], f[1, 0] = h[2], -h[2]
    return f


def tetrad_rows(alpha: float, beta: float) -> np.ndarray:
    """6x6 linear map lab (E, H) -> tetrad (E_(1..3), H_(1..3)), built column
    by column from F_(a)(b) = mu_(a) F mu_(b)^T."""
    mu = _tetrad(alpha, beta)
    out = np.empty((6, 6))
    for col in range(6):
        v = np.zeros(6)
        v[col] = 1.0
        fab = mu @ _field_tensor(v[:3], v[3:]) @ mu.T
        out[:, col] = [fab[3, 0], fab[3, 1], fab[3, 2], fab[1, 2], fab[2, 0], fab[0, 1]]
    return out


_LEVI = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI[_i, _j, _k], _LEVI[_i, _k, _j] = 1.0, -1.0


def _kernel_coefficients(row1, row2, n):
    """Circle-averaged polarization kernel row1^T M(k) row2 at k.n = u, as
    coefficients (a0, a1, a2) of 1, u, u^2.

    M has blocks delta_ij - k_i k_j (EE, HH), eps_{j a i} k_a (EH) and its
    negative transpose (HE), the polarization sums of E = eps, H = k x eps.
    """
    e1, h1, e2, h2 = row1[:3], row1[3:], row2[:3], row2[3:]
    nn = np.outer(n, n)
    # <k_i k_j> = u^2 nn + (1 - u^2)/2 (I - nn)
    kk0 = 0.5 * (np.eye(3) - nn)
    kk2 = nn - kk0
    a0 = e1 @ e2 + h1 @ h2 - (e1 @ kk0 @ e2 + h1 @ kk0 @ h2)
    a2 = -(e1 @ kk2 @ e2 + h1 @ kk2 @ h2)
    # eps_{j a i} k_a e1_i h2_j - eps_{j a i} k_a h1_i e2_j with <k> = u n
    a1 = (np.einsum("jai,a,i,j->", _LEVI, n, e1, h2)
          - np.einsum("jai,a,i,j->", _LEVI, n, h1, e2))
    return a0, a1, a2


def em_cf_continuous_ref(pair, kind: str, beta: float, delta: float):
    """<A_(a)(0) B_(b)(tau)> for the continuous zero-point spectrum, A, B in
    {E, H}, at omega gamma tau = delta; returns (value, mass).

    (hbar c / 4 pi^2) times the sphere integral of the polarization kernel
    against the regularized radial integral 6 / (k . (x1 - x2) - c (t1 - t2))^4,
    reduced along the direction of x1 - x2.  mass is the same integral of the
    absolute integrand, the scale of the integral's roundoff.
    """
    rows1 = tetrad_rows(0.0, beta)
    rows2 = tetrad_rows(delta, beta)
    a, b = pair
    row1 = rows1[a - 1 if kind[0] == "E" else 2 + a]
    row2 = rows2[b - 1 if kind[1] == "E" else 2 + b]
    dr = np.array([beta * (1.0 - math.cos(delta)), -beta * math.sin(delta), 0.0])
    span = float(np.linalg.norm(dr))
    n = dr / span
    a0, a1, a2 = _kernel_coefficients(row1, row2, n)
    radial = lambda u: 6.0 / (span * u + delta) ** 4
    f = lambda u: (a0 + a1 * u + a2 * u * u) * radial(u)
    mass = mass_u(f)
    val = integrate_u(f, abs_scale=mass)
    norm = 2.0 * math.pi / (4.0 * math.pi**2)
    return norm * val, norm * mass


def scalar_cf_continuous_ref(beta: float, delta: float) -> float:
    """(hbar c / 4 pi^2) 2 pi int du -1 / (delta - 2 beta sin(delta/2) u)^2."""
    e0 = 2.0 * beta * math.sin(delta / 2.0)
    val = integrate_u(lambda u: -1.0 / (delta - e0 * u) ** 2)
    return 2.0 * math.pi * val / (4.0 * math.pi**2)


def scalar_cf_closed_ref(beta: float, delta: float) -> float:
    """-(1/pi) / (delta^2 - 4 beta^2 sin^2(delta/2))."""
    return -1.0 / math.pi / (delta**2 - 4.0 * beta**2 * math.sin(delta / 2.0) ** 2)


# --- periodic (harmonic-ladder) correlation functions ----------------------

def angular_weight_u(beta: float, delta: float, u):
    """Angular weight of the (1,1) EE periodic CF averaged over the circle
    k_y = u: (3 / 8 pi) gamma^2 [cos d + 2 b cos(d/2) u
    + (b^2 - cos^2(d/2)) (1 - u^2)/2 + (b^2 + sin^2(d/2)) u^2]."""
    g2 = gamma_of(beta) ** 2
    ch, sh = math.cos(delta / 2.0), math.sin(delta / 2.0)
    return 3.0 / (8.0 * math.pi) * g2 * (
        math.cos(delta) + 2.0 * beta * ch * u
        + (beta**2 - ch * ch) * (1.0 - u * u) / 2.0
        + (beta**2 + sh * sh) * u * u)


EM_DISCRETE_PREF = 2.0 / (3.0 * math.pi)      # 2 hbar omega^4 / (3 pi c^3)
SCALAR_DISCRETE_PREF = 1.0 / (4.0 * math.pi**2)  # hbar c k0^2 / (4 pi^2)


def em_discrete_ref(beta: float, delta: float, ladder=cubic_ladder):
    """Periodic (1,1) EE CF, prefactor times 2 pi int du K(u) ladder(phase(u));
    returns (value, mass), mass the same integral of |K ladder|."""
    f = lambda u: angular_weight_u(beta, delta, u) * ladder(ladder_phase(beta, delta, u))
    mass = mass_u(f)
    norm = EM_DISCRETE_PREF * 2.0 * math.pi
    return norm * integrate_u(f, abs_scale=mass), norm * mass


def em_discrete_split_ref(beta: float, delta: float):
    """(zero-point, thermal) parts of the periodic EM CF, each as (value,
    mass): ladders 6/phase^4 and thermal_cubic(phase)."""
    return (em_discrete_ref(beta, delta, lambda ph: 6.0 / ph**4),
            em_discrete_ref(beta, delta, thermal_cubic))


def em_discrete_truncated_ref(beta: float, delta: float, n_max: int) -> float:
    """Periodic (1,1) EE CF of the ladder truncated at n_max."""
    return em_discrete_ref(beta, delta, lambda ph: truncated_cubic_ladder(ph, n_max))[0]


def scalar_discrete_closed_ref(beta: float, delta: float) -> float:
    """-(1/4pi^2) 2 pi [cot((d - 2bs)/2) - cot((d + 2bs)/2)] / (4 b s), s = sin(d/2)."""
    bs = beta * math.sin(delta / 2.0)
    cot = lambda x: math.cos(x) / math.sin(x)
    return (-SCALAR_DISCRETE_PREF * 2.0 * math.pi
            * (cot((delta - 2.0 * bs) / 2.0) - cot((delta + 2.0 * bs) / 2.0)) / (4.0 * bs))


def scalar_discrete_split_ref(beta: float, delta: float):
    """(zero-point, thermal) parts of the periodic scalar CF: -1/phase^2 and
    -thermal_linear(phase)."""
    zp = integrate_u(lambda u: -1.0 / ladder_phase(beta, delta, u) ** 2)
    th = integrate_u(lambda u: -thermal_linear(ladder_phase(beta, delta, u)))
    scale = SCALAR_DISCRETE_PREF * 2.0 * math.pi
    return scale * zp, scale * th


# --- thermodynamics, SI ------------------------------------------------------

def rotation_temperature_ref(omega: float) -> float:
    return HBAR * omega / (2.0 * math.pi * K_B)


def blackbody_density_ref(omega: float) -> float:
    """(4 sigma / c) T_rot^4 = hbar omega^4 / (240 pi^2 c^3)."""
    return HBAR * omega**4 / (240.0 * math.pi**2 * C_LIGHT**3)


def em_anisotropy_ref(beta: float) -> float:
    return 2.0 * (4.0 * gamma_of(beta) ** 2 - 1.0) / 3.0


def scalar_factor_ref(beta: float) -> float:
    """(4 gamma^2 - 1) / 3, the measured scalar ratio (not the quoted 2/9 form)."""
    return (4.0 * gamma_of(beta) ** 2 - 1.0) / 3.0


def cubic_sum(n_max: int) -> float:
    return float(sum(n**3 for n in range(1, n_max + 1)))


def em_zero_point_ref(beta: float, omega: float, n_max: int) -> float:
    """Truncated zero-point ladder, anisotropy * hbar omega^4 / (2 pi^2 c^3) * sum n^3."""
    return (em_anisotropy_ref(beta) * HBAR * omega**4 / (2.0 * math.pi**2 * C_LIGHT**3)
            * cubic_sum(n_max))


def scalar_bath_ref(omega: float) -> float:
    """Inertial scalar thermal density at T_rot: 2 pi^3 (k_B T)^4 / (15 hbar^3 c^3)."""
    kt = K_B * rotation_temperature_ref(omega)
    return 2.0 * math.pi**3 * kt**4 / (15.0 * HBAR**3 * C_LIGHT**3)


def scalar_zero_point_ref(beta: float, omega: float, n_max: int) -> float:
    return (scalar_factor_ref(beta) * HBAR * omega**4 / (math.pi * C_LIGHT**3)
            * cubic_sum(n_max))


def vacuum_force_ref(omega: float, r: float) -> float:
    """-d/dr of em_anisotropy * blackbody density at fixed omega:
    -(8/3) C 2 r (omega/c)^2 / (1 - x^2)^2 with x = omega r / c."""
    x = omega * r / C_LIGHT
    return (-(8.0 / 3.0) * blackbody_density_ref(omega) * 2.0 * r * (omega / C_LIGHT) ** 2
            / (1.0 - x * x) ** 2)


def mc_energy_density_ref(beta: float, n_max: int) -> float:
    """Truncated-ladder EM energy density in natural units with omega = 1, the
    expectation of the Monte Carlo estimate."""
    return em_anisotropy_ref(beta) / (2.0 * math.pi**2) * cubic_sum(n_max)


def mc_tetrad_covariance(beta: float, n_max: int, alpha: float = 0.0) -> np.ndarray:
    """Covariance of the tetrad (E_(1..3), H_(1..3)) of the Monte Carlo field
    at rotation phase alpha: s^2 R R^T with R the tetrad rows.  Each lab
    component has variance s^2 = 8 pi w0 / 6, w0 the truncated-ladder density
    at rest; the lab components are uncorrelated, since the angular grid
    integrates the quadratic polarization sums exactly."""
    s2 = 8.0 * math.pi * mc_energy_density_ref(0.0, n_max) / 6.0
    rows = tetrad_rows(alpha, beta)
    return s2 * rows @ rows.T


def mc_cf_seed_sd(pair, beta: float, delta: float, n_max: int, mean: float) -> float:
    """Standard deviation over seeds of E_(a)(0) E_(b)(tau) for the Gaussian
    field: sqrt(<E_a^2> <E_b^2> + mean^2)."""
    a, b = pair
    var_a = mc_tetrad_covariance(beta, n_max, 0.0)[a - 1, a - 1]
    var_b = mc_tetrad_covariance(beta, n_max, delta)[b - 1, b - 1]
    return math.sqrt(var_a * var_b + mean * mean)


def mc_energy_seed_sd(beta: float, n_max: int) -> float:
    """Standard deviation over seeds of (1/8 pi) sum of the squared tetrad
    components for the Gaussian field: sqrt(2 sum_ab C_ab^2) / (8 pi)."""
    cov = mc_tetrad_covariance(beta, n_max)
    return math.sqrt(2.0 * float(np.sum(cov * cov))) / (8.0 * math.pi)

