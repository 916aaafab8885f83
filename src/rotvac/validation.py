"""The acceptance criteria, runnable from the CLI.

Each check_* function is the single implementation of its criterion and
returns one or more CheckResult rows with the measured quantity, its target,
the tolerance, and a pass flag.  run_suite runs them at the suite settings
and times each check group; tests/test_acceptance.py runs them at its own
Monte Carlo settings and adds the elapsed-time bounds.  The scalar-bath-ratio
row compares a quadrature measurement against the quoted factor
2 (4 gamma^2 - 1) / 9, which the defining spectral formulas do not
reproduce; it is expected to fail and is kept as stated (see the README
section on known check failures).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import cf_continuous as cfc
from . import cf_discrete as cfd
from . import montecarlo as mc
from . import thermo
from .constants import NATURAL, ROUNDED, SI
from .kinematics import RotationParams
from .numerics import abel_plana_check, abel_sum, integrate_1d

__all__ = ["CheckResult", "run_suite", "SUITES", "KNOWN_FAILING"]

# reference-value checks expected to fail under exact evaluation
KNOWN_FAILING = ("scalar-bath-ratio",)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    target: float
    tolerance: float
    detail: str = ""


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def check_sine_power_integrals() -> List[CheckResult]:
    out = []
    for k0, exact in ((1, 2.0), (3, 4.0 / 3.0), (5, 16.0 / 15.0)):
        v = cfc.sin_power_integral(k0, 0.0)
        out.append(CheckResult(f"sine-power-p{k0}-k0-exact", abs(v - exact) < 1e-14,
                               v, exact, 1e-14))
    worst = 0.0
    for k in (0.0, 0.3, 0.7, 0.9, 0.99):
        for p in (1, 3, 5):
            closed = cfc.sin_power_integral(p, k)
            quad_val, _ = integrate_1d(
                lambda th: math.sin(th) ** p / (1.0 - k * k * math.sin(th) ** 2) ** 3.5,
                0.0, math.pi)
            worst = max(worst, _rel(closed, quad_val))
    out.append(CheckResult("sine-power-vs-quadrature", worst < 1e-9, worst, 0.0, 1e-9))
    return out


def check_phi_kernels() -> List[CheckResult]:
    worst = 0.0
    for b in (0.0, 0.3, -0.3, 0.8, -0.8):
        for m in (0, 1, 2):
            closed = cfc.phi_kernel_integral(m, b)
            quad_val, _ = integrate_1d(
                lambda ph: math.sin(ph) ** m / (1.0 + b * math.sin(ph)) ** 4,
                0.0, 2.0 * math.pi)
            err = abs(closed - quad_val) / max(1.0, abs(closed))
            worst = max(worst, err)
    return [CheckResult("phi-kernels-vs-quadrature", worst < 1e-9, worst, 0.0, 1e-9)]


def check_em_cf_continuous() -> List[CheckResult]:
    worst = 0.0
    for beta in (0.1, 0.5, 0.9):
        params = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (0.5, 1.0, 2.0, 5.0):
            tau2 = delta / (params.omega * params.gamma)
            closed = cfc.em_cf_continuous((1, 1), "EE", 0.0, tau2, params, "closed-form")
            quad_val = cfc.em_cf_continuous((1, 1), "EE", 0.0, tau2, params, "quadrature")
            worst = max(worst, _rel(closed.value, quad_val.value))
    rows = [CheckResult("em-cf-closed-vs-quadrature", worst < 1e-8, worst, 0.0, 1e-8)]

    params = RotationParams.from_beta(1.0, 0.5, NATURAL)
    delta = 1.0
    shift = 0.77
    tau2 = delta / (params.omega * params.gamma)
    a = cfc.em_cf_continuous((1, 1), "EE", 0.0, tau2, params, "quadrature")
    b = cfc.em_cf_continuous((1, 1), "EE", shift, tau2 + shift, params, "quadrature")
    drift = _rel(a.value, b.value)
    rows.append(CheckResult("em-cf-stationarity", drift < 1e-12, drift, 0.0, 1e-12))
    return rows


def check_offdiagonal_nullity(n_seeds: int = 1000, n_theta: int = 16,
                              n_phi: int = 32, n_max: int = 6,
                              seed: int = 20240817) -> List[CheckResult]:
    """Nullity of the z-coupled off-diagonal pairs at separated times; the
    (1,2) pair is genuinely nonzero there and is excluded (see README)."""
    params = RotationParams.from_beta(1.0, 0.5, NATURAL)
    delta = 1.0
    tau2 = delta / (params.omega * params.gamma)
    diag = abs(cfc.em_cf_continuous((1, 1), "EE", 0.0, tau2, params, "closed-form").value)
    rows = []
    worst = 0.0
    for pair in ((1, 3), (3, 1), (2, 3), (3, 2)):
        v = cfc.em_cf_tensor_quadrature(pair, "EE", 0.0, tau2, params).value
        worst = max(worst, abs(v) / diag)
    rows.append(CheckResult("offdiag-quadrature-null", worst < 1e-12, worst, 0.0, 1e-12))

    mparams = RotationParams.from_beta(1.0, 0.3, NATURAL)
    ms = mc.build_mode_set(mparams, n_max=n_max, n_theta=n_theta, n_phi=n_phi)
    tau2 = (math.pi / 2.0) / (mparams.omega * mparams.gamma)
    cfs = mc.empirical_cfs(((1, 3), (2, 3)), "EE", 0.0, [tau2], mparams, ms,
                           n_seeds=n_seeds, seed=seed)
    worst_pull = max(abs(cf.value) / cf.stat_error for (cf,) in cfs)
    rows.append(CheckResult("offdiag-mc-null", worst_pull < 3.0, worst_pull, 0.0, 3.0))
    return rows


def check_coincidence_nullity() -> List[CheckResult]:
    """Monte Carlo nullity of every off-diagonal pair, (1,2) included, at
    coincident times."""
    params = RotationParams.from_beta(1.0, 0.3, NATURAL)
    ms = mc.build_mode_set(params, n_max=6, n_theta=16, n_phi=32)
    cfs = mc.empirical_cfs(((1, 2), (1, 3), (2, 3)), "EE", 0.4, [0.4], params, ms,
                           n_seeds=1000, seed=20240818)
    worst_pull = max(abs(cf.value) / cf.stat_error for (cf,) in cfs)
    return [CheckResult("offdiag-mc-null-coincidence", worst_pull < 3.0,
                        worst_pull, 0.0, 3.0)]


def check_scalar_cf() -> List[CheckResult]:
    worst = 0.0
    for beta in (0.1, 0.5, 0.9):
        params = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (0.5, 1.0, 2.0, 5.0):
            tau2 = delta / (params.omega * params.gamma)
            closed = cfc.scalar_cf_continuous(0.0, tau2, params)
            quad_val = cfc.scalar_cf_quadrature(0.0, tau2, params)
            worst = max(worst, _rel(closed.value, quad_val.value))
    rows = [CheckResult("scalar-cf-closed-vs-quadrature", worst < 1e-8, worst, 0.0, 1e-8)]
    params = RotationParams(omega=1.0, radius=0.0, constants=NATURAL)
    tau = 1.7
    v = cfc.scalar_cf_continuous(0.0, tau, params).value
    inertial = -NATURAL.hbar * NATURAL.c / (math.pi * (NATURAL.c * tau) ** 2)
    rows.append(CheckResult("scalar-cf-rest-frame-reduction",
                            _rel(v, inertial) < 1e-14, v, inertial, 1e-14))
    return rows


def check_abel_plana() -> List[CheckResult]:
    rows = []
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        res = abel_plana_check(lambda x, s=s: x**3 * np.exp(-s * x))
        worst = max(worst, res)
    rows.append(CheckResult("abel-plana-residual", worst < 1e-8, worst, 0.0, 1e-8))

    for phase, target, label in ((math.pi, 0.125, "pi"), (2.0 * math.pi / 3.0, 1.0 / 3.0, "2pi3")):
        oracle = abel_sum(lambda n, ph=phase: n**3 * np.cos(n * ph)).value
        closed = cfd.cubic_ladder_sum_closed(phase)
        rows.append(CheckResult(f"cubic-ladder-abel-{label}",
                                abs(oracle - closed) < 1e-6 and abs(closed - target) < 1e-12,
                                oracle, target, 1e-6))
    worst = 0.0
    for phase in (0.5, 1.0, 2.0, math.pi, 4.0, 5.0, 6.0):
        split = cfd.cubic_ladder_split(phase)
        worst = max(worst, _rel(split.total, cfd.cubic_ladder_sum_closed(phase)))
    rows.append(CheckResult("ladder-split-vs-closed", worst < 1e-8, worst, 0.0, 1e-8))
    return rows


def check_planck_identity() -> List[CheckResult]:
    """Thermal part of each ladder split against QUADPACK with the Planck weight at T_rot."""
    params = RotationParams.from_beta(100.0, 0.4, SI)
    hbar_over_kT = SI.hbar / (SI.k_B * cfd.rotation_temperature(params))
    rows = []
    for label, split, p, sign in (("em", cfd.cubic_ladder_split, 3, 1.0),
                                  ("scalar", cfd.linear_ladder_split, 1, -1.0)):
        worst = 0.0
        for phase in (0.3, 1.0, 2.0, 4.0, 6.0):
            lag = phase / params.omega
            def planck(w):    # 2 w^p cosh(w lag) / (e^x - 1), every exponent <= 0
                x = hbar_over_kT * w
                return w**p * (math.exp(w * lag - x) + math.exp(-w * lag - x)) / -math.expm1(-x)
            quad_val, _ = integrate_1d(planck, 0.0, math.inf)
            ladder = sign * params.omega ** (p + 1) * split(phase).thermal_part
            worst = max(worst, _rel(ladder, quad_val))
        rows.append(CheckResult(f"planck-thermal-part-{label}", worst < 1e-10, worst, 0.0, 1e-10))
    return rows


def check_em_energy_density(n_seeds: int = 200, n_theta: int = 16, n_phi: int = 32,
                            n_max: int = 6, seed: int = 4321, n_workers: int = 1,
                            sigma_perturb: float = 1.0) -> List[CheckResult]:
    params = RotationParams.from_beta(1.0, 0.3, NATURAL)
    rep = thermo.em_energy_density(params, cutoff_n_max=n_max)
    quad_wt = thermo.em_thermal_density_quadrature(params)
    closed = rep.w_thermal * sigma_perturb
    ident = _rel(quad_wt, closed)
    rows = [CheckResult("em-thermal-closed-form", ident < 1e-10, ident, 0.0, 1e-10,
                        detail="Doppler quadrature vs 2 (4 g^2 - 1) / 3 sigma T^4 form")]

    ms = mc.build_mode_set(params, n_max=n_max, n_theta=n_theta, n_phi=n_phi)
    est = mc.empirical_energy_density(params, ms, n_seeds=n_seeds, seed=seed,
                                      n_workers=n_workers)
    pull, eh, mixed_pull = est.pulls(rep.w_zp_cutoff)
    rows.append(CheckResult("em-energy-mc-vs-ladder", pull < 3.0, pull, 0.0, 3.0))
    eq_pull = float(np.max(eh))
    rows.append(CheckResult("em-energy-e2-h2", eq_pull < 3.0, eq_pull, 0.0, 3.0))
    rows.append(CheckResult("em-energy-mixed-moment", mixed_pull < 3.0, mixed_pull, 0.0, 3.0))
    return rows


def check_scalar_ratio() -> List[CheckResult]:
    """Thermal-part ratio measured by sphere quadrature against the quoted
    2 (4 gamma^2 - 1) / 9.

    The measured ratio is (4 gamma^2 - 1) / 3 for every beta, so this check
    fails as stated; kept and documented.
    """
    params = RotationParams.from_beta(1.0, 0.6, NATURAL)
    bath = thermo.scalar_bath_thermal_density(cfd.rotation_temperature(params), NATURAL)
    measured = thermo.scalar_thermal_density_quadrature(params) / bath
    g2 = params.gamma**2
    claimed = 2.0 * (4.0 * g2 - 1.0) / 9.0
    return [CheckResult("scalar-bath-ratio", _rel(measured, claimed) < 1e-10,
                        measured, claimed, 1e-10,
                        detail=f"(4 g^2 - 1)/3 = {(4*g2-1)/3:.12f}")]


def check_vacuum_force() -> List[CheckResult]:
    const = SI
    omega = 2.0e3
    r0 = const.c / omega
    params = RotationParams(omega=omega, radius=0.0, constants=const)
    worst = 0.0
    for x in (0.1, 0.5, 0.9):
        r = x * r0
        h = 1e-6 * r0
        fd = -(thermo.em_thermal_density_at(omega, r + h, const)
               - thermo.em_thermal_density_at(omega, r - h, const)) / (2.0 * h)
        f = thermo.vacuum_force_density(params, r).f_vac
        worst = max(worst, _rel(fd, f))
    rows = [CheckResult("vacuum-force-vs-finite-difference", worst < 1e-6, worst, 0.0, 1e-6)]

    xs = np.linspace(0.005, 0.995, 100)
    fs = np.array([thermo.vacuum_force_density(params, x * r0).f_vac for x in xs])
    monotone = bool(np.all(np.diff(fs) < 0.0)) and bool(np.all(fs < 0.0))
    rows.append(CheckResult("vacuum-force-monotone-negative", monotone,
                            float(np.max(np.diff(fs))), 0.0, 0.0))
    return rows


def check_hadron_estimates() -> List[CheckResult]:
    """The quoted hadron-scale numbers follow from the rounded constant set;
    the CODATA evaluation differs from it only by the constant ratios."""
    orbit = dict(a_sphere=1e-18, r0=1e-15, x=1.0 - 1e-6)
    rounded = thermo.hadron_estimates(**orbit, const=ROUNDED)
    est = thermo.hadron_estimates(**orbit, const=SI)
    rows = [
        CheckResult("hadron-force-reference",
                    abs(rounded.force_gev_per_fermi - (-0.44)) <= 0.05 * 0.44,
                    rounded.force_gev_per_fermi, -0.44, 0.05,
                    detail=f"rounded constants; CODATA gives {est.force_gev_per_fermi:.5f}"),
        CheckResult("hadron-temperature-reference",
                    abs(rounded.T_rot - 3.4e11) <= 0.03 * 3.4e11,
                    rounded.T_rot, 3.4e11, 0.03,
                    detail=f"rounded constants; CODATA gives {est.T_rot:.4e} K"),
    ]
    t_scale = (ROUNDED.hbar * ROUNDED.c / ROUNDED.k_B) / (SI.hbar * SI.c / SI.k_B)
    f_scale = (ROUNDED.hbar * ROUNDED.c / ROUNDED.e) / (SI.hbar * SI.c / SI.e)
    scaling = max(_rel(rounded.T_rot / est.T_rot, t_scale),
                  _rel(rounded.force_gev_per_fermi / est.force_gev_per_fermi, f_scale))
    rows.append(CheckResult("hadron-constant-scaling", scaling < 1e-12, scaling, 0.0, 1e-12,
                            detail="T_rot ~ hbar c / k_B, F ~ hbar c / e"))
    # internal consistency: compound formula vs force-density route
    params = RotationParams(omega=SI.c / 1e-15, radius=(1.0 - 1e-6) * 1e-15, constants=SI)
    point = thermo.vacuum_force_density(params, (1.0 - 1e-6) * 1e-15, sphere_radius=1e-18)
    direct = -est.x / (1.0 - est.x**2) ** 2 * est.prefactor_j_per_m
    rows.append(CheckResult("hadron-formula-consistency",
                            _rel(point.F_sphere, direct) < 1e-12,
                            point.F_sphere, direct, 1e-12))
    return rows


def check_determinism(n_seeds: int = 40, seed: int = 77, workers=(1, 4), n_max: int = 4,
                      n_theta: int = 8, n_phi: int = 16) -> List[CheckResult]:
    """Every field of the Monte Carlo energy estimate is the same for every worker count."""
    params = RotationParams.from_beta(1.0, 0.3, NATURAL)
    ms = mc.build_mode_set(params, n_max=n_max, n_theta=n_theta, n_phi=n_phi)
    a, *rest = [mc.empirical_energy_density(params, ms, n_seeds=n_seeds, seed=seed,
                                            n_workers=k) for k in workers]
    same = all(b.same_as(a) for b in rest)
    return [CheckResult("mc-determinism-workers", same, float(a.w), float(rest[-1].w), 0.0)]


SUITES = {
    "quick": {
        "mc_seeds": 200, "mc_theta": 16, "mc_phi": 32, "mc_nmax": 6,
    },
    "full": {
        "mc_seeds": 1000, "mc_theta": 64, "mc_phi": 128, "mc_nmax": 20,
    },
}


def run_suite(suite: str = "quick", seed: int = 20240817, sigma_perturb: float = 1.0
              ) -> Tuple[List[CheckResult], Dict[str, float]]:
    """Every check at the suite's settings: the rows, and the wall time in
    seconds of each check group under the group's name (its check_*
    function without the prefix)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    cfg = SUITES[suite]
    mc_grid = dict(n_theta=cfg["mc_theta"], n_phi=cfg["mc_phi"], n_max=cfg["mc_nmax"])
    groups = [
        (check_sine_power_integrals, {}),
        (check_phi_kernels, {}),
        (check_em_cf_continuous, {}),
        (check_offdiagonal_nullity, dict(seed=seed, **mc_grid)),
        (check_coincidence_nullity, {}),
        (check_scalar_cf, {}),
        (check_abel_plana, {}),
        (check_planck_identity, {}),
        (check_em_energy_density, dict(n_seeds=cfg["mc_seeds"], seed=seed,
                                       sigma_perturb=sigma_perturb, **mc_grid)),
        (check_scalar_ratio, {}),
        (check_vacuum_force, {}),
        (check_hadron_estimates, {}),
        (check_determinism, dict(seed=seed)),
    ]
    rows: List[CheckResult] = []
    seconds: Dict[str, float] = {}
    for check, kwargs in groups:
        start = time.perf_counter()
        rows += check(**kwargs)
        seconds[check.__name__.removeprefix("check_")] = time.perf_counter() - start
    return rows, seconds
