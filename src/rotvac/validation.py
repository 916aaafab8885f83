"""The acceptance criteria, runnable from the CLI.

Each check_* function is the single implementation of its criterion and
returns one or more CheckResult rows with the measured quantity, its target,
the tolerance, and a pass flag.  A row that bounds errors or pulls measures
their maximum, NaN if any of them is NaN, and passes iff that is below the
tolerance, so a NaN from any route fails its row (_bounded).  run_suite runs
the checks at the suite settings and times each check group; `rotvac
mc-validate` runs the Monte Carlo energy and determinism checks on the
user's orbit and mode set; tests/test_acceptance.py runs them at its own
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
from .fields import _lab_kernel, projection_rows
from .kinematics import RotationParams, lab_position
from .numerics import abel_plana_check, abel_sum, integrate_1d, integrate_sphere

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


def _bounded(name: str, errors, tol: float, detail: str = "") -> CheckResult:
    """The row for errors (or pulls) that must each stay below tol: measured
    is their maximum, NaN if any of them is NaN, and the row passes iff
    measured < tol."""
    measured = float(np.max(errors))
    return CheckResult(name, measured < tol, measured, 0.0, tol, detail)


def check_sine_power_integrals() -> List[CheckResult]:
    out = []
    for k0, exact in ((1, 2.0), (3, 4.0 / 3.0), (5, 16.0 / 15.0)):
        v = cfc.sin_power_integral(k0, 0.0)
        out.append(CheckResult(f"sine-power-p{k0}-k0-exact", abs(v - exact) < 1e-14,
                               v, exact, 1e-14))
    errors = []
    for k in (0.0, 0.3, 0.7, 0.9, 0.99):
        for p in (1, 3, 5):
            closed = cfc.sin_power_integral(p, k)
            quad_val, _ = integrate_1d(
                lambda th: math.sin(th) ** p / (1.0 - k * k * math.sin(th) ** 2) ** 3.5,
                0.0, math.pi)
            errors.append(_rel(closed, quad_val))
    out.append(_bounded("sine-power-vs-quadrature", errors, 1e-9))
    return out


def check_phi_kernels() -> List[CheckResult]:
    errors = []
    for b in (0.0, 0.3, -0.3, 0.8, -0.8):
        for m in (0, 1, 2):
            closed = cfc.phi_kernel_integral(m, b)
            quad_val, _ = integrate_1d(
                lambda ph: math.sin(ph) ** m / (1.0 + b * math.sin(ph)) ** 4,
                0.0, 2.0 * math.pi)
            errors.append(abs(closed - quad_val) / max(1.0, abs(closed)))
    return [_bounded("phi-kernels-vs-quadrature", errors, 1e-9)]


def check_em_cf_continuous() -> List[CheckResult]:
    errors = []
    for beta in (0.1, 0.5, 0.9):
        params = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (0.5, 1.0, 2.0, 5.0):
            tau2 = delta / (params.omega * params.gamma)
            closed = cfc.em_cf_continuous((1, 1), "EE", 0.0, tau2, params, "closed-form")
            quad_val = cfc.em_cf_continuous((1, 1), "EE", 0.0, tau2, params, "quadrature")
            errors.append(_rel(closed.value, quad_val.value))
    rows = [_bounded("em-cf-closed-vs-quadrature", errors, 1e-8)]

    # the lag-frame route against the sphere integral at the caller's orbit phases
    params = RotationParams.from_beta(1.0, 0.5, NATURAL)
    tau1, tau2 = 0.77, 0.77 + 1.0 / (params.omega * params.gamma)
    kernel = _lab_kernel(*projection_rows((1, 1), "EE", params, tau1, tau2))
    (t1, x1, y1, _), (t2, x2, y2, _) = lab_position(params, tau1), lab_position(params, tau2)
    chord = np.array([x1 - x2, y1 - y2, 0.0]) / (t1 - t2)
    val, _ = integrate_sphere(lambda k: kernel(k) * 6.0 / (1.0 - k @ chord) ** 4, axis=chord)
    route = cfc.em_cf_continuous((1, 1), "EE", tau1, tau2, params, "quadrature").value
    ref = val / (4.0 * math.pi**2 * (t2 - t1) ** 4)
    rows.append(_bounded("em-cf-stationarity", [_rel(route, ref)], 1e-12))
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
    ratios = [abs(cfc.em_cf_tensor_quadrature(pair, "EE", 0.0, tau2, params).value) / diag
              for pair in ((1, 3), (3, 1), (2, 3), (3, 2))]
    rows = [_bounded("offdiag-quadrature-null", ratios, 1e-12)]

    mparams = RotationParams.from_beta(1.0, 0.3, NATURAL)
    ms = mc.build_mode_set(mparams, n_max=n_max, n_theta=n_theta, n_phi=n_phi)
    tau2 = (math.pi / 2.0) / (mparams.omega * mparams.gamma)
    cfs = mc.empirical_cfs(((1, 3), (2, 3)), "EE", 0.0, [tau2], mparams, ms,
                           n_seeds=n_seeds, seed=seed)
    rows.append(_bounded("offdiag-mc-null", [abs(cf.value) / cf.stat_error for (cf,) in cfs],
                         3.0))
    return rows


def check_coincidence_nullity() -> List[CheckResult]:
    """Monte Carlo nullity of every off-diagonal pair, (1,2) included, at
    coincident times."""
    params = RotationParams.from_beta(1.0, 0.3, NATURAL)
    ms = mc.build_mode_set(params, n_max=6, n_theta=16, n_phi=32)
    cfs = mc.empirical_cfs(((1, 2), (1, 3), (2, 3)), "EE", 0.4, [0.4], params, ms,
                           n_seeds=1000, seed=20240818)
    return [_bounded("offdiag-mc-null-coincidence",
                     [abs(cf.value) / cf.stat_error for (cf,) in cfs], 3.0)]


def check_scalar_cf() -> List[CheckResult]:
    errors = []
    for beta in (0.1, 0.5, 0.9):
        params = RotationParams.from_beta(1.0, beta, NATURAL)
        for delta in (0.5, 1.0, 2.0, 5.0):
            tau2 = delta / (params.omega * params.gamma)
            closed = cfc.scalar_cf_continuous(0.0, tau2, params)
            quad_val = cfc.scalar_cf_quadrature(0.0, tau2, params)
            errors.append(_rel(closed.value, quad_val.value))
    rows = [_bounded("scalar-cf-closed-vs-quadrature", errors, 1e-8)]
    params = RotationParams(omega=1.0, radius=0.0, constants=NATURAL)
    tau = 1.7
    v = cfc.scalar_cf_continuous(0.0, tau, params).value
    inertial = -NATURAL.hbar * NATURAL.c / (math.pi * (NATURAL.c * tau) ** 2)
    rows.append(CheckResult("scalar-cf-rest-frame-reduction",
                            _rel(v, inertial) < 1e-14, v, inertial, 1e-14))
    return rows


def check_abel_plana() -> List[CheckResult]:
    residuals = [abel_plana_check(lambda x, s=s: x**3 * np.exp(-s * x)) for s in (0.5, 1.0, 2.0)]
    rows = [_bounded("abel-plana-residual", residuals, 1e-8)]

    for phase, target, label in ((math.pi, 0.125, "pi"), (2.0 * math.pi / 3.0, 1.0 / 3.0, "2pi3")):
        oracle = abel_sum(lambda n, ph=phase: n**3 * np.cos(n * ph)).value
        closed = cfd.cubic_ladder_sum_closed(phase)
        rows.append(CheckResult(f"cubic-ladder-abel-{label}",
                                abs(oracle - closed) < 1e-6 and abs(closed - target) < 1e-12,
                                oracle, target, 1e-6))
    errors = [_rel(cfd.cubic_ladder_split(phase).total, cfd.cubic_ladder_sum_closed(phase))
              for phase in (0.5, 1.0, 2.0, math.pi, 4.0, 5.0, 6.0)]
    rows.append(_bounded("ladder-split-vs-closed", errors, 1e-8))
    return rows


def check_planck_identity() -> List[CheckResult]:
    """Thermal part of each ladder split against QUADPACK with the Planck weight at T_rot."""
    params = RotationParams.from_beta(100.0, 0.4, SI)
    hbar_over_kT = SI.hbar / (SI.k_B * cfd.rotation_temperature(params))
    rows = []
    for label, split, p, sign in (("em", cfd.cubic_ladder_split, 3, 1.0),
                                  ("scalar", cfd.linear_ladder_split, 1, -1.0)):
        errors = []
        for phase in (0.3, 1.0, 2.0, 4.0, 6.0):
            lag = phase / params.omega
            def planck(w):    # 2 w^p cosh(w lag) / (e^x - 1), every exponent <= 0
                x = hbar_over_kT * w
                return w**p * (math.exp(w * lag - x) + math.exp(-w * lag - x)) / -math.expm1(-x)
            quad_val, _ = integrate_1d(planck, 0.0, math.inf)
            ladder = sign * params.omega ** (p + 1) * split(phase).thermal_part
            errors.append(_rel(ladder, quad_val))
        rows.append(_bounded(f"planck-thermal-part-{label}", errors, 1e-10))
    return rows


def check_em_energy_density(params: RotationParams, mode_set: mc.ModeSet,
                            estimate: mc.EmpiricalEnergyDensity,
                            sigma_perturb: float = 1.0) -> List[CheckResult]:
    """The EM energy density on the orbit params: its thermal part by the
    Doppler quadrature against the closed form, and the Monte Carlo estimate
    on the ladder mode_set, as pulls of w against the zero-point ladder
    truncated at the same n_max, of each lab <E_i^2> against <H_i^2>, and of
    the mixed moment <E1 H3> - <E3 H1> against 0."""
    rep = thermo.em_energy_density(params, cutoff_n_max=mode_set.n_max)
    ident = _rel(thermo.em_thermal_density_quadrature(params), rep.w_thermal * sigma_perturb)
    rows = [_bounded("em-thermal-closed-form", [ident], 1e-10,
                     detail="Doppler quadrature vs 2 (4 g^2 - 1) / 3 sigma T^4 form")]

    est = estimate
    eh = np.abs(est.lab_e2 - est.lab_h2) / np.sqrt(est.lab_e2_err**2 + est.lab_h2_err**2)
    axes = "; ".join(f"E{i}^2 {e:.12e}, H{i}^2 {h:.12e}, pull {p:.12e}"
                     for i, (e, h, p) in enumerate(zip(est.lab_e2, est.lab_h2, eh), 1))
    return rows + [
        _bounded("em-energy-mc-vs-ladder", [abs(est.w - rep.w_zp_cutoff) / est.w_err], 3.0,
                 detail=f"w {est.w:.12e} +- {est.w_err:.12e} against the truncated "
                        f"ladder's {rep.w_zp_cutoff:.12e}"),
        _bounded("em-energy-e2-h2", eh, 3.0, detail=f"lab {axes}"),
        _bounded("em-energy-mixed-moment", [abs(est.mixed) / est.mixed_err], 3.0,
                 detail=f"<E1 H3> - <E3 H1> {est.mixed:.12e}"),
    ]


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
    errors = []
    for x in (0.1, 0.5, 0.9):
        r = x * r0
        h = 1e-6 * r0
        fd = -(thermo.em_thermal_density_at(omega, r + h, const)
               - thermo.em_thermal_density_at(omega, r - h, const)) / (2.0 * h)
        errors.append(_rel(fd, thermo.vacuum_force_density(params, r).f_vac))
    rows = [_bounded("vacuum-force-vs-finite-difference", errors, 1e-6)]

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
    rows.append(_bounded("hadron-constant-scaling",
                         [_rel(rounded.T_rot / est.T_rot, t_scale),
                          _rel(rounded.force_gev_per_fermi / est.force_gev_per_fermi, f_scale)],
                         1e-12, detail="T_rot ~ hbar c / k_B, F ~ hbar c / e"))
    # internal consistency: compound formula vs force-density route
    params = RotationParams(omega=SI.c / 1e-15, radius=(1.0 - 1e-6) * 1e-15, constants=SI)
    point = thermo.vacuum_force_density(params, (1.0 - 1e-6) * 1e-15, sphere_radius=1e-18)
    direct = -est.x / (1.0 - est.x**2) ** 2 * est.prefactor_j_per_m
    rows.append(CheckResult("hadron-formula-consistency",
                            _rel(point.F_sphere, direct) < 1e-12,
                            point.F_sphere, direct, 1e-12))
    return rows


def check_determinism(params: RotationParams, mode_set: mc.ModeSet, n_seeds: int = 40,
                      seed: int = 77, workers=(1, 4), made=None) -> List[CheckResult]:
    """Every field of the Monte Carlo energy estimate on params and mode_set is
    the same for each worker count; made maps counts to estimates already made."""
    a, *rest = [(made or {}).get(k) or mc.empirical_energy_density(
        params, mode_set, n_seeds=n_seeds, seed=seed, n_workers=k) for k in workers]
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
    orbit = RotationParams.from_beta(1.0, 0.3, NATURAL)

    def energy():
        ms = mc.build_mode_set(orbit, **mc_grid)
        return dict(params=orbit, mode_set=ms, sigma_perturb=sigma_perturb,
                    estimate=mc.empirical_energy_density(orbit, ms, n_seeds=cfg["mc_seeds"],
                                                         seed=seed))

    # each group's arguments are made as it runs, so no mode set outlives its group
    groups = [
        (check_sine_power_integrals, dict),
        (check_phi_kernels, dict),
        (check_em_cf_continuous, dict),
        (check_offdiagonal_nullity, lambda: dict(seed=seed, **mc_grid)),
        (check_coincidence_nullity, dict),
        (check_scalar_cf, dict),
        (check_abel_plana, dict),
        (check_planck_identity, dict),
        (check_em_energy_density, energy),
        (check_scalar_ratio, dict),
        (check_vacuum_force, dict),
        (check_hadron_estimates, dict),
        (check_determinism, lambda: dict(params=orbit, mode_set=mc.build_mode_set(
            orbit, n_max=4, n_theta=8, n_phi=16), seed=seed)),
    ]
    rows: List[CheckResult] = []
    seconds: Dict[str, float] = {}
    for check, kwargs in groups:
        start = time.perf_counter()
        rows += check(**kwargs())
        seconds[check.__name__.removeprefix("check_")] = time.perf_counter() - start
    return rows, seconds
