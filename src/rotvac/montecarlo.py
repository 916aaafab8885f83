"""Monte Carlo oracle: random-phase plane-wave superpositions of the
zero-point field evaluated along the rotating worldline.

The angular part is a deterministic Gauss-Legendre x uniform-azimuth
quadrature grid; only the mode phases are random, so statistical error comes
solely from the phase ensemble.  The per-mode amplitude is fixed so the
ensemble average of one-point quadratic observables reproduces the truncated
harmonic-ladder energy density identically in expectation (the
"energy-density normalization").  Two-time correlation functions built from
this field therefore carry twice the spectral weight of the
correlation-function convention used by the analytic periodic CFs;
comparisons against those include an explicit factor 2.

Phases are drawn from counter-based Philox streams keyed by
(master seed, seed index), so any parallel split over seeds is
order-independent and runs are bit-reproducible for a fixed worker count or
any other.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import Generator, Philox

from .cf_continuous import CFValue
from .fields import FieldTriplet, polarization_grid, projection_matrix
from .kinematics import RotationParams, lab_position
from .numerics import sphere_nodes

__all__ = [
    "ModeSet",
    "PhaseEnsemble",
    "EmpiricalEnergyDensity",
    "build_mode_set",
    "draw_phases",
    "eval_lab_fields",
    "empirical_cf",
    "empirical_energy_density",
    "run_manifest",
    "write_manifest",
]

MIN_THETA_NODES = 8
MIN_PHI_NODES = 16


@dataclass(frozen=True)
class ModeSet:
    """Immutable discretized plane-wave mode family.

    amp2[m, q] is the squared amplitude of angular node m at radial index q
    (identical for both polarizations); wavenumbers are k0 * harmonics for the
    discrete ladder or the quadrature nodes of a band-limited continuum.
    """

    spectrum: str              # "discrete" | "continuous"
    k0: float                  # 1/m
    wavenumbers: np.ndarray    # (Q,)
    harmonics: np.ndarray      # (Q,) ladder indices for discrete, empty else
    khat: np.ndarray           # (M, 3)
    weights: np.ndarray        # (M,)
    eps1: np.ndarray           # (M, 3)
    eps2: np.ndarray           # (M, 3)
    amp2: np.ndarray           # (M, Q)
    n_theta: int
    n_phi: int

    @property
    def mode_count(self) -> int:
        return self.khat.shape[0] * self.wavenumbers.shape[0] * 2

    def describe(self) -> dict:
        d = {
            "spectrum": self.spectrum,
            "k0": self.k0,
            "n_theta": self.n_theta,
            "n_phi": self.n_phi,
            "mode_count": self.mode_count,
        }
        if self.spectrum == "discrete":
            d["n_max"] = int(self.harmonics[-1])
        else:
            d["k_cutoff"] = float(self.wavenumbers[-1])
            d["n_radial"] = int(self.wavenumbers.shape[0])
        return d


@dataclass(frozen=True)
class PhaseEnsemble:
    """One draw of uniform [0, 2 pi) phases, one per (node, radial, pol) mode."""

    seed: int
    phases: np.ndarray  # (M, Q, 2)


@dataclass(frozen=True)
class EmpiricalEnergyDensity:
    e2: np.ndarray            # tetrad <E_(a)^2>, (3,)
    h2: np.ndarray
    e2_err: np.ndarray
    h2_err: np.ndarray
    lab_e2: np.ndarray        # lab <E_i^2>, (3,)
    lab_h2: np.ndarray
    lab_e2_err: np.ndarray
    lab_h2_err: np.ndarray
    w: float                  # (1 / 8 pi) sum of tetrad squares
    w_err: float
    mixed: float              # <E1 H3> - <E3 H1>, lab components
    mixed_err: float
    n_seeds: int

    def pulls(self, w_target: float):
        """Pulls of w against w_target, of each lab <E_i^2> against <H_i^2>
        (an array of 3), and of the mixed moment against 0."""
        eh = (np.abs(self.lab_e2 - self.lab_h2)
              / np.sqrt(self.lab_e2_err**2 + self.lab_h2_err**2))
        return abs(self.w - w_target) / self.w_err, eh, abs(self.mixed) / self.mixed_err


def build_mode_set(params: RotationParams, spectrum: str = "discrete",
                   n_max: int = 10, n_theta: int = 16, n_phi: int = 32,
                   omega_cutoff: Optional[float] = None,
                   n_radial: Optional[int] = None) -> ModeSet:
    """Deterministic angular grid plus a radial ladder or band.

    Discrete: wavenumbers are exactly k0 n, k0 = omega / c, n = 1..n_max.
    Continuous: Gauss-Legendre nodes on [0, omega_cutoff / c].  The azimuthal
    resolution must resolve the worldline phase oscillation (roughly the top
    wavenumber times the orbit diameter), otherwise construction fails.
    """
    const = params.constants
    if n_theta < MIN_THETA_NODES or n_phi < MIN_PHI_NODES:
        raise ValueError(f"angular grid below the {MIN_THETA_NODES}x{MIN_PHI_NODES} minimum")
    th, ph, wx, wphi = sphere_nodes(n_theta, n_phi)
    w = np.outer(wx, np.full(n_phi, wphi)).reshape(-1)
    st = np.sin(th).reshape(-1)
    khat = np.stack([st * np.cos(ph.reshape(-1)), st * np.sin(ph.reshape(-1)),
                     np.cos(th).reshape(-1)], axis=-1)
    e1, e2 = polarization_grid(khat)
    k0 = params.omega / const.c if params.omega > 0 else 0.0

    if spectrum == "discrete":
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        harmonics = np.arange(1, n_max + 1, dtype=float)
        wavenumbers = k0 * harmonics
        # oscillation of k . r across the azimuth grows like n_max * beta
        needed = max(MIN_PHI_NODES, 2 * math.ceil(n_max * params.beta) + 8)
        if n_phi < needed:
            raise ValueError(
                f"n_phi = {n_phi} too coarse for n_max = {n_max} at beta = {params.beta:.3f}; "
                f"need at least {needed}"
            )
        # energy-density normalization: amplitude^2 = (hbar c k0^4 / pi^2) w n^3
        amp2 = const.hbar * const.c * k0**4 / math.pi**2 * np.outer(w, harmonics**3)
    elif spectrum == "continuous":
        if omega_cutoff is None or n_radial is None:
            raise ValueError("continuous spectrum needs omega_cutoff and n_radial")
        x, wx = leggauss(n_radial)
        k_cut = omega_cutoff / const.c
        wavenumbers = 0.5 * k_cut * (x + 1.0)
        wk = 0.5 * k_cut * wx
        harmonics = np.array([])
        needed = max(MIN_PHI_NODES, 2 * math.ceil(k_cut * params.radius * params.gamma) + 8)
        if n_phi < needed:
            raise ValueError(f"n_phi = {n_phi} too coarse for the requested band; need {needed}")
        # same convention: amplitude^2 = (hbar c / pi^2) w w_k k^3
        amp2 = const.hbar * const.c / math.pi**2 * np.outer(w, wk * wavenumbers**3)
    else:
        raise ValueError(f"unknown spectrum {spectrum!r}")

    return ModeSet(spectrum=spectrum, k0=k0, wavenumbers=wavenumbers,
                   harmonics=harmonics, khat=khat, weights=w, eps1=e1, eps2=e2,
                   amp2=amp2, n_theta=n_theta, n_phi=n_phi)


def draw_phases(mode_set: ModeSet, seed: int, index: int = 0) -> PhaseEnsemble:
    """Counter-based phase draw; (seed, index) keys an independent stream."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed!r}")
    gen = Generator(Philox(key=np.array([seed, index], dtype=np.uint64)))
    shape = (mode_set.khat.shape[0], mode_set.wavenumbers.shape[0], 2)
    return PhaseEnsemble(seed=seed, phases=2.0 * np.pi * gen.random(shape))


def eval_lab_fields(mode_set: ModeSet, phases: PhaseEnsemble,
                    params: RotationParams, tau: float) -> FieldTriplet:
    """Lab-frame (E, H) of the superposition at the detector position."""
    const = params.constants
    t, x, y, z = lab_position(params, tau)
    pos = np.array([x, y, z])
    kdotr = np.outer(mode_set.khat @ pos, mode_set.wavenumbers)
    base = kdotr - const.c * t * mode_set.wavenumbers[None, :]
    amp = np.sqrt(mode_set.amp2)
    E = np.zeros(3)
    H = np.zeros(3)
    for lam, eps in ((0, mode_set.eps1), (1, mode_set.eps2)):
        osc = amp * np.cos(base - phases.phases[:, :, lam])
        per_node = osc.sum(axis=1)
        E += per_node @ eps
        H += per_node @ np.cross(mode_set.khat, eps)
    return FieldTriplet(E=E, H=H, frame="lab", tau=tau)


def _seed_loop(work, n_seeds: int, n_workers: int, out: np.ndarray):
    """Fill out[i] = work(i) for every seed index, optionally with threads.

    Results land in a preallocated array indexed by seed, then any reduction
    happens in index order, so the outcome is bit-identical for any worker
    count.
    """
    if n_workers <= 1:
        for i in range(n_seeds):
            out[i] = work(i)
        return
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(lambda i: out.__setitem__(i, work(i)), range(n_seeds)))


def empirical_cf(pair: Tuple[int, int], kind: str, tau1: float, tau2: float,
                 params: RotationParams, mode_set: ModeSet, n_seeds: int = 200,
                 seed: int = 0, n_workers: int = 1) -> CFValue:
    """Phase-ensemble estimate of a tetrad-frame two-point CF.

    Carries the mode set's energy-density normalization (twice the analytic
    correlation-function convention).  stat_error is the standard error of
    the seed mean.
    """
    if kind not in ("EE", "HH", "EH"):
        raise ValueError(f"unknown kind {kind!r}")
    if n_seeds < 2:
        raise ValueError(f"a standard error needs n_seeds >= 2, got {n_seeds}")
    a, b = pair
    m1 = projection_matrix(params.alpha(tau1), params.beta)
    m2 = projection_matrix(params.alpha(tau2), params.beta)

    def work(i):
        ph = draw_phases(mode_set, seed, i)
        f1 = eval_lab_fields(mode_set, ph, params, tau1)
        f2 = eval_lab_fields(mode_set, ph, params, tau2)
        v1 = m1 @ np.concatenate([f1.E, f1.H])
        v2 = m2 @ np.concatenate([f2.E, f2.H])
        c1 = v1[a - 1] if kind[0] == "E" else v1[2 + a]
        c2 = v2[b - 1] if kind[1] == "E" else v2[2 + b]
        return c1 * c2

    vals = np.empty(n_seeds)
    _seed_loop(work, n_seeds, n_workers, vals)
    mean = float(vals.mean())
    err = float(vals.std(ddof=1) / math.sqrt(n_seeds))
    return CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2,
                   spectrum=mode_set.spectrum, value=mean,
                   method="monte-carlo", stat_error=err)


def empirical_energy_density(params: RotationParams, mode_set: ModeSet,
                             n_seeds: int = 200, seed: int = 0,
                             n_workers: int = 1, tau: float = 0.0) -> EmpiricalEnergyDensity:
    """Phase-ensemble estimate of the one-point quadratic field moments.

    Returns tetrad and lab component squares, the assembled energy density
    (1/8 pi) sum(<E_(a)^2> + <H_(a)^2>), and the mixed moment
    <E1 H3> - <E3 H1>, each with standard errors.
    """
    if n_seeds < 2:
        raise ValueError(f"a standard error needs n_seeds >= 2, got {n_seeds}")
    m = projection_matrix(params.alpha(tau), params.beta)

    def work(i):
        ph = draw_phases(mode_set, seed, i)
        f = eval_lab_fields(mode_set, ph, params, tau)
        v = m @ np.concatenate([f.E, f.H])
        mixed = f.E[0] * f.H[2] - f.E[2] * f.H[0]
        return np.concatenate([v[:3] ** 2, v[3:] ** 2, f.E**2, f.H**2, [mixed]])

    vals = np.empty((n_seeds, 13))
    _seed_loop(work, n_seeds, n_workers, vals)
    mean = vals.mean(axis=0)
    err = vals.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    w_samples = vals[:, 0:6].sum(axis=1) / (8.0 * math.pi)
    return EmpiricalEnergyDensity(
        e2=mean[0:3], h2=mean[3:6], e2_err=err[0:3], h2_err=err[3:6],
        lab_e2=mean[6:9], lab_h2=mean[9:12], lab_e2_err=err[6:9], lab_h2_err=err[9:12],
        w=float(w_samples.mean()),
        w_err=float(w_samples.std(ddof=1) / math.sqrt(n_seeds)),
        mixed=float(mean[12]), mixed_err=float(err[12]),
        n_seeds=n_seeds,
    )


def run_manifest(params: RotationParams, mode_set: ModeSet, n_seeds: int,
                 seed: int, extra: Optional[dict] = None) -> dict:
    """Reproducibility manifest for a Monte Carlo run."""
    d = {
        "params": {
            "omega": params.omega,
            "radius": params.radius,
            "beta": params.beta,
            "gamma": params.gamma,
            "units": params.constants.label(),
        },
        "mode_set": mode_set.describe(),
        "n_seeds": n_seeds,
        "seed": seed,
    }
    if extra:
        d.update(extra)
    return d


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
