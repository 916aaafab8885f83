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
any other.  The seed-invariant mode arrays (amplitudes, polarization
columns) live on the ModeSet.  The two-time CFs draw each seed once per
group of lags, straight into a block of seeds, take the block's cos and sin,
and evaluate every pair and lag of the call from one design matrix of all
its proper times; the one-point moments evaluate the fields seed by seed,
each worker thread reusing its own phase and field buffers, so a seed
allocates no array of mode size.  Both paths take their trigonometry from
one table-and-series kernel, _cos_sin, which agrees with libm's to 2**-52
and works in chunks, in work buffers that it keeps.  Times whose
base phases k . r - c k t float64 cannot resolve against the drawn phases
are a ValueError.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import Generator, Philox

from .cf_continuous import CFValue
from .fields import FieldTriplet, polarization_grid, projection_matrix, projection_rows
from .kinematics import RotationParams, lab_position

__all__ = [
    "ModeSet",
    "PhaseEnsemble",
    "EmpiricalEnergyDensity",
    "build_mode_set",
    "draw_phases",
    "eval_lab_fields",
    "empirical_cf",
    "empirical_cfs",
    "empirical_energy_density",
    "run_manifest",
]

MIN_THETA_NODES = 8
MIN_PHI_NODES = 16
# phases per seed block of empirical_cf: the block size follows from the mode
# count alone, never from the worker count, so that results are bit-identical
# for any worker count
BLOCK_ELEMENTS = 2**16
# bytes of one design matrix of empirical_cfs, whose lags are grouped so that
# no design exceeds this (a group always holds at least one lag): the size of
# the one-lag (2N x 12) design at the full suite's 327,680 modes, so a
# multi-lag call never holds a larger design than a one-lag call there does
DESIGN_BYTES = 2 * 327_680 * 12 * 8
# _cos_sin takes phi = j h + a, h = 2 pi / TRIG_TABLE, from a periodic table
# of cos and sin at the exact nodes j h, indexed by j mod TRIG_TABLE, and
# fifth-order series in a.  It works in chunks of TRIG_CHUNK values, in
# work buffers that it keeps: shorter chunks lose time to GIL handoffs
# between worker threads, longer ones fall out of cache
TRIG_TABLE = 1024
TRIG_CHUNK = 2**15
# largest |phi| the table takes; a chunk holding a larger or non-finite value
# goes to libm.  |j| < 2**24 there, so j times a 29-bit part of h is exact
TRIG_LIMIT = 2.0**16
# largest |b| = |k . r - c k t| the Monte Carlo accepts: from it on, float64
# rounds b - phi to 2**-26 rad (1.5e-8) or coarser, so that the drawn phases
# phi are no longer resolved
PHASE_LIMIT = 2.0**26
_TWO_PI = "6.28318530717958647692528676655900576839433879875021"


def _round_bits(x: Fraction, bits: int) -> float:
    """x rounded to a float of `bits` significant bits."""
    e = math.frexp(float(x))[1]
    return math.ldexp(round(x * Fraction(2)**(bits - e)), e - bits)


def _step_parts():
    """1 / h and h = 2 pi / TRIG_TABLE, from the digits of 2 pi, as h0 + h1 +
    h2 with h0 and h1 of 29 bits: j h0 and j h1 are exact for |j| < 2**24,
    and the parts carry h to 111 bits, so that a = phi - j h keeps its
    relative precision down to the quarter turns, where cos or sin is tiny."""
    h = Fraction(_TWO_PI) / TRIG_TABLE
    h0 = _round_bits(h, 29)
    h1 = _round_bits(h - Fraction(h0), 29)
    return float(1 / h), h0, h1, float(h - Fraction(h0) - Fraction(h1))


_INV_STEP, _STEP0, _STEP1, _STEP2 = _step_parts()


def _trig_tables():
    """cos and sin at j h for j < TRIG_TABLE, from sin on the first quarter
    turn in long double, each rounded once; exact at the quarter turns."""
    q = TRIG_TABLE // 4
    nodes = np.arange(q + 1, dtype=np.longdouble) * (np.longdouble(_TWO_PI) / TRIG_TABLE)
    s = np.sin(nodes).astype(np.float64)
    sin = np.concatenate([s[:q], s[q:0:-1], -s[:q], -s[q:0:-1]])
    return np.roll(sin, -q), sin


_COS_TABLE, _SIN_TABLE = _trig_tables()
# work buffers of _cos_sin: a call takes one and puts it back, so the
# process keeps as many as have run at once.  Buffers made and freed by each
# short-lived worker thread raised mc-energy's peak RSS by 11-16 MB
_TRIG_WORK: List[np.ndarray] = []


@dataclass(frozen=True)
class ModeSet:
    """Immutable discretized plane-wave mode family.

    amp2[m, q] is the squared amplitude of angular node m at radial index q
    (identical for both polarizations); wavenumbers are k0 * harmonics for the
    discrete ladder or the quadrature nodes of a band-limited continuum.

    amp = sqrt(amp2) and pol, the polarization columns, are computed once on
    construction: pol[lam] = (eps_lam, khat x eps_lam), each a contiguous
    (M, 3) array, for lam = 0, 1.
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
    amp: np.ndarray = field(init=False, repr=False, compare=False)   # (M, Q)
    pol: np.ndarray = field(init=False, repr=False, compare=False)   # (2, 2, M, 3)

    def __post_init__(self):
        object.__setattr__(self, "amp", np.sqrt(self.amp2))
        object.__setattr__(self, "pol", np.stack([
            np.stack([eps, np.cross(self.khat, eps)]) for eps in (self.eps1, self.eps2)]))

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

    def same_as(self, other: "EmpiricalEnergyDensity") -> bool:
        """True iff every field, standard errors too, equals other's element by element."""
        return all(np.array_equal(v, getattr(other, k)) for k, v in vars(self).items())


@np.errstate(over="ignore", under="ignore")    # checked on the amplitudes
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
    # Gauss-Legendre in cos(theta) (its weights absorb sin(theta)) x trapezoid in phi
    x, wx = leggauss(n_theta)
    th, ph = np.meshgrid(np.arccos(x), 2.0 * np.pi * np.arange(n_phi) / n_phi, indexing="ij")
    w = np.outer(wx, np.full(n_phi, 2.0 * np.pi / n_phi)).reshape(-1)
    st = np.sin(th).reshape(-1)
    khat = np.stack([st * np.cos(ph.reshape(-1)), st * np.sin(ph.reshape(-1)),
                     np.cos(th).reshape(-1)], axis=-1)
    e1, e2 = polarization_grid(khat)
    k0 = params.omega / const.c

    if spectrum == "discrete":
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        if params.omega == 0.0:
            raise ValueError("the discrete ladder needs omega > 0 (wavenumbers n omega / c)")
        harmonics = np.arange(1, n_max + 1, dtype=float)
        wavenumbers = k0 * harmonics
        # oscillation of k . r across the azimuth grows like n_max * beta
        needed = max(MIN_PHI_NODES, 2 * math.ceil(n_max * params.beta) + 8)
        if n_phi < needed:
            raise ValueError(
                f"n_phi = {n_phi} too coarse for n_max = {n_max} at beta = {params.beta:.3f}; "
                f"need at least {needed}"
            )
        # energy-density normalization: amplitude^2 = (hbar c k0^4 / pi^2) w n^3;
        # numpy's power gives inf where Python's float ** would raise
        amp2 = const.hbar * const.c * np.float64(k0)**4 / math.pi**2 * np.outer(w, harmonics**3)
    elif spectrum == "continuous":
        if omega_cutoff is None or n_radial is None:
            raise ValueError("continuous spectrum needs omega_cutoff and n_radial")
        if not 0.0 < omega_cutoff < math.inf:
            raise ValueError(f"omega_cutoff must be finite and > 0, got {omega_cutoff!r}")
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
    # each is non-zero in exact arithmetic: a zero or subnormal one underflowed
    for name, v in (("k0 = omega / c", k0 if params.omega > 0.0 else 1.0),
                    ("mode amplitude^2", amp2)):
        lo, hi = float(np.min(v)), float(np.max(v))     # all >= 0; NaN fails below
        if not np.finfo(np.float64).smallest_normal <= lo <= hi < math.inf:
            raise OverflowError(f"{name} is {lo if hi < math.inf else hi!r}, not a normal float64")

    return ModeSet(spectrum=spectrum, k0=k0, wavenumbers=wavenumbers,
                   harmonics=harmonics, khat=khat, weights=w, eps1=e1, eps2=e2,
                   amp2=amp2, n_theta=n_theta, n_phi=n_phi)


def draw_phases(mode_set: ModeSet, seed: int, index: int = 0,
                out: Optional[np.ndarray] = None) -> PhaseEnsemble:
    """Counter-based phase draw; (seed, index) keys an independent stream.

    out, if given, is a float64 (M, Q, 2) array that receives the phases.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed!r}")
    gen = Generator(Philox(key=np.array([seed, index], dtype=np.uint64)))
    if out is None:
        out = np.empty((mode_set.khat.shape[0], mode_set.wavenumbers.shape[0], 2))
    gen.random(out=out)
    out *= 2.0 * np.pi
    return PhaseEnsemble(seed=seed, phases=out)


def _checked_position(mode_set: ModeSet, params: RotationParams, tau: float):
    """lab_position(params, tau), or ValueError when tau is not finite or
    when the base phases b = k . r - c k t of the modes, bounded by
    k_max (|r| + c |t|), may reach PHASE_LIMIT in magnitude."""
    if not math.isfinite(tau):
        raise ValueError(f"proper time tau = {tau!r} is not finite")
    t, x, y, z = lab_position(params, tau)
    bound = (float(np.max(np.abs(mode_set.wavenumbers)))
             * (math.hypot(x, y, z) + params.constants.c * abs(t)))
    if not bound < PHASE_LIMIT:
        raise ValueError(
            f"at proper time tau = {tau!r} the base phases k . r - c k t may reach "
            f"{bound:.6g} rad; float64 no longer resolves the drawn phases from "
            f"{PHASE_LIMIT:.6g} rad on")
    return t, x, y, z


def eval_lab_fields(mode_set: ModeSet, phases: PhaseEnsemble,
                    params: RotationParams, tau: float,
                    work: Optional[np.ndarray] = None) -> FieldTriplet:
    """Lab-frame (E, H) of the superposition at the detector position.

    One (2, M, Q) buffer holds the base phase b = k . r - c k t minus each
    polarization's phases, then amp cos(b - phi) in place, the cos taken by
    _cos_sin; work, if given, is that buffer.  ValueError when tau is not
    finite or |b| may reach PHASE_LIMIT.
    """
    const = params.constants
    t, x, y, z = _checked_position(mode_set, params, tau)
    k = mode_set.wavenumbers
    osc = np.empty((2,) + mode_set.amp2.shape) if work is None else work
    np.outer(mode_set.khat @ np.array([x, y, z]), k, out=osc[0])
    osc[0] -= const.c * t * k
    np.subtract(osc[0], phases.phases[:, :, 1], out=osc[1])
    osc[0] -= phases.phases[:, :, 0]
    flat = osc.reshape(-1)
    _cos_sin(flat, flat)
    osc = flat.reshape(osc.shape)       # osc itself unless work is not contiguous
    osc *= mode_set.amp
    per_node = osc.sum(axis=2)
    pol = mode_set.pol
    E = per_node[0] @ pol[0, 0] + per_node[1] @ pol[1, 0]
    H = per_node[0] @ pol[0, 1] + per_node[1] @ pol[1, 1]
    return FieldTriplet(E=E, H=H, frame="lab", tau=tau)


def _seed_loop(work, n_items: int, n_workers: int, out):
    """Fill out[i] = work(i) for every index i < n_items, optionally with
    threads.

    Results land in a preallocated array or list indexed like the work, then
    any reduction happens in index order, so the outcome is bit-identical for
    any worker count.
    """
    if n_workers <= 1:
        for i in range(n_items):
            out[i] = work(i)
        return
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(lambda i: out.__setitem__(i, work(i)), range(n_items)))


def _cos_sin(phases: np.ndarray, cos_out: np.ndarray,
             sin_out: Optional[np.ndarray] = None) -> None:
    """cos, and sin if sin_out is given, of 1-D float64 phases of any sign,
    within 2**-52 absolute of libm's where |phase| <= TRIG_LIMIT; either
    output may be phases.  A chunk that holds a larger or non-finite phase
    goes to np.cos and np.sin, so there the result is libm's.

    phi = j h + a with j = rint(phi / h), h = 2 pi / TRIG_TABLE: the table at
    j mod TRIG_TABLE, and series for cos a - 1 and sin a to a^5 (dropped
    terms < 2e-18).  a = phi - j h0 - j h1 - j h2 (see _step_parts), where
    phi - j h0 is exact.
    """
    try:
        work = _TRIG_WORK.pop()          # list.pop and append are atomic
    except IndexError:
        work = np.empty((4, TRIG_CHUNK))
    try:
        for lo in range(0, len(phases), TRIG_CHUNK):
            phi, co = phases[lo:lo + TRIG_CHUNK], cos_out[lo:lo + TRIG_CHUNK]
            si = None if sin_out is None else sin_out[lo:lo + TRIG_CHUNK]
            # min and max allocate nothing, and a NaN fails the test
            if not (-TRIG_LIMIT <= phi.min() and phi.max() <= TRIG_LIMIT):
                if si is not None:
                    np.sin(phi, out=si)
                np.cos(phi, out=co)
                continue
            j, c, s, a = work[:, :len(phi)]
            k = a.view(np.intp)             # a is free until the lookups are done
            np.rint(np.multiply(phi, _INV_STEP, out=j), out=j)
            np.copyto(k, j, casting="unsafe")
            np.bitwise_and(k, TRIG_TABLE - 1, out=k)
            # mode "clip" skips the buffering of the default "raise"; k is in range
            np.take(_COS_TABLE, k, out=c, mode="clip")
            np.take(_SIN_TABLE, k, out=s, mode="clip")
            np.subtract(phi, np.multiply(j, _STEP0, out=a), out=a)
            # phi is spent, so co serves as a temporary from here on
            a -= np.multiply(j, _STEP1, out=co)
            a -= np.multiply(j, _STEP2, out=j)
            np.multiply(a, a, out=j)
            np.add(np.multiply(j, -1.0 / 120.0, out=co), 1.0 / 6.0, out=co)
            co *= j
            np.subtract(1.0, co, out=co)
            co *= a                         # sin a = a (1 - a^2 (1/6 - a^2/120))
            np.subtract(np.multiply(j, 1.0 / 24.0, out=a), 0.5, out=a)
            a *= j                          # cos a - 1 = a^2 (a^2/24 - 1/2)
            # the small corrections are summed before the table value is added
            if si is not None:
                np.add(np.multiply(s, a, out=j), np.multiply(c, co, out=si), out=j)
                np.add(s, j, out=si)        # S + (S (cos a - 1) + C sin a)
            np.subtract(np.multiply(c, a, out=j), np.multiply(s, co, out=a), out=j)
            np.add(c, j, out=co)            # C + (C (cos a - 1) - S sin a)
    finally:
        _TRIG_WORK.append(work)


def _lab_field_design(mode_set: ModeSet, params: RotationParams, taus) -> np.ndarray:
    """Stacked (2N x 6T) design of the lab (E, H) at the T proper times taus.

    With b = k . r - c k t the base phase of a mode at a time, cos(b - phi) =
    cos b cos phi + sin b sin phi, so [cos phi, sin phi] @ design is the
    (E, H) of eval_lab_fields at every time.  Row n of the upper half holds
    amp cos b [eps, khat x eps] for each time, the lower half sin b in place
    of cos b; modes run in the (node, radial, polarization) order of
    draw_phases.
    """
    const = params.constants
    k = mode_set.wavenumbers
    base = np.empty(mode_set.amp2.shape + (len(taus),))
    for j, tau in enumerate(taus):
        t, x, y, z = lab_position(params, tau)
        base[:, :, j] = np.outer(mode_set.khat @ np.array([x, y, z]), k) - const.c * t * k
    # (M, 1, lam, 1, field, 3) against the (M, Q, 1, T, 1, 1) amplitudes; the
    # broadcast product runs about 40% faster on a contiguous copy of pol
    pol = np.ascontiguousarray(np.moveaxis(mode_set.pol, 2, 0))[:, None, :, None]
    amp = mode_set.amp[:, :, None]
    design = np.empty((2,) + mode_set.amp2.shape + (2, len(taus), 2, 3))
    for half, trig in enumerate((np.cos, np.sin)):
        np.multiply((amp * trig(base))[:, :, None, :, None, None], pol, out=design[half])
    return design.reshape(2 * mode_set.mode_count, 6 * len(taus))


def empirical_cfs(pairs: Sequence[Tuple[int, int]], kind: str, tau1: float,
                  tau2s: Sequence[float], params: RotationParams, mode_set: ModeSet,
                  n_seeds: int = 200, seed: int = 0,
                  n_workers: int = 1) -> List[List[CFValue]]:
    """Phase-ensemble estimates of tetrad-frame two-point CFs of one kind,
    every pair at every lag, from the same seeds; result[p][j] is pair
    pairs[p] between tau1 and tau2s[j].

    Carries the mode set's energy-density normalization (twice the analytic
    correlation-function convention).  stat_error is the standard error of
    the seed mean.  ValueError when a time is not finite or its base phases
    may reach PHASE_LIMIT (see eval_lab_fields).

    The lags are grouped so that no design exceeds DESIGN_BYTES.  For each
    group one design of the lab fields at tau1 and the group's lags is
    built; seeds then run in blocks of about BLOCK_ELEMENTS phases, each
    drawn once straight into its block row, the block's cos and sin taken
    by _cos_sin (within 2**-52 of libm's), then a product of the block with
    the design, and every (pair, lag) contracted from that product.
    """
    for tau in (tau1, *tau2s):
        _checked_position(mode_set, params, tau)
    rows = [[projection_rows(pair, kind, params, tau1, tau2) for tau2 in tau2s]
            for pair in pairs]
    if n_seeds < 2:
        raise ValueError(f"a standard error needs n_seeds >= 2, got {n_seeds}")
    n_modes = mode_set.mode_count
    per_block = max(1, BLOCK_ELEMENTS // n_modes)
    shape = mode_set.amp2.shape + (2,)
    starts = range(0, n_seeds, per_block)
    # every time adds six float64 columns of 2N rows to the design
    per_group = max(1, DESIGN_BYTES // (2 * n_modes * 6 * 8) - 1)
    out = [[None] * len(tau2s) for _ in pairs]
    for g0 in range(0, len(tau2s), per_group):
        lags = range(g0, min(g0 + per_group, len(tau2s)))
        design = _lab_field_design(mode_set, params,
                                   (tau1,) + tuple(tau2s[j] for j in lags))

        def work(b):
            idx = range(starts[b], min(starts[b] + per_block, n_seeds))
            # one seed's (M, Q, 2) draw per row of trig[0]; then the cos of
            # the block in place and its sin in trig[1]
            trig = np.empty((2, len(idx), n_modes))
            for r, i in enumerate(idx):
                draw_phases(mode_set, seed, i, out=trig[0, r].reshape(shape))
            flat = trig.reshape(2, -1)
            _cos_sin(flat[0], flat[0], flat[1])
            fields = (trig[0] @ design[:n_modes] + trig[1] @ design[n_modes:]).reshape(
                len(idx), 1 + len(lags), 6)
            block = np.empty((len(pairs), len(lags), len(idx)))
            for j in range(len(lags)):
                # the (seeds, 2, 6) layout of a two-time product, so that a
                # one-pair, one-lag call contracts it exactly as before
                both = fields[:, [0, j + 1]]
                for p in range(len(pairs)):
                    comps = (both * rows[p][lags[j]]).sum(axis=2)
                    block[p, j] = comps[:, 0] * comps[:, 1]
            return block

        blocks = [None] * len(starts)
        _seed_loop(work, len(starts), n_workers, blocks)
        vals = np.concatenate(blocks, axis=2)
        for p, pair in enumerate(pairs):
            for j, lag in enumerate(lags):
                v = vals[p, j]
                out[p][lag] = CFValue(
                    kind=kind, pair=pair, tau1=tau1, tau2=tau2s[lag],
                    spectrum=mode_set.spectrum, value=float(v.mean()),
                    method="monte-carlo",
                    stat_error=float(v.std(ddof=1) / math.sqrt(n_seeds)))
    return out


def empirical_cf(pair: Tuple[int, int], kind: str, tau1: float, tau2: float,
                 params: RotationParams, mode_set: ModeSet, n_seeds: int = 200,
                 seed: int = 0, n_workers: int = 1) -> CFValue:
    """Phase-ensemble estimate of one tetrad-frame two-point CF: the one-pair,
    one-lag call of empirical_cfs."""
    return empirical_cfs([pair], kind, tau1, [tau2], params, mode_set, n_seeds=n_seeds,
                         seed=seed, n_workers=n_workers)[0][0]


def empirical_energy_density(params: RotationParams, mode_set: ModeSet,
                             n_seeds: int = 200, seed: int = 0,
                             n_workers: int = 1, tau: float = 0.0) -> EmpiricalEnergyDensity:
    """Phase-ensemble estimate of the one-point quadratic field moments.

    Returns tetrad and lab component squares, the assembled energy density
    (1/8 pi) sum(<E_(a)^2> + <H_(a)^2>), and the mixed moment
    <E1 H3> - <E3 H1>, each with standard errors.  ValueError when tau is
    not finite or its base phases may reach PHASE_LIMIT (see
    eval_lab_fields).
    """
    if n_seeds < 2:
        raise ValueError(f"a standard error needs n_seeds >= 2, got {n_seeds}")
    _checked_position(mode_set, params, tau)
    m = projection_matrix(params.alpha(tau), params.beta)
    buffers = threading.local()   # each thread reuses its own across seeds

    def work(i):
        if not hasattr(buffers, "phases"):
            buffers.phases = np.empty(mode_set.amp2.shape + (2,))
            buffers.osc = np.empty((2,) + mode_set.amp2.shape)
        ph = draw_phases(mode_set, seed, i, out=buffers.phases)
        f = eval_lab_fields(mode_set, ph, params, tau, work=buffers.osc)
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

