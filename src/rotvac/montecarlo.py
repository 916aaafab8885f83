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
any other.  Each phase lies on the lattice phi = 2 pi j / 2**LATTICE_BITS:
j is the top LATTICE_BITS bits of one 32-bit half of a Philox4x64 word, so
one word serves two modes.  Every estimator here is a polynomial of degree
<= 4 in each mode's (cos phi, sin phi), and on the lattice every moment
E e^{ik phi} with 0 < |k| < 2**LATTICE_BITS vanishes, as for phases uniform
on [0, 2 pi): the ensemble means and variances are those of continuous
phases.  e^{i phi} is the product of two entries of 1024-entry tables, with
no trigonometry per seed.

The seed-invariant mode arrays (amplitudes, polarization columns) live on
the ModeSet.  Both paths use cos(b - phi) = Re(amp e^{-ib} e^{i phi}), with
b = k . r - c k t the base phase of a mode.  The two-time CFs draw each
seed once per group of lags, straight into a block of seeds, from one
Philox re-keyed per seed, and evaluate every lag of a pair by one product
of the block's interleaved (cos phi, sin phi) with one design of that
pair's tetrad components, already contracted with the projection rows.
The one-point moments compute amp e^{-ib} once per call; each seed's
per-node sums are then one batched complex product over node chunks, so a
worker thread keeps no array of mode size.  Times whose base phases
k . r - c k t float64 cannot resolve against the drawn phases are a
ValueError.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import Philox

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
# lag budget of empirical_cfs: a group of L lags (at least one) keeps
# 6 (1 + L) float64 columns of 2N rows within this, the six lab components
# at each time of the 327,680-mode one-lag call.  The designs themselves take
# 2N float64 per pair and time, so a group's P designs hold P / 6 of this
DESIGN_BYTES = 2 * 327_680 * 12 * 8
# eval_lab_fields takes the e^{i phi} of its modes in node chunks of about
# TRIG_CHUNK modes, and _cis works in chunks of TRIG_CHUNK: shorter chunks
# lose time to GIL handoffs between worker threads.  At 2**15, the 512 KB
# temporaries of _cis were mapped afresh, page by page, on every call on the
# 2-core benchmark host, and mc-lag-sweep ran at half the speed
TRIG_CHUNK = 2**14
# largest |b| = |k . r - c k t| the Monte Carlo accepts: from it on, float64
# rounds b - phi to 2**-26 rad (1.5e-8) or coarser, so that the drawn phases
# phi are no longer resolved
PHASE_LIMIT = 2.0**26
# the phases lie on the lattice phi = 2 pi j / 2**LATTICE_BITS, and
# e^{i phi} = _CIS_HI[j >> _HALF_BITS] _CIS_LO[j & (2**_HALF_BITS - 1)]
LATTICE_BITS = 20
LATTICE_STEP = 2.0 * math.pi / 2**LATTICE_BITS     # float64 2 pi, scaled exactly
_HALF_BITS = LATTICE_BITS // 2
_TWO_PI = "6.28318530717958647692528676655900576839433879875021"


def _cis_tables():
    """e^{i phi} at phi = 2 pi k / 2**_HALF_BITS and at phi = 2 pi k /
    2**LATTICE_BITS for k < 2**_HALF_BITS, each rounded once from long
    double.  The coarse table is built from sin on the first quarter turn,
    so that it is exact at the quarter turns."""
    n = 2**_HALF_BITS
    q = n // 4
    k = np.arange(n, dtype=np.longdouble)
    s = np.sin(k[:q + 1] * (np.longdouble(_TWO_PI) / n)).astype(np.float64)
    sin = np.concatenate([s[:q], s[q:0:-1], -s[:q], -s[q:0:-1]])
    fine = k * (np.longdouble(_TWO_PI) / 2**LATTICE_BITS)
    return (np.roll(sin, -q) + 1j * sin,
            np.cos(fine).astype(np.float64) + 1j * np.sin(fine).astype(np.float64))


_CIS_HI, _CIS_LO = _cis_tables()


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
    """One draw of phases, one per (node, radial, pol) mode, uniform on the
    lattice phi = 2 pi j / 2**LATTICE_BITS: lattice holds the indices j.

    Every Monte Carlo estimator is a polynomial of degree <= 4 in each
    mode's (cos phi, sin phi).  On the lattice every moment E e^{ik phi}
    with 0 < |k| < 2**LATTICE_BITS vanishes, as it does for phases uniform
    on [0, 2 pi), so the estimators have the same ensemble means and
    variances.
    """

    seed: int
    lattice: np.ndarray  # (M, Q, 2) uint32

    @property
    def phases(self) -> np.ndarray:
        """The phases as float64, j LATTICE_STEP, in [0, 2 pi)."""
        return self.lattice * LATTICE_STEP


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


def draw_phases(mode_set: ModeSet, seed: int, index: int = 0) -> PhaseEnsemble:
    """Counter-based phase draw; (seed, index) keys an independent stream.

    Mode 2w takes the top LATTICE_BITS bits of the low 32-bit half of the
    stream's word w, mode 2w + 1 those of its high half; modes run in
    (node, radial, polarization) order.
    """
    lattice = _lattice(_philox(seed, index), mode_set.mode_count)
    return PhaseEnsemble(seed=seed, lattice=lattice.reshape(mode_set.amp2.shape + (2,)))


def _philox(seed: int, index: int) -> Philox:
    """The Philox stream keyed by (seed, index); ValueError unless seed is a uint64."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed!r}")
    return Philox(key=np.array([seed, index], dtype=np.uint64))


def _lattice(bits: Philox, n_modes: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The uint32 lattice indices of n_modes modes from the next n_modes / 2
    words of bits, in out if given, else in place of the words."""
    words = bits.random_raw(n_modes // 2).astype("<u8", copy=False).view("<u4")
    return np.right_shift(words, 32 - LATTICE_BITS, out=words if out is None else out)


def _draw_block(seed: int, indices: range, out: np.ndarray) -> None:
    """Row r of the uint32 array out gets the lattice indices of
    draw_phases(..., seed, indices[r]), flattened, from one Philox re-keyed
    to (seed, i) for each seed i.  Constructing a Philox reads OS entropy
    for a SeedSequence that the key then replaces; setting the key costs
    about a sixth as much."""
    bits = _philox(seed, indices[0])
    state = bits.state              # counter 0 and an empty buffer: a fresh stream
    for r, i in enumerate(indices):
        state["state"]["key"][1] = i
        bits.state = state
        _lattice(bits, out.shape[1], out[r])


def _cis(lattice: np.ndarray) -> np.ndarray:
    """e^{i phi} at the lattice phases of the uint32 indices lattice, in
    chunks of TRIG_CHUNK through two work arrays of that length."""
    z = np.empty(lattice.shape, dtype=complex)
    flat, out = lattice.reshape(-1), z.reshape(-1)
    n = min(flat.size, TRIG_CHUNK)
    k, fine = np.empty(n, dtype=np.intp), np.empty(n, dtype=complex)
    for lo in range(0, flat.size, TRIG_CHUNK):
        j, zj = flat[lo:lo + TRIG_CHUNK], out[lo:lo + TRIG_CHUNK]
        kj, fj = k[:len(j)], fine[:len(j)]
        # mode "clip" skips the buffering of the default "raise"; k is in range
        np.take(_CIS_HI, np.right_shift(j, _HALF_BITS, out=kj, casting="unsafe"),
                out=zj, mode="clip")
        np.take(_CIS_LO, np.bitwise_and(j, 2**_HALF_BITS - 1, out=kj, casting="unsafe"),
                out=fj, mode="clip")
        zj *= fj
    return z


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


def _base_phase(mode_set: ModeSet, params: RotationParams, tau: float,
                out: np.ndarray) -> np.ndarray:
    """out, an (M, Q) array, gets the base phases b = k . r - c k t of the
    modes at tau; ValueError as _checked_position."""
    t, x, y, z = _checked_position(mode_set, params, tau)
    k = mode_set.wavenumbers
    np.outer(mode_set.khat @ np.array([x, y, z]), k, out=out)
    out -= params.constants.c * t * k
    return out


def _field_base(mode_set: ModeSet, params: RotationParams, tau: float) -> np.ndarray:
    """(M, Q) complex amp e^{-ib} at tau, so that amp cos(b - phi) = Re(amp
    e^{-ib} e^{i phi})."""
    b = _base_phase(mode_set, params, tau, np.empty(mode_set.amp2.shape))
    base = np.empty(b.shape, dtype=complex)
    np.cos(b, out=base.real)
    np.sin(b, out=base.imag)
    base.imag *= -1.0
    base *= mode_set.amp
    return base


def eval_lab_fields(mode_set: ModeSet, phases: PhaseEnsemble,
                    params: RotationParams, tau: float,
                    work: Optional[np.ndarray] = None) -> FieldTriplet:
    """Lab-frame (E, H) of the superposition at the detector position.

    Each node's sums over its radial modes of amp cos(b - phi) = Re(amp
    e^{-ib} e^{i phi}), with b = k . r - c k t, are one (1 x Q) @ (Q x 2)
    complex product, the e^{i phi} taken from the lattice tables in node
    chunks of about TRIG_CHUNK modes.  work, if given, is
    _field_base(mode_set, params, tau), which a caller that evaluates many
    ensembles at one time computes once.  ValueError when tau is not finite
    or |b| may reach PHASE_LIMIT.
    """
    if work is None:
        base = _field_base(mode_set, params, tau)
    else:
        _checked_position(mode_set, params, tau)
        base = work
    n_nodes, n_radial = base.shape
    per_node = np.empty((n_nodes, 1, 2), dtype=complex)
    step = max(1, TRIG_CHUNK // (2 * n_radial))
    for lo in range(0, n_nodes, step):
        hi = lo + step
        np.matmul(base[lo:hi, None], _cis(phases.lattice[lo:hi]), out=per_node[lo:hi])
    per_node = per_node.real[:, 0]
    pol = mode_set.pol
    E = per_node[:, 0] @ pol[0, 0] + per_node[:, 1] @ pol[1, 0]
    H = per_node[:, 0] @ pol[0, 1] + per_node[:, 1] @ pol[1, 1]
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


def _lab_field_design(mode_set: ModeSet, params: RotationParams, taus,
                      rows: np.ndarray) -> np.ndarray:
    """(P, 2N, T) designs of the tetrad components that the P x T rows of
    projection_matrix pick from the lab (E, H) at the T proper times taus:
    rows[p, j] is a (6,) row at taus[j].

    With b = k . r - c k t the base phase of a mode at a time, cos(b - phi) =
    cos b cos phi + sin b sin phi, so the interleaved (cos phi_0, sin phi_0,
    cos phi_1, ...) @ design[p] is, at every time, the component of
    eval_lab_fields' (E, H) along rows[p].  Rows 2n and 2n + 1 hold amp cos b
    (pol . row) and amp sin b (pol . row) of mode n, where pol . row = eps .
    row[:3] + (khat x eps) . row[3:]; modes run in the (node, radial,
    polarization) order of draw_phases.
    """
    # amp cos b and amp sin b, interleaved, in place of b
    trig = np.empty(mode_set.amp2.shape + (2, len(taus)))
    for j, tau in enumerate(taus):
        _base_phase(mode_set, params, tau, trig[:, :, 1, j])
    np.cos(trig[:, :, 1], out=trig[:, :, 0])
    np.sin(trig[:, :, 1], out=trig[:, :, 1])
    trig *= mode_set.amp[:, :, None, None]
    # (M, Q, 1, 2, T) against pol . row, (M, 1, lam, 1, T); one product per
    # pair, written in place, so that a pair's design does not depend on the
    # others
    pol = np.moveaxis(mode_set.pol, 2, 0).reshape(-1, 6)       # (M lam, 6)
    design = np.empty((len(rows),) + mode_set.amp2.shape + (2, 2, len(taus)))
    for p, r in enumerate(rows):
        np.multiply(trig[:, :, None], (pol @ r.T).reshape(-1, 1, 2, 1, len(taus)),
                    out=design[p])
    return design.reshape(len(rows), 2 * mode_set.mode_count, len(taus))


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

    The lags are grouped as DESIGN_BYTES sets out.  For each group one
    design per pair is built, each of its columns a tetrad component: pair
    p's at tau1, then its partner at each of the group's lags.  Seeds then
    run in blocks of about BLOCK_ELEMENTS phases, each drawn once straight
    into its block row, the block's e^{i phi} taken from the lattice
    tables, then one product of the block's interleaved (cos phi, sin phi)
    with each pair's design; a seed's CF at a lag is the product of its two
    components.
    """
    for tau in (tau1, *tau2s):
        _checked_position(mode_set, params, tau)
    rows = [[projection_rows(pair, kind, params, tau1, tau2) for tau2 in tau2s]
            for pair in pairs]
    if n_seeds < 2:
        raise ValueError(f"a standard error needs n_seeds >= 2, got {n_seeds}")
    n_modes = mode_set.mode_count
    per_block = max(1, BLOCK_ELEMENTS // n_modes)
    starts = range(0, n_seeds, per_block)
    per_group = max(1, DESIGN_BYTES // (2 * n_modes * 6 * 8) - 1)
    out = [[None] * len(tau2s) for _ in pairs]
    for g0 in range(0, len(tau2s), per_group):
        lags = range(g0, min(g0 + per_group, len(tau2s)))
        # the row at tau1 is the same at every lag
        design = _lab_field_design(
            mode_set, params, (tau1,) + tuple(tau2s[j] for j in lags),
            np.array([[r[lags[0]][0]] + [r[j][1] for j in lags] for r in rows]))

        def work(b):
            idx = range(starts[b], min(starts[b] + per_block, n_seeds))
            lattice = np.empty((len(idx), n_modes), dtype=np.uint32)
            _draw_block(seed, idx, lattice)
            trig = _cis(lattice).view(np.float64)    # (seeds, 2N): cos, sin interleaved
            block = np.empty((len(pairs), len(lags), len(idx)))
            for p, d in enumerate(design):
                comps = trig @ d
                np.multiply(comps[:, 0], comps[:, 1:].T, out=block[p])
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
    base = _field_base(mode_set, params, tau)
    m = projection_matrix(params.alpha(tau), params.beta)

    def work(i):
        f = eval_lab_fields(mode_set, draw_phases(mode_set, seed, i), params, tau, work=base)
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
        "phases": {"generator": "philox4x64", "key": "(seed, index)",
                   "lattice_bits": LATTICE_BITS},
    }
    if extra:
        d.update(extra)
    return d

