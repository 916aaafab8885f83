"""Monte Carlo oracle: random-phase plane-wave superpositions of the
zero-point field evaluated along the rotating worldline.

The angular part is a deterministic Gauss-Legendre x uniform-azimuth
quadrature grid; only the mode phases are random, so statistical error comes
solely from the phase ensemble.  A spectrum chooses only its radial rule
(build_mode_set); one amplitude formula and one angular-resolution rule
serve both.  The amplitudes make the ensemble average of one-point
quadratic observables reproduce the truncated energy density identically
in expectation (the "energy-density normalization").  Two-time correlation
functions built from this field therefore carry twice the spectral weight of
the analytic CFs' convention; comparisons against those include an explicit
factor 2.

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
no trigonometry per seed.  draw_phases returns a seed's (M, Q, 2) uint32
indices j, which eval_lab_fields takes as they are; it returns the lab
field as the 6-vector (E1, E2, E3, H1, H2, H3) that projection_matrix
takes.

The seed-invariant mode arrays (amplitudes, polarization columns) live on
the ModeSet.  Both paths use cos(b - phi) = Re(amp e^{-ib} e^{i phi}), with
b = k . r - c k t the base phase of a mode; both take amp e^{-ib} from one
kernel (_field_base) and their phases from one draw (_draw_block).  The
two-time CFs run over node chunks of about CHUNK_MODES modes, so that their
memory does not grow with the grid, and sum each seed's shares in chunk
order (empirical_cfs); no seed block has one row, so that the bits do not
depend on the BLAS thread count either.  The one-point moments compute
amp e^{-ib} once per call; each seed's per-node sums are then one batched
complex product over node chunks, so a worker thread keeps no array of mode
size.  Times whose base phases k . r - c k t float64 cannot resolve against
the drawn phases are a ValueError; a mean or standard error outside the
float64 range is an OverflowError.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import Philox

from .cf_continuous import CFValue
from .fields import polarization_grid, projection_matrix, projection_rows
from .kinematics import RotationParams, lab_position

__all__ = [
    "ModeSet",
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
# Gauss-Legendre nodes of the continuous band per ladder rung n_max
BAND_NODES_PER_RUNG = 4
# phases per seed block of empirical_cf: the block size follows from the mode
# count alone, never from the worker count, so that results are bit-identical
# for any worker count
BLOCK_ELEMENTS = 2**16
# modes per node chunk of empirical_cfs, about: a chunk is a multiple of 4
# whole nodes, so that it starts on a Philox counter step (4 words, 8 modes),
# its design takes 2 float64 per mode, pair and time, whatever the grid, and a
# seed block holds >= 2 seeds (OpenBLAS threads the sum of a one-row product)
CHUNK_MODES = BLOCK_ELEMENTS // 2
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

    amp[m, q] is the amplitude of angular node m at radial index q (identical
    for both polarizations); wavenumbers are k0 n, n = 1..n_max, for the
    discrete ladder or the quadrature nodes of a band-limited continuum up to
    n_max k0.  pol holds the polarization columns: pol[lam] = (eps_lam,
    khat x eps_lam), each a contiguous (M, 3) array, for lam = 0, 1.
    """

    spectrum: str              # "discrete" | "continuous"
    n_max: int
    n_theta: int
    n_phi: int
    k0: float                  # 1/m
    wavenumbers: np.ndarray    # (Q,)
    khat: np.ndarray           # (M, 3)
    amp: np.ndarray            # (M, Q)
    pol: np.ndarray            # (2, 2, M, 3)

    @property
    def mode_count(self) -> int:
        return 2 * self.amp.size

    def describe(self) -> dict:
        return {"spectrum": self.spectrum, "k0": self.k0, "n_theta": self.n_theta,
                "n_phi": self.n_phi, "mode_count": self.mode_count, "n_max": self.n_max}


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

    def same_as(self, other: "EmpiricalEnergyDensity") -> bool:
        """True iff every field, standard errors too, equals other's element by element."""
        return all(np.array_equal(v, getattr(other, k)) for k, v in vars(self).items())


@np.errstate(over="ignore", under="ignore")    # checked on the amplitudes
def build_mode_set(params: RotationParams, spectrum: str = "discrete",
                   n_max: int = 10, n_theta: int = 16, n_phi: int = 32) -> ModeSet:
    """Deterministic angular grid times a radial rule in units of k0 = omega / c.

    Discrete: nodes n = 1..n_max, weight 1, so the wavenumbers are exactly
    k0 n.  Continuous: BAND_NODES_PER_RUNG n_max Gauss-Legendre nodes n on
    [0, n_max] with weights w_n.  Either way amp^2 = (hbar c k0^4 / pi^2) w
    w_n n^3 for an angular weight w.  Over the sphere a two-time CF term
    swings through the phase k . (r1 - r2), up to 2 n_max beta rad (k0 r =
    beta); ValueError unless n_theta >= ceil(n_max beta) + 6 and n_phi >=
    ceil(3 n_max beta) + 10 resolve it, and the grid is at least
    MIN_THETA_NODES x MIN_PHI_NODES.  OverflowError where k0, the top
    wavenumber n_max k0 or an amplitude is not a normal float64.
    """
    const = params.constants
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    need = (max(MIN_THETA_NODES, math.ceil(n_max * params.beta) + 6),
            max(MIN_PHI_NODES, math.ceil(3 * n_max * params.beta) + 10))
    if n_theta < need[0] or n_phi < need[1]:
        raise ValueError(f"the {n_theta} x {n_phi} angular grid is too coarse for n_max = {n_max} "
                         f"at beta = {params.beta!r}: it needs n_theta >= {need[0]} and "
                         f"n_phi >= {need[1]}")
    if params.omega == 0.0:
        raise ValueError("the Monte Carlo modes need omega > 0 (wavenumbers up to "
                         "n_max omega / c)")
    if spectrum == "discrete":
        nodes, weights = np.arange(1, n_max + 1, dtype=float), np.ones(n_max)
    elif spectrum == "continuous":
        x, wx = leggauss(BAND_NODES_PER_RUNG * n_max)
        nodes, weights = 0.5 * n_max * (x + 1.0), 0.5 * n_max * wx
    else:
        raise ValueError(f"unknown spectrum {spectrum!r}")
    # Gauss-Legendre in cos(theta) (its weights absorb sin(theta)) x trapezoid in phi
    x, wx = leggauss(n_theta)
    th, ph = np.meshgrid(np.arccos(x), 2.0 * np.pi * np.arange(n_phi) / n_phi, indexing="ij")
    w = np.outer(wx, np.full(n_phi, 2.0 * np.pi / n_phi)).reshape(-1)
    st = np.sin(th).reshape(-1)
    khat = np.stack([st * np.cos(ph.reshape(-1)), st * np.sin(ph.reshape(-1)),
                     np.cos(th).reshape(-1)], axis=-1)
    k0 = params.omega / const.c
    # numpy's power gives inf where Python's float ** would raise
    amp2 = const.hbar * const.c * np.float64(k0)**4 / math.pi**2 * np.outer(w, weights * nodes**3)
    # each is non-zero in exact arithmetic: a zero or subnormal one underflowed
    for name, v in (("k0 = omega / c", k0),
                    (f"the top wavenumber at n_max = {n_max}, omega = {params.omega!r}",
                     n_max * k0), ("mode amplitude^2", amp2)):
        lo, hi = float(np.min(v)), float(np.max(v))     # all >= 0; NaN fails below
        if not np.finfo(np.float64).smallest_normal <= lo <= hi < math.inf:
            raise OverflowError(f"{name} is {lo if hi < math.inf else hi!r}, not a normal float64")

    pol = np.stack([np.stack([eps, np.cross(khat, eps)]) for eps in polarization_grid(khat)])
    return ModeSet(spectrum=spectrum, n_max=n_max, n_theta=n_theta, n_phi=n_phi, k0=k0,
                   wavenumbers=k0 * nodes, khat=khat, amp=np.sqrt(amp2), pol=pol)


def draw_phases(mode_set: ModeSet, seed: int, index: int = 0) -> np.ndarray:
    """Counter-based phase draw; (seed, index) keys an independent stream.

    Returns the (M, Q, 2) uint32 lattice indices j of the phases
    phi = j LATTICE_STEP, one per (node, radial, polarization) mode.  Mode
    2w takes the top LATTICE_BITS bits of the low 32-bit half of the
    stream's word w, mode 2w + 1 those of its high half.  ValueError unless
    seed and index are uint64s.
    """
    if not 0 <= index < 2**64:
        raise ValueError(f"index must be in [0, 2**64), got {index!r}")
    lattice = _draw_block(seed, range(index, index + 1), mode_set.mode_count, 0)
    return lattice.reshape(mode_set.amp.shape + (2,))


def _draw_block(seed: int, indices: range, n_modes: int, first: int) -> np.ndarray:
    """(len(indices), n_modes) uint32 array whose row r holds the lattice
    indices of modes first, first + 1, ... of draw_phases(..., seed,
    indices[r]), from one Philox re-keyed to (seed, i) for each seed i:
    constructing a Philox costs six times as much, for OS entropy that the
    key then replaces.  first is a multiple of 8, since one counter step
    gives 4 words, 8 modes.  A block of one seed is its Philox words, shifted
    in place: with a second array, whose pages were mapped afresh on every
    call, draw_phases took 1.8-2.5 ms in place of 0.8 ms at 327,680 modes on
    a 2-core host.  ValueError unless seed is a uint64."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed!r}")
    bits = Philox(key=np.array([seed, indices[0]], dtype=np.uint64))
    state = bits.state              # an empty buffer: the next word is the counter's
    state["state"]["counter"][0] = first // 8
    out = np.empty((len(indices), n_modes), dtype=np.uint32) if len(indices) > 1 else None
    for r, i in enumerate(indices):
        state["state"]["key"][1] = i
        bits.state = state
        words = bits.random_raw(n_modes // 2).astype("<u8", copy=False).view("<u4")
        np.right_shift(words, 32 - LATTICE_BITS, out=words if out is None else out[r])
    return words[None] if out is None else out


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
                out: np.ndarray, nodes: slice = slice(None)) -> np.ndarray:
    """out, an (M, Q) array over the node slice nodes, gets the base phases
    b = k . r - c k t of their modes at tau; ValueError as _checked_position."""
    t, x, y, z = _checked_position(mode_set, params, tau)
    k = mode_set.wavenumbers
    np.outer(mode_set.khat[nodes] @ np.array([x, y, z]), k, out=out)
    out -= params.constants.c * t * k
    return out


def _field_base(mode_set: ModeSet, params: RotationParams, tau: float,
                nodes: slice = slice(None)) -> np.ndarray:
    """(M, Q) complex amp e^{-ib} at tau over the node slice nodes, so that
    amp cos(b - phi) = Re(amp e^{-ib} e^{i phi})."""
    amp = mode_set.amp[nodes]
    b = _base_phase(mode_set, params, tau, np.empty(amp.shape), nodes)
    base = np.empty(b.shape, dtype=complex)
    np.cos(b, out=base.real)
    np.sin(b, out=base.imag)
    base.imag *= -1.0
    base *= amp
    return base


def eval_lab_fields(mode_set: ModeSet, lattice: np.ndarray,
                    params: RotationParams, tau: float,
                    work: Optional[np.ndarray] = None) -> np.ndarray:
    """Lab-frame 6-vector (E1, E2, E3, H1, H2, H3) of the superposition at
    the detector position, at the phases j LATTICE_STEP of lattice, the
    indices j that draw_phases returns.

    Each node's sums over its radial modes of amp cos(b - phi) = Re(amp
    e^{-ib} e^{i phi}), with b = k . r - c k t, are one (1 x Q) @ (Q x 2)
    complex product, the e^{i phi} taken from the lattice tables in node
    chunks of about TRIG_CHUNK modes.  work, if given, is
    _field_base(mode_set, params, tau), which a caller that evaluates many
    ensembles at one time computes once.  ValueError when tau is not finite,
    |b| may reach PHASE_LIMIT or a field component is not finite.
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
        np.matmul(base[lo:hi, None], _cis(lattice[lo:hi]), out=per_node[lo:hi])
    per_node = per_node.real[:, 0]
    pol = mode_set.pol
    f = np.concatenate([per_node[:, 0] @ pol[0, 0] + per_node[:, 1] @ pol[1, 0],
                        per_node[:, 0] @ pol[0, 1] + per_node[:, 1] @ pol[1, 1]])
    if not np.all(np.isfinite(f)):
        raise ValueError(f"lab field components at tau = {tau!r} are not finite")
    return f


def _seed_loop(work, n_items: int, n_workers: int, out):
    """out[i] = work(i) for each i < n_items, on n_workers threads.  Results
    land by index and any reduction runs afterwards in index order, so the
    outcome is bit-identical for any worker count."""
    if n_workers <= 1:
        for i in range(n_items):
            out[i] = work(i)
        return
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(lambda i: out.__setitem__(i, work(i)), range(n_items)))


def _seed_stats(vals: np.ndarray, names: Sequence[str], axis: int = 0):
    """Mean and standard error of vals over its seed axis; names names the
    means in their flat order.  OverflowError naming the first mean or
    standard error that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = vals.mean(axis=axis)
        err = vals.std(axis=axis, ddof=1) / math.sqrt(vals.shape[axis])
    for what, v in (("mean", mean), ("standard error", err)):
        for name, x in zip(names, np.ravel(v)):
            if not math.isfinite(x):
                raise OverflowError(f"the Monte Carlo {what} of {name} is {float(x)!r}")
    return mean, err


def _lab_field_design(mode_set: ModeSet, params: RotationParams, taus,
                      rows: np.ndarray, nodes: slice = slice(None)) -> np.ndarray:
    """(P, 2N, T) designs of the tetrad components that the P x T rows of
    projection_matrix pick from the lab (E, H) at the T proper times taus,
    over the N modes of the node slice nodes: rows[p, j] is a row at taus[j].

    With b = k . r - c k t the base phase of a mode at a time, cos(b - phi) =
    cos b cos phi + sin b sin phi, so the interleaved (cos phi_0, sin phi_0,
    cos phi_1, ...) @ design[p] is, at every time, the component of
    eval_lab_fields' 6-vector along rows[p].  Rows 2n and 2n + 1 hold amp cos b
    (pol . row) and amp sin b (pol . row) of mode n, where pol . row = eps .
    row[:3] + (khat x eps) . row[3:]; modes run in the (node, radial,
    polarization) order of draw_phases.
    """
    # amp cos b + i amp sin b = conj(amp e^{-ib}) at each time, seen as the
    # interleaved float64 (amp cos b, amp sin b): (M, Q, 2, T)
    base = np.empty(mode_set.amp[nodes].shape + (len(taus),), dtype=complex)
    for j, tau in enumerate(taus):
        np.conjugate(_field_base(mode_set, params, tau, nodes), out=base[:, :, j])
    trig = base.view(np.float64).reshape(base.shape + (2,)).swapaxes(2, 3)
    # (M, Q, 1, 2, T) against pol . row, (M, 1, lam, 1, T); one product per
    # pair, written in place, so that a pair's design does not depend on the
    # others
    pol = np.moveaxis(mode_set.pol[:, :, nodes], 2, 0).reshape(-1, 6)     # (M lam, 6)
    design = np.empty((len(rows),) + trig.shape[:2] + (2, 2, len(taus)))
    for p, r in enumerate(rows):
        np.multiply(trig[:, :, None], (pol @ r.T).reshape(-1, 1, 2, 1, len(taus)),
                    out=design[p])
    return design.reshape(len(rows), -1, len(taus))


def _chunk_components(mode_set: ModeSet, params: RotationParams, taus, rows: np.ndarray,
                      nodes: slice, seed: int, n_seeds: int, n_workers: int) -> np.ndarray:
    """(n_seeds, P, T) shares of the components along rows from the modes of
    the node slice nodes, seeds in blocks of about BLOCK_ELEMENTS phases; the
    last block takes up a lone last seed, so that no block has one row."""
    design = _lab_field_design(mode_set, params, taus, rows, nodes)
    width = design.shape[1] // 2
    per_block = max(2, BLOCK_ELEMENTS // width)
    starts = range(0, n_seeds - 1, per_block)

    def work(b):
        idx = range(starts[b], n_seeds if b == len(starts) - 1 else starts[b] + per_block)
        lattice = _draw_block(seed, idx, width, nodes.start * 2 * mode_set.amp.shape[1])
        trig = _cis(lattice).view(np.float64)    # (seeds, 2C): cos, sin interleaved
        return np.stack([trig @ d for d in design], axis=1)

    blocks = [None] * len(starts)
    _seed_loop(work, len(starts), n_workers, blocks)
    return np.concatenate(blocks)


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
    may reach PHASE_LIMIT (see eval_lab_fields); OverflowError when a mean
    or standard error is not finite.

    The modes run in node chunks of about CHUNK_MODES, so that memory does
    not grow with the grid.  Each chunk has one design per pair: the pair's
    tetrad component at tau1 and its partner's at each lag.  The chunk's
    e^{i phi} of a block of seeds, read as interleaved (cos phi, sin phi),
    times a pair's design gives each seed's share of the components.  The
    shares are summed in chunk order, and a seed's CF at a lag is the
    product of its two sums.
    """
    for tau in (tau1, *tau2s):
        _checked_position(mode_set, params, tau)
    # pair p's row at tau1, then its partner's row at each lag
    rows = np.array([[projection_rows(pair, kind, params, tau1, t)[min(j, 1)]
                      for j, t in enumerate((tau1, *tau2s))] for pair in pairs])
    if n_seeds < 2:
        raise ValueError(f"a standard error needs n_seeds >= 2, got {n_seeds}")
    n_nodes, n_radial = mode_set.amp.shape
    step = max(1, CHUNK_MODES // (8 * n_radial)) * 4
    parts = [_chunk_components(mode_set, params, (tau1, *tau2s), rows, slice(lo, lo + step),
                               seed, n_seeds, n_workers) for lo in range(0, n_nodes, step)]
    comps = sum(parts[1:], parts[0])                 # in chunk order
    with np.errstate(over="ignore"):                 # _seed_stats names an overflow
        products = (comps[:, :, :1] * comps[:, :, 1:]).transpose(1, 2, 0).copy()
    mean, err = _seed_stats(products, [f"the {kind} CF of pair {pair} at tau2 = {t!r}"
                                       for pair in pairs for t in tau2s], axis=2)
    return [[CFValue(kind=kind, pair=pair, tau1=tau1, tau2=tau2, spectrum=mode_set.spectrum,
                     value=float(mean[p, j]), method="monte-carlo",
                     stat_error=float(err[p, j]))
             for j, tau2 in enumerate(tau2s)]
            for p, pair in enumerate(pairs)]


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
    eval_lab_fields); OverflowError when a mean or standard error is not
    finite.
    """
    if n_seeds < 2:
        raise ValueError(f"a standard error needs n_seeds >= 2, got {n_seeds}")
    base = _field_base(mode_set, params, tau)
    m = projection_matrix(params, tau)

    @np.errstate(over="ignore")      # _seed_stats names an overflow
    def work(i):
        f = eval_lab_fields(mode_set, draw_phases(mode_set, seed, i), params, tau, work=base)
        return np.concatenate([(m @ f) ** 2, f**2, [f[0] * f[5] - f[2] * f[3]]])

    vals = np.empty((n_seeds, 13))
    _seed_loop(work, n_seeds, n_workers, vals)
    mean, err = _seed_stats(vals, [f"{frame} <{x}_{a}^2>" for frame in ("tetrad", "lab")
                                   for x in "EH" for a in (1, 2, 3)]
                            + ["the mixed moment <E1 H3> - <E3 H1>"])
    w_samples = vals[:, 0:6].sum(axis=1) / (8.0 * math.pi)
    w, w_err = _seed_stats(w_samples, ["the energy density w"])
    return EmpiricalEnergyDensity(
        e2=mean[0:3], h2=mean[3:6], e2_err=err[0:3], h2_err=err[3:6],
        lab_e2=mean[6:9], lab_h2=mean[9:12], lab_e2_err=err[6:9], lab_h2_err=err[9:12],
        w=float(w), w_err=float(w_err), mixed=float(mean[12]), mixed_err=float(err[12]),
        n_seeds=n_seeds,
    )


def run_manifest(params: RotationParams, mode_set: ModeSet, n_seeds: int,
                 seed: int) -> dict:
    """Reproducibility manifest for a Monte Carlo run."""
    return {
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

