"""The four workloads: their inputs, made from the workload seed, and the
operations of one round, each with the checks its returned values must pass.

An operation is one value: one call into a rotvac layer (a force curve is one
value made of several calls).  Every function is looked up on its module at
call time, so the wrappers of a traced run are seen.  References come from
``refs``, which does not import rotvac; they are computed when the round is
built, after set-up and outside every timed call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

import refs

WORKLOADS = ("cf-sweep", "thermal-split", "mc-lag-sweep", "mc-energy")

# cf-sweep: orbital speeds from slow to 0.99, lags stratified over LAG_RANGE
CF_BETAS = (0.05, 0.3, 0.6, 0.9, 0.99)
CF_LAGS_PER_BETA = 6
LAG_RANGE = (0.3, 6.0)
# near-luminal points, independent of the seed: the sphere rule of the
# quadrature routes does not converge there (ROADMAP item 4)
NEAR_LUMINAL_BETAS = (0.999, 0.99999)
NEAR_LUMINAL_DELTA = 0.1
THERMO_OMEGA = 1.0e6        # rad/s, SI energy densities
FORCE_OMEGA = 2.0e3         # rad/s, SI force curve
FORCE_POINTS = 25
SPHERE_RADIUS = 1.0e-9      # m
CUTOFF_N_MAX = 10

# thermal-split: one split per route, each at its own speed, so that a run
# repeats every operation several times
SPLITS = (("em", 0.3), ("scalar", 0.6))
# |phase| < 2 pi over the sphere; the cost of a split grows with the lag,
# from 1.8 s at 0.6 to 3.5 s at 5.4, so the range is kept narrow
SPLIT_LAG_RANGE = (1.5, 3.5)
SPECTRUM_PHASES = 48
SPECTRUM_RANGE = (0.3, 6.0)
ABEL_PHASES = 3
ABEL_RANGE = (1.5, 4.8)
ABEL_REL_TOL = 1e-4           # abel_sum's own acceptance bound

# Monte Carlo
MC_BETA = 0.3
MC_LAGS = 10
MC_PAIRS = ((1, 1), (1, 3), (2, 3))
MC_LAG_SEEDS = 100           # per value; 300 per lag
MC_LAG_GRID = dict(n_max=6, n_theta=16, n_phi=32)        # cf CLI default, 6,144 modes
MC_ENERGY_GRID = dict(n_max=20, n_theta=64, n_phi=128)   # full suite, 327,680 modes
MC_ENERGY_SEEDS = 50
MC_ENERGY_CALLS = 3           # with 2 workers; the first is repeated with 1 worker
# Means of squares or correlated products of Gaussian fields are skewed, and
# their sample standard error moves with them: the CF and energy-density pulls
# divide by the Gaussian field's standard error (refs.mc_*_seed_sd) instead,
# and |pull| > 5.5 then has a chance below 1e-5 per value at these seed
# counts.  The near-symmetric E^2 - H^2 and mixed-moment pulls use the sample's.
PULL_BOUND = 5.5

Want = Union[float, Callable[[dict, dict], float]]


@dataclass
class Check:
    """|out[key] - want| <= rtol * scale + floor, with scale = |want| unless
    given; floor is the roundoff of an integral that can cancel.

    A statistical check (err_key set) instead bounds the pull
    |out[key] - want| / out[err_key] by rtol.  want may depend on this
    operation's outputs and on those of earlier operations of the round.
    """

    label: str
    key: str
    want: Want
    rtol: float
    scale: Optional[float] = None
    floor: float = 0.0
    err_key: Optional[str] = None

    def target(self, out: dict, done: dict) -> float:
        return self.want(out, done) if callable(self.want) else self.want

    def tolerance(self, out: dict, done: dict) -> float:
        if self.err_key is not None:
            return self.rtol * out[self.err_key]
        return self.floor + self.rtol * (self.scale if self.scale is not None
                                         else abs(self.target(out, done)))

    def passes(self, out: dict, done: dict) -> bool:
        got = out[self.key]
        want = self.target(out, done)
        if self.err_key is not None:
            err = out[self.err_key]
            if not (math.isfinite(err) and err > 0.0):
                return False
        return math.isfinite(got) and abs(got - want) <= self.tolerance(out, done)


@dataclass
class Op:
    """One value: ``call`` runs the program and returns named floats.

    ``sources`` maps each checked output to the program function and result
    attribute it comes from, ("module", "function", "attr.path"); the
    benchmark's tests perturb the value there.
    """

    key: str
    kind: str
    call: Callable[[], Dict[str, float]]
    sources: Dict[str, Tuple[str, str, Optional[str]]]
    checks: List[Check] = field(default_factory=list)
    threads: int = 1            # worker threads the call runs on


@dataclass
class Inputs:
    """What set-up produces: the loaded modules and the generated inputs."""

    workload: str
    rv: object                  # the rotvac package
    values: dict                # generated inputs
    mode_sets: dict             # name -> ModeSet


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), tag]))


def stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> List[float]:
    """One uniform draw in each of n equal strata of [lo, hi]."""
    width = (hi - lo) / n
    return [float(lo + (j + rng.random()) * width) for j in range(n)]


def make_inputs(workload: str, seed: int, rv) -> Inputs:
    """Generate the workload's inputs from its seed and build its mode sets."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(seed, workload)
    values, mode_sets = {}, {}
    if workload == "cf-sweep":
        values["lags"] = {b: stratified(rng, *LAG_RANGE, CF_LAGS_PER_BETA) for b in CF_BETAS}
    elif workload == "thermal-split":
        values["split_lags"] = stratified(rng, *SPLIT_LAG_RANGE, len(SPLITS))
        values["phases"] = stratified(rng, *SPECTRUM_RANGE, SPECTRUM_PHASES)
        values["abel_phases"] = stratified(rng, *ABEL_RANGE, ABEL_PHASES)
    elif workload == "mc-lag-sweep":
        values["lags"] = stratified(rng, *LAG_RANGE, MC_LAGS)
        values["mc_seeds"] = [[int(s) for s in rng.integers(0, 2**31, len(MC_PAIRS))]
                              for _ in range(MC_LAGS)]
        params = rv.RotationParams.from_beta(1.0, MC_BETA, rv.NATURAL)
        mode_sets["ladder"] = rv.montecarlo.build_mode_set(params, **MC_LAG_GRID)
    else:
        values["tau"] = float(rng.random() * 2.0 * math.pi)
        values["mc_seeds"] = [int(s) for s in rng.integers(0, 2**31, MC_ENERGY_CALLS)]
        params = rv.RotationParams.from_beta(1.0, MC_BETA, rv.NATURAL)
        mode_sets["ladder"] = rv.montecarlo.build_mode_set(params, **MC_ENERGY_GRID)
    return Inputs(workload, rv, values, mode_sets)


def build_round(inp: Inputs) -> List[Op]:
    """The operations of one round, with their references computed."""
    return {
        "cf-sweep": _cf_sweep,
        "thermal-split": _thermal_split,
        "mc-lag-sweep": _mc_lag_sweep,
        "mc-energy": _mc_energy,
    }[inp.workload](inp)


# --- cf-sweep ------------------------------------------------------------------

def _natural(rv, beta):
    return rv.RotationParams.from_beta(1.0, beta, rv.NATURAL)


def _tau(params, delta):
    return delta / (params.omega * params.gamma)


def _cf_value(fn_mod, fn_name, call):
    def run():
        return {"value": call().value}
    return run, {"value": (fn_mod, fn_name, "value")}


def _cf_ops(rv, beta: float, delta: float, tag: str, near_luminal: bool) -> List[Op]:
    cfc, cfd = rv.cf_continuous, rv.cf_discrete
    p = _natural(rv, beta)
    t = _tau(p, delta)
    ops: List[Op] = []
    rd, md = refs.em_discrete_ref(beta, delta)

    def add(name, kind, mod, fn, call, checks):
        run, sources = _cf_value(mod, fn, call)
        ops.append(Op(f"{tag}/{name}", kind, run, sources, checks))

    r11, m11 = refs.em_cf_continuous_ref((1, 1), "EE", beta, delta)
    add("em-closed-11", "em-closed", "cf_continuous", "em_cf_continuous",
        lambda: cfc.em_cf_continuous((1, 1), "EE", 0.0, t, p),
        [Check("closed form = 1-D reduction", "value", r11, 1e-10, floor=1e-13 * m11)])
    add("em-bracket-11", "em-bracket", "cf_continuous", "em_cf_continuous",
        lambda: cfc.em_cf_continuous((1, 1), "EE", 0.0, t, p, "quadrature"),
        [Check("bracket = 1-D reduction", "value", r11, 1e-8, floor=1e-12 * m11)])
    add("em-tensor-EE-11", "em-tensor-diag", "cf_continuous", "em_cf_tensor_quadrature",
        lambda: cfc.em_cf_tensor_quadrature((1, 1), "EE", 0.0, t, p),
        [Check("tensor = 1-D reduction", "value", r11, 1e-8, floor=1e-12 * m11),
         Check("tensor = bracket", "value",
               lambda out, done, k=f"{tag}/em-bracket-11": done[k]["value"], 1e-8,
               floor=1e-12 * m11)])
    add("scalar-quadrature", "scalar-quadrature", "cf_continuous", "scalar_cf_quadrature",
        lambda: cfc.scalar_cf_quadrature(0.0, t, p),
        [Check("scalar quadrature = 1-D reduction", "value",
               refs.scalar_cf_continuous_ref(beta, delta), 1e-8)])
    add("scalar-closed", "scalar-closed", "cf_continuous", "scalar_cf_continuous",
        lambda: cfc.scalar_cf_continuous(0.0, t, p),
        [Check("scalar closed form", "value", refs.scalar_cf_closed_ref(beta, delta), 1e-12)])
    add("em-discrete", "em-discrete", "cf_discrete", "em_cf_discrete",
        lambda: cfd.em_cf_discrete(0.0, t, p),
        [Check("discrete EM = 1-D reduction", "value", rd, 1e-8, floor=1e-12 * md)])
    add("scalar-discrete", "scalar-discrete", "cf_discrete", "scalar_cf_discrete",
        lambda: cfd.scalar_cf_discrete(0.0, t, p),
        [Check("discrete scalar closed form", "value",
               refs.scalar_discrete_closed_ref(beta, delta), 1e-8)])
    if near_luminal:
        return ops

    r22, m22 = refs.em_cf_continuous_ref((2, 2), "EE", beta, delta)
    add("em-bracket-22", "em-bracket", "cf_continuous", "em_cf_continuous",
        lambda: cfc.em_cf_continuous((2, 2), "EE", 0.0, t, p, "quadrature"),
        [Check("bracket = 1-D reduction", "value", r22, 1e-8, floor=1e-12 * m22)])
    for pair in ((1, 2), (2, 1)):
        ref, mass = refs.em_cf_continuous_ref(pair, "EE", beta, delta)
        checks = [Check("tensor = 1-D reduction", "value", ref, 1e-8, floor=1e-12 * mass)]
        if pair == (2, 1):
            checks.append(Check("(2,1) = -(1,2)", "value",
                                lambda out, done, k=f"{tag}/em-tensor-EE-12": -done[k]["value"],
                                1e-8, floor=1e-12 * mass))
        add(f"em-tensor-EE-{pair[0]}{pair[1]}", "em-tensor-offdiag", "cf_continuous",
            "em_cf_tensor_quadrature",
            lambda pair=pair: cfc.em_cf_tensor_quadrature(pair, "EE", 0.0, t, p), checks)
    for pair in ((1, 3), (2, 3)):
        add(f"em-tensor-EE-{pair[0]}{pair[1]}", "em-tensor-null", "cf_continuous",
            "em_cf_tensor_quadrature",
            lambda pair=pair: cfc.em_cf_tensor_quadrature(pair, "EE", 0.0, t, p),
            [Check("z-coupled pair vanishes", "value", 0.0, 1e-12, scale=m11)])
    reh, meh = refs.em_cf_continuous_ref((1, 3), "EH", beta, delta)
    add("em-tensor-EH-13", "em-tensor-offdiag", "cf_continuous", "em_cf_tensor_quadrature",
        lambda: cfc.em_cf_tensor_quadrature((1, 3), "EH", 0.0, t, p),
        [Check("tensor = 1-D reduction", "value", reh, 1e-8, floor=1e-12 * meh)])
    return ops


def _thermo_ops(rv, beta: float, tag: str) -> List[Op]:
    thermo = rv.thermo
    p = rv.RotationParams.from_beta(THERMO_OMEGA, beta, rv.SI)
    w = THERMO_OMEGA
    bath = refs.scalar_bath_ref(w)
    factor = refs.scalar_factor_ref(beta)
    ops = []

    def em_energy():
        rep = thermo.em_energy_density(p, CUTOFF_N_MAX)
        return {"T_rot": rep.T_rot, "w_thermal": rep.w_thermal, "w_zp": rep.w_zp_cutoff,
                "mixed": rep.mixed_moment_residual}
    src = lambda attr: ("thermo", "em_energy_density", attr)
    ops.append(Op(f"{tag}/em-energy", "em-energy", em_energy,
                  {"T_rot": src("T_rot"), "w_thermal": src("w_thermal"),
                   "w_zp": src("w_zp_cutoff"), "mixed": src("mixed_moment_residual")},
                  [Check("T_rot = hbar omega / 2 pi k_B", "T_rot",
                         refs.rotation_temperature_ref(w), 1e-12),
                   Check("thermal = anisotropy * hbar w^4 / 240 pi^2 c^3", "w_thermal",
                         refs.em_anisotropy_ref(beta) * refs.blackbody_density_ref(w), 1e-12),
                   Check("zero point = truncated ladder", "w_zp",
                         refs.em_zero_point_ref(beta, w, CUTOFF_N_MAX), 1e-12),
                   Check("mixed moment vanishes", "mixed", 0.0, 1e-12, scale=1.0)]))

    def scalar_energy():
        rep = thermo.scalar_energy_density(p, CUTOFF_N_MAX)
        return {"w_thermal": rep.w_thermal, "w_zp": rep.w_zp_cutoff,
                "factor": rep.anisotropy_factor}
    src = lambda attr: ("thermo", "scalar_energy_density", attr)
    ops.append(Op(f"{tag}/scalar-energy", "scalar-energy", scalar_energy,
                  {"w_thermal": src("w_thermal"), "w_zp": src("w_zp_cutoff"),
                   "factor": src("anisotropy_factor")},
                  [Check("thermal = (4 g^2 - 1)/3 * bath", "w_thermal", factor * bath, 1e-9),
                   Check("zero point = truncated ladder", "w_zp",
                         refs.scalar_zero_point_ref(beta, w, CUTOFF_N_MAX), 1e-12),
                   Check("factor = (4 g^2 - 1)/3", "factor", factor, 1e-12)]))

    def scalar_ratio():
        measured = thermo.scalar_thermal_density_quadrature(p)
        reference = thermo.scalar_bath_thermal_density(rv.cf_discrete.rotation_temperature(p),
                                                       rv.SI)
        return {"density": measured, "ratio": measured / reference}
    src = ("thermo", "scalar_thermal_density_quadrature", None)
    ops.append(Op(f"{tag}/scalar-thermal-quadrature", "scalar-thermal-quadrature",
                  scalar_ratio, {"density": src, "ratio": src},
                  [Check("density = (4 g^2 - 1)/3 * bath", "density", factor * bath, 1e-9),
                   Check("ratio to bath = (4 g^2 - 1)/3", "ratio", factor, 1e-9)]))
    return ops


def _force_curve_op(rv, tag: str) -> Op:
    thermo = rv.thermo
    p = rv.RotationParams(omega=FORCE_OMEGA, radius=0.0, constants=rv.SI)
    r0 = refs.C_LIGHT / FORCE_OMEGA
    radii = [float(x) * r0 for x in np.linspace(0.02, 0.98, FORCE_POINTS)]
    vol = 4.0 / 3.0 * math.pi * SPHERE_RADIUS**3

    def curve():
        out = {}
        for i, r in enumerate(radii):
            pt = thermo.vacuum_force_density(p, r, sphere_radius=SPHERE_RADIUS)
            out[f"f_vac_{i}"], out[f"F_sphere_{i}"] = pt.f_vac, pt.F_sphere
        return out
    checks, sources = [], {}
    for i, r in enumerate(radii):
        f = refs.vacuum_force_ref(FORCE_OMEGA, r)
        checks += [Check(f"f_vac = -dw/dr at x={r / r0:.2f}", f"f_vac_{i}", f, 1e-12),
                   Check(f"F = f_vac * sphere volume at x={r / r0:.2f}", f"F_sphere_{i}",
                         f * vol, 1e-12)]
        sources[f"f_vac_{i}"] = ("thermo", "vacuum_force_density", "f_vac")
        sources[f"F_sphere_{i}"] = ("thermo", "vacuum_force_density", "F_sphere")
    return Op(f"{tag}/force-curve", "force-curve", curve, sources, checks)


def _cf_sweep(inp: Inputs) -> List[Op]:
    rv = inp.rv
    ops: List[Op] = []
    for beta in CF_BETAS:
        for j, delta in enumerate(inp.values["lags"][beta]):
            ops += _cf_ops(rv, beta, delta, f"b{beta}/d{j}", near_luminal=False)
        ops += _thermo_ops(rv, beta, f"b{beta}")
    ops.append(_force_curve_op(rv, "force"))
    for beta in NEAR_LUMINAL_BETAS:
        ops += _cf_ops(rv, beta, NEAR_LUMINAL_DELTA, f"b{beta}/near-luminal", near_luminal=True)
    return ops


# --- thermal-split ------------------------------------------------------------

def _thermal_split(inp: Inputs) -> List[Op]:
    rv = inp.rv
    cfd, numerics = rv.cf_discrete, rv.numerics
    ops: List[Op] = []
    for (route, beta), delta in zip(SPLITS, inp.values["split_lags"]):
        p = _natural(rv, beta)
        t = _tau(p, delta)
        if route == "em":
            fn = "em_cf_discrete"
            total, total_m = refs.em_discrete_ref(beta, delta)
            (zp, zp_m), (th, th_m) = refs.em_discrete_split_ref(beta, delta)
        else:
            # sign-definite integrands: the mass is the value itself
            fn = "scalar_cf_discrete"
            total = total_m = refs.scalar_discrete_closed_ref(beta, delta)
            zp, th = zp_m, th_m = refs.scalar_discrete_split_ref(beta, delta)

        def split(fn=fn, t=t, p=p):
            cf, parts = getattr(cfd, fn)(0.0, t, p, split=True)
            return {"value": cf.value, "zero_point": parts.zero_point_part,
                    "thermal": parts.thermal_part}
        ops.append(Op(
            f"b{beta}/{route}-split", f"{route}-split", split,
            {"value": ("cf_discrete", fn, "0.value"),
             "zero_point": ("cf_discrete", fn, "1.zero_point_part"),
             "thermal": ("cf_discrete", fn, "1.thermal_part")},
            [Check("total = 1-D reduction", "value", total, 1e-8,
                   floor=1e-12 * abs(total_m)),
             Check("zero point = 1-D reduction", "zero_point", zp, 1e-8,
                   floor=1e-12 * abs(zp_m)),
             Check("thermal = 1-D reduction of polygamma form", "thermal", th, 1e-8,
                   floor=1e-12 * abs(th_m)),
             Check("zero point + thermal = total", "thermal",
                   lambda out, done: out["value"] - out["zero_point"], 1e-9,
                   scale=abs(total) + abs(zp))]))

    for i, ph in enumerate(inp.values["phases"]):
        # one row of the spectrum table: both ladders split at one phase
        def row(ph=ph):
            out = {}
            for name in ("cubic", "linear"):
                s = getattr(cfd, f"{name}_ladder_split")(ph)
                out[f"{name}_zero_point"] = s.zero_point_part
                out[f"{name}_thermal"] = s.thermal_part
                out[f"{name}_total"] = s.total
            return out
        checks, sources = [], {}
        for name, closed, zp, th in (
                ("cubic", refs.cubic_ladder(ph), 6.0 / ph**4, refs.thermal_cubic(ph)),
                ("linear", refs.linear_ladder(ph), -1.0 / ph**2, -refs.thermal_linear(ph))):
            fn = f"{name}_ladder_split"
            checks += [
                Check(f"{name}: zero point = regularized integral", f"{name}_zero_point",
                      float(zp), 1e-12),
                Check(f"{name}: thermal = polygamma form", f"{name}_thermal", float(th), 1e-9),
                Check(f"{name}: total = closed ladder sum", f"{name}_total", float(closed),
                      1e-9, scale=abs(zp) + abs(th))]
            sources[f"{name}_zero_point"] = ("cf_discrete", fn, "zero_point_part")
            # total is a property: perturb it through the thermal part
            sources[f"{name}_thermal"] = sources[f"{name}_total"] = ("cf_discrete", fn,
                                                                     "thermal_part")
        ops.append(Op(f"phase{i}/spectrum-row", "spectrum-row", row, sources, checks))

    for i, ph in enumerate(inp.values["abel_phases"]):
        closed = float(refs.cubic_ladder(ph))

        def abel(ph=ph):
            r = numerics.abel_sum(lambda n: n**3 * np.cos(n * ph))
            return {"value": r.value}
        ops.append(Op(f"abel{i}", "abel-sum", abel,
                      {"value": ("numerics", "abel_sum", "value")},
                      [Check("Abel sum = closed ladder sum", "value", closed, ABEL_REL_TOL,
                             scale=max(1.0, abs(closed)))]))
    return ops


# --- Monte Carlo --------------------------------------------------------------

def _mc_lag_sweep(inp: Inputs) -> List[Op]:
    rv = inp.rv
    mc = rv.montecarlo
    p = _natural(rv, MC_BETA)
    ms = inp.mode_sets["ladder"]
    ops = []
    for j, delta in enumerate(inp.values["lags"]):
        t = _tau(p, delta)
        n_max = MC_LAG_GRID["n_max"]
        want11 = 2.0 * refs.em_discrete_truncated_ref(MC_BETA, delta, n_max)
        for pair, master in zip(MC_PAIRS, inp.values["mc_seeds"][j]):
            def cf(pair=pair, master=master, t=t):
                r = mc.empirical_cf(pair, "EE", 0.0, t, p, ms, n_seeds=MC_LAG_SEEDS,
                                    seed=master, n_workers=1)
                return {"value": r.value}
            want = want11 if pair == (1, 1) else 0.0
            label = ("2x truncated-ladder CF" if pair == (1, 1)
                     else "z-coupled pair consistent with zero")
            err = refs.mc_cf_seed_sd(pair, MC_BETA, delta, n_max, want) / math.sqrt(MC_LAG_SEEDS)
            ops.append(Op(f"lag{j}/EE-{pair[0]}{pair[1]}", f"mc-cf-{pair[0]}{pair[1]}", cf,
                          {"value": ("montecarlo", "empirical_cf", "value")},
                          [Check(label, "value", want, PULL_BOUND, scale=err)]))
    return ops


def _energy_outputs(est) -> Dict[str, float]:
    out = {"w": est.w, "mixed": est.mixed, "mixed_err": est.mixed_err}
    for i, axis in enumerate("xyz"):
        out[f"lab_e2_{axis}"] = float(est.lab_e2[i])
        out[f"lab_h2_{axis}"] = float(est.lab_h2[i])
        out[f"lab_eh_err_{axis}"] = float(math.hypot(est.lab_e2_err[i], est.lab_h2_err[i]))
    return out


def _mc_energy(inp: Inputs) -> List[Op]:
    rv = inp.rv
    mc = rv.montecarlo
    p = _natural(rv, MC_BETA)
    ms = inp.mode_sets["ladder"]
    tau = inp.values["tau"]
    w_ref = refs.mc_energy_density_ref(MC_BETA, MC_ENERGY_GRID["n_max"])
    w_err = refs.mc_energy_seed_sd(MC_BETA, MC_ENERGY_GRID["n_max"]) / math.sqrt(MC_ENERGY_SEEDS)
    src = lambda attr: ("montecarlo", "empirical_energy_density", attr)
    sources = {"w": src("w"), "mixed": src("mixed"),
               **{f"lab_e2_{a}": src("lab_e2") for a in "xyz"}}
    stat_checks = (
        [Check("w = truncated ladder", "w", w_ref, PULL_BOUND, scale=w_err),
         Check("mixed moment consistent with zero", "mixed", 0.0, PULL_BOUND,
               err_key="mixed_err")]
        + [Check(f"lab <E_{a}^2> = <H_{a}^2>", f"lab_e2_{a}",
                 lambda out, done, a=a: out[f"lab_h2_{a}"], PULL_BOUND,
                 err_key=f"lab_eh_err_{a}") for a in "xyz"])
    ops = []
    for i, master in enumerate(inp.values["mc_seeds"]):
        def energy(master=master):
            return _energy_outputs(mc.empirical_energy_density(
                p, ms, n_seeds=MC_ENERGY_SEEDS, seed=master, n_workers=2, tau=tau))
        ops.append(Op(f"workers2/call{i}", "mc-energy-2", energy, sources, list(stat_checks),
                      threads=2))

    first = inp.values["mc_seeds"][0]

    def energy_one_worker():
        return _energy_outputs(mc.empirical_energy_density(
            p, ms, n_seeds=MC_ENERGY_SEEDS, seed=first, n_workers=1, tau=tau))
    same = [Check(f"bit-identical to 2 workers: {k}", k,
                  lambda out, done, k=k: done["workers2/call0"][k], 0.0)
            for k in ("w", "mixed", "lab_e2_x", "lab_e2_y", "lab_e2_z")]
    ops.append(Op("workers1/call0", "mc-energy-1", energy_one_worker, sources,
                  list(stat_checks) + same))
    return ops
