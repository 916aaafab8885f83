"""Command-line surface: parameter sweeps and validation checks emitting
machine-readable tables.

Tables are comma-separated with a '#'-prefixed metadata preamble (config and
seed echo); --format json switches to a structured document.  Exit code is 0
iff no row or check is flagged.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from . import cf_continuous as cfc
from . import cf_discrete as cfd
from . import montecarlo as mc
from . import thermo
from .constants import NATURAL, SI
from .kinematics import (LuminalOrbitError, RotationParams, fermi_walker_tetrad,
                         frenet_serret_tetrad)
from .numerics import DEFAULT_TOL, QuadratureError
from .validation import KNOWN_FAILING, run_suite


def _constants(args):
    return NATURAL if args.units == "natural" else SI


def _params(args) -> RotationParams:
    const = _constants(args)
    if args.beta is not None:
        return RotationParams.from_beta(args.omega, args.beta, const)
    return RotationParams(omega=args.omega, radius=args.radius, constants=const)


def _int_in(lo: int, hi: float = math.inf):
    """argparse type: an integer n with lo <= n < hi."""
    def integer(text: str) -> int:
        n = int(text)
        if not lo <= n < hi:
            raise argparse.ArgumentTypeError(f"expected an integer in [{lo}, {hi}), got {n}")
        return n
    return integer


SEED = _int_in(0, 2**64)     # Philox keys are uint64
SEED_COUNT = _int_in(2)      # a standard error needs two seeds
WORKERS = _int_in(1)


def POSITIVE(text: str) -> float:
    """argparse type: a finite number > 0."""
    if not 0 < (x := float(text)) < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return x


def PAIR(text: str):
    """argparse type: two tetrad components, each 1, 2 or 3, such as 13."""
    if len(text) != 2 or not set(text) <= set("123"):
        raise argparse.ArgumentTypeError(
            f"expected two components from 1, 2, 3 such as 13, got {text!r}")
    return int(text[0]), int(text[1])


def _sweep(args, name: str, scale: float = 1.0):
    """--NAME-steps points from --NAME-min to --NAME-max, times scale;
    ValueError (exit 2) unless the ends and the span are finite."""
    lo, hi = (getattr(args, f"{name}_{end}") * scale for end in ("min", "max"))
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise ValueError(f"--{name}-min {getattr(args, name + '_min')!r} and "
                         f"--{name}-max {getattr(args, name + '_max')!r} "
                         "must give a finite sweep")
    return np.linspace(lo, hi, getattr(args, f"{name}_steps"))


def _mode_set(args, params: RotationParams, spectrum: str) -> mc.ModeSet:
    """The Monte Carlo ladder or band of the options; OverflowError names --omega,
    and --n-max as well where the band's cutoff n_max omega overflows."""
    band = {}
    if spectrum != "discrete":
        cutoff = args.n_max * params.omega
        if not math.isfinite(cutoff):
            raise OverflowError(f"Monte Carlo band cutoff --n-max {args.n_max} x "
                                f"--omega {args.omega!r} is {cutoff!r}")
        band = dict(omega_cutoff=cutoff, n_radial=4 * args.n_max)
    try:
        return mc.build_mode_set(params, spectrum, n_max=args.n_max, n_theta=args.mc_theta,
                                 n_phi=args.mc_phi, **band)
    except OverflowError as exc:
        raise OverflowError(f"Monte Carlo modes at --omega {args.omega!r}: {exc}") from exc


def _emit(args, meta: dict, header: List[str], rows: List[list], flagged: bool) -> int:
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        if args.format == "json":
            json.dump({"meta": meta, "columns": header, "rows": rows}, out, indent=2)
            out.write("\n")
        else:
            out.write(f"# rotvac {args.command} v{__version__}\n")
            for key in sorted(meta):
                value = meta[key]
                if isinstance(value, dict):
                    value = " ".join(f"{k}={v}" for k, v in value.items())
                out.write(f"# {key} = {value}\n")
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)
        out.flush()     # a closed pipe raises here, inside main, not at exit
    finally:
        if args.out:
            out.close()
    return 1 if flagged else 0


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12e}"
    return str(v)


def _meta_common(args, params: Optional[RotationParams] = None) -> dict:
    meta = {"units": args.units}
    if params is not None:
        meta.update(omega=params.omega, radius=params.radius,
                    beta=params.beta, gamma=params.gamma)
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    return meta


def cmd_tetrad(args) -> int:
    params = _params(args)
    taus = _sweep(args, "tau")
    build = fermi_walker_tetrad if args.kind == "fermi-walker" else frenet_serret_tetrad
    header = ["tau"] + [f"mu{a}_{c}" for a in range(1, 5) for c in "xyzt"] + ["residual"]
    rows, flagged = [], False
    for tau in taus:
        t = build(params, float(tau))
        resid = t.orthonormality_residual()
        rows.append([float(tau)] + [float(v) for v in t.matrix().ravel()] + [resid])
        flagged |= resid > 1e-10
    meta = _meta_common(args, params)
    meta["kind"] = args.kind
    return _emit(args, meta, header, rows, flagged)


def cmd_cf(args) -> int:
    if args.omega == 0.0:
        raise ValueError("cf needs --omega > 0 (its lags are the angles omega gamma tau)")
    params = _params(args)
    const = params.constants
    pair = args.pair
    deltas = _sweep(args, "delta")
    if args.kind == "scalar" and args.method == "monte-carlo":
        raise ValueError("no Monte Carlo route for the scalar field")
    header = ["delta", "method", "value", "stat_error", "flag"]
    rows, flagged = [], False
    ms = mc_error = None
    if args.method in ("monte-carlo", "all") and args.kind != "scalar":
        try:
            ms = _mode_set(args, params, args.spectrum)
        except OverflowError as exc:
            if args.method == "monte-carlo":    # no route is left to print a row
                raise
            mc_error = f"outside the float64 range: {exc}"
    # on the discrete spectrum closed-form and quadrature are one route
    methods = [args.method]
    if args.method == "all":
        methods = ["quadrature"] if args.spectrum == "discrete" else ["closed-form", "quadrature"]
        if args.kind != "scalar":
            methods.append("monte-carlo")
    tau2s = [float(delta) / (params.omega * params.gamma) for delta in deltas]
    if ms is not None:
        # one call for every lag: each seed is drawn and its trig done once
        try:
            [mc_cfs] = mc.empirical_cfs([pair], args.kind, 0.0, tau2s, params, ms,
                                        n_seeds=args.seeds, seed=args.seed)
        except ValueError as exc:
            if args.method == "monte-carlo":
                raise
            mc_error = str(exc)
    for j, (delta, tau2) in enumerate(zip(deltas, tau2s)):
        for method in methods:
            try:
                if method == "monte-carlo":
                    if mc_error:
                        raise ValueError(mc_error)
                    cf = mc_cfs[j]
                elif args.kind == "scalar":
                    if args.spectrum == "discrete":
                        cf = cfd.scalar_cf_discrete(0.0, tau2, params, args.tol)
                    elif method == "quadrature":
                        cf = cfc.scalar_cf_quadrature(0.0, tau2, params, args.tol)
                    else:
                        cf = cfc.scalar_cf_continuous(0.0, tau2, params)
                elif args.spectrum == "discrete":
                    if pair != (1, 1) or args.kind != "EE":
                        raise ValueError("discrete spectrum implements the (1,1) EE pair")
                    cf = cfd.em_cf_discrete(0.0, tau2, params, args.tol)
                else:
                    cf = cfc.em_cf_continuous(pair, args.kind, 0.0, tau2, params, method, args.tol)
                if not math.isfinite(cf.value):
                    raise ValueError(f"value {cf.value!r} is outside the float64 range")
                rows.append([float(delta), cf.method, cf.value,
                             cf.stat_error if cf.stat_error is not None else "", "ok"])
            except (cfc.CoincidenceError, cfd.ResonanceError, ValueError,
                    QuadratureError) as exc:
                # label the route that ran, as the ok rows do
                route = "quadrature" if args.spectrum == "discrete" else method
                rows.append([float(delta), route, "", "", f"error: {exc}"])
                flagged = True
    meta = _meta_common(args, params)
    meta.update(kind=args.kind, spectrum=args.spectrum)
    if args.kind != "scalar":     # scalar rows belong to no pair
        meta["pair"] = f"{pair[0]}{pair[1]}"
    if ms is not None:
        estimate = (f"estimate on the ladder truncated at n_max = {args.n_max}"
                    if args.spectrum == "discrete" else "band-limited estimate")
        meta["mc_note"] = (f"{estimate} in the energy-density "
                           "normalization (2x the correlation convention)")
        meta["mc_modes"] = ms.mode_count
    return _emit(args, meta, header, rows, flagged)


def cmd_spectrum(args) -> int:
    params = _params(args)
    phases = _sweep(args, "phase")
    header = ["phase", "ladder_sum_closed", "zero_point_part", "thermal_part",
              "total", "rel_consistency", "flag"]
    rows, flagged = [], False
    for ph in phases:
        try:
            closed = cfd.cubic_ladder_sum_closed(float(ph))
            split = cfd.cubic_ladder_split(float(ph))
            rel = abs(split.total - closed) / abs(closed)
            rows.append([float(ph), closed, split.zero_point_part,
                         split.thermal_part, split.total, rel, "ok"])
            flagged |= rel > 1e-8
        except cfd.ResonanceError as exc:
            rows.append([float(ph), "", "", "", "", "", f"error: {exc}"])
            flagged = True
    meta = _meta_common(args, params)
    meta["T_rot"] = cfd.rotation_temperature(params)
    return _emit(args, meta, header, rows, flagged)


def cmd_energy(args) -> int:
    params = _params(args)
    try:
        rep = (thermo.scalar_energy_density(params, args.n_max)
               if args.field == "scalar" else thermo.em_energy_density(params, args.n_max))
    except OverflowError as exc:      # every energy value scales with omega^4
        raise OverflowError(f"energy at --omega {args.omega!r}: {exc}") from exc
    rows = [[name, value] for name, value in vars(rep).items()]
    return _emit(args, _meta_common(args, params), ["quantity", "value"], rows, False)


def cmd_force_curve(args) -> int:
    const = _constants(args)
    params = RotationParams(omega=args.omega, radius=0.0, constants=const)
    if args.omega == 0.0:
        raise ValueError("force-curve needs --omega > 0 (the radius scale is c / omega)")
    r0 = const.c / args.omega
    if not math.isfinite(r0):
        raise ValueError(f"r0 = c / omega = {r0!r} is not finite at --omega {args.omega!r}")
    rs = _sweep(args, "r", scale=r0)
    header = ["r", "x", "w_thermal", "f_vac", "F_sphere", "F_gev_per_fermi", "flag"]
    rows, flagged = [], False
    for r in rs:
        try:
            pt = thermo.vacuum_force_density(params, float(r), sphere_radius=args.sphere_radius)
            wt = thermo.em_thermal_density_at(args.omega, float(r), const)
            F = pt.F_sphere if pt.F_sphere is not None else ""
            # natural units carry no electronvolt scale
            Fg = (pt.F_sphere / const.gev_per_fermi
                  if pt.F_sphere is not None and args.units == "SI" else "")
            rows.append([float(r), pt.x, wt, pt.f_vac, F, Fg, "ok"])
        except LuminalOrbitError as exc:
            rows.append([float(r), float(r) / r0, "", "", "", "", f"rejected: {exc}"])
            flagged = True
    meta = _meta_common(args, params)
    meta.update(r0=r0, T_rot=cfd.rotation_temperature(params),
                sphere_radius=args.sphere_radius)
    return _emit(args, meta, header, rows, flagged)


def cmd_estimate_hadron(args) -> int:
    est = thermo.hadron_estimates(a_sphere=args.a, r0=args.r0, x=1.0 - args.one_minus_x)
    header = ["quantity", "value"]
    rows = [
        ["x", est.x],
        ["force_newton", est.force_newton],
        ["casimir_force_newton", thermo.casimir_force(args.a).force],
        ["force_gev_per_fermi", est.force_gev_per_fermi],
        ["prefactor_j_per_m", est.prefactor_j_per_m],
        ["f_vac", est.f_vac],
        ["T_rot", est.T_rot],
        ["quark_gluon_plasma_T_reference", thermo.QUARK_GLUON_PLASMA_T],
    ]
    meta = {"a": args.a, "r0": args.r0, "one_minus_x": args.one_minus_x, "units": "SI"}
    return _emit(args, meta, header, rows, False)


def cmd_mc_validate(args) -> int:
    params = _params(args)
    ms = _mode_set(args, params, "discrete")
    est = mc.empirical_energy_density(params, ms, n_seeds=args.seeds, seed=args.seed,
                                      n_workers=args.workers)
    rep = thermo.em_energy_density(params, args.n_max)
    header = ["check", "measured", "target", "pull_or_flag"]
    pull, eh, mixed_pull = est.pulls(rep.w_zp_cutoff)
    rows = [["w_vs_truncated_ladder", est.w, rep.w_zp_cutoff, pull]]
    rows += [[f"lab_E{i+1}^2_vs_H{i+1}^2", est.lab_e2[i], est.lab_h2[i], float(eh[i])]
             for i in range(3)]
    rows.append(["mixed_moment_null", est.mixed, 0.0, mixed_pull])
    b = mc.empirical_energy_density(params, ms, n_seeds=args.seeds, seed=args.seed,
                                    n_workers=max(2, args.workers))
    same = b.same_as(est)
    rows.append(["worker_determinism", est.w, b.w, "ok" if same else "MISMATCH"])
    # "not <=" so that a NaN pull flags instead of passing
    flagged = any(not x <= 3.0 for x in (pull, *eh, mixed_pull)) or not same
    meta = _meta_common(args, params)
    meta["manifest"] = json.dumps(mc.run_manifest(params, ms, args.seeds, args.seed))
    return _emit(args, meta, header, rows, flagged)


def cmd_validate(args) -> int:
    results, seconds = run_suite(args.suite, seed=args.seed,
                                 sigma_perturb=args.sigma_perturb)
    header = ["check", "status", "measured", "target", "tolerance", "detail"]
    rows = []
    for r in results:
        status = "pass" if r.passed else ("known-fail" if r.name in KNOWN_FAILING else "FAIL")
        rows.append([r.name, status, r.measured, r.target, r.tolerance, r.detail])
    statuses = [row[1] for row in rows]
    n_known, n_unexpected = statuses.count("known-fail"), statuses.count("FAIL")
    meta = {"suite": args.suite, "seed": args.seed, "checks": len(results),
            "failures": n_known + n_unexpected, "known_failures": n_known,
            "unexpected_failures": n_unexpected, "known_failing": ",".join(KNOWN_FAILING),
            "check_seconds": {name: round(t, 3) for name, t in seconds.items()}}
    return _emit(args, meta, header, rows, n_known + n_unexpected > 0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rotvac",
                                description="rotating zero-point radiation toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, motion=True):
        sp.add_argument("--units", choices=("SI", "natural"), default="natural")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if motion:
            sp.add_argument("--omega", type=float, default=1.0)
            group = sp.add_mutually_exclusive_group()
            group.add_argument("--radius", type=float, default=0.0)
            group.add_argument("--beta", type=float, default=None)

    sp = sub.add_parser("tetrad", help="tetrad components and orthonormality residuals")
    common(sp)
    sp.add_argument("--kind", choices=("frenet-serret", "fermi-walker"), default="frenet-serret")
    sp.add_argument("--tau-min", type=float, default=0.0)
    sp.add_argument("--tau-max", type=float, default=6.0)
    sp.add_argument("--tau-steps", type=int, default=13)
    sp.set_defaults(func=cmd_tetrad)

    sp = sub.add_parser("cf", help="correlation functions vs angular lag")
    common(sp)
    sp.add_argument("--kind", choices=("EE", "HH", "EH", "scalar"), default="EE")
    sp.add_argument("--pair", type=PAIR, default="11", help="component pair, e.g. 11")
    sp.add_argument("--spectrum", choices=("continuous", "discrete"), default="continuous")
    sp.add_argument("--method", choices=("closed-form", "quadrature", "monte-carlo", "all"),
                    default="closed-form")
    sp.add_argument("--delta-min", type=float, default=0.5)
    sp.add_argument("--delta-max", type=float, default=5.0)
    sp.add_argument("--delta-steps", type=int, default=10)
    sp.add_argument("--tol", type=POSITIVE, default=DEFAULT_TOL,
                    help="quadrature relative tolerance")
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--seeds", type=SEED_COUNT, default=200)
    sp.add_argument("--seed", type=SEED, default=0)
    sp.add_argument("--mc-theta", type=int, default=16)
    sp.add_argument("--mc-phi", type=int, default=32)
    sp.set_defaults(func=cmd_cf)

    sp = sub.add_parser("spectrum", help="ladder sums and their zero-point/thermal split")
    common(sp)
    sp.add_argument("--phase-min", type=float, default=0.5)
    sp.add_argument("--phase-max", type=float, default=6.0)
    sp.add_argument("--phase-steps", type=int, default=12)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("energy", help="energy density report")
    common(sp)
    sp.add_argument("--field", choices=("em", "scalar"), default="em")
    sp.add_argument("--n-max", type=int, default=10)
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("force-curve", help="vacuum force vs orbit radius")
    common(sp, motion=False)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--r-min", type=float, default=0.0, help="in units of r0 = c/omega")
    sp.add_argument("--r-max", type=float, default=1.2, help="in units of r0")
    sp.add_argument("--r-steps", type=int, default=25)
    sp.add_argument("--sphere-radius", type=float, default=None)
    sp.set_defaults(func=cmd_force_curve, units="SI")

    sp = sub.add_parser("estimate-hadron", help="hadron-scale force and temperature")
    sp.add_argument("--a", type=float, default=1e-18, help="particle radius, m")
    sp.add_argument("--r0", type=float, default=1e-15, help="limit radius c/omega, m")
    sp.add_argument("--one-minus-x", type=float, default=1e-6)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_estimate_hadron)

    sp = sub.add_parser("mc-validate", help="Monte Carlo cross-checks")
    common(sp)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--seeds", type=SEED_COUNT, default=200)
    sp.add_argument("--seed", type=SEED, default=0)
    sp.add_argument("--workers", type=WORKERS, default=1)
    sp.add_argument("--mc-theta", type=int, default=16)
    sp.add_argument("--mc-phi", type=int, default=32)
    sp.set_defaults(func=cmd_mc_validate)

    sp = sub.add_parser("validate", help="run the acceptance checks")
    sp.add_argument("--suite", choices=("quick", "full"), default="quick")
    sp.add_argument("--seed", type=SEED, default=20240817)
    sp.add_argument("--sigma-perturb", type=POSITIVE, default=1.0,
                    help="multiply the Stefan-Boltzmann constant (negative control)")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_validate)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.12 reads "--option=--" as an empty list; no
    # option here takes a list
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        return args.func(args)
    except BrokenPipeError:     # the reader closed stdout; devnull takes what is buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141    # the status of a process ended by SIGPIPE
    except (ValueError, LuminalOrbitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: outside the float64 range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
