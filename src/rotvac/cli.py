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
                         frenet_serret_tetrad, orthonormality_residual)
from .numerics import DEFAULT_TOL, QuadratureError
from .validation import KNOWN_FAILING, check_determinism, check_em_energy_density, run_suite


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
    """The Monte Carlo ladder or band of the options (the band reaches --n-max
    times --omega / c); OverflowError names --omega, and ValueError (such as
    a grid too coarse for --n-max) names --n-max, --mc-theta and --mc-phi."""
    try:
        return mc.build_mode_set(params, spectrum, n_max=args.n_max, n_theta=args.mc_theta,
                                 n_phi=args.mc_phi)
    except OverflowError as exc:
        raise OverflowError(f"Monte Carlo modes at --omega {args.omega!r}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"Monte Carlo modes at --n-max {args.n_max}, --mc-theta "
                         f"{args.mc_theta}, --mc-phi {args.mc_phi}: {exc}") from exc


def _error(exc: Exception) -> str:
    """The flag of a route, or the message of a command, that failed with exc."""
    cause = "outside the float64 range: " if isinstance(exc, OverflowError) else ""
    return f"error: {cause}{exc}"


def _bound_flag(name: str, value: float, bound: float) -> str:
    """The flag of a row whose value of name may not exceed bound."""
    return "ok" if value <= bound else f"{name} {value!r} > bound {bound!r}"


def _emit(args, meta: dict, header: List[str], rows: List[list]) -> int:
    # exit 1 when a row's flag is not "ok" or its check's status is not "pass"
    flagged = any(row[header.index(name)] != good for row in rows
                  for name, good in (("flag", "ok"), ("status", "pass")) if name in header)
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
    header = ["tau"] + [f"mu{a}_{c}" for a in range(1, 5) for c in "xyzt"] + ["residual", "flag"]
    # the legs' float64 roundoff grows like gamma^2 eps: under 4 gamma^2 eps at 40,000
    # random (beta, tau), beta from 0.5 to 1 - 1e-12, tau from 0 to 6, both tetrads
    bound = max(1e-10, 8.0 * params.gamma**2 * np.finfo(float).eps)
    rows = []
    for tau in taus:
        legs = build(params, float(tau))
        resid = orthonormality_residual(legs)
        rows.append([float(tau)] + [float(v) for v in legs.ravel()]
                    + [resid, _bound_flag("residual", resid, bound)])
    meta = _meta_common(args, params)
    meta.update(kind=args.kind, residual_bound=bound)
    return _emit(args, meta, header, rows)


def _cf_or_error(route, *args, **kwargs):
    """route(*args, **kwargs), a CF, or the flag of its error."""
    try:
        return route(*args, **kwargs)
    except (ValueError, OverflowError, QuadratureError) as exc:
        return _error(exc)


def cmd_cf(args) -> int:
    if args.omega == 0.0:
        raise ValueError("cf needs --omega > 0 (its lags are the angles omega gamma tau)")
    params = _params(args)
    deltas = _sweep(args, "delta")
    if args.kind == "scalar" and args.method == "monte-carlo":
        raise ValueError("no Monte Carlo route for the scalar field")
    tau2s = [float(delta) / (params.omega * params.gamma) for delta in deltas]
    # the spectrum's module maps the field, (pair, kind) or None, and the method to a route
    field = None if args.kind == "scalar" else (args.pair, args.kind)
    route = cfd._periodic if args.spectrum == "discrete" else cfc._continuous
    methods = (("closed-form", "quadrature") if args.method == "all"
               else () if args.method == "monte-carlo" else (args.method,))
    # one column per method over the lag grid: a CFValue or that row's error
    columns = {m: [_cf_or_error(route, field, 0.0, t, params, m, args.tol) for t in tau2s]
               for m in methods}
    ms = None
    if args.method in ("monte-carlo", "all") and args.kind != "scalar":
        try:
            ms = _mode_set(args, params, args.spectrum)
            # one call for every lag: each seed is drawn and its trig done once
            [columns["monte-carlo"]] = mc.empirical_cfs(
                [args.pair], args.kind, 0.0, tau2s, params, ms, n_seeds=args.seeds, seed=args.seed)
        except (ValueError, OverflowError) as exc:
            # only --method all has routes left to print; a too-coarse grid is a usage error
            if args.method == "monte-carlo" or (ms is None and isinstance(exc, ValueError)):
                raise
            # re-run lag by lag, so that each row's flag names its own lag
            columns["monte-carlo"] = [_error(exc)] * len(tau2s) if ms is None else [
                _cf_or_error(mc.empirical_cf, args.pair, args.kind, 0.0, t, params, ms,
                             n_seeds=args.seeds, seed=args.seed) for t in tau2s]
    rows = [[float(delta), label, "", "", cf] if isinstance(cf, str) else
            [float(delta), label, cf.value, "" if cf.stat_error is None else cf.stat_error, "ok"]
            for delta, entries in zip(deltas, zip(*columns.values()))
            for label, cf in zip(columns, entries)]
    meta = _meta_common(args, params)
    meta.update(kind=args.kind, spectrum=args.spectrum)
    if args.kind != "scalar":     # scalar rows belong to no pair
        meta["pair"] = f"{args.pair[0]}{args.pair[1]}"
    if ms is not None:
        estimate = (f"estimate on the ladder truncated at n_max = {args.n_max}"
                    if args.spectrum == "discrete" else "band-limited estimate")
        meta.update(mc_note=f"{estimate} in the energy-density normalization "
                    "(2x the correlation convention)", mc_modes=ms.mode_count)
    return _emit(args, meta, ["delta", "method", "value", "stat_error", "flag"], rows)


def cmd_spectrum(args) -> int:
    params = _params(args)
    phases = _sweep(args, "phase")
    header = ["phase", "ladder_sum_closed", "zero_point_part", "thermal_part",
              "total", "rel_consistency", "flag"]
    rows = []
    for ph in phases:
        try:
            closed = cfd.cubic_ladder_sum_closed(float(ph))
            split = cfd.cubic_ladder_split(float(ph))
            rel = abs(split.total - closed) / abs(closed)
            rows.append([float(ph), closed, split.zero_point_part, split.thermal_part,
                         split.total, rel, _bound_flag("rel_consistency", rel, 1e-8)])
        except cfd.ResonanceError as exc:
            rows.append([float(ph), "", "", "", "", "", f"error: {exc}"])
    meta = _meta_common(args, params)
    meta["T_rot"] = cfd.rotation_temperature(params)
    return _emit(args, meta, header, rows)


def cmd_energy(args) -> int:
    params = _params(args)
    try:
        rep = (thermo.scalar_energy_density(params, args.n_max)
               if args.field == "scalar" else thermo.em_energy_density(params, args.n_max))
    except OverflowError as exc:      # every energy value scales with omega^4
        raise OverflowError(f"energy at --omega {args.omega!r}: {exc}") from exc
    # the scalar report carries no mixed moment
    rows = [[name, value] for name, value in vars(rep).items() if value is not None]
    return _emit(args, _meta_common(args, params), ["quantity", "value"], rows)


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
    rows = []
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
    meta = _meta_common(args, params)
    meta.update(r0=r0, T_rot=cfd.rotation_temperature(params),
                sphere_radius=args.sphere_radius)
    return _emit(args, meta, header, rows)


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
    return _emit(args, meta, header, rows)


def _emit_checks(args, meta: dict, results, **tail) -> int:
    """The CheckResult rows, each with its status (pass, known-fail or FAIL),
    under meta, the failure counts and tail; exit 1 on any failure."""
    statuses = ["pass" if r.passed else ("known-fail" if r.name in KNOWN_FAILING else "FAIL")
                for r in results]
    rows = [[r.name, status, r.measured, r.target, r.tolerance, r.detail]
            for r, status in zip(results, statuses)]
    n_known, n_unexpected = statuses.count("known-fail"), statuses.count("FAIL")
    meta.update(checks=len(results), failures=n_known + n_unexpected,
                known_failures=n_known, unexpected_failures=n_unexpected,
                known_failing=",".join(KNOWN_FAILING), **tail)
    header = ["check", "status", "measured", "target", "tolerance", "detail"]
    return _emit(args, meta, header, rows)


def cmd_mc_validate(args) -> int:
    params = _params(args)
    ms = _mode_set(args, params, "discrete")
    run = dict(n_seeds=args.seeds, seed=args.seed)
    est = mc.empirical_energy_density(params, ms, n_workers=args.workers, **run)
    results = (check_em_energy_density(params, ms, estimate=est)
               + check_determinism(params, ms, workers=(1, max(2, args.workers)),
                                   made={args.workers: est}, **run))
    return _emit_checks(args, _meta_common(args, params), results,
                        manifest=json.dumps(mc.run_manifest(params, ms, args.seeds, args.seed)))


def cmd_validate(args) -> int:
    results, seconds = run_suite(args.suite, seed=args.seed,
                                 sigma_perturb=args.sigma_perturb)
    return _emit_checks(args, {"suite": args.suite, "seed": args.seed}, results,
                        check_seconds={name: round(t, 3) for name, t in seconds.items()})


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

    def monte_carlo(sp):
        sp.add_argument("--n-max", type=_int_in(1), default=6)
        sp.add_argument("--seeds", type=SEED_COUNT, default=200)
        sp.add_argument("--seed", type=SEED, default=0)
        sp.add_argument("--mc-theta", type=_int_in(mc.MIN_THETA_NODES), default=16)
        sp.add_argument("--mc-phi", type=_int_in(mc.MIN_PHI_NODES), default=32)

    sp = sub.add_parser("tetrad", help="tetrad components and orthonormality residuals")
    common(sp)
    sp.add_argument("--kind", choices=("frenet-serret", "fermi-walker"), default="frenet-serret")
    sp.add_argument("--tau-min", type=float, default=0.0)
    sp.add_argument("--tau-max", type=float, default=6.0)
    sp.add_argument("--tau-steps", type=_int_in(1), default=13)
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
    sp.add_argument("--delta-steps", type=_int_in(1), default=10)
    sp.add_argument("--tol", type=POSITIVE, default=DEFAULT_TOL,
                    help="quadrature relative tolerance")
    monte_carlo(sp)
    sp.set_defaults(func=cmd_cf)

    sp = sub.add_parser("spectrum", help="ladder sums and their zero-point/thermal split")
    common(sp)
    sp.add_argument("--phase-min", type=float, default=0.5)
    sp.add_argument("--phase-max", type=float, default=6.0)
    sp.add_argument("--phase-steps", type=_int_in(1), default=12)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("energy", help="energy density report")
    common(sp)
    sp.add_argument("--field", choices=("em", "scalar"), default="em")
    sp.add_argument("--n-max", type=_int_in(1), default=10)
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("force-curve", help="vacuum force vs orbit radius")
    common(sp, motion=False)
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--r-min", type=float, default=0.0, help="in units of r0 = c/omega")
    sp.add_argument("--r-max", type=float, default=1.2, help="in units of r0")
    sp.add_argument("--r-steps", type=_int_in(1), default=25)
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
    monte_carlo(sp)
    sp.add_argument("--workers", type=_int_in(1), default=1)
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
    except (ValueError, OverflowError) as exc:
        print(_error(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
