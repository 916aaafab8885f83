#!/usr/bin/env python3
"""Monte Carlo convergence study: statistical error of the empirical energy
density against the truncated-ladder target as the seed count grows.

Usage:
    python scripts/mc_convergence.py --seeds 100 316 1000 3162 --out mc_convergence.csv
"""

import argparse

from rotvac.cli import WORKERS
from rotvac.constants import NATURAL
from rotvac.kinematics import RotationParams
from rotvac.montecarlo import build_mode_set, empirical_energy_density, run_manifest
from rotvac.thermo import em_energy_density


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[100, 316, 1000, 3162])
    ap.add_argument("--beta", type=float, default=0.3)
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    # at this 6,144-mode grid a seed is too short for threads to pay off
    ap.add_argument("--workers", type=WORKERS, default=1)
    ap.add_argument("--out", default="mc_convergence.csv")
    args = ap.parse_args()

    params = RotationParams.from_beta(1.0, args.beta, NATURAL)
    modes = build_mode_set(params, n_max=args.n_max, n_theta=16, n_phi=32)
    target = em_energy_density(params, args.n_max).w_zp_cutoff
    with open(args.out, "w") as fh:
        fh.write(f"# {run_manifest(params, modes, max(args.seeds), args.seed)}\n")
        fh.write(f"# truncated ladder target = {target:.12e}\n")
        fh.write("n_seeds,w,stat_error,deviation\n")
        for n in args.seeds:
            est = empirical_energy_density(params, modes, n_seeds=n,
                                           seed=args.seed, n_workers=args.workers)
            fh.write(f"{n},{est.w:.12e},{est.w_err:.12e},{est.w - target:.12e}\n")
            print(f"n_seeds={n}: w={est.w:.6e} +- {est.w_err:.1e} "
                  f"(deviation {est.w - target:+.2e})")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
