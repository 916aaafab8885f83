#!/usr/bin/env python3
"""rotvac benchmark: four workloads through rotvac's public Python API.

    python3 perfbench/run.py --workload cf-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; rotvac is imported from its ``src/``.  The
workload's inputs are made from ``--seed``.  The run repeats whole rounds of
the same operations until ``--seconds`` have passed, checks every returned
value against references computed apart from rotvac (``refs.py``), and prints
one JSON object as the last line of standard output: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  An operation
that raises counts as failed; a value that fails its check fails the run,
which then exits 1.  Results and spans are also written to
``perfbench/results/``.  See README.md for the workloads and the metrics.
"""

import os

# One BLAS thread in every run, whatever the environment says, so that the
# numbers compare across runs and machines of the same size.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (after the BLAS setting)
import speed  # noqa: E402


def import_rotvac():
    """Import rotvac from this checkout's src/, and only from there."""
    if not (SRC / "rotvac" / "__init__.py").is_file():
        raise SystemExit(f"error: no rotvac sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import rotvac
    if Path(rotvac.__file__).resolve().parent != (SRC / "rotvac").resolve():
        raise SystemExit(f"error: imported rotvac from {rotvac.__file__}, not from {SRC}")
    return rotvac


def setup_probe(workload: str, seed: int) -> None:
    """Set-up as a user's process does it: import rotvac and make the inputs
    (mode sets included), then print the monotonic clock."""
    workloads.make_inputs(workload, seed, import_rotvac())
    print(f"ready {time.perf_counter()!r}", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from process start to ready,
    at the reference speed.

    CLOCK_MONOTONIC, behind perf_counter on Linux, is shared by processes.
    """
    times = []
    for _ in range(SETUP_PROBES):
        kernel_before = speed.kernel_time()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        ready = float(proc.stdout.split()[-1])
        times.append(speed.at_reference(ready - start, kernel_before, speed.kernel_time()))
    return statistics.median(times)


class RunState:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.values = 0
        self.clock = speed.Clock()
        self.failures = Counter()
        self.bad_checks = []
        self.traced_keys = {}   # value id -> operation, for the spans file


def run_round(ops, state: RunState, tracer=None) -> None:
    done = {}
    for op in ops:
        state.attempted += 1
        if tracer:
            state.traced_keys[state.attempted] = op.key
        state.clock.before_op(op.threads)
        start = time.perf_counter()
        try:
            out = tracer.op(state.attempted, op.key, op.call) if tracer else op.call()
        except Exception as exc:  # a program error: the operation failed
            state.clock.record(op.key, time.perf_counter() - start, False, op.threads)
            state.failed += 1
            state.failures[f"{op.key}: {type(exc).__name__}: {exc}"] += 1
            continue
        elapsed = time.perf_counter() - start
        done[op.key] = out
        bad = [c for c in op.checks if not c.passes(out, done)]
        for c in bad:
            state.bad_checks.append({
                "op": op.key, "check": c.label, "got": out[c.key],
                "want": c.target(out, done), "tolerance": c.tolerance(out, done)})
        state.clock.record(op.key, elapsed, not bad, op.threads)
        if not bad:
            state.values += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    rv = import_rotvac()  # fails fast outside a checkout, before the probes
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    inputs = workloads.make_inputs(args.workload, args.seed, rv)
    ops = workloads.build_round(inputs)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()   # one traced set-up, for montecarlo.build_mode_set
        workloads.make_inputs(args.workload, args.seed, rv)
        tracer.uninstall()

    # Untraced: rounds until the time is up.  Traced: rounds alternate
    # untraced and traced, so the overhead is measured on the same rounds.
    state = RunState()
    round_s = {False: [], True: []}
    start = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        run_round(ops, state, tracer if traced else None)
        round_s[traced].append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
        n += 1
        elapsed = time.perf_counter() - start
        if state.bad_checks or (elapsed >= args.seconds and (tracer is None or n >= 2)):
            break

    state.clock.finish()
    correct = not state.bad_checks and state.values > 0
    # Every operation runs once per round; its time is the median over the
    # rounds of its wall time at the reference speed (speed.py).
    round_s_ref = sum(statistics.median(ts) for ts in state.clock.scaled().values())
    value_s_ref = [statistics.median(ts) for ts in state.clock.scaled(values_only=True).values()]
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "values_per_s": (state.values / n / round_s_ref, "1/s"),
            "value_p50_ms": (statistics.median(value_s_ref) * 1e3 if value_s_ref else 0.0,
                             "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(len(round_s[True]))
        # rounds alternate untraced and traced, so each operation's times do too
        scaled = state.clock.scaled().values()
        base = sum(statistics.median(ts[0::2]) for ts in scaled)
        traced_s = sum(statistics.median(ts[1::2]) for ts in scaled)
        metrics["trace.overhead_pct"] = (100.0 * (traced_s - base) / base, "%")

    result = {
        "correct": correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, rounds=n,
                  elapsed_s=elapsed, round_s=round_s, round_s_at_reference=round_s_ref,
                  machine_speed=state.clock.speed(),
                  wall_values_per_s=state.values / elapsed, values=state.values,
                  failures=dict(state.failures), bad_checks=state.bad_checks[:50],
                  inputs={k: v for k, v in inputs.values.items()})
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json", state.traced_keys)
    for failure, count in sorted(state.failures.items()):
        print(f"failed x{count}: {failure}", file=sys.stderr)
    for bad in state.bad_checks[:20]:
        print(f"CHECK FAILED: {bad}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
