"""Every check of every workload must catch a small error in the value it
checks.

A full round of each workload runs once with recording wrappers around the
program functions the checks read.  Then, for one operation of each kind and
for each of its checks, the operation runs again with wrappers that replay
the recorded results and perturb the checked attribute, and the check must
fail.  The perturbation is relative 1e-6 of the value, or 1e-6 of the
check's scale where it has one (a vanishing value, or a sum of parts).  The
Abel check's tolerance is abel_sum's own 1e-4, so it is perturbed by ten
times that.  Statistical checks are perturbed by at least ten standard
errors, and the bit-identity check of the worker counts by relative 1e-6 of
one result.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import rotvac
import workloads
from tracing import Tracer, patch_everywhere

BENCH = Path(workloads.__file__).resolve().parent


def _perturb(result, path, shift):
    """result with shift(old) applied to the attribute at path ('0.value', ...)."""
    if path is None:
        return shift(result)
    head, _, rest = path.partition(".")
    if head.isdigit():
        items = list(result)
        items[int(head)] = _perturb(items[int(head)], rest or None, shift)
        return type(result)(items)
    old = getattr(result, head)
    return dataclasses.replace(result, **{head: _perturb(old, rest or None, shift)})


def _shift_for(check, out, done):
    if check.err_key is not None:
        amount = 2.0 * check.rtol * out[check.err_key]
        return lambda v: v + amount
    rel = max(1e-6, 10.0 * check.rtol)
    if check.scale is not None:
        amount = rel * check.scale
        return lambda v: v + amount
    return lambda v: v * (1.0 + rel)


class Recorder:
    """Records, then replays, the results of the program functions the
    checks read, per operation and in call order."""

    def __init__(self, functions):
        self.functions = sorted(functions)
        self.log = {}
        self.current = None
        self.perturb = None      # (function, path, shift) while replaying
        self.replay = []         # recorded (function, result) still to return

    def _wrap(self, label):
        def make(fn):
            def wrapper(*args, **kwargs):
                if self.perturb is None:
                    result = fn(*args, **kwargs)
                    self.log.setdefault(self.current, []).append((label, result))
                    return result
                name, result = self.replay.pop(0)
                assert name == label, (name, label)
                target, path, shift = self.perturb
                return _perturb(result, path, shift) if label == target else result
            return wrapper
        return make

    def __enter__(self):
        self.restore = [patch_everywhere("rotvac", mod, fn, self._wrap(f"{mod}.{fn}"))
                        for mod, fn in self.functions]
        return self

    def __exit__(self, *exc):
        for restore in self.restore:
            restore()


def _run_round(workload):
    inputs = workloads.make_inputs(workload, 0, rotvac)
    ops = workloads.build_round(inputs)
    functions = {(m, f) for op in ops for (m, f, _) in op.sources.values()}
    rec = Recorder(functions)
    done = {}
    with rec:
        for op in ops:
            rec.current = op.key
            try:
                out = op.call()
            except rotvac.QuadratureError:
                continue
            done[op.key] = out
            for check in op.checks:
                assert check.passes(out, done), (op.key, check.label)
    return ops, rec, done


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def round_(request):
    return request.param, _run_round(request.param)


def test_every_check_catches_a_perturbation(round_):
    workload, (ops, rec, done) = round_
    kinds_seen, tested = set(), 0
    for op in ops:
        if op.kind in kinds_seen or op.key not in done:
            continue
        kinds_seen.add(op.kind)
        for check in op.checks:
            module, fn, path = op.sources[check.key]
            rec.replay = list(rec.log[op.key])
            rec.perturb = (f"{module}.{fn}", path, _shift_for(check, done[op.key], done))
            with rec:
                out = op.call()
            rec.perturb = None
            assert not check.passes(out, done), (workload, op.key, check.label)
            tested += 1
    assert tested > 0


def test_every_operation_has_checks_with_sources(round_):
    _, (ops, _, _) = round_
    for op in ops:
        assert op.checks, op.key
        for check in op.checks:
            assert check.key in op.sources, (op.key, check.key)


def test_near_luminal_failures_do_not_depend_on_the_seed():
    keys = []
    for seed in (0, 1):
        ops = workloads.build_round(workloads.make_inputs("cf-sweep", seed, rotvac))
        keys.append([op.key for op in ops if "near-luminal" in op.key])
    assert keys[0] == keys[1] and len(keys[0]) == 14


def test_inputs_follow_the_seed():
    a = workloads.make_inputs("cf-sweep", 5, rotvac).values
    b = workloads.make_inputs("cf-sweep", 5, rotvac).values
    c = workloads.make_inputs("cf-sweep", 6, rotvac).values
    assert a == b and a != c


def test_tracer_patches_every_alias_and_restores():
    numerics = sys.modules["rotvac.numerics"]
    original = numerics.integrate_sphere
    holders = [sys.modules[m] for m in ("rotvac.numerics", "rotvac.cf_continuous",
                                        "rotvac.cf_discrete", "rotvac.thermo")]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(h.integrate_sphere is not original for h in holders)
        p = rotvac.RotationParams.from_beta(1.0, 0.5, rotvac.NATURAL)
        tracer.op(1, "x", lambda: rotvac.thermo.em_energy_density(p, 4))
    finally:
        tracer.uninstall()
    assert all(h.integrate_sphere is original for h in holders)
    names = {s[2] for s in tracer.spans}
    assert {"numerics.integrate_sphere", "thermo.em_energy_density", "op:x"} <= names


def test_tracer_is_safe_under_the_worker_pool():
    p = rotvac.RotationParams.from_beta(1.0, 0.3, rotvac.NATURAL)
    ms = rotvac.montecarlo.build_mode_set(p, n_max=2, n_theta=8, n_phi=16)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op(7, "energy", lambda: rotvac.montecarlo.empirical_energy_density(
            p, ms, n_seeds=64, seed=3, n_workers=4))
    finally:
        tracer.uninstall()
    evals = [s for s in tracer.spans if s[2] == "montecarlo.eval_lab_fields"]
    assert len(evals) == 64 and all(s[5] == 7 for s in evals)
    ids = [s[0] for s in tracer.spans]
    assert len(ids) == len(set(ids))


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "BENCHMARK.json").write_text((BENCH.parent / "BENCHMARK.json").read_text())
    target = bare / "perfbench"
    target.mkdir()
    for f in BENCH.glob("*.py"):
        (target / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cf-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
