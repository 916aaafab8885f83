"""Every exported public name resolves, and so does every function that the
benchmark's traced run wraps (perfbench/tracing.py, TRACED); the package
itself never imports the benchmark; and every public callable that takes
scalar floats answers any float with finite values or a typed error."""

import ast
import dataclasses
import importlib
import math
import pathlib
import pkgutil
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rotvac
from rotvac import cf_continuous as cfc
from rotvac import cf_discrete as cfd
from rotvac import fields, kinematics, thermo
from rotvac.constants import NATURAL
from rotvac.kinematics import RotationParams

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(rotvac.__path__))


def _traced_pairs():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"rotvac.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_package_imports_only_exported_names():
    # a name that rotvac/__init__.py takes from a submodule is in that
    # module's __all__, so a record deleted from a module cannot linger as a
    # package attribute
    tree = ast.parse((pathlib.Path(rotvac.__path__[0]) / "__init__.py").read_text(
        encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names]
    assert imported
    stray = [(module, name) for module, name in imported
             if name not in getattr(importlib.import_module(f"rotvac.{module}"), "__all__", ())]
    assert not stray


def test_traced_functions_resolve():
    pairs = _traced_pairs()
    assert pairs
    missing = [(m, n) for m, n in pairs
               if not callable(getattr(importlib.import_module(f"rotvac.{m}"), n, None))]
    assert not missing


@pytest.mark.parametrize("path", sorted(pathlib.Path(rotvac.__path__[0]).glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_perfbench(path):
    # the benchmark wraps the package from outside; the package must run without it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not {name for name in imported if name.split(".")[0] == "perfbench"}


# --- every float-taking public callable: a finite answer or a typed error ---

P = RotationParams.from_beta(1.0, 0.3, NATURAL)
TAU = 1.3                                   # a lag of 1.36 rad at beta 0.3


def _from_beta(beta):
    return RotationParams.from_beta(1.0, beta, NATURAL)


def _from_omega(omega):
    return RotationParams.from_beta(omega, 0.3, NATURAL)


# each name of kinematics, fields, cf_continuous, cf_discrete and thermo that
# takes scalar floats, with one call per float argument: x is that argument,
# every other argument holds a valid value; a callable that takes only
# RotationParams draws its beta or its omega
FLOAT_CALLS = {
    "kinematics.RotationParams": {
        "omega": lambda x: RotationParams(x, 0.3, NATURAL),
        "radius": lambda x: RotationParams(1.0, x, NATURAL),
        "from_beta-omega": lambda x: RotationParams.from_beta(x, 0.3, NATURAL),
        "from_beta-beta": _from_beta,
        "alpha-tau": P.alpha},
    "kinematics.lab_position": {"tau": lambda x: kinematics.lab_position(P, x)},
    "kinematics.frenet_serret_tetrad": {"tau": lambda x: kinematics.frenet_serret_tetrad(P, x)},
    "kinematics.fermi_walker_tetrad": {"tau": lambda x: kinematics.fermi_walker_tetrad(P, x)},
    "fields.projection_matrix": {"tau": lambda x: fields.projection_matrix(P, x)},
    "fields.projection_rows": {
        "tau1": lambda x: fields.projection_rows((1, 2), "EH", P, x, TAU),
        "tau2": lambda x: fields.projection_rows((1, 2), "EH", P, 0.0, x)},
    "cf_continuous.sin_power_integral": {"k": lambda x: cfc.sin_power_integral(5, x)},
    "cf_continuous.phi_kernel_integral": {"b": lambda x: cfc.phi_kernel_integral(2, x)},
    "cf_continuous.em_cf_continuous": {
        "tau1": lambda x: cfc.em_cf_continuous((1, 1), "EE", x, TAU, P),
        "tau2": lambda x: cfc.em_cf_continuous((1, 1), "EE", 0.0, x, P),
        "tau2-quadrature": lambda x: cfc.em_cf_continuous((2, 2), "HH", 0.0, x, P, "quadrature"),
        "tau2-closed-form-23-EH": lambda x: cfc.em_cf_continuous((2, 3), "EH", 0.0, x, P),
        "tol": lambda x: cfc.em_cf_continuous((1, 1), "EE", 0.0, TAU, P, "quadrature", x)},
    "cf_continuous.em_cf_tensor_quadrature": {
        "tau1": lambda x: cfc.em_cf_tensor_quadrature((1, 2), "EH", x, TAU, P),
        "tau2": lambda x: cfc.em_cf_tensor_quadrature((1, 2), "EH", 0.0, x, P),
        "tol": lambda x: cfc.em_cf_tensor_quadrature((1, 2), "EH", 0.0, TAU, P, x)},
    "cf_continuous.scalar_cf_continuous": {
        "tau1": lambda x: cfc.scalar_cf_continuous(x, TAU, P),
        "tau2": lambda x: cfc.scalar_cf_continuous(0.0, x, P)},
    "cf_continuous.scalar_cf_quadrature": {
        "tau2": lambda x: cfc.scalar_cf_quadrature(0.0, x, P),
        "tol": lambda x: cfc.scalar_cf_quadrature(0.0, TAU, P, x)},
    "cf_discrete.rotation_temperature": {
        "beta": lambda x: cfd.rotation_temperature(_from_beta(x)),
        "omega": lambda x: cfd.rotation_temperature(_from_omega(x))},
    "cf_discrete.cubic_ladder_sum_closed": {"phase": cfd.cubic_ladder_sum_closed},
    "cf_discrete.linear_ladder_sum_closed": {"phase": cfd.linear_ladder_sum_closed},
    "cf_discrete.thermal_ladder_integral": {
        "phase": lambda x: cfd.thermal_ladder_integral(x, 3)},
    "cf_discrete.cubic_ladder_split": {"phase": cfd.cubic_ladder_split},
    "cf_discrete.linear_ladder_split": {"phase": cfd.linear_ladder_split},
    "cf_discrete.em_cf_discrete": {
        "tau2": lambda x: cfd.em_cf_discrete(0.0, x, P),
        "tau2-split": lambda x: cfd.em_cf_discrete(0.0, x, P, split=True),
        "tol": lambda x: cfd.em_cf_discrete(0.0, TAU, P, x)},
    "cf_discrete.scalar_cf_discrete": {
        "tau1-split": lambda x: cfd.scalar_cf_discrete(x, TAU, P, split=True),
        "tol": lambda x: cfd.scalar_cf_discrete(0.0, TAU, P, x)},
    "thermo.em_anisotropy_factor": {"beta": lambda x: thermo.em_anisotropy_factor(_from_beta(x))},
    "thermo.scalar_bath_factor": {"beta": lambda x: thermo.scalar_bath_factor(_from_beta(x))},
    "thermo.em_energy_density": {
        "beta": lambda x: thermo.em_energy_density(_from_beta(x), 10),
        "omega": lambda x: thermo.em_energy_density(_from_omega(x), 10)},
    "thermo.scalar_energy_density": {
        "beta": lambda x: thermo.scalar_energy_density(_from_beta(x), 10),
        "omega": lambda x: thermo.scalar_energy_density(_from_omega(x), 10)},
    "thermo.em_thermal_density_quadrature": {
        "beta": lambda x: thermo.em_thermal_density_quadrature(_from_beta(x)),
        "omega": lambda x: thermo.em_thermal_density_quadrature(_from_omega(x))},
    "thermo.scalar_bath_thermal_density": {
        "temperature": thermo.scalar_bath_thermal_density,
        "temperature-natural": lambda x: thermo.scalar_bath_thermal_density(x, NATURAL)},
    "thermo.scalar_thermal_density_quadrature": {
        "beta": lambda x: thermo.scalar_thermal_density_quadrature(_from_beta(x)),
        "omega": lambda x: thermo.scalar_thermal_density_quadrature(_from_omega(x))},
    "thermo.em_thermal_density_at": {
        "omega": lambda x: thermo.em_thermal_density_at(x, 0.3),
        "r": lambda x: thermo.em_thermal_density_at(1.0, x),
        "r-natural": lambda x: thermo.em_thermal_density_at(1.0, x, NATURAL)},
    "thermo.vacuum_force_density": {
        "omega": lambda x: thermo.vacuum_force_density(RotationParams(x, 0.0, NATURAL), 0.3),
        "r": lambda x: thermo.vacuum_force_density(P, x, sphere_radius=0.01),
        "sphere_radius": lambda x: thermo.vacuum_force_density(P, 0.3, sphere_radius=x)},
    "thermo.casimir_force": {"a_shell": thermo.casimir_force},
    "thermo.hadron_estimates": {
        "a_sphere": lambda x: thermo.hadron_estimates(x, 1e-15, 0.5),
        "r0": lambda x: thermo.hadron_estimates(1e-18, x, 0.5),
        "x": lambda x: thermo.hadron_estimates(1e-18, 1e-15, x)},
}

# public callables of those modules that the table leaves out, and why
LEFT_OUT = {
    "kinematics.LuminalOrbitError": "an exception",
    "kinematics.orthonormality_residual": "takes a leg matrix",
    "fields.polarization_grid": "takes only a direction array",
    "cf_continuous.CoincidenceError": "an exception",
    "cf_continuous.CFValue": "a record of a computed value",
    "cf_discrete.ResonanceError": "an exception",
    "cf_discrete.ThermalSplit": "a record of a computed split",
    "thermo.ThermoReport": "a record of a computed report",
    "thermo.ForcePoint": "a record of a computed force",
    "thermo.CasimirResult": "a record of a computed force",
    "thermo.HadronEstimate": "a record of computed estimates",
}

FLOAT_MODULES = {"kinematics": kinematics, "fields": fields, "cf_continuous": cfc,
                 "cf_discrete": cfd, "thermo": thermo}


def test_float_table_covers_every_public_callable():
    public = {f"{name}.{attr}" for name, mod in FLOAT_MODULES.items()
              for attr in mod.__all__ if callable(getattr(mod, attr))}
    assert public == set(FLOAT_CALLS) | set(LEFT_OUT)


def _all_finite(value) -> bool:
    if dataclasses.is_dataclass(value):
        return all(_all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(_all_finite(v) for v in value)
    if value is None or isinstance(value, str):
        return True
    return bool(np.all(np.isfinite(value)))


@pytest.mark.parametrize("name, arg", [(name, arg) for name, calls in FLOAT_CALLS.items()
                                       for arg in calls])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(x=st.floats())
@example(x=math.nan)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=5e-324)
@example(x=1e300)
def test_float_arguments_give_finite_values_or_typed_errors(name, arg, x):
    # NaN, +/-inf, subnormals and huge values included; a call that hangs
    # fails through the alarm, and a RuntimeWarning fails as an error
    def expired(signum, frame):
        raise TimeoutError(f"{name}({arg}={x!r}) did not return within 10 s")
    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(10)
    try:
        value = FLOAT_CALLS[name][arg](x)
    except (ValueError, ArithmeticError, RuntimeError):
        return
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _all_finite(value), (name, arg, x, value)


@pytest.mark.parametrize("call, match", [
    (lambda: P.alpha(math.nan), "rotation phase"),
    (lambda: P.alpha(1.75e308), "rotation phase"),
    (lambda: cfc.em_cf_continuous((1, 1), "EE", 0.0, math.nan, P), "rotation phase"),
    (lambda: fields.projection_matrix(P, math.nan), "rotation phase"),
    (lambda: RotationParams.from_beta(1.0, math.nan, NATURAL), "beta must be finite"),
    (lambda: RotationParams.from_beta(1.0, 1.0, NATURAL), "too close to 1"),
], ids=["alpha-nan", "alpha-overflow", "cf-nan-tau", "projection-nan-tau",
        "params-nan-beta", "params-luminal-beta"])
def test_non_finite_time_lag_angle_or_speed_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call, omega", [
    (lambda p, t: cfc.em_cf_continuous((1, 1), "EE", 0.0, t, p), 1e72),
    # without the gamma^2 of the (1,1) CF the (2,2) one leaves the range
    # only at a larger omega, which keeps c dt in range
    (lambda p, t: cfc.em_cf_continuous((2, 2), "HH", 0.0, t, p), 7e73),
    (lambda p, t: cfc.em_cf_continuous((1, 1), "EE", 0.0, t, p, "quadrature"), 1e72),
    (lambda p, t: cfc.em_cf_tensor_quadrature((1, 1), "EE", 0.0, t, p), 1e72),
    (lambda p, t: cfd.em_cf_discrete(0.0, t, p), 1e72),
], ids=["closed-form", "closed-form-22-HH", "quadrature", "tensor", "discrete"])
def test_cf_beyond_the_float64_range_raises_overflow(call, omega):
    # the lag's c dt is in range, but the near-luminal value is not; the
    # error names the CF and its lag instead of returning +/- inf
    p = RotationParams.from_beta(omega, 0.99999, NATURAL)
    with pytest.raises(OverflowError, match="CF = -?inf at delta = 0.05"):
        call(p, 0.05 / (p.omega * p.gamma))
