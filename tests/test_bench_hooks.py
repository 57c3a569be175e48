"""The benchmark's hook points still exist.

bench/tracing.py patches the program at the (module, attribute) bindings
in its SITES table and wraps ``admittance`` where a DeviceModel subclass
defines it in its own class body; bench/workloads.py calls three
stability entry points by name.  A hook that no longer resolves does not
fail a benchmark run: the run stays well-formed and silently drops that
layer's metrics, so it fails here instead.  The tracer module is loaded
from its file, never changed; one test installs its Tracer around a
stability pass and removes it again, because what does fail a traced
benchmark run is a layer that stability-study lists as mainly on but
never calls.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from fdpassivity import devices, stability

from conftest import WB, make_single_gfl

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_readonly", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = [(layer, module, attr) for layer, sites in load_tracing().SITES.items()
         for module, attr in sites]


@pytest.mark.parametrize("layer, module, attr", SITES,
                         ids=[f"{m}.{a}" for _, m, a in SITES])
def test_every_traced_binding_resolves(layer, module, attr):
    mod = importlib.import_module(f"fdpassivity.{module}")
    assert callable(getattr(mod, attr, None)), f"{layer}: fdpassivity.{module}.{attr} is gone"


def concrete_models():
    abstract = {devices.DeviceModel, devices.ParametricModel}
    found, pending = [], list(devices.DeviceModel.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls not in abstract and cls.__module__ == devices.__name__:
            found.append(cls)
    return sorted(found, key=lambda c: c.__name__)


def test_every_concrete_model_defines_its_own_admittance():
    models = concrete_models()
    assert {c.__name__ for c in models} >= {"RlBranch", "ShuntCapacitor", "TheveninGrid",
                                            "GflConverterL1", "GfmConverterL1", "BlackBoxModel"}
    for cls in models:
        assert "admittance" in cls.__dict__, cls.__name__


@pytest.mark.parametrize("name", ["mode_scan", "gnc_auto", "mode_admittance_sensitivity"])
def test_stability_entry_points_exist(name):
    assert inspect.isfunction(getattr(stability, name, None))


def mainly_on() -> dict:
    """bench/workloads.py's MAINLY_ON, read from its source (the module
    imports the benchmark's own inputs module)."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "MAINLY_ON"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/workloads.py defines no MAINLY_ON")


def test_stability_study_calls_every_layer_it_is_mainly_on():
    net = make_single_gfl(scr=1.3, k_p_pll=0.66)  # a criterion-8 case
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        tracer.on = True
        stability.gnc_auto(net)
        scan = stability.mode_scan(net, WB)
        stability.mode_admittance_sensitivity(net, scan.modes[0].lam, WB)
    finally:
        tracer.on = False
        tracer.uninstall()
    _, calls = tracer.layer_metrics()
    silent = [layer for layer in mainly_on()["stability-study"] if calls.get(layer, 0) == 0]
    assert not silent, f"layers with zero calls: {silent}"
