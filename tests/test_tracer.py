"""The benchmark's span tracer finds every function it names in the library
and puts each one back when it is removed; the benchmark's workloads call
only public names that exist."""

import importlib
import importlib.util
import os
import re
import sys

import occlucode

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_every_layer_and_uninstall_restores():
    tracer = load_tracer()
    modules = [occlucode] + [importlib.import_module(f"occlucode.{m}")
                             for m in list(tracer.LAYERS) + ["cli"]]
    bindings = {(mod.__name__, name): vars(mod)[name] for mod in modules
                for name in vars(mod) if callable(vars(mod)[name])}
    t = tracer.Tracer()
    t.install()  # raises AttributeError if a traced name is gone
    try:
        for layer, funcs in tracer.LAYERS.items():
            home = importlib.import_module(f"occlucode.{layer}")
            for func in funcs:
                original = bindings[(home.__name__, func)]
                assert getattr(home, func) is not original
                assert getattr(home, func).__wrapped__ is original
    finally:
        t.uninstall()
    for (name, attr), fn in bindings.items():
        assert vars(importlib.import_module(name))[attr] is fn, f"{name}.{attr}"


def test_workloads_call_only_existing_public_names():
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as f:
        names = set(re.findall(r"\boc\.([A-Za-z_]\w*)", f.read()))
    assert names  # the workloads reach the library through ``oc.``
    missing = sorted(n for n in names if not hasattr(occlucode, n))
    assert not missing, f"perfbench/workloads.py calls missing names {missing}"


def test_traced_recognize_item_claims_no_convergence_above_eps(tmp_path, monkeypatch):
    # the benchmark's fixed solver settings on its first recognize probe
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    workload = workloads.Recognize(str(tmp_path))
    state = workload.setup(101)
    (_, run), *_ = workload.items(state)
    t = load_tracer().Tracer()
    t.install()
    try:
        outcomes = run()
    finally:
        t.uninstall()
    assert set(outcomes) == {"structured", "l1", "src"}
    layers = t.aggregate()
    for span in ("solvers.solve_group_bpdn", "solvers.solve_l1_bpdn"):
        assert layers[span]["calls"] >= 1
        assert layers[span]["converged_above_eps"] == 0
    assert layers["solvers.solve_group_bpdn"]["nonconverged"] == 0
    assert layers["solvers.solve_l1_bpdn"]["nonconverged"] == 0
