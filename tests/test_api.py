import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mixpar

MODULES = sorted(m.name for m in pkgutil.iter_modules(mixpar.__path__))


def test_package_exports_resolve():
    missing = [name for name in mixpar.__all__ if not hasattr(mixpar, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"mixpar.{module}")
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []


def test_cli_import_leaves_out_scipy_io():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mixpar.cli; "
            "print('scipy.io' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, src], check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "False"


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # perfbench/tracing.py patches names in these modules; install fails
    # on any name they no longer define
    from mixpar import runner, timestep, vtkio

    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    tracing = importlib.import_module("tracing")
    modules = (runner, timestep, vtkio)
    before = [dict(vars(mod)) for mod in modules]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = {name for mod, old in zip(modules, before)
                   for name, val in vars(mod).items() if old[name] is not val}
        assert {"run_level", "assemble_load", "interpolate", "SaddleSolver",
                "write_unstructured"} <= patched
    finally:
        tracer.restore()
    for mod, old in zip(modules, before):
        assert {k: v for k, v in vars(mod).items() if old.get(k) is not v} == {}
