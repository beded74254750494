import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mixpar

MODULES = sorted(m.name for m in pkgutil.iter_modules(mixpar.__path__))

# names defined in the library that only the acceptance gate or the
# benchmark tracer reads (ManufacturedCase.f_vec: the one-step oracle)
READ_OUTSIDE = {"f_vec"}


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


def test_every_library_definition_is_read_in_the_library():
    """Every function, method, property and `self.` attribute defined in
    src/mixpar is read somewhere in src/mixpar, exported in its module's
    `__all__` or listed in READ_OUTSIDE: the library keeps no code that
    only tests read.

    The scan matches names, not owners: a definition passes when any
    name or attribute of that spelling is read anywhere in the package.
    So an attribute stored from a like-named argument (`self.x = x`)
    always passes, and the scan cannot catch it.
    """
    defined, read, exported = {}, set(), set()
    for path in sorted(Path(mixpar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, path.name)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"):
                    defined.setdefault(node.attr, path.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
    unread = sorted((module, name) for name, module in defined.items()
                    if not (name.startswith("__") and name.endswith("__"))
                    and name not in read | exported | READ_OUTSIDE)
    assert unread == []
