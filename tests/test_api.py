import ast
import dataclasses
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mixpar
from mixpar import parse_config, run_experiment

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
    always passes here; `test_every_stored_value_is_read_by_a_study`
    matches owners and catches it.
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


# stored values that no study reads but a reader outside the library
# does, each with its reader
STORED_READ_OUTSIDE = {
    ("Coefficients", "nu"),                 # acceptance criterion 1
    ("LevelResult", "u_norm_max"),          # acceptance criteria 5 and 8
    ("LevelResult", "constraint_rel_max"),  # acceptance criterion 8
    ("TimeSeriesSolution", "u"),            # acceptance criterion 1
    ("TimeSeriesSolution", "lam"),          # acceptance criterion 1
    ("TimeSeriesSolution", "grid"),         # the benchmark tracer's grid.N
}


def _library_classes():
    """The classes defined in src/mixpar, less exceptions and NamedTuples
    (unpacking reads a NamedTuple without an attribute lookup)."""
    for module in MODULES:
        mod = importlib.import_module(f"mixpar.{module}")
        for obj in vars(mod).values():
            if (isinstance(obj, type) and obj.__module__ == mod.__name__
                    and not issubclass(obj, (BaseException, tuple))):
                yield obj


def test_every_stored_value_is_read_by_a_study(monkeypatch, tmp_path):
    """Every dataclass field of the library, and every attribute the
    library stores during a study, is read in a study of each instance
    (probes and VTK output on) or listed in STORED_READ_OUTSIDE.

    Reads and stores are matched by owner, so this catches what the name
    scan above cannot: a value whose spelling is read on another class.
    """
    stored, read = set(), set()
    for cls in _library_classes():
        if dataclasses.is_dataclass(cls):
            stored |= {(cls.__name__, f.name)
                       for f in dataclasses.fields(cls)}

        def getattribute(self, name, _name=cls.__name__,
                         _get=cls.__getattribute__):
            read.add((_name, name))
            return _get(self, name)
        monkeypatch.setattr(cls, "__getattribute__", getattribute)
        if not (dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen):
            def setattr_(self, name, value, _name=cls.__name__,
                         _set=cls.__setattr__):
                stored.add((_name, name))
                _set(self, name, value)
            monkeypatch.setattr(cls, "__setattr__", setattr_)

    for case, n in (("stokes", 2), ("eddy2d", 3)):
        cfg = parse_config(f"case = {case}\nn = {n}\nlevels = 2\n"
                           f"steps = 2\nprobes = true\nvtk_every = 1\n"
                           f"out = {tmp_path / case}\n")
        assert run_experiment(cfg) == 0
    assert sorted(stored - read - STORED_READ_OUTSIDE) == []
    # every exception is still stored and still unread by a study
    assert STORED_READ_OUTSIDE <= stored - read
