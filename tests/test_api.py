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
