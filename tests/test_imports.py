"""Every module imports cleanly when it is the first one imported.

The package's ``__init__`` imports its modules in one fixed order, which can
hide an import cycle that another entry point (``python -m hecke_eta.cli``,
a tracer importing one module by name) would hit.  Each probe runs in a
fresh interpreter with an empty stand-in for the package, so the module
named is the first ``hecke_eta`` module that runs.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import hecke_eta

PACKAGE_DIR = Path(hecke_eta.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")

PROBE = """
import importlib, sys, types
package = types.ModuleType("hecke_eta")
package.__path__ = [sys.argv[1]]
sys.modules["hecke_eta"] = package
importlib.import_module("hecke_eta." + sys.argv[2])
"""


def test_every_module_is_probed():
    assert {"cli", "cyclotomic", "qseries", "characters"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE_DIR), module],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
