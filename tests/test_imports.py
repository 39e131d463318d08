"""Every module imports cleanly when it is the first one imported, and only
the commands that compute in arbitrary precision load mpmath.

The package's ``__init__`` imports its modules in one fixed order, which can
hide an import cycle that another entry point (``python -m hecke_eta.cli``,
a tracer importing one module by name) would hit.  Each probe runs in a
fresh interpreter with an empty stand-in for the package, so the module
named is the first ``hecke_eta`` module that runs.
"""

import json
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


CLI_PROBE = """
import contextlib, io, json, sys
from hecke_eta import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, "mpmath" in sys.modules]))
"""

COMMANDS = [
    "coeffs --D 5 --N 30",
    "coeffs --D 13 --N 10 --format json",
    "delta5 --N 20",
    "verify-table",
    "verify-modularity --D 5 --samples 2",
    "oracle-check --D 5 --N 5",
    "partitions --D 5 --N 10",
    "periods --D 13",
    "chars --D 5",
    "signs --D 13 --N 30",
    "growth --D 5 --N 30",
    "grid --D 5 --re-steps 2 --im-steps 2",
]


def run_cli_probe(argv):
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, *argv.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_command_is_probed():
    from hecke_eta import cli

    commands = set(cli._build_parser()._subparsers._group_actions[0].choices)
    assert commands == {argv.split()[0] for argv in COMMANDS} | {"lvalues"}


@pytest.mark.parametrize("argv", COMMANDS)
def test_command_does_not_load_mpmath(argv):
    assert run_cli_probe(argv) == [0, False]


def test_lvalues_loads_mpmath():
    assert run_cli_probe("lvalues --D 5") == [0, True]
