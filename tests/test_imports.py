"""Every module imports cleanly when it is the first one imported, each
command loads only the layers it runs, no command or library call loads
mpmath, which only the tests' reference routes use, no command loads
decimal, fractions or numbers, and no library call does unless it makes a
Decimal or a Fraction.

The package's ``__init__`` imports its modules in one fixed order, which can
hide an import cycle that another entry point (``python -m hecke_eta.cli``,
a tracer importing one module by name) would hit.  Each probe runs in a
fresh interpreter with an empty stand-in for the package, so the module
named is the first ``hecke_eta`` module that runs.
"""

import functools
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


# Modules no command needs: dataclasses, inspect, and argparse with gettext
# and locale, which only help and usage errors need.
HEAVY = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
# Modules that only a call making a Decimal or a Fraction needs.
NUMBER_TYPES = {"decimal", "fractions", "numbers"}

# Prints [exit code, mpmath loaded, the hecke_eta modules loaded, the modules
# of HEAVY | NUMBER_TYPES loaded after the probe's own imports].
CLI_PROBE = f"""
import contextlib, io, json, sys
before = set(sys.modules)
from hecke_eta import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([
    code,
    "mpmath" in sys.modules,
    sorted(m for m in sys.modules if m.startswith("hecke_eta.")),
    sorted(set({sorted(HEAVY | NUMBER_TYPES)!r}) & (set(sys.modules) - before)),
]))
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
    # the first row past the float range: |a(449)| at D = 1000001
    "growth --D 1000001 --N 449",
    "grid --D 5 --re-steps 2 --im-steps 2",
    "lvalues --D 5",
]


# The hecke_eta modules each command loads: the discriminant check's
# characters and quad_ring, and the layers the command runs.
BASE = {"cli", "characters", "quad_ring"}
EXACT = BASE | {"qseries", "lseries"}
NUMERIC = BASE | {"analytic", "lseries"}
LAYERS = {
    "coeffs": EXACT,
    "delta5": EXACT,
    "signs": EXACT,
    "growth": EXACT,
    "verify-table": EXACT | {"golden"},
    "periods": EXACT | {"cyclotomic", "partitions"},
    "oracle-check": EXACT | {"cyclotomic", "oracle", "partitions"},
    "partitions": BASE | {"partitions"},
    "verify-modularity": NUMERIC,
    "grid": NUMERIC,
    "chars": BASE,
    "lvalues": BASE | {"lseries"},
}


@functools.cache
def probe_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, *argv.split()],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_cli_probe(argv):
    return probe_cli(argv)[:2]


def test_every_command_is_probed():
    from hecke_eta import cli

    commands = set(cli.COMMANDS)
    assert commands == {argv.split()[0] for argv in COMMANDS}
    assert set(LAYERS) == commands


@pytest.mark.parametrize("argv", COMMANDS)
def test_command_does_not_load_mpmath(argv):
    assert run_cli_probe(argv) == [0, False]


@pytest.mark.parametrize("argv", COMMANDS)
def test_command_loads_only_its_layers(argv):
    """No command loads a module of HEAVY or NUMBER_TYPES: lvalues prints
    L(-1), m and L'(0), and growth logs past the float range, from ints."""
    code, _, modules, loaded = probe_cli(argv)
    assert code == 0
    assert modules == sorted(f"hecke_eta.{m}" for m in LAYERS[argv.split()[0]])
    assert loaded == []


def test_abbreviated_option_still_runs():
    """An abbreviation is left to argparse, which loads and still runs it."""
    code, _, _, loaded = probe_cli("coeffs --D 5 --N 3 --form json")
    assert code == 0
    assert "argparse" in loaded


LIB_PROBE = f"""
import json, sys
before = set(sys.modules)
import hecke_eta
on_import = sorted(m for m in sys.modules if m.startswith("hecke_eta."))
residual = hecke_eta.check_u_gamma(hecke_eta.word_matrix([1, -1, 2], 5))
phi_residual = hecke_eta.check_phi_relation(13, 0.7)
number_types = sorted(set({sorted(NUMBER_TYPES)!r}) & (set(sys.modules) - before))
print(json.dumps([
    on_import,
    sorted(m for m in sys.modules if m.startswith("hecke_eta.")),
    bool({{"dataclasses", "inspect"}} & (set(sys.modules) - before)),
    "mpmath" in sys.modules,
    number_types,
    [residual, phi_residual],
]))
"""


def test_library_call_loads_only_its_layers():
    """The package import loads no layer; check_u_gamma and
    check_phi_relation load the numeric layer and what it reads (the
    character table, the L-values), not the exact kernel, the oracle, the
    partition tables or mpmath, and neither loads decimal, fractions or
    numbers: check_phi_relation computes in integer fixed point."""
    proc = subprocess.run(
        [sys.executable, "-c", LIB_PROBE], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    on_import, modules, heavy, mpmath_loaded, number_types, residuals = json.loads(proc.stdout)
    assert on_import == []
    assert modules == ["hecke_eta.analytic", "hecke_eta.characters", "hecke_eta.lseries"]
    assert not heavy
    assert not mpmath_loaded
    assert number_types == []
    assert max(residuals) < 1e-8


# The names the package exports.
EXPORTS = {
    "CharacterError", "GroupWord", "LValueRecord", "PartitionTables", "PeriodPair",
    "ProjectionError", "QSeries", "RingElem", "RingError", "SeriesError", "a_via_convolution",
    "bound_envelope", "build_char_table", "build_partition_tables", "check_inversion",
    "check_phi_relation", "check_translation", "check_u_gamma", "embed_real", "envelope_constants",
    "eta_series", "eval_eta_numeric", "is_fundamental", "l_minus_one", "l_prime_zero",
    "length_distribution", "p_nr_table", "p_table", "period_polynomials", "predicted_u",
    "project_to_quad", "tau5_values", "trace", "word_matrix",
}


class TestLazyExports:
    def test_all_lists_every_export(self):
        assert set(hecke_eta.__all__) == EXPORTS

    @pytest.mark.parametrize("name", sorted(EXPORTS))
    def test_export_is_its_submodule_attribute(self, name):
        obj = getattr(hecke_eta, name)
        assert obj.__module__.startswith("hecke_eta.")
        assert obj is getattr(sys.modules[obj.__module__], name)

    def test_rebinding_in_the_submodule_shows_through(self, monkeypatch):
        """A tracer's wrapper or a test's patch in the submodule is what the
        package returns, so no call through the package bypasses it."""
        from hecke_eta import qseries

        def wrapper(D, N):
            raise AssertionError("not called")

        monkeypatch.setattr(qseries, "eta_series", wrapper)
        assert hecke_eta.eta_series is wrapper

    def test_dir_lists_the_exports(self):
        assert EXPORTS <= set(dir(hecke_eta))
        assert "__version__" in dir(hecke_eta)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hecke_eta.no_such_name
        assert not hasattr(hecke_eta, "series_inv")

    def test_star_import(self):
        namespace = {}
        exec("from hecke_eta import *", namespace)
        assert EXPORTS <= set(namespace)
        assert namespace["eta_series"] is hecke_eta.eta_series
