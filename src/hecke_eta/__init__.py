"""Eta analogues for the Hecke groups H(sqrt(D)), D = 1 mod 4 fundamental.

Exact Fourier coefficients in Z[(1+sqrt(D))/2], an independent
partition-convolution recomputation, and numeric verification of the
transformation laws.

Each exported name is resolved from its submodule on first use (PEP 562),
so importing the package, or one submodule such as ``hecke_eta.cli``, loads
only the layers that are used.
"""

from importlib import import_module

_EXPORTS_BY_MODULE = {
    "quad_ring": ("RingElem", "RingError", "embed_real"),
    "characters": (
        "CharTable", "CharacterError", "build_char_table", "is_fundamental", "kronecker",
    ),
    "cyclotomic": (
        "PeriodPair", "ProjectionError", "cyc_mul", "gauss_element", "period_polynomials",
        "project_to_quad", "trace",
    ),
    "lseries": ("LValueRecord", "l_minus_one", "l_prime_zero"),
    "partitions": (
        "PartitionTables", "build_partition_tables", "length_distribution", "p_nr_table",
        "p_table", "pentagonal_terms",
    ),
    "qseries": (
        "QSeries", "SeriesError", "delta5_series", "eta_series", "series_pow", "tau5_values",
    ),
    "oracle": ("CycSeries", "a_via_convolution"),
    "analytic": (
        "GroupWord", "bound_envelope", "check_inversion", "check_translation", "check_u_gamma",
        "envelope_constants", "eval_eta_numeric", "predicted_u", "check_phi_relation",
        "word_matrix",
    ),
}

# Exported name -> the submodule that defines it.
_EXPORTS = {name: mod for mod, names in _EXPORTS_BY_MODULE.items() for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached in the package: a name rebound in its submodule (a tracer's
    # wrapper, a test's monkeypatch) is what the package returns from then on.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
