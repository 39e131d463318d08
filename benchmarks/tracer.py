"""Spans around the calls into each ``hecke_eta`` layer, recorded from outside.

Nothing under ``src/`` changes: ``Recorder.install`` replaces each traced
function by a timing wrapper and rebinds every ``hecke_eta`` module attribute
that holds the same object.  ``cli`` imports ``eta_series`` and
``embed_real`` by name and ``qseries`` imports ``period_polynomials`` the
same way, so without the rebinding those calls would bypass the wrapper and
child spans would not nest.  Spans stay in memory and are written once, as
one line on stderr, when the job ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

SPAN_PREFIX = "@@spans "


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _coeff_bits(args, kwargs, result):
    return max(max(abs(c.num_a).bit_length(), abs(c.num_b).bit_length()) for c in result.coeffs)


def _residual(args, kwargs, result):
    return float(result)


# (module, attribute path, extractor of one number recorded on the span)
TARGETS = [
    ("cli", "main", None),
    ("characters", "build_char_table", lambda a, k, r: _arg(a, k, 0, "D")),
    ("lseries", "l_minus_one", None),
    ("lseries", "l_prime_zero", None),
    ("cyclotomic", "period_polynomials", None),
    ("cyclotomic", "project_to_quad", None),
    ("cyclotomic", "cyc_mul", None),
    ("qseries", "eta_series", _coeff_bits),
    ("qseries", "series_pow", None),
    ("quad_ring", "embed_real", None),
    ("partitions", "length_distribution", None),
    ("partitions", "p_nr_table", None),
    ("partitions", "build_partition_tables", None),
    ("oracle", "a_via_convolution", None),
    ("oracle", "CycSeries.mul_dense", None),
    ("oracle", "compare_with_eta", None),
    ("analytic", "log_eta_tail", lambda a, k, r: _arg(a, k, 2, "n_max")),
    ("analytic", "eval_eta_numeric", None),
    ("analytic", "check_inversion", _residual),
    ("analytic", "check_translation", _residual),
    ("analytic", "check_u_gamma", _residual),
    ("analytic", "check_phi_relation", _residual),
    ("golden", "golden_coefficients", None),
]


class Recorder:
    """In-memory span list: [name index, parent index, start, end, raised, extra]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, extract):
        idx_name = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [idx_name, parent, perf_counter(), 0.0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if extract is not None:
                span[5] = extract(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hecke_eta" or n.startswith("hecke_eta.")]
        for mod_name, path, extract in TARGETS:
            owner = importlib.import_module(f"hecke_eta.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{path}", fn, extract)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def dump(self, stream, job_id: str, import_s: float) -> None:
        rec = {"job": job_id, "import_s": import_s, "names": self.names, "spans": self.spans}
        stream.write(SPAN_PREFIX + json.dumps(rec, separators=(",", ":")) + "\n")
        stream.flush()
