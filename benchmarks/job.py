"""Run one benchmark job in a fresh process.

Usage: python3 benchmarks/job.py '<job json>' [--trace JOB_ID]

A job is {"cli": [argv...]}, run exactly as the ``hecke-eta`` console script
runs it, or {"lib": name, "args": {...}}, a call to a name exported from
``hecke_eta`` whose result is printed as one JSON line.  The package is
imported from ``src/`` of the checkout this file sits in.  With --trace the
calls into each layer are timed from outside (see ``tracer.py``) and the
spans are written as one line on stderr when the job ends.
"""

import json
import os
import sys
import time


def _lib_call(name: str, args: dict) -> int:
    import hecke_eta

    if name == "check_u_gamma":
        w = hecke_eta.word_matrix(args["ks"], 5)
        out = {"u": hecke_eta.predicted_u(w), "residual": hecke_eta.check_u_gamma(w)}
    elif name == "check_phi_relation":
        out = {"residual": hecke_eta.check_phi_relation(args["D"], args["y"])}
    else:
        print(f"unknown library job {name!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


def _run(job: dict) -> int:
    if "cli" in job:
        from hecke_eta.cli import main

        return main(job["cli"])
    return _lib_call(job["lib"], job["args"])


def main() -> int:
    job = json.loads(sys.argv[1])
    traced = sys.argv[2:3] == ["--trace"]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    if not traced:
        return _run(job)

    import tracer

    t0 = time.perf_counter()
    import hecke_eta.cli  # noqa: F401  (timed: the import cost of every CLI call)

    import_s = time.perf_counter() - t0
    rec = tracer.Recorder()
    rec.install()
    try:
        return _run(job)
    finally:
        sys.stdout.flush()
        rec.dump(sys.stderr, sys.argv[3], import_s)


if __name__ == "__main__":
    sys.exit(main())
