"""Child interpreters that tests start (``python -m hecke_eta.cli ...``) import
the package from ``src/`` as the test process does (``pythonpath`` in
``pyproject.toml``), so plain ``pytest`` needs no installed package."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
