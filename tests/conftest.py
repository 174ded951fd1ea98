"""Test-session setup, run before any test module imports numpy.

Subprocesses started by the tests import the package from src/, as the
tests do.  BLAS is pinned to one thread for the session and its
subprocesses: the eigensolver's last digits depend on the BLAS thread count,
and the golden bytes under tests/golden/ were written with one thread.
"""

import os
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
