"""Check every published output listed in tests/golden/manifest.json against its bytes.

    PYTHONPATH=src python tests/check_outputs.py    # the source tree
    python tests/check_outputs.py                   # an installed paleyrip

Each manifest entry is one `paleyrip` command: its argv, its golden file
(null where an ordinary run is the reference), whether it runs without
numpy, and for some a note on what it pins.  `check(entry)` runs it once,
in a fresh interpreter from the repository root (the fit entries read
tests/golden/), with one BLAS thread, as the goldens were written: a
numpy-free entry with numpy and dataclasses unimportable
(`sys.modules[name] = None`), any other plainly.  It must print its golden
bytes, or those of an ordinary run.  The script checks every entry this
interpreter can run (one that needs numpy only where numpy imports), and
prints a header, one status line per entry and an `N ok, N FAIL, N skip`
summary.  It exits 1 if any output fails, and 2 if paleyrip does not
import.  No options, standard library only.  Tier-1 calls `check` once per
entry (tests/test_startup.py).
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
PLAIN = [sys.executable, "-m", "paleyrip"]
# A numpy-free entry's run: numpy and dataclasses unimportable.
BLOCKED = [sys.executable, "-c", "import runpy, sys\n"
           "sys.modules['numpy'] = sys.modules['dataclasses'] = None\n"
           "runpy.run_module('paleyrip', run_name='__main__', alter_sys=True)\n"]


def _stdout(cmd: list[str]) -> bytes:
    res = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=ENV)
    if res.returncode:
        last = res.stderr.decode().strip().rsplit("\n", 1)[-1]  # the message, not the traceback
        raise RuntimeError(f"exit {res.returncode}: {last}")
    return res.stdout


def check(entry: dict) -> str:
    """'' if the entry prints its expected bytes, else what went wrong."""
    argv = entry["argv"]
    try:
        got = _stdout((BLOCKED if entry["numpy_free"] else PLAIN) + argv)
        want = (GOLDEN / entry["golden"]).read_bytes() if entry["golden"] else _stdout(PLAIN + argv)
    except (OSError, RuntimeError) as exc:
        return str(exc)
    if got and got == want:
        return ""
    at = len(os.path.commonprefix([got, want]))
    return f"from byte {at} printed {got[at:at + 60]!r}, want {want[at:at + 60]!r}"


def main() -> int:
    if (paleyrip := importlib.util.find_spec("paleyrip")) is None:
        print("check_outputs.py: paleyrip does not import; run PYTHONPATH=src python"
              " tests/check_outputs.py from the repository root, or install it", file=sys.stderr)
        return 2
    have_numpy = importlib.util.find_spec("numpy") is not None
    print(f"paleyrip from {paleyrip.origin}; numpy importable: {have_numpy}")
    counts = {"ok": 0, "FAIL": 0, "skip": 0}
    for entry in MANIFEST:
        shown = " ".join(a if len(a) <= 40 else a[:37] + "..." for a in entry["argv"])
        if not (entry["numpy_free"] or have_numpy):
            status, note = "skip", ": needs numpy"
        elif problem := check(entry):
            status, note = "FAIL", f": {problem}"
        else:
            status, note = "ok", " (numpy, dataclasses blocked)" if entry["numpy_free"] else ""
        counts[status] += 1
        print(f"{status:4} {shown}{note}")
    print(", ".join(f"{n} {status}" for status, n in counts.items()))
    return 1 if counts["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main())
