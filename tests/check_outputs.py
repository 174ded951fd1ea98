"""Check every command contract listed in tests/golden/manifest.json.

    PYTHONPATH=src python tests/check_outputs.py    # the source tree
    python tests/check_outputs.py                   # an installed paleyrip

Each manifest entry is one `paleyrip` command: its argv, whether it runs
without numpy, and what it must do.  An entry exits 0 unless it gives an
`exit` code; then it gives the one line it prints on stderr (`stderr`) and
prints nothing on stdout.  An entry that exits 0 prints the bytes of its
`golden` file, or with none (`--help`, `--version`) those of an ordinary
run.  Some carry a `note` on what they pin.  `check(entry)` runs it once, in
a fresh interpreter from the repository root (the fit entries read
tests/golden/), with one BLAS thread, as the goldens were written: a
numpy-free entry with numpy and dataclasses unimportable
(`sys.modules[name] = None`), any other plainly.  Every run has TIMEOUT_S
to exit and an address space of AS_BYTES (RLIMIT_AS), so a command that
would build a table of the size of p at a huge p fails its entry rather
than the machine.  The script checks every entry this interpreter can run
(one that needs numpy only where numpy imports), and prints a header, one
status line per entry and an `N ok, N FAIL, N skip` summary.  It exits 1
if any entry fails, and 2 if paleyrip does not import.  No options,
standard library only.  Tier-1 calls `check` once per entry
(tests/test_startup.py).
"""

import importlib.util
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
BY_ARGV = {" ".join(entry["argv"]): entry for entry in MANIFEST}  # how the tests name them
PLAIN = [sys.executable, "-m", "paleyrip"]
# A numpy-free entry's run: numpy and dataclasses unimportable.
BLOCKED = [sys.executable, "-c", "import runpy, sys\n"
           "sys.modules['numpy'] = sys.modules['dataclasses'] = None\n"
           "runpy.run_module('paleyrip', run_name='__main__', alter_sys=True)\n"]
# On a 2-core x86 host the slowest entry, estimate at (1019, 200, 5), exits
# in 0.4 s and no entry's run reaches 40 MiB resident.  A p-long table at
# p = 10^9 would ask for more than 8 GB.
TIMEOUT_S = 60
AS_BYTES = 1_500_000_000


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_BYTES, AS_BYTES))


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, cwd=ROOT, env=ENV, timeout=TIMEOUT_S,
                          preexec_fn=_cap_address_space)


def _exit_problem(res: subprocess.CompletedProcess, want: int) -> str:
    last = res.stderr.decode().strip().rsplit("\n", 1)[-1]  # the message, not the traceback
    return f"exit {res.returncode}, want {want}: {last}"


def _reference(argv: list[str]) -> bytes:
    """stdout of an ordinary run, which must exit 0 and print something."""
    res = _run(PLAIN + argv)
    if res.returncode or not res.stdout:
        raise RuntimeError(f"ordinary run: {_exit_problem(res, 0)}")
    return res.stdout


def check(entry: dict) -> str:
    """'' if the entry exits with its code and prints what it pins, else what went wrong."""
    argv, code = entry["argv"], entry.get("exit", 0)
    try:
        res = _run((BLOCKED if entry["numpy_free"] else PLAIN) + argv)
        if res.returncode != code:
            return _exit_problem(res, code)
        if code:
            pinned = {"stdout": b"", "stderr": entry["stderr"].encode() + b"\n"}
        else:
            golden = entry.get("golden")
            pinned = {"stdout": (GOLDEN / golden).read_bytes() if golden else _reference(argv)}
    except subprocess.TimeoutExpired:
        return f"no exit within {TIMEOUT_S} s"
    except (OSError, RuntimeError) as exc:
        return str(exc)
    for stream, want in pinned.items():
        if (got := getattr(res, stream)) != want:
            at = len(os.path.commonprefix([got, want]))
            return f"{stream} from byte {at} printed {got[at:at + 60]!r}, want {want[at:at + 60]!r}"
    return ""


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
        if code := entry.get("exit", 0):
            shown += f" (exit {code})"
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
