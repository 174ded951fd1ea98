"""Start-up loads only what a command runs, and every command contract holds.

`import paleyrip` loads no submodule.  tests/check_outputs.py checks the
command contracts tests/golden/manifest.json lists, and here each entry
runs through its `check` once, in a fresh interpreter: a numpy-free entry
with numpy and dataclasses unimportable (`sys.modules[name] = None` makes
any import of them raise), since the modules those commands run keep
their records in NamedTuples, and any other plainly.  Each must exit with
its code and print its golden bytes, the same bytes as an ordinary run, or
for an error nothing on stdout and its one pinned line on stderr.  `check`
itself is shown to catch a wrong code, a wrong stderr line, an error that
prints on stdout, a run past the address-space cap and one past the
timeout.  The script's own report, the lines and exit status CI reads, is
tested in process with `check` stubbed, and once without an importable
paleyrip.
`bounds` itself is loaded only by the commands that evaluate bounds, and
`pairs` only by `conjecture` (and by `exact_rip`, which no command runs).
No command loads `spectra`, whose dense oracles only the benchmark's oracle
job imports, and `estimate` and `demboratio` load neither `frame` nor
`dataclasses`.  The witness search `pairs.cot_witness` runs without numpy.
"""

import importlib.metadata
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check_outputs  # tests/check_outputs.py, beside this file
import paleyrip

# Every public name of the package, submodules included, as an __init__
# importing all submodules eagerly would expose them.
EAGER_NAMES = [
    "BorderedBlock", "ConjectureRecord", "ConjectureScanSummary", "DEMBO_C",
    "DemboRatioRow", "DuplicateSupportError", "GENERALIZED_OFFSET", "MalformedInputError",
    "NonHermitianError", "NotPrimeError", "PaleyFrame", "PaleyRipError",
    "ParameterRangeError", "SparsityThreshold", "SplitMix64",
    "WrongResidueError", "bound_conjectural", "bounds", "build_frame",
    "check_paley", "check_support", "chi_signs",
    "conjecture_scan", "conjecture_search", "dembo_ratio_study", "dembo_upper",
    "errors", "estimate_rip_single", "estimate_rip_worst", "exact_rip", "experiments",
    "family_bounds", "find_c_alpha", "fit", "fit_power_law", "frame",
    "generalized_dembo_extremes", "gram_analytic", "gram_direct", "gram_rows",
    "greedy_peel", "hermitian_spectrum", "is_prime",
    "legendre", "max_sparsity", "numtheory",
    "one_sided_ratio", "pairs", "random_subset", "rng", "row_index_set",
    "run_verification", "sign_matrix", "skew_spectral_radius", "spectra",
    "sub_seed", "verify",
]

_BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"
ROOT = Path(__file__).resolve().parents[1]


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT)


def _last_line(code: str) -> str:
    """The last line code prints, run after `import sys` and `from paleyrip.cli import main`."""
    res = _python(f"import sys\nfrom paleyrip.cli import main\n{code}\n")
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


BY_ARGV = check_outputs.BY_ARGV


@pytest.mark.parametrize("argv", list(BY_ARGV))
def test_published_output(argv, published):
    assert published(argv) == ""


@pytest.mark.parametrize("change, problem", [
    ({"exit": 3}, "exit 2, want 3: paleyrip bounds: 9 is not prime"),
    ({"stderr": "paleyrip bounds: 9 is composite"},
     "stderr from byte 22 printed b'not prime\\n', want b'composite\\n'"),
], ids=["exit", "stderr"])
def test_check_catches_a_broken_error_entry(change, problem):
    assert check_outputs.check({**BY_ARGV["bounds --p 9 --k 4"], **change}) == problem


@pytest.mark.parametrize("before, problem", [
    ("print('{}')", "stdout from byte 0 printed b'{}\\n', want b''"),
    ("import mmap; mmap.mmap(-1, 2 * 10**9)",  # reserved, never touched
     "exit 1, want 4: OSError: [Errno 12] Cannot allocate memory"),
    ("import time; time.sleep(9)", "no exit within 0.5 s"),
], ids=["prints", "past-the-cap", "past-the-timeout"])
def test_check_catches_a_stand_in_error(before, problem, monkeypatch):
    # a stand-in command that fails as the entry pins, after doing `before`
    monkeypatch.setattr(check_outputs, "TIMEOUT_S", 0.5)
    monkeypatch.setattr(check_outputs, "PLAIN", [sys.executable, "-c", f"import sys\n{before}\n"
                                                 "sys.stderr.write('paleyrip x: failed\\n')\n"
                                                 "sys.exit(4)"])
    entry = {"argv": [], "exit": 4, "stderr": "paleyrip x: failed", "numpy_free": False}
    assert check_outputs.check(entry) == problem


@pytest.mark.parametrize("failing", [0, 1])
def test_check_outputs_report(failing, monkeypatch, capsys):
    # the lines and exit status CI reads, each entry's check stubbed: the last one fails
    last = check_outputs.MANIFEST[-1]
    monkeypatch.setattr(check_outputs, "check",
                        lambda entry: "boom" if failing and entry is last else "")
    assert check_outputs.main() == failing
    header, *status, summary = capsys.readouterr().out.splitlines()
    assert header.startswith("paleyrip from ") and header.endswith("; numpy importable: True")
    n = len(check_outputs.MANIFEST)
    assert [line.split()[0] for line in status] == ["ok"] * (n - failing) + ["FAIL"] * failing
    assert status[-1].endswith(": boom") is bool(failing)
    assert summary == f"{n - failing} ok, {failing} FAIL, 0 skip"


def test_check_outputs_without_paleyrip():
    try:
        importlib.metadata.distribution("paleyrip")
    except importlib.metadata.PackageNotFoundError:
        pass
    else:
        pytest.skip("an installed paleyrip imports without PYTHONPATH")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(ROOT / "tests" / "check_outputs.py")],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 2 and res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and "PYTHONPATH=src" in res.stderr


@pytest.mark.parametrize("argv, code", [("bounds --p 9 --k 4", 2), ("bounds --p 2 --k 2", 4),
                                        ("bounds --p 318665857834031151167461 --k 4", 4)])
def test_validation_error_without_numpy(argv, code, published):
    # numpy-free manifest entries: they run with numpy blocked
    assert BY_ARGV[argv]["exit"] == code and BY_ARGV[argv]["numpy_free"]
    assert published(argv) == ""


@pytest.mark.parametrize("code", [
    "from paleyrip.cli import main\nmain(['bounds', '--p', '1009', '--k', '4'])\n",
    "import paleyrip.experiments\n",
])
def test_exact_arithmetic_loaded_on_demand(code):
    # only find_c_alpha needs fractions (which imports decimal)
    res = _python("import sys\n" + code +
                  "print(sorted({'decimal', 'fractions'} & set(sys.modules)))\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("code, loaded", [
    ("main(['frame', '--p', '7'])", False),
    ("main(['gram', '--p', '7', '--support', '0,1,3'])", False),
    ("main(['conjecture', '--p', '5', '--support', '0,1,2,3,4'])", False),
    ("main(['demboratio', '--p', '19', '--k', '5'])", False),
    ("import paleyrip.experiments", False),
    ("main(['bounds', '--p', '7', '--k', '2'])", True),
    ("main(['estimate', '--p', '7', '--k', '3'])", True),
    ("main(['verify', '--p', '7'])", True),
])
def test_bounds_loaded_only_where_evaluated(code, loaded):
    assert _last_line(f"{code}\nprint('paleyrip.bounds' in sys.modules)") == str(loaded)


@pytest.mark.parametrize("code, loaded", [
    ("main(['conjecture', '--p', '19', '--k', '5', '--trials', '2'])", True),
    ("main(['conjecture', '--p', '5', '--support', '0,1,2,3,4'])", True),
    ("main(['estimate', '--p', '7', '--k', '3'])", False),
    ("main(['demboratio', '--p', '19', '--k', '5'])", False),
])
def test_pairs_loaded_only_by_conjecture(code, loaded):
    assert _last_line(f"{code}\nprint('paleyrip.pairs' in sys.modules)") == str(loaded)


@pytest.mark.parametrize("code", [
    "main(['estimate', '--p', '19', '--k', '5', '--trials', '2'])",
    "main(['demboratio', '--p', '19', '--k', '5'])",
])
def test_array_commands_load_numpy(code):
    # the positive control of the numpy-free outputs that check_outputs.py blocks numpy for
    assert _last_line(f"{code}\nprint('numpy' in sys.modules)") == "True"


def test_verify_loads_neither_numpy_nor_spectra():
    # every check decides in Python ints
    assert _last_line("main(['verify', '--p', '7'])\n"
                      "print(sorted({'numpy', 'paleyrip.spectra'} & set(sys.modules)))") == "[]"


def test_manifest_commands_load_no_spectra():
    # every manifest command that exits 0 in one interpreter, the array commands
    # first: they load neither frame nor dataclasses, and no command loads spectra
    runs = [e["argv"] for e in check_outputs.MANIFEST if not e.get("exit")]
    array = [argv for argv in runs if argv[0] in ("estimate", "demboratio")]
    rest = [argv for argv in runs if argv not in array]
    assert len(array) == 7
    res = _python("import contextlib, io, sys\nfrom paleyrip.cli import main\n"
                  "def run(argvs):\n"
                  "    for argv in argvs:\n"
                  "        with contextlib.redirect_stdout(io.StringIO()):\n"
                  "            try:\n"
                  "                code = main(argv)\n"
                  "            except SystemExit as exc:  # --help and --version\n"
                  "                code = exc.code\n"
                  "        if code:\n"
                  "            sys.exit(f'{argv} exited {code}')\n"
                  f"run({array!r})\n"
                  "print(sorted({'dataclasses', 'paleyrip.frame', 'paleyrip.spectra'}"
                  " & set(sys.modules)))\n"
                  f"run({rest!r})\n"
                  "print('paleyrip.spectra' in sys.modules)\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "False"]


def test_import_without_numpy():
    res = _python(_BLOCK_NUMPY + "import paleyrip\n"
                  "print(paleyrip.__version__, paleyrip.is_prime(1009),"
                  " paleyrip.max_sparsity(1009, 'gershgorin').floor_threshold)\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"{paleyrip.__version__} True 23\n"


def test_cot_witness_without_numpy():
    res = _python(_BLOCK_NUMPY + "from paleyrip.pairs import cot_witness\n"
                  "print(cot_witness(103, 12))\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "(0, 1, 2, 3, 7, 8, 9, 14, 27, 79, 85, 98)\n"


def test_import_loads_no_submodule():
    res = _python("import sys\nimport paleyrip\n"
                  "print(sorted(m for m in sys.modules"
                  " if m == 'numpy' or m.startswith('paleyrip.')))\n")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_eager_names_resolve():
    missing = [name for name in EAGER_NAMES if not hasattr(paleyrip, name)]
    assert not missing
    assert set(EAGER_NAMES) <= set(dir(paleyrip))
    assert paleyrip.sign_matrix is paleyrip.experiments.sign_matrix
    assert paleyrip.spectra is sys.modules["paleyrip.spectra"]


def test_star_import():
    namespace = {}
    exec("from paleyrip import *", namespace)
    assert set(paleyrip.__all__) <= set(namespace)
    assert set(paleyrip.__all__) == set(EAGER_NAMES) - {
        "bounds", "errors", "experiments", "fit", "frame", "numtheory", "pairs", "rng",
        "spectra", "verify"}


def test_unknown_attribute():
    # removed public names: four routines that nothing in the package ran,
    # four single-family wrappers, now columns of family_bounds, four float
    # twins of identities verify decides exactly, the record of a curve,
    # now the bare array d, four output-document writers, now in cli, and
    # the numpy copy of the Legendre table, now read from chi_signs
    for name in ["no_such_name", "coherence", "l1_coherence", "schur_bordered_det", "dembo_lower",
                 "bound_gershgorin", "bound_skew", "bound_dembo_recursive",
                 "bound_generalized_dembo", "block3_det", "gamma_term", "canonical_tournament",
                 "lemma_k_inequality", "RipEstimate", "BoundReport", "build_report",
                 "frame_to_json", "gram_to_json", "chi_table"]:
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(paleyrip, name)
