import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check_outputs  # tests/check_outputs.py, beside this file
from paleyrip import errors, frame, numtheory, pairs
from paleyrip.cli import EXIT_VERIFY_FAILED, RIPCURVE_COLUMNS, _csv_text, main
from paleyrip.experiments import sign_matrix
from paleyrip.frame import check_support


# Former subprocess cases, now entries of tests/golden/manifest.json, which
# pins each one's exit code and stderr line; `published` runs an entry's check.
BY_ARGV = check_outputs.BY_ARGV


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_frame_command(capsys):
    code, out, _ = run_cli(capsys, "frame", "--p", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 7
    assert doc["rows"] == [0, 1, 2, 4]
    assert len(doc["entries"]) == 4
    assert len(doc["entries"][0]) == 7
    re0, im0 = doc["entries"][0][0]
    assert abs(re0 - math.sqrt(1 / 7)) < 1e-12 and abs(im0) < 1e-12


def test_frame_exit_codes(capsys):
    assert run_cli(capsys, "frame", "--p", "6")[0] == 2
    assert run_cli(capsys, "frame", "--p", "13")[0] == 3


@pytest.mark.parametrize("argv, code", [
    ("conjecture --p 9 --support ,", 2),  # the modulus is checked before the support, as for gram
    ("conjecture --p 9 --support , --peel", 2),
    ("gram --p 9 --support ,", 2),
    ("gram --p 13 --support 0,20", 3),
    ("frame --p 3", 4),
    ("verify --p 5", 3),
])
def test_validation_exit_codes(capsys, argv, code):
    assert run_cli(capsys, *argv.split())[0] == code


@pytest.mark.parametrize("argv, support_checks, prime_checks", [
    ("frame --p 7", 0, 2),
    ("gram --p 7 --support 0,1,3", 1, 3),
    ("gram --p 7 --support 0,1,3 --method direct", 1, 3),
    ("conjecture --p 5 --support 0,1,2,3,4", 1, 3),
    ("conjecture --p 43 --support 1,5,9,12,17,20,22,30,33,38,40,41 --peel --m-alpha 5", 1, 3),
])
def test_each_value_is_checked_once(capsys, monkeypatch, argv, support_checks, prime_checks):
    # check_support calls in every module that imported it, and is_prime
    # calls as hits plus misses of its cache, from cold caches
    calls = []

    def counted(*args):
        calls.append(args)
        return check_support(*args)

    for module in (frame, pairs):
        monkeypatch.setattr(module, "check_support", counted)
    for cached in (numtheory.is_prime, numtheory.chi_signs, pairs._residue_mask):
        cached.cache_clear()
    assert run_cli(capsys, *argv.split())[0] == 0
    info = numtheory.is_prime.cache_info()
    assert (len(calls), info.hits + info.misses) == (support_checks, prime_checks)


def test_error_classes_carry_readme_exit_codes():
    # README's exit-code table: two columns of "<code> <meaning>" cells
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Exit codes", 1)[1].split("```")[1]
    table = dict(cell.split(" ", 1) for line in block.splitlines()
                 for cell in re.split(r"\s{2,}", line.strip()) if cell)
    range_error = "parameter out of range / usage error"
    meanings = {
        errors.NotPrimeError: "modulus not prime",
        errors.WrongResidueError: "prime not 3 mod 4",
        errors.ParameterRangeError: range_error,
        errors.MalformedInputError: "malformed input (bad CSV, unusable fit window)",
        errors.DuplicateSupportError: "duplicate support after reduction mod p",
        errors.NonHermitianError: range_error,
    }
    classes = {v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, errors.PaleyRipError)}
    assert classes == {errors.PaleyRipError, *meanings}
    for cls, meaning in meanings.items():
        assert table[str(cls.exit_code)] == meaning, cls
    # any other package error exits 1, a code the table leaves to no named cause
    assert errors.PaleyRipError.exit_code == 1 and "1" not in table
    assert table[str(EXIT_VERIFY_FAILED)] == "verification check failed"
    assert table["0"] == "ok"


def test_gram_command_and_methods(capsys):
    code, out_a, _ = run_cli(capsys, "gram", "--p", "7", "--support", "0,1,3")
    assert code == 0
    code, out_d, _ = run_cli(capsys, "gram", "--p", "7", "--support", "0,1,3",
                             "--method", "direct")
    assert code == 0
    ga = np.array([[complex(re, im) for re, im in row]
                   for row in json.loads(out_a)["entries"]])
    gd = np.array([[complex(re, im) for re, im in row]
                   for row in json.loads(out_d)["entries"]])
    assert np.abs(ga - gd).max() < 1e-12


def test_gram_duplicate_support_exit_6(capsys):
    code, _, err = run_cli(capsys, "gram", "--p", "19", "--support", "0,19")
    assert code == 6
    assert "warning:" not in err  # a collision is decided before any warning


@pytest.mark.parametrize("argv", [
    "gram --p 0 --support 1,2",
    "conjecture --p 0 --support 1,2,3",
    "conjecture --p 1 --support 1,2,3",
    "gram --p -7 --support 1,2",
])
def test_support_with_bad_modulus_exit_2(argv, published):
    # the modulus is checked before any support element is reduced mod p
    assert published(argv) == ""


@pytest.mark.parametrize("argv, code", [
    ("gram --p 2 --support 1,2", 3),
    ("conjecture --p 2 --support 1,2,3", 4),
])
def test_support_with_small_prime_modulus(argv, code, published):
    # a prime outside the command's domain is rejected before any reduction
    assert BY_ARGV[argv]["exit"] == code and published(argv) == ""


@pytest.mark.parametrize("argv, out, unwritable", [
    ("estimate --p 7 --k 3", "missing/x.csv", "missing/x.csv"),  # no parent directory
    ("gram --p 7 --support 0,1", "adir", "adir"),  # a directory
    ("gram --p 7 --support 0,1", "x.json", "x.json.meta.json"),  # the sidecar's path
])
def test_unwritable_out_exit_4(tmp_path, argv, out, unwritable):
    (tmp_path / "adir").mkdir()
    (tmp_path / "x.json.meta.json").mkdir()
    res = subprocess.run([sys.executable, "-m", "paleyrip", *argv.split(), "--out", out],
                         capture_output=True, text=True, cwd=tmp_path)
    assert res.returncode == 4, res.stderr
    assert res.stderr.startswith(f"paleyrip {argv.split()[0]}: cannot write {unwritable}: ")
    assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr
    assert not (tmp_path / "x.json").exists()  # written before its sidecar failed, then removed


def test_support_reduction_warning(capsys):
    code, out, err = run_cli(capsys, "gram", "--p", "19", "--support", "1,2,19")
    assert code == 0
    assert "19 reduced to 0" in err
    assert json.loads(out)["rows"] == [1, 2, 0]


def test_negative_support_element_via_equals_form(capsys):
    # argparse reads "-1,2" after a separate --support as an option: only
    # the --support=-1,2 form passes a negative residue
    code, out, err = run_cli(capsys, "gram", "--p", "7", "--support=-1,2")
    assert code == 0
    assert err == "warning: support element -1 reduced to 6 mod 7\n"
    assert json.loads(out)["rows"] == [6, 2]
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--p", "7", "--support", "-1,2"])
    assert exc.value.code == 4
    assert "argument --support: expected one argument" in capsys.readouterr().err


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "1009", "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_sparsity"]["gershgorin"]["floor_threshold"] == 23
    assert doc["max_sparsity"]["skew_linear"]["floor_threshold"] == 35
    assert "conditional" not in doc

    code, out, _ = run_cli(capsys, "bounds", "--p", "7", "--k", "3")
    assert abs(json.loads(out)["bounds"]["dembo_recursive"]
               - math.sqrt(3) / math.sqrt(7)) < 1e-14

    code, out, _ = run_cli(capsys, "bounds", "--p", "103", "--k", "30", "--beta", "0.7")
    doc = json.loads(out)
    assert doc["conditional"]["beta"] == 0.7
    assert "conjecture" in doc["conditional"]["note"]

    assert run_cli(capsys, "bounds", "--p", "7", "--k", "1")[0] == 4


def test_estimate_csv_matches_library(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--p", "103", "--k", "30", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,d,gershgorin,skew_linear,dembo_recursive,generalized_dembo"
    assert len(lines) == 31
    from paleyrip.experiments import estimate_rip_single

    d_col = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.abs(np.array(d_col) - estimate_rip_single(103, 30, 1)).max() == 0.0
    # orders 1 and 2 sit below the domain of the recursive families
    assert lines[1].split(",")[4] == "nan"
    assert lines[2].split(",")[5] == "nan"


def test_estimate_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "estimate", "--p", "43", "--k", "8", "--seed", "3",
                         "--trials", "5")
    _, out2, _ = run_cli(capsys, "estimate", "--p", "43", "--k", "8", "--seed", "3",
                         "--trials", "5")
    assert out1 == out2


def test_estimate_json_csv_round_trip(capsys):
    _, csv_text, _ = run_cli(capsys, "estimate", "--p", "43", "--k", "8", "--seed", "3")
    _, json_text, _ = run_cli(capsys, "estimate", "--p", "43", "--k", "8", "--seed", "3",
                              "--format", "json")
    doc = json.loads(json_text)
    projected = _csv_text(RIPCURVE_COLUMNS, doc["rows"])
    assert projected == csv_text


def test_estimate_range_exit_4(capsys):
    assert run_cli(capsys, "estimate", "--p", "43", "--k", "44", "--seed", "0")[0] == 4


def test_fit_command(tmp_path, capsys):
    # exact synthetic power law round-trips through the CSV interface
    k, p, beta = 20, 103, 0.7
    rows = [{"j": j, "d": j**beta / math.sqrt(p), "gershgorin": 0.0,
             "skew_linear": 0.0, "dembo_recursive": None,
             "generalized_dembo": None} for j in range(1, k + 1)]
    path = tmp_path / "curve.csv"
    path.write_text(_csv_text(RIPCURVE_COLUMNS, rows))
    code, out, _ = run_cli(capsys, "fit", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["beta"] - beta) < 1e-10
    assert abs(doc["r2"] - 1.0) < 1e-12


def test_estimate_fit_pipeline(tmp_path, capsys):
    # end-to-end: a measured curve fits to a slope in the expected band
    path = tmp_path / "measured.csv"
    code, _, _ = run_cli(capsys, "estimate", "--p", "103", "--k", "30",
                         "--seed", "1", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "fit", "--input", str(path))
    assert code == 0
    assert 0.50 <= json.loads(out)["beta"] <= 0.80


def test_fit_malformed_exit_5(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    assert run_cli(capsys, "fit", "--input", str(bad))[0] == 5
    few = tmp_path / "few.csv"
    few.write_text("j,d\n1,0.0\n2,0.1\n3,0.2\n")  # only two positive rows
    assert run_cli(capsys, "fit", "--input", str(few))[0] == 5
    assert run_cli(capsys, "fit", "--input", str(tmp_path / "missing.csv"))[0] == 5
    short = tmp_path / "short.csv"
    for text in ("j,d\n1,0\n2\n3,0.3\n", "d,j\n0,1\n0.1\n0.3,3\n"):  # row 3 lacks a cell
        short.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--input", str(short))
        assert (code, out) == (5, "")
        assert err == f"paleyrip fit: {short}: line 3 has no 'j' or 'd' cell\n"


def test_demboratio_command(capsys):
    code, out, _ = run_cli(capsys, "demboratio", "--p", "103", "--k", "30", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,lambda_max,dembo_bound,gershgorin_bound,dembo_ratio,gershgorin_ratio"
    assert len(lines) == 30  # j = 2..30
    for line in lines[1:]:
        parts = line.split(",")
        dembo_ratio, gersh_ratio = float(parts[4]), float(parts[5])
        assert dembo_ratio >= 1.0 - 1e-9
        assert dembo_ratio <= gersh_ratio + 1e-12
    first = lines[1].split(",")
    assert abs(float(first[4]) - float(first[5])) < 1e-12


def test_conjecture_explicit_support(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--p", "5", "--support", "0,1,2,3,4")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] <= 1 / 3 + 1e-12
    assert doc["satisfied"] is True

    code, out, _ = run_cli(capsys, "conjecture", "--p", "19",
                           "--support", "1,2,18,16,15,14,8,7,6,4")
    doc = json.loads(out)
    assert doc["numerator"] == 0  # a perfectly balanced pair exists
    assert doc["satisfied"] is True


@pytest.mark.parametrize("p, support", [
    (43, (14, 40, 20, 19, 5, 12, 13, 26)),  # the manifest's support, numerator 2
    (103, (61, 84, 40, 79, 44, 51, 46, 32)),  # random_subset(103, 8, 20), numerator 2
    (13, (7, 5, 3, 1)),  # random_subset(13, 4, 4), numerator 2; p = 1 (mod 4): C_T symmetric
])
def test_conjecture_numerator_is_affine_and_order_invariant(capsys, p, support):
    # x -> a x + b multiplies C_T by chi(a), which each summand
    # chi(T_i - T_l) chi(T_j - T_l) takes twice, and a permutation only
    # reorders the pairs, so the smallest numerator is the same
    def numerator(t):
        code, out, _ = run_cli(capsys, "conjecture", "--p", str(p),
                               "--support", ",".join(map(str, t)))
        assert code == 0
        return json.loads(out)["numerator"]

    maps = [(4, 5), (p - 1, 1), (2, p - 2)]  # 4 is a square; -1 or 2 is not, at each p
    images = [tuple((a * x + b) % p for x in support) for a, b in maps]
    images += [support[::-1], support[3:] + support[:3]]
    assert numerator(support) == 2
    assert [numerator(t) for t in images] == [2] * len(images)


def test_conjecture_scan_mode(capsys):
    code, out, err = run_cli(capsys, "conjecture", "--p", "19", "--k", "12",
                             "--trials", "20", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,k,best_i,best_j,ratio,satisfied"
    assert len(lines) == 21
    assert "summary:" in err
    code, out2, _ = run_cli(capsys, "conjecture", "--p", "19", "--k", "12",
                            "--trials", "20", "--seed", "7", "--format", "json")
    doc = json.loads(out2)
    assert len(doc["rows"]) == 20
    assert 0.0 <= doc["summary"]["worst_ratio"] <= 1.0
    assert run_cli(capsys, "conjecture", "--p", "19")[0] == 4


def test_conjecture_p2_exit_4(capsys):
    assert run_cli(capsys, "conjecture", "--p", "2", "--k", "3", "--trials", "1")[0] == 4
    assert run_cli(capsys, "conjecture", "--p", "9", "--k", "3", "--trials", "1")[0] == 2


@pytest.mark.parametrize("argv", [
    "conjecture --p 18446744073709551629 --k 3 --trials 1",  # 2^64 + 13: the draw never returned
    "estimate --p 18446744073709551667 --k 3 --trials 2",  # 3 mod 4: an OverflowError traceback
])
def test_prime_past_2_64_exit_4(argv, published):
    # a 64-bit stream draws below at most 2^64
    assert published(argv) == ""


@pytest.mark.parametrize("argv, message", [
    ("conjecture --p 19 --k 5 --trials 2 --peel", "--peel needs --support"),
    ("conjecture --p 19 --support 1,2,3,4,5 --k 9", "--k sets the scan's support size"),
    ("conjecture --p 19 --support 1,2,3,4,5 --trials 1", "--support ignores --trials"),
    ("conjecture --p 19 --support 1,2,3,4,5 --peel --seed 0", "--support ignores --seed"),
    ("conjecture --p 19 --support 1,2,3,4,5 --format csv", "--support ignores --format"),
    ("conjecture --p 19 --support 1,2,3,4,5 --m-alpha 3",
     "--support without --peel ignores --m-alpha"),
    ("conjecture --p 19 --k 5 --m-alpha 5", "the --k scan ignores --m-alpha"),
])
def test_conjecture_flag_misuse_exit_4(argv, message, published):
    # a flag the chosen mode would ignore is a usage error, not a silent no-op
    assert message in BY_ARGV[argv]["stderr"] and published(argv) == ""


@pytest.mark.parametrize("argv", [
    "conjecture --p 19 --support 1,2,3,4,5 --alpha nan",
    "conjecture --p 19 --support 1,2,3,4,5 --peel --alpha inf",
    "conjecture --p 19 --k 5 --trials 3 --alpha nan",
    "conjecture --p 19 --k 5 --trials 3 --alpha=-inf",
])
def test_conjecture_nonfinite_alpha_exit_4(capsys, argv):
    # a NaN threshold printed "alpha": NaN, which is not JSON, and an infinite
    # one satisfied every step; all three modes reject both before any work
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 4 and out == ""
    assert err.startswith("paleyrip conjecture: alpha must be finite")


@pytest.mark.parametrize("argv, given", [
    ("--support 1,2,3,4,5", {"support": "1,2,3,4,5"}),
    ("--support 1,2,3,4,5 --peel --m-alpha 3", {"support": "1,2,3,4,5", "peel": True,
                                                 "m_alpha": 3}),
    ("--k 5", {"k": 5}),
    ("--k 5 --trials 3 --seed 4 --format json", {"k": 5, "trials": 3, "seed": 4,
                                                  "format": "json"}),
])
def test_conjecture_sidecar_parameters(tmp_path, capsys, argv, given):
    # the flags only some modes read are None on the parser; the sidecar
    # records the values the command ran with, omitted flags at their defaults
    out = tmp_path / "out"
    assert run_cli(capsys, "conjecture", "--p", "19", *argv.split(), "--out", str(out))[0] == 0
    meta = json.loads((tmp_path / "out.meta.json").read_text())
    want = {"alpha": 0.8, "command": "conjecture", "format": "csv", "k": None, "m_alpha": 5,
            "p": 19, "peel": False, "seed": 0, "support": None, "trials": 1, **given}
    assert list(meta["parameters"].items()) == sorted(want.items())
    assert meta["seed"] == want["seed"]


def test_conjecture_peel_mode(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--p", "43",
                           "--support", "1,5,8,12,20,22,30,41,2,9,17,33",
                           "--peel", "--m-alpha", "5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["steps"]) == 4  # 12 -> 10 -> 8 -> 6 -> 4
    assert doc["m_alpha"] == 5
    assert isinstance(doc["all_satisfied"], bool)


def test_verify_p103_runtime(capsys):
    import time

    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, "verify", "--p", "103")
    elapsed = time.monotonic() - t0
    assert code == 0
    assert json.loads(out)["all_passed"] is True
    assert elapsed < 60.0


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert {c["name"] for c in doc["checks"]} == {
        "delta3_spectrum", "charpoly_identity", "gamma_nonneg", "block_determinant",
        "lemma_k_inequality", "cot_radius", "c_alpha_search",
    }


_real_gram_rows = frame.gram_rows


def _flipped_sign_gram(p, support):
    g = _real_gram_rows(p, support)
    g[0][1] = -g[0][1]
    return g


def _scale_one_over_p_gram(p, support):
    return [[1 + 0j if a == b else s * (1j / p) for b, s in zip(support, row)]
            for a, row in zip(support, sign_matrix(p, support).tolist())]


def test_verify_fault_injection_exit_7(capsys, monkeypatch):
    # a faulty analytic Gramian must fail both order-3 checks and map to exit 7
    for tampered in (_flipped_sign_gram, _scale_one_over_p_gram):
        monkeypatch.setattr(frame, "gram_rows", tampered)
        code, out, err = run_cli(capsys, "verify", "--p", "7")
        assert code == 7
        doc = json.loads(out)
        assert not doc["all_passed"]
        assert doc["failed"] == ["delta3_spectrum", "charpoly_identity"], tampered.__name__
        assert "verification failed" in err


def test_out_file_and_meta_sidecar(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, stdout, _ = run_cli(capsys, "estimate", "--p", "43", "--k", "8",
                              "--seed", "3", "--out", str(out_path))
    assert code == 0
    assert stdout == ""
    assert out_path.exists()
    meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta["command"] == "estimate"
    assert meta["seed"] == 3
    assert meta["parameters"]["p"] == 43
    assert meta["parameters"]["trials"] == 1
    assert "version" in meta and "wall_time_s" in meta


def test_usage_error_exit_4(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--p", "43"])  # missing --k
    assert exc.value.code == 4


_SCIPY_MODULES = 'print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)'
_RUN_CLI = """
import runpy
sys.argv = ["paleyrip", "bounds", "--p", "103", "--k", "5"]
try:
    runpy.run_module("paleyrip", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


@pytest.mark.parametrize("body", ["import paleyrip", _RUN_CLI], ids=["import", "bounds"])
def test_scipy_never_imported(body):
    res = subprocess.run(
        [sys.executable, "-c", f"import sys\n{body}\n{_SCIPY_MODULES}"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip().splitlines()[-1] == "[]"


def test_module_invocation_subprocess():
    res = subprocess.run(
        [sys.executable, "-m", "paleyrip", "bounds", "--p", "7", "--k", "3"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["p"] == 7


COMMANDS = ("frame", "gram", "bounds", "estimate", "fit", "demboratio", "conjecture", "verify")


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["--version"], ["bogus"], ["bogus", "--p", "7"], ["--p", "7", "frame"],
    ["frame", "--k", "3"], ["conjecture", "--p", "19", "--peel", "x"],
    *([cmd, "--help"] for cmd in COMMANDS)], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_exits_through_main(argv, capsys):
    # help and version print to stdout and exit 0; a usage error prints to stderr and exits 4
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    if "-h" in argv or "--help" in argv or "--version" in argv:
        assert exc.value.code == 0 and out and not err
    else:
        assert exc.value.code == errors.ParameterRangeError.exit_code and err and not out
        assert err.splitlines()[-1].startswith("paleyrip")


@pytest.mark.parametrize("argv", [
    "estimate --p 1000000007 --k 3",
    "demboratio --p 1000000007 --k 3",
    "gram --p 1000000007 --support 1,2,5",
    "conjecture --p 1000000007 --support 1,2,5",
    "conjecture --p 1000000007 --k 3 --trials 1",
    "verify --p 1000000007",
])
def test_legendre_table_bound_exit_4(argv, published):
    # the p-long Legendre table is refused past numtheory.CHI_TABLE_MAX_P, not built;
    # the entry's run is capped at check_outputs.AS_BYTES, where building it would fail
    assert published(argv) == ""
