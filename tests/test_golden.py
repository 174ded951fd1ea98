"""Golden stdout of the README's gram and experiment commands, and the oracles behind it.

The files under tests/golden/ pin the exact bytes each command prints with
one BLAS thread (conftest.py pins it; the eigensolver's last digits depend on
the thread count).  A kernel change that moves a last digit must regenerate
them on purpose, with one thread:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src \\
        python -m paleyrip estimate --p 103 --k 30 --seed 1 \\
        > tests/golden/estimate-p103-k30-seed1.csv

and so on for every entry of COMMANDS.  Independently of the bytes, every
ripcurve and demboratio value is checked against dense eigvalsh of
gram_direct prefixes of the same seeded supports, to 1e-12.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from paleyrip.bounds import bound_gershgorin
from paleyrip.cli import main
from paleyrip.frame import build_frame, gram_direct
from paleyrip.rng import random_subset, sub_seed
from paleyrip.spectra import dembo_upper

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "estimate-p103-k30-seed1.csv":
        ["estimate", "--p", "103", "--k", "30", "--seed", "1"],
    "estimate-p103-k30-trials1000-seed1.csv":
        ["estimate", "--p", "103", "--k", "30", "--trials", "1000", "--seed", "1"],
    "estimate-p1019-k200-trials5-seed1.csv":
        ["estimate", "--p", "1019", "--k", "200", "--trials", "5", "--seed", "1"],
    "demboratio-p103-k30-seed1.csv":
        ["demboratio", "--p", "103", "--k", "30", "--seed", "1"],
    "conjecture-p19-k12-trials500-seed7.csv":
        ["conjecture", "--p", "19", "--k", "12", "--trials", "500", "--seed", "7"],
    "gram-p7-support0-1-3.json":  # pins the signed zeros of the real parts
        ["gram", "--p", "7", "--support", "0,1,3"],
    "conjecture-p5-support0-4.json":
        ["conjecture", "--p", "5", "--support", "0,1,2,3,4"],
    "conjecture-p43-peel.json":
        ["conjecture", "--p", "43", "--support", "1,5,9,12,17,20,22,30,33,38,40,41", "--peel"],
}


def _rows(name: str) -> list[dict]:
    with open(GOLDEN / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _dense_extremes(p: int, supports, k: int) -> list[tuple[float, float]]:
    """(min lambda_min, max lambda_max) over the supports' j-prefix Gramians, j = 1..k."""
    frame = build_frame(p)
    g = np.stack([gram_direct(frame, s) for s in supports])
    out = []
    for j in range(1, k + 1):
        w = np.linalg.eigvalsh(g[:, :j, :j])
        out.append((float(w[:, 0].min()), float(w[:, -1].max())))
    return out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout_bytes(name, capsys):
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, trials", [
    ("estimate-p103-k30-seed1.csv", 1),
    ("estimate-p103-k30-trials1000-seed1.csv", 1000),
    ("estimate-p1019-k200-trials5-seed1.csv", 5),
])
def test_golden_ripcurve_matches_dense_oracle(name, trials):
    args = COMMANDS[name]
    p, k, seed = (int(args[args.index(flag) + 1]) for flag in ("--p", "--k", "--seed"))
    if trials == 1:
        supports = [random_subset(p, k, seed)]
    else:
        supports = [random_subset(p, k, sub_seed(seed, t)) for t in range(trials)]
    rows = _rows(name)
    assert [int(r["j"]) for r in rows] == list(range(1, k + 1))
    for r, (lo, hi) in zip(rows, _dense_extremes(p, supports, k)):
        assert abs(float(r["d"]) - max(hi - 1.0, 1.0 - lo)) < 1e-12
        assert float(r["gershgorin"]) == bound_gershgorin(int(r["j"]), p)


def test_golden_demboratio_matches_dense_oracle():
    p, k, seed = 103, 30, 1
    rows = _rows("demboratio-p103-k30-seed1.csv")
    assert [int(r["j"]) for r in rows] == list(range(2, k + 1))
    tops = [hi for _, hi in _dense_extremes(p, [random_subset(p, k, seed)], k)]
    for r in rows:
        j = int(r["j"])
        lam = float(r["lambda_max"])
        assert abs(lam - tops[j - 1]) < 1e-12
        assert abs(float(r["dembo_bound"]) - dembo_upper(1.0, tops[j - 2], (j - 1) / p)) < 1e-12
        assert float(r["gershgorin_bound"]) == 1.0 + (j - 1) / math.sqrt(p)
        assert abs(float(r["dembo_ratio"]) - float(r["dembo_bound"]) / lam) < 1e-12
        assert abs(float(r["gershgorin_ratio"]) - float(r["gershgorin_bound"]) / lam) < 1e-12
