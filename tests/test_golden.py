"""Golden stdout of the README's frame, bounds, gram, experiment, fit and verify commands, and the oracles behind them.

The files under tests/golden/ pin the exact bytes each command prints with
one BLAS thread (conftest.py pins it; the eigensolver's last digits depend on
the thread count).  A kernel change that moves a last digit must regenerate
them on purpose, with one thread:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src \\
        python -m paleyrip estimate --p 103 --k 30 --seed 1 \\
        > tests/golden/estimate-p103-k30-seed1.csv

and so on for every entry of COMMANDS (the fit entries read their input
from tests/golden/).  Independently of the bytes, every ripcurve and
demboratio value is checked against dense eigvalsh of the Gramians of the
same seeded supports, formed by one numpy product of the frame's columns
(the pure-Python gram_direct is slow at p = 1019, k = 200), to 1e-12, and
the fit of every ripcurve golden against numpy's least squares, to 1e-12.
"""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from paleyrip.bounds import family_bounds
from paleyrip.cli import main
from paleyrip.fit import fit_power_law
from paleyrip.frame import build_frame
from paleyrip.rng import random_subset, sub_seed
from paleyrip.spectra import dembo_upper

GOLDEN = Path(__file__).parent / "golden"


def _support(values) -> str:
    return ",".join(map(str, values))


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
    "conjecture-p1019-k200-trials100-seed7.csv":  # the montecarlo benchmark's scan size
        ["conjecture", "--p", "1019", "--k", "200", "--trials", "100", "--seed", "7"],
    "frame-p7.json":  # the numpy frame's bytes, signed zeros included
        ["frame", "--p", "7"],
    "frame-p19.json":
        ["frame", "--p", "19"],
    "gram-p7-support0-1-3.json":  # pins the signed zeros of the real parts
        ["gram", "--p", "7", "--support", "0,1,3"],
    "gram-p7-support0-1-3-direct.json":  # Python's left-to-right complex sums
        ["gram", "--p", "7", "--support", "0,1,3", "--method", "direct"],
    "conjecture-p5-support0-4.json":
        ["conjecture", "--p", "5", "--support", "0,1,2,3,4"],
    "conjecture-p43-peel.json":
        ["conjecture", "--p", "43", "--support", "1,5,9,12,17,20,22,30,33,38,40,41", "--peel"],
    "gram-p19-k8.json":
        ["gram", "--p", "19", "--support", "3,18,0,7,12,1,9,14"],
    "conjecture-p13-k8.json":  # p = 1 (mod 4): the sign matrix is symmetric
        ["conjecture", "--p", "13", "--support", "2,11,5,0,7,12,8,3"],
    "conjecture-p103-k70-seed5.json":  # past one 64-bit word
        ["conjecture", "--p", "103", "--support", _support(random_subset(103, 70, 5))],
    "conjecture-p1019-k201-seed3-peel.json":  # odd k, 99 steps
        ["conjecture", "--p", "1019", "--support", _support(random_subset(1019, 201, 3)),
         "--peel"],
    "bounds-p1009-k4.json":
        ["bounds", "--p", "1009", "--k", "4"],
    "bounds-p103-k30-beta0.7.json":
        ["bounds", "--p", "103", "--k", "30", "--beta", "0.7"],
    "bounds-p7-k2.json":  # pins the null recursive families below k = 3
        ["bounds", "--p", "7", "--k", "2"],
    "fit-estimate-p103-k30-seed1.json":
        ["fit", "--input", str(GOLDEN / "estimate-p103-k30-seed1.csv")],
    "fit-estimate-p103-k30-trials1000-seed1.json":
        ["fit", "--input", str(GOLDEN / "estimate-p103-k30-trials1000-seed1.csv")],
    "verify-p103.json":
        ["verify", "--p", "103"],
    "verify-p7.json":
        ["verify", "--p", "7"],
}
ESTIMATES = [name for name in sorted(COMMANDS) if name.startswith("estimate-")]


def _rows(name: str) -> list[dict]:
    with open(GOLDEN / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _dense_extremes(p: int, supports, k: int) -> list[tuple[float, float]]:
    """(min lambda_min, max lambda_max) over the supports' j-prefix Gramians, j = 1..k."""
    frame = np.asarray(build_frame(p).entries)
    cols = np.stack([frame[:, list(s)] for s in supports])
    g = cols.transpose(0, 2, 1) @ cols.conj()
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
        assert float(r["gershgorin"]) == family_bounds(int(r["j"]), p)["gershgorin"]


def _numpy_fit(d, j_min: int = 3) -> tuple[float, float, float]:
    """The oracle: the least-squares fit in numpy arrays and numpy's pairwise sums."""
    d = np.asarray(d, dtype=float)
    j = np.arange(1, len(d) + 1)
    mask = (j >= j_min) & (d > 0.0) & np.isfinite(d)
    x = np.log(j[mask].astype(float))
    y = np.log(d[mask])
    xm, ym = float(x.mean()), float(y.mean())
    beta = float(np.sum((x - xm) * (y - ym))) / float(np.sum((x - xm) ** 2))
    intercept = ym - beta * xm
    resid = y - (beta * x + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((y - ym) ** 2))
    return beta, intercept, r2


@pytest.mark.parametrize("name", ESTIMATES)
def test_golden_fit_matches_numpy_formula(name):
    d = [float(r["d"]) for r in _rows(name)]
    for got, want in zip(fit_power_law(d), _numpy_fit(d)):
        assert abs(got - want) < 1e-12


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
