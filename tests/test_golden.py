"""Golden stdout of every published output, and the oracles behind them.

tests/golden/manifest.json lists the command contracts, one entry each: the
argv, the golden file under tests/golden/ (none for `--help`, `--version`
and the errors, which pin an exit code and a stderr line instead), whether
it runs without numpy, and for some a note on what the entry pins.  Here
every golden command runs in process and must print its file's bytes, the
cheap check whose failure shows a diff; tests/test_startup.py runs each
entry once more, in a fresh interpreter through tests/check_outputs.py,
which adds start-up, the blocked imports and the exit codes.  The goldens
pin the bytes printed with one BLAS thread (conftest.py pins it; the
eigensolver's last digits depend on the thread count).  A kernel change
that moves a last digit must regenerate them on purpose, with one thread,
from the repository root:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=src \\
        python -m paleyrip estimate --p 103 --k 30 --seed 1 \\
        > tests/golden/estimate-p103-k30-seed1.csv

and so on for every manifest entry with a golden (the fit entries read the
estimate goldens, so write those first).  Independently of the bytes,
every ripcurve and demboratio value is checked against dense eigvalsh of the
Gramians of the same seeded supports, formed by one numpy product of the
frame's columns (the pure-Python gram_direct is slow at p = 1019, k = 200),
to 1e-12, and the fit of every ripcurve golden against numpy's least
squares, to 1e-12.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from paleyrip.bounds import family_bounds
from paleyrip.cli import main
from paleyrip.experiments import dembo_upper
from paleyrip.fit import fit_power_law
from paleyrip.frame import build_frame
from paleyrip.rng import random_subset, sub_seed

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
PINNED = {entry["golden"]: entry["argv"] for entry in MANIFEST if "golden" in entry}
ESTIMATES = [name for name in sorted(PINNED) if name.startswith("estimate-") and name.endswith(".csv")]


def _ints(name: str, *flags: str):
    """The values of flags in the argv of golden name, as ints."""
    return (int(PINNED[name][PINNED[name].index(flag) + 1]) for flag in flags)


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


def test_manifest_lists_every_golden():
    names = [entry["golden"] for entry in MANIFEST if "golden" in entry]
    assert len(names) == len(set(names))
    assert set(names) == {path.name for path in GOLDEN.iterdir()} - {"manifest.json"}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_golden_stdout_bytes(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # where the fit entries' input paths start
    assert main(PINNED[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, trials", [
    ("estimate-p103-k30-seed1.csv", 1),
    ("estimate-p103-k30-trials1000-seed1.csv", 1000),
    ("estimate-p1019-k200-trials5-seed1.csv", 5),
    ("estimate-p19-k19-trials3-seed1.csv", 3),
])
def test_golden_ripcurve_matches_dense_oracle(name, trials):
    p, k, seed = _ints(name, "--p", "--k", "--seed")
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


def test_fit_window_stops_before_the_ceiling():
    # at p = 19, d(j) = 1 from j = (p+3)/2 = 11 on: fit reads d(1..10) only
    d = [float(r["d"]) for r in _rows("estimate-p19-k19-trials3-seed1.csv")]
    assert d[9] < 1.0 and d[10:] == [1.0] * 9
    doc = json.loads((GOLDEN / "fit-estimate-p19-k19-trials3-seed1.json").read_text())
    assert (doc["beta"], doc["intercept"], doc["r2"]) == fit_power_law(d[:10])
    assert doc["window"] == {"j_min": 3, "k": 10}


def test_golden_demboratio_matches_dense_oracle():
    names = [name for name in sorted(PINNED) if name.startswith("demboratio-")]
    assert len(names) == 2
    for name in names:
        p, k, seed = _ints(name, "--p", "--k", "--seed")
        rows = _rows(name)
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
