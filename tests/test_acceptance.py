"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from paleyrip.bounds import (
    DEMBO_C,
    family_bounds,
    find_c_alpha,
)
from paleyrip.cli import main
from paleyrip.experiments import (
    dembo_ratio_study,
    estimate_rip_single,
    estimate_rip_worst,
    exact_rip,
    skew_spectral_radius,
)
from paleyrip.fit import fit_power_law
from paleyrip.frame import build_frame, gram_direct
from paleyrip.pairs import conjecture_search, one_sided_ratio
from paleyrip.rng import SplitMix64, random_subset
from paleyrip.spectra import BorderedBlock, gram_analytic, hermitian_spectrum
from paleyrip.verify import _closed_form_det, _lagrange_gamma, _lemma_k_holds

WORST_SET_19 = (1, 2, 18, 16, 15, 14, 8, 7, 6, 4)
RANDOM_SET_19 = (8, 15, 5, 13, 10, 2, 17, 4, 11, 18, 16, 0)


def _report(num: int, ok: bool, desc: str):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def test_criterion_01_gram_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for p in (7, 11, 19, 43, 103):
        f = build_frame(p)
        rng = SplitMix64(p)
        hi = min(p, 40)
        for _ in range(200):
            k = 2 + rng.below(hi - 1)
            support = random_subset(p, k, rng.next_u64())
            diff = np.abs(gram_analytic(p, support) - gram_direct(f, support)).max()
            worst = max(worst, diff)
    elapsed = time.monotonic() - t0
    _report(1, worst < 1e-12 and elapsed < 30.0,
            f"analytic vs direct Gramians, 5 primes x 200 supports: "
            f"max entrywise diff {worst:.2e} (tol 1e-12), {elapsed:.1f}s (< 30s)")


def test_criterion_02_delta2_delta3_exactness():
    d2 = exact_rip(7, 2)
    d3 = exact_rip(7, 3)
    ok = abs(d2 - 1 / math.sqrt(7)) < 1e-10 and abs(d3 - math.sqrt(3 / 7)) < 1e-10
    worst = 0.0
    for p in (7, 19, 103):
        rng = SplitMix64(p + 1)
        target = math.sqrt(3.0 / p)
        for _ in range(100):
            g = gram_analytic(p, random_subset(p, 3, rng.next_u64()))
            w = hermitian_spectrum(g)
            worst = max(worst, np.abs(w - np.array([1 - target, 1.0, 1 + target])).max())
    ok = ok and worst < 1e-10
    _report(2, ok,
            f"exact_rip(7,2)={d2:.12f}, exact_rip(7,3)={d3:.12f}; order-3 spectrum "
            f"deviation {worst:.2e} (tol 1e-10)")


def _charpoly_grid_residual(g, p) -> float:
    # float oracle: max |det(G - xI) - [(1-x)^3 - 3(1-x)/p]| over five points x
    return max(abs(np.linalg.det(g - x * np.eye(3)) - ((1.0 - x) ** 3 - 3.0 * (1.0 - x) / p))
               for x in (0.0, 0.5, 1.0, 1.5, 2.0))


def test_criterion_03_charpoly_identity():
    worst = 0.0
    for p in (7, 19, 103):
        rng = SplitMix64(p + 2)
        for _ in range(100):
            g = gram_analytic(p, random_subset(p, 3, rng.next_u64()))
            worst = max(worst, _charpoly_grid_residual(g, p))
    _report(3, worst < 1e-12,
            f"det(G-xI) vs (1-x)^3 - 3(1-x)/p on 5-point grid, 300 Gramians: "
            f"max residual {worst:.2e} (tol 1e-12)")


def _canonical_tournament(n: int) -> np.ndarray:
    # integer skew adjacency of the transitive tournament: +1 above, -1 below
    ones = np.ones((n, n), dtype=int)
    return np.triu(ones, 1) - np.tril(ones, -1)


def test_criterion_04_cot_radius_theorem():
    worst_eq = 0.0
    for n in range(2, 13):
        target = 1.0 / math.tan(math.pi / (2 * n))
        rho = skew_spectral_radius(_canonical_tournament(n))
        worst_eq = max(worst_eq, abs(rho - target))
    worst_excess = -math.inf
    rng = SplitMix64(404)
    for n in range(2, 11):
        target = 1.0 / math.tan(math.pi / (2 * n))
        for _ in range(200):
            c = np.zeros((n, n), dtype=int)
            for i in range(n):
                for j in range(i + 1, n):
                    s = 1.0 if rng.below(2) else -1.0
                    c[i, j], c[j, i] = s, -s
            worst_excess = max(worst_excess, skew_spectral_radius(c) - target)
    ok = worst_eq < 1e-12 and worst_excess <= 1e-12
    _report(4, ok,
            f"canonical tournament radius vs cot(pi/2n), n=2..12: error {worst_eq:.2e}; "
            f"1800 random orientations max excess {worst_excess:.2e} (tol 1e-12)")


def test_criterion_05_p1009_sparsity_thresholds():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bounds", "--p", "1009", "--k", "4"]) == 0
    doc = json.loads(out.getvalue())
    gersh = doc["max_sparsity"]["gershgorin"]["floor_threshold"]
    skew = doc["max_sparsity"]["skew_linear"]["floor_threshold"]
    _report(5, gersh == 23 and skew == 35,
            f"p=1009 printed thresholds: gershgorin {gersh} (want 23), "
            f"skew {skew} (want 35)")


def _families(k: int, p: int):
    return {name: val for name, val in family_bounds(k, p).items() if val is not None}


def test_criterion_06_bound_soundness():
    ok = True
    detail = []
    for k in range(2, 8):
        exact = exact_rip(7, k)
        for name, val in _families(k, 7).items():
            if val < exact - 1e-9:
                ok = False
                detail.append(f"p=7 k={k} {name}={val:.6f} < exact {exact:.6f}")
    for p in (19, 43):
        worst = estimate_rip_worst(p, 7, trials=2000, seed=606)
        for j in range(2, 8):
            for name, val in _families(j, p).items():
                if val < worst[j - 1] - 1e-9:
                    ok = False
                    detail.append(f"p={p} j={j} {name}={val:.6f} < d'={worst[j-1]:.6f}")
    _report(6, ok,
            "every family >= exhaustive RIP at p=7 (k<=7) and >= d'(j) from "
            f"2000 supports at p in {{19,43}}{'; ' + '; '.join(detail) if detail else ''}")


def test_criterion_07_dembo_vs_gershgorin_dominance():
    t0 = time.monotonic()
    ok = True
    for seed in range(20):
        for row in dembo_ratio_study(103, 30, seed=seed):
            if not (1.0 - 1e-9 <= row.dembo_ratio <= row.gershgorin_ratio + 1e-12):
                ok = False
    elapsed = time.monotonic() - t0
    _report(7, ok and elapsed < 20.0,
            f"p=103 k=30, 20 seeds: 1 <= dembo_ratio <= gershgorin_ratio on every row, "
            f"{elapsed:.1f}s (< 20s)")


def test_criterion_08_power_law_band():
    betas = []
    for seed in range(100):
        betas.append(fit_power_law(estimate_rip_single(103, 30, seed=seed))[0])
    med = statistics.median(betas)
    lo, hi = min(betas), max(betas)
    ok = 0.58 <= med <= 0.72 and lo >= 0.50 and hi <= 0.80
    _report(8, ok,
            f"fitted beta over 100 seeds: median {med:.4f} (in [0.58, 0.72]), "
            f"range [{lo:.4f}, {hi:.4f}] (within [0.50, 0.80])")


def test_criterion_09_figure2_stability():
    seed = 0
    single = estimate_rip_worst(103, 30, trials=1, seed=seed)
    worst = estimate_rip_worst(103, 30, trials=1000, seed=seed)
    b1 = fit_power_law(single)[0]
    b1000 = fit_power_law(worst)[0]
    diff = abs(b1000 - b1)
    _report(9, diff <= 0.08,
            f"slope stability, master seed {seed}: beta(1)={b1:.4f}, "
            f"beta(1000)={b1000:.4f}, |diff|={diff:.4f} (<= 0.08)")


def test_criterion_10_conjecture_numbers():
    # first experiment: the full residue set at p = 5
    r5 = conjecture_search(5, (0, 1, 2, 3, 4), alpha=0.8)
    ok = abs(r5.ratio - 1.0 / 3.0) < 1e-15 and r5.satisfied

    # worst-case set at p = 19: the printed numerator 2 reproduces at the
    # exhibited pair (values 8 and 7); the printed denominator 10 conflicts
    # with the one-sided set size |support| - 2 = 8, so the computed ratio is
    # 2/8 (the conjecture holds either way); the exhaustive best pair is even
    # perfectly balanced
    exhibited = one_sided_ratio(19, WORST_SET_19, 6, 7)
    ok = ok and abs(exhibited - 2.0 / 8.0) < 1e-15
    best = conjecture_search(19, WORST_SET_19, alpha=0.8)
    ok = ok and best.ratio <= exhibited and best.satisfied
    print("criterion 10 note: worst-case set ratio uses denominator "
          "|support|-2 = 8; the printed 2/10 divides the same numerator 2 by "
          "the full set size instead")

    # random 12-element set at p = 19, literal reading with 19 -> 0
    r12 = one_sided_ratio(19, RANDOM_SET_19, 0, 1)
    match = abs(r12 - 0.4) < 1e-15
    print(f"criterion 10 note: 12-element set read with 19 -> 0 mod 19; first-pair "
          f"ratio {r12} vs printed 0.4 ({'match' if match else 'MISMATCH, recorded'})")
    _report(10, ok,
            f"p=5 ratio {r5.ratio:.6f} (=1/3); worst-set exhibited-pair numerator "
            f"{int(round(exhibited * 8))} (=2), best ratio {best.ratio}; "
            f"12-element-set ratio {r12} vs printed 0.4 ({'match' if match else 'recorded mismatch'})")


@pytest.mark.xfail(strict=True,
                   reason="printed denominator 10 conflicts with |support|-2 = 8 "
                          "for the 10-element worst-case set; ratio definition wins")
def test_criterion_10_literal_two_tenths():
    best = conjecture_search(19, WORST_SET_19, alpha=0.8)
    assert abs(best.ratio - 0.2) < 1e-15


def _parts(v) -> list[tuple[float, float]]:
    # a complex vector as the (re, im) pairs verify's ring arithmetic reads
    return [(float(z.real), float(z.imag)) for z in v]


def test_criterion_11_block_determinant_identity():
    # the closed form (eta-x)^(k-2) q(x) and gamma = |c|^2 |d|^2 - |d.conj c|^2
    # are verify's ring arithmetic, here on float pairs, against a dense
    # LU determinant of the assembled matrix
    rng = SplitMix64(1111)
    worst_rel = 0.0
    min_gamma = math.inf
    p = 19
    s = 1.0 / math.sqrt(p)
    for _ in range(500):
        k = 2 + rng.below(9)
        sign = lambda: 1.0 if rng.below(2) else -1.0
        blk = BorderedBlock(
            a=1.0,
            b=1j * s * sign(),
            c=1j * s * np.array([sign() for _ in range(k)]),
            d=1j * s * np.array([sign() for _ in range(k)]),
            eta=1.0 + (rng.below(1000) / 1000.0 - 0.5) * s,
        )
        x = rng.below(2000) / 1000.0 - 0.5
        dense = np.linalg.det(blk.assemble() - x * np.eye(k + 2))
        c, d = _parts(blk.c), _parts(blk.d)
        closed, _ = _closed_form_det((blk.a, 0.0), (blk.b.real, blk.b.imag), c, d,
                                     (blk.eta, 0.0), (x, 0.0))
        rel = abs(closed - dense.real) / max(abs(dense.real), 1e-14)
        worst_rel = max(worst_rel, rel)
        min_gamma = min(min_gamma, _lagrange_gamma(c, d))
    ok = worst_rel <= 1e-10 and min_gamma >= -1e-14
    _report(11, ok,
            f"closed-form vs dense determinant on 500 instances: max rel err "
            f"{worst_rel:.2e} (tol 1e-10); min gamma {min_gamma:.2e} (>= -1e-14)")


def _lemma_k_squared_holds(c: Fraction, k: int) -> bool:
    # the step lemma squared at one k, in Fractions: R > t/2 and
    # t^2/4 + k + 1 < (R - t/2)^2, without verify's closed form
    t, r = k - 1 / (c * k), k + 1 - 1 / (c * (k + 1))
    return r > t / 2 and t * t / 4 + k + 1 < (r - t / 2) ** 2


def test_criterion_12_lemma_k_inequality():
    # verify's closed-form decision covers every k >= 1; each k up to 10^4
    # is also decided on its own, exactly
    failures, unproved = 0, 0
    for c in map(Fraction, (1.0, DEMBO_C, 2.0, 10.0)):
        unproved += not _lemma_k_holds(c)
        failures += sum(not _lemma_k_squared_holds(c, k) for k in range(1, 10_001))
    _report(12, failures == 0 and unproved == 0,
            f"step inequality holds for c in {{1, 1/(2(2-sqrt3)), 2, 10}}, "
            f"k = 1..10^4 ({failures} exact failures); for every k >= 1 "
            f"({unproved} constants unproved)")


def test_criterion_13_c_alpha_search():
    t0 = time.monotonic()
    c_star = find_c_alpha(0.8, 0.7)
    elapsed = time.monotonic() - t0

    def holds(c):
        return c > 10 and 60**10 * c**7 < (c - 10) ** 10

    ok = holds(c_star) and not holds(c_star - 1) and elapsed < 5.0
    flag = "matches" if c_star == 899_998 else (
        f"differs from the reported 899,998 (which "
        f"{'also satisfies the inequality' if holds(899_998) else 'fails'} "
        f"but is not minimal)"
    )
    _report(13, ok,
            f"smallest c = {c_star}, holds at c* and fails at c*-1; {flag}; "
            f"{elapsed:.2f}s (< 5s)")


def test_criterion_14_cli_determinism():
    commands = [
        ["estimate", "--p", "43", "--k", "10", "--trials", "50", "--seed", "3"],
        ["demboratio", "--p", "103", "--k", "20", "--seed", "5"],
        ["conjecture", "--p", "43", "--k", "8", "--trials", "40", "--seed", "9"],
    ]
    ok = True
    detail = []
    for cmd in commands:
        outputs = set()
        for _ in range(2):
            res = subprocess.run(
                [sys.executable, "-m", "paleyrip", *cmd],
                capture_output=True,
            )
            if res.returncode != 0:
                ok = False
                detail.append(f"{cmd[0]} exited {res.returncode}")
            outputs.add(res.stdout)
        if len(outputs) != 1:
            ok = False
            detail.append(f"{cmd[0]} produced {len(outputs)} distinct outputs")
    _report(14, ok,
            "byte-identical CSV across reruns for "
            f"estimate/demboratio/conjecture{'; ' + '; '.join(detail) if detail else ''}")
