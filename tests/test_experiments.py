import math
from itertools import combinations

import numpy as np
import pytest

from paleyrip.bounds import bound_dembo_recursive, bound_gershgorin
from paleyrip.errors import MalformedInputError, NotPrimeError, ParameterRangeError
from paleyrip.experiments import (
    conjecture_scan,
    conjecture_search,
    dembo_ratio_study,
    estimate_rip_single,
    estimate_rip_worst,
    exact_rip,
    fit_power_law,
    greedy_peel,
    one_sided_ratio,
)
from paleyrip.frame import SupportSet, build_frame, gram_analytic, gram_direct, sign_matrix
from paleyrip.rng import SplitMix64, random_subset, sub_seed
from paleyrip.spectra import hermitian_spectrum, skew_spectral_radius

# the worst-case and random sets of the residue-pair experiments at p = 19,
# literal values reduced mod p (19 -> 0)
WORST_SET_19 = (1, 2, 18, 16, 15, 14, 8, 7, 6, 4)
RANDOM_SET_19 = (8, 15, 5, 13, 10, 2, 17, 4, 11, 18, 16, 0)


# --- deterministic randomness -------------------------------------------------


def test_splitmix64_reference_outputs():
    # first outputs of the reference SplitMix64 stream for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_sub_seed_matches_stream():
    rng = SplitMix64(42)
    stream = [rng.next_u64() for _ in range(5)]
    assert [sub_seed(42, t) for t in range(5)] == stream


def test_random_subset_deterministic_and_valid():
    s1 = random_subset(103, 30, 7)
    s2 = random_subset(103, 30, 7)
    assert s1 == s2
    assert len(set(s1)) == 30
    assert all(0 <= x < 103 for x in s1)
    assert random_subset(103, 30, 8) != s1
    with pytest.raises(ValueError):
        random_subset(10, 11, 0)


def test_random_subset_coverage():
    # every residue shows up across many draws (loose uniformity check)
    seen = set()
    for seed in range(200):
        seen.update(random_subset(19, 5, seed))
    assert seen == set(range(19))


# --- d(j) curves ---------------------------------------------------------------


def test_estimate_single_deterministic_prefix_values():
    est = estimate_rip_single(103, 30, seed=2024)
    assert est.d[0] == 0.0
    assert abs(est.d[1] - 1 / math.sqrt(103)) < 1e-10
    assert abs(est.d[2] - math.sqrt(3.0 / 103.0)) < 1e-10
    # nondecreasing by interlacing, bounded by the disk bound
    assert np.all(np.diff(est.d) >= -1e-12)
    for j in range(1, 31):
        assert est.d[j - 1] <= bound_gershgorin(j, 103) + 1e-9
    again = estimate_rip_single(103, 30, seed=2024)
    assert np.array_equal(est.d, again.d)
    assert est.supports == again.supports


def test_estimate_single_matches_direct_eigensolve():
    est = estimate_rip_single(43, 9, seed=5)
    g = gram_analytic(43, est.supports[0])
    for j in range(2, 10):
        w = hermitian_spectrum(g[:j, :j])
        assert abs(est.d[j - 1] - max(w[-1] - 1, 1 - w[0])) < 1e-14


def test_estimate_worst_reduces_to_single():
    worst = estimate_rip_worst(43, 8, trials=1, seed=11)
    single = estimate_rip_single(43, 8, seed=sub_seed(11, 0))
    assert np.array_equal(worst.d, single.d)


def test_estimate_worst_dominates_and_is_thread_invariant():
    # the batched curve is exactly the max of the single-support curves, and
    # reruns are bit-identical; k = 60 at p = 103 packs 18 supports per
    # batch, so its 40 trials span two full batches and a partial one
    for p, k in ((43, 8), (103, 60)):
        worst = estimate_rip_worst(p, k, trials=40, seed=3)
        again = estimate_rip_worst(p, k, trials=40, seed=3)
        assert np.array_equal(worst.d, again.d)
        singles = [estimate_rip_single(p, k, seed=sub_seed(3, t)).d for t in range(40)]
        for d in singles:
            assert np.all(worst.d >= d)
        assert np.array_equal(worst.d, np.maximum.reduce(singles))
    with pytest.raises(ParameterRangeError):
        estimate_rip_worst(43, 8, trials=0, seed=3)


def test_estimate_validates_range():
    with pytest.raises(ParameterRangeError):
        estimate_rip_single(43, 1, seed=0)
    with pytest.raises(ParameterRangeError):
        estimate_rip_single(43, 44, seed=0)


# --- exhaustive oracle ----------------------------------------------------------


def test_exact_rip_small_orders():
    for p in (7, 19, 103):
        assert exact_rip(p, 1) == 0.0  # no pair {0, 1} to fix
        assert exact_rip(p, 2) == 1 / math.sqrt(p)
    full = skew_spectral_radius(sign_matrix(7, range(7))) / math.sqrt(7)
    assert abs(exact_rip(7, 7) - full) < 1e-12
    assert abs(exact_rip(7, 3) - math.sqrt(3.0 / 7.0)) < 1e-10
    assert exact_rip(7, 4) <= bound_dembo_recursive(4, 7)


@pytest.mark.parametrize("p, k", [(7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (11, 4), (19, 4)])
def test_exact_rip_matches_dense_brute_force(p, k):
    # the oracle exact_rip replaced: every k-subset's Gramian by explicit dot
    # products, both spectral extremes from a dense eigensolve
    frame = build_frame(p)
    worst = 0.0
    for subset in combinations(range(p), k):
        w = np.linalg.eigvalsh(gram_direct(frame, subset))
        worst = max(worst, w[-1] - 1.0, 1.0 - w[0])
    assert abs(exact_rip(p, k) - worst) < 1e-12


@pytest.mark.parametrize("p, k", [(19, 6), (19, 7), (23, 6)])
def test_exact_rip_matches_stacked_brute_force(p, k):
    # every one of the binomial(p, k) supports, not only the orbit
    # representatives exact_rip solves: C from the squares mod p, then a
    # dense eigvalsh of i C per stack
    squares = {x * x % p for x in range(1, p)}
    chi = np.array([0] + [1 if x in squares else -1 for x in range(1, p)])
    subsets = np.array(list(combinations(range(p), k)))
    worst = 0.0
    for chunk in np.array_split(subsets, 16):
        c = chi[(chunk[:, :, None] - chunk[:, None, :]) % p]
        worst = max(worst, np.abs(np.linalg.eigvalsh(1j * c)).max())
    assert abs(exact_rip(p, k) - worst / math.sqrt(p)) < 1e-12


def test_exact_rip_guard():
    with pytest.raises(ParameterRangeError):
        exact_rip(103, 20)
    # the guard counts binomial(p-2, k-2) representatives, not binomial(p, k)
    with pytest.raises(ParameterRangeError, match=r"binomial\(101, 4\)"):
        exact_rip(103, 6)
    assert math.comb(47, 5) > 10**6
    d5 = exact_rip(47, 5)
    assert estimate_rip_worst(47, 5, 200).d[-1] <= d5 <= bound_dembo_recursive(5, 47)


def test_exhaustive_worst_matches_exact_rip_p7():
    # once the random draws cover every support (at most 35 exist for any j
    # at p = 7), the worst-case curve equals the exhaustive oracle
    for j in (2, 3, 4, 5):
        worst = estimate_rip_worst(7, j, trials=600, seed=0, keep_supports=True)
        distinct = {tuple(sorted(s)) for s in worst.supports}
        assert len(distinct) == math.comb(7, j)  # full coverage for this seed
        assert abs(worst.d[j - 1] - exact_rip(7, j)) < 1e-10


# --- power-law fit ----------------------------------------------------------------


def test_fit_exact_power_law():
    k, p, beta = 30, 103, 0.7
    d = np.arange(1, k + 1) ** beta / math.sqrt(p)
    b, intercept, r2 = fit_power_law(d)
    assert abs(b - beta) < 1e-10
    assert abs(intercept - math.log(1 / math.sqrt(p))) < 1e-10
    assert abs(r2 - 1.0) < 1e-12


def test_fit_gershgorin_curve_slope():
    # log(j-1) vs log j has elasticity j/(j-1) > 1, so the OLS slope sits
    # above 1 and drifts toward it as the window grows
    p = 103
    d30 = np.arange(0, 30) / math.sqrt(p)
    b30, _, _ = fit_power_law(d30)
    assert abs(b30 - 1.1264086023873552) < 1e-10  # frozen closed-form OLS value
    d300 = np.arange(0, 300) / math.sqrt(p)
    b300, _, _ = fit_power_law(d300)
    assert 1.0 < b300 < b30


def test_fit_matches_polyfit():
    est = estimate_rip_single(103, 30, seed=9)
    b, intercept, _ = fit_power_law(est.d, j_min=3)
    j = np.arange(1, 31)
    mask = (j >= 3) & (est.d > 0)
    slope_ref, int_ref = np.polyfit(np.log(j[mask]), np.log(est.d[mask]), 1)
    assert abs(b - slope_ref) < 1e-12
    assert abs(intercept - int_ref) < 1e-12


def test_fit_insufficient_points():
    d = np.array([0.0, 0.1, 0.2, 0.3])
    with pytest.raises(MalformedInputError):
        fit_power_law(d, j_min=3)
    with pytest.raises(ParameterRangeError):
        fit_power_law(d, j_min=1)


# --- bound sharpness study ----------------------------------------------------------


def test_dembo_ratio_study_structure():
    rows = dembo_ratio_study(103, 30, seed=1)
    assert [r.j for r in rows] == list(range(2, 31))
    first = rows[0]
    # order 2: the previous block is 1x1, both bounds collapse to 1 + 1/sqrt(p)
    assert abs(first.dembo_bound - (1 + 1 / math.sqrt(103))) < 1e-12
    assert abs(first.gershgorin_bound - (1 + 1 / math.sqrt(103))) < 1e-12
    assert abs(first.dembo_ratio - first.gershgorin_ratio) < 1e-12
    for r in rows:
        assert r.dembo_ratio >= 1.0 - 1e-9
        assert r.gershgorin_ratio >= 1.0 - 1e-9
        assert r.dembo_ratio <= r.gershgorin_ratio + 1e-12


def test_dembo_ratio_study_lambda_column():
    rows = dembo_ratio_study(19, 8, seed=4)
    support = random_subset(19, 8, 4)
    g = gram_analytic(19, support)
    for r in rows:
        w = hermitian_spectrum(g[: r.j, : r.j])
        assert abs(r.lambda_max - w[-1]) < 1e-12


# --- residue pair experiments ----------------------------------------------------------


def test_one_sided_ratio_p5():
    assert abs(one_sided_ratio(5, (0, 1, 2, 3, 4), 0, 1) - 1.0 / 3.0) < 1e-15


def test_one_sided_ratio_p19_random_set():
    # three of the ten products are -1, seven are +1: |sum| = 4, ratio 0.4
    assert abs(one_sided_ratio(19, RANDOM_SET_19, 0, 1) - 0.4) < 1e-15


def test_one_sided_ratio_p19_worst_first_pair():
    # the set is built so every difference from its first two elements is a
    # residue: all ten products are +1 for the pair (0, 1)
    assert one_sided_ratio(19, WORST_SET_19, 0, 1) == 1.0


def test_one_sided_ratio_exhibited_pair_numerator():
    # the exhibited balanced pair has values (8, 7) at positions (6, 7);
    # its character sum is -2 over the 8 remaining elements
    assert abs(one_sided_ratio(19, WORST_SET_19, 6, 7) - 2.0 / 8.0) < 1e-15


def test_one_sided_ratio_sign_identity():
    # chi(r_i - r_l) chi(r_i - r_l + a) with a = r_j - r_i equals
    # chi(r_i - r_l) chi(r_j - r_l); exhaustive over small supports
    from paleyrip.numtheory import legendre

    for p in (7, 11, 19, 43):
        support = random_subset(p, min(6, p - 1), 123)
        for i in range(len(support)):
            for j in range(len(support)):
                if i == j:
                    continue
                a = support[j] - support[i]
                for l in range(len(support)):
                    if l in (i, j):
                        continue
                    x = support[i] - support[l]
                    assert legendre(x, p) * legendre(x + a, p) == \
                        legendre(x, p) * legendre(support[j] - support[l], p)


def test_one_sided_ratio_size3():
    for p in (7, 19):
        for seed in range(10):
            support = random_subset(p, 3, seed)
            r = one_sided_ratio(p, support, 0, 1)
            assert r in (0.0, 1.0)


def test_one_sided_ratio_validation():
    with pytest.raises(ParameterRangeError):
        one_sided_ratio(19, (1, 2), 0, 1)
    with pytest.raises(ParameterRangeError):
        one_sided_ratio(19, (1, 2, 3), 0, 0)
    with pytest.raises(NotPrimeError):
        one_sided_ratio(9, (1, 2, 3), 0, 1)


def test_conjecture_functions_reject_p2_as_range_error():
    with pytest.raises(ParameterRangeError):
        one_sided_ratio(2, (0, 1, 2), 0, 1)
    with pytest.raises(ParameterRangeError):
        conjecture_search(2, (0, 1, 2))
    with pytest.raises(ParameterRangeError):
        greedy_peel(2, (0, 1, 2, 3, 4))
    with pytest.raises(ParameterRangeError):
        conjecture_scan(2, 3, trials=1)


def test_conjecture_search_p5():
    rec = conjecture_search(5, SupportSet(5, (0, 1, 2, 3, 4)), alpha=0.8)
    assert rec.ratio == pytest.approx(1.0 / 3.0)
    assert rec.numerator == 1
    assert rec.satisfied
    # works at p = 5 even though no frame exists there


def test_conjecture_search_worst_set():
    rec = conjecture_search(19, SupportSet(19, WORST_SET_19), alpha=0.8)
    # a perfectly balanced pair exists, beating the exhibited 2/8 pair
    assert rec.ratio == 0.0
    assert rec.numerator == 0
    assert rec.satisfied
    # the minimum can never exceed the exhibited pair's ratio
    assert rec.ratio <= one_sided_ratio(19, WORST_SET_19, 6, 7)


def test_conjecture_search_tie_breaking():
    # symmetric summand: ordered scan lands on the lexicographically
    # smallest position pair among minimizers
    rec = conjecture_search(19, SupportSet(19, WORST_SET_19))
    i, j = rec.pair
    assert i < j
    others = [
        (a, b)
        for a in range(10)
        for b in range(10)
        if a != b and abs(one_sided_ratio(19, WORST_SET_19, a, b) - rec.ratio) < 1e-12
    ]
    assert rec.pair == min(others)


def test_conjecture_search_matches_pair_loop():
    # reference: the ordered double loop over position pairs with Legendre
    # symbols by Euler's criterion, first strict minimum wins
    from paleyrip.numtheory import legendre

    rng = SplitMix64(31)
    for p in (7, 19, 43, 103):
        for _ in range(10):
            support = random_subset(p, 3 + rng.below(min(p, 12) - 2), rng.next_u64())
            k = len(support)
            best = None
            for i in range(k):
                for j in range(k):
                    if i == j:
                        continue
                    n = abs(sum(legendre(support[i] - support[l], p)
                                * legendre(support[j] - support[l], p)
                                for l in range(k) if l not in (i, j)))
                    if best is None or n < best[0]:
                        best = (n, i, j)
            rec = conjecture_search(p, support)
            assert (rec.numerator, *rec.pair) == best


def test_greedy_peel_trace_shape():
    support = random_subset(43, 12, 77)
    trace = greedy_peel(43, support, alpha=0.8, m_alpha=5)
    # 12 -> 10 -> 8 -> 6 -> 4: four records, residual m_alpha - 1
    assert len(trace) == 4
    support5 = random_subset(43, 5, 78)
    assert len(greedy_peel(43, support5, alpha=0.8, m_alpha=5)) == 1
    with pytest.raises(ParameterRangeError):
        greedy_peel(43, random_subset(43, 4, 79), alpha=0.8, m_alpha=5)


def test_greedy_peel_monte_carlo_support():
    # empirical support for the pair conjecture at alpha = 0.8 (reported, not
    # a theorem): every peeling step on seeded random supports stays below
    rng = SplitMix64(1234)
    total = satisfied = 0
    for p in (19, 43, 103):
        cap = min(int(p**0.8), 40)
        for _ in range(60):
            k = 5 + rng.below(max(cap - 4, 1))
            support = random_subset(p, k, rng.next_u64())
            for rec in greedy_peel(p, support, alpha=0.8, m_alpha=5):
                total += 1
                satisfied += rec.satisfied
    assert total > 0
    print(f"peel records satisfied at alpha=0.8: {satisfied}/{total}")


def test_conjecture_scan_p5_full_support():
    summary = conjecture_scan(5, 5, trials=10, alpha=0.8, seed=0)
    # only one support exists at k = p = 5
    assert summary.worst_ratio == pytest.approx(1.0 / 3.0)
    assert summary.fraction_satisfied == 1.0


def test_conjecture_scan_monotone_in_trials():
    w50 = conjecture_scan(43, 8, trials=50, seed=9).worst_ratio
    w200 = conjecture_scan(43, 8, trials=200, seed=9).worst_ratio
    assert w200 >= w50


def test_conjecture_scan_thread_invariant():
    # every record equals a search on its trial's own support, and reruns
    # agree; (103, 60, 40) spans three stacked batches, the last partial
    for p, k, trials in ((43, 8, 30), (103, 60, 40)):
        s1 = conjecture_scan(p, k, trials=trials, seed=5)
        s2 = conjecture_scan(p, k, trials=trials, seed=5)
        assert s1.records == s2.records
        assert s1.worst_ratio == s2.worst_ratio
        for t, rec in enumerate(s1.records):
            support = random_subset(p, k, sub_seed(5, t))
            assert rec == conjecture_search(p, SupportSet(p, support))
            assert rec.satisfied == (rec.ratio < rec.alpha)


def test_conjecture_scan_alpha_one():
    # ratio <= 1 always, so alpha = 1 satisfies every trial unless some
    # support's best pair sits exactly at 1
    s = conjecture_scan(19, 8, trials=50, alpha=1.0, seed=2)
    assert 0.0 <= s.worst_ratio <= 1.0
    if s.worst_ratio < 1.0:
        assert s.fraction_satisfied == 1.0
