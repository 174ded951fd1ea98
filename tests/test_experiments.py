import math
import time
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paleyrip import experiments, pairs, rng, spectra
from paleyrip.bounds import family_bounds
from paleyrip.errors import (
    MalformedInputError,
    NonHermitianError,
    NotPrimeError,
    ParameterRangeError,
)
from paleyrip.experiments import (
    _INTERLACING_SLACK,
    STACK_ENTRIES,
    dembo_ratio_study,
    estimate_rip_single,
    estimate_rip_worst,
    exact_rip,
)
from paleyrip.fit import fit_power_law
from paleyrip.frame import build_frame, gram_analytic, gram_direct, sign_matrix
from paleyrip.numtheory import is_prime
from paleyrip.pairs import (
    conjecture_scan,
    conjecture_search,
    cot_witness,
    greedy_peel,
    one_sided_ratio,
)
from paleyrip.rng import SplitMix64, random_subset, random_subsets, sub_seed
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
       st.sampled_from([0, 1, 2, 5000]))
@example(0, 5000)
@example(2**64 - 1, 5000)
def test_next_u64s_matches_scalar_stream(seed, n):
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    out = bulk.next_u64s(n)
    assert out == [scalar.next_u64() for _ in range(n)]
    assert bulk.next_u64() == scalar.next_u64()  # same state after the draw


def test_sub_seed_matches_stream():
    rng = SplitMix64(42)
    stream = [rng.next_u64() for _ in range(5)]
    assert [sub_seed(42, t) for t in range(5)] == stream


def test_samplers_reject_k_with_check_k_message():
    for sampler in (lambda k: random_subset(10, k, 0), lambda k: random_subsets(10, k, [0])):
        for k in (0, 11):
            with pytest.raises(ParameterRangeError, match=rf"k must be in \[1, p\], got k={k}, p=10"):
                sampler(k)


def test_random_subset_deterministic_and_valid():
    s1 = random_subset(103, 30, 7)
    s2 = random_subset(103, 30, 7)
    assert s1 == s2
    assert len(set(s1)) == 30
    assert all(0 <= x < 103 for x in s1)
    assert random_subset(103, 30, 8) != s1
    with pytest.raises(ParameterRangeError):
        random_subset(10, 11, 0)
    with pytest.raises(ParameterRangeError):
        random_subsets(10, 11, [0])
    with pytest.raises(ParameterRangeError):
        SplitMix64(0).below(0)


def test_random_subset_coverage():
    # every residue shows up across many draws (loose uniformity check)
    seen = set()
    for seed in range(200):
        seen.update(random_subset(19, 5, seed))
    assert seen == set(range(19))


def _fisher_yates(p, k, seed):
    # the partial Fisher-Yates shuffle over a full list of p slots, the oracle
    # of random_subset's dict of moved slots and of random_subsets' lanes
    stream = SplitMix64(seed)
    arr = list(range(p))
    for i in range(k):
        j = i + stream.below(p - i)
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(arr[:k])


def _seeds(trials):
    # -1 and 2^64 + 5 are taken mod 2^64, as SplitMix64 takes them
    return [0, 2**64 - 1, -1, 2**64 + 5] + [sub_seed(3, t) for t in range(trials)]


@pytest.mark.parametrize("p", [13, 1019, 100003])
def test_random_subset_is_fisher_yates(p):
    # k between 1 and p, and a p whose full slot list the scalar draw never builds
    seeds = _seeds(6)
    for k in (2, min(p // 2 + 1, 300)):
        rows = random_subsets(p, k, seeds).tolist()
        for row, seed in zip(rows, seeds):
            assert random_subset(p, k, seed) == _fisher_yates(p, k, seed) == tuple(row)


@pytest.mark.parametrize("p", [3, 7, 19, 103, 1019])
@pytest.mark.parametrize("k", ["one", "p"])
def test_random_subsets_match_scalar_oracle(p, k, monkeypatch):
    # five rows per draw batch, so the 19 trials span four batches
    k = 1 if k == "one" else p
    monkeypatch.setattr(rng, "_DRAW_ENTRIES", 5 * p)
    seeds = _seeds(15)
    rows = random_subsets(p, k, seeds)
    assert rows.shape == (len(seeds), k)
    for row, seed in zip(rows.tolist(), seeds):
        assert tuple(row) == _fisher_yates(p, k, seed) == random_subset(p, k, seed)


@pytest.mark.parametrize("p", [7, 19, 103])
def test_random_subsets_redraw_rejected_lanes(p, monkeypatch):
    # a mixer that returns 2^64 - 1, which below(n) rejects for every n that
    # is not a power of two, on one output in 23 forces the redraw branch of
    # random_subsets and the rejection loop of random_subset's below()
    seeds = _seeds(40)
    plain = [random_subset(p, p, seed) for seed in seeds]
    mix = rng._mix
    scalar_mixes = []
    forced_scalar = []

    def forced(z):
        u = mix(z)
        if isinstance(u, int):
            scalar_mixes.append(z)
            if u % 23 == 0:
                forced_scalar.append(z)
                return rng._MASK
            return u
        return np.where(u % np.uint64(23) == 0, np.uint64(rng._MASK), u)

    monkeypatch.setattr(rng, "_mix", forced)
    rows = random_subsets(p, p, seeds).tolist()
    assert scalar_mixes  # some lane was redrawn
    want = [_fisher_yates(p, p, seed) for seed in seeds]
    assert [tuple(r) for r in rows] == want
    forced_scalar.clear()
    assert [random_subset(p, p, seed) for seed in seeds] == want
    assert forced_scalar  # the scalar draw met rejected outputs
    assert want != plain  # and drew again past them


# --- d(j) curves ---------------------------------------------------------------


def test_estimate_single_deterministic_prefix_values():
    d = estimate_rip_single(103, 30, seed=2024)
    assert d.dtype == np.float64 and d.shape == (30,)
    assert d[0] == 0.0
    assert abs(d[1] - 1 / math.sqrt(103)) < 1e-10
    assert abs(d[2] - math.sqrt(3.0 / 103.0)) < 1e-10
    # nondecreasing by interlacing, bounded by the disk bound
    assert np.all(np.diff(d) >= -1e-12)
    # a k = p curve ties at its top orders, where a computed value may dip
    # by a rounding step, never by more than the interlacing slack
    full = estimate_rip_single(103, 103, seed=2024)
    assert np.all(full[1:] >= full[:-1] * (1.0 - _INTERLACING_SLACK))
    for j in range(1, 31):
        assert d[j - 1] <= family_bounds(j, 103)["gershgorin"] + 1e-9
    assert np.array_equal(d, estimate_rip_single(103, 30, seed=2024))


def test_estimate_single_matches_direct_eigensolve():
    d = estimate_rip_single(43, 9, seed=5)
    g = gram_analytic(43, random_subset(43, 9, 5))
    for j in range(2, 10):
        w = hermitian_spectrum(g[:j, :j])
        assert abs(d[j - 1] - max(w[-1] - 1, 1 - w[0])) < 1e-14


def test_estimate_worst_reduces_to_single():
    worst = estimate_rip_worst(43, 8, trials=1, seed=11)
    single = estimate_rip_single(43, 8, seed=sub_seed(11, 0))
    assert np.array_equal(worst, single)


def test_estimate_worst_is_max_of_singles_and_rerun_identical():
    # the batched curve is exactly the max of the single-support curves, and
    # reruns are bit-identical; k = 60 at p = 1019 packs 18 supports per
    # batch, so its 40 trials span two full batches and a partial one
    for p, k in ((43, 8), (1019, 60)):
        worst = estimate_rip_worst(p, k, trials=40, seed=3)
        assert np.array_equal(worst, estimate_rip_worst(p, k, trials=40, seed=3))
        singles = [estimate_rip_single(p, k, seed=sub_seed(3, t)) for t in range(40)]
        for d in singles:
            assert np.all(worst >= d)
        assert np.array_equal(worst, np.maximum.reduce(singles))


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
def test_trial_rule_lives_in_rng(seed):
    # both Monte Carlo experiments draw trial t with sub_seed(seed, t), and
    # both refuse fewer than one trial through rng.trial_seeds
    assert rng.trial_seeds(seed, 7) == [sub_seed(seed, t) for t in range(7)]
    for trials in (0, -1):
        with pytest.raises(ParameterRangeError, match="trials must be >= 1"):
            estimate_rip_worst(43, 8, trials=trials, seed=seed)
        with pytest.raises(ParameterRangeError, match="trials must be >= 1"):
            conjecture_scan(19, 5, trials=trials, seed=seed)


def _unpruned_worst_curve(p, k, trials, seed):
    # every trial solved at every prefix order, one stack per order
    idx = np.array([random_subset(p, k, sub_seed(seed, t)) for t in range(trials)])
    c = sign_matrix(p, idx)
    rho = [0.0] + [skew_spectral_radius(c[:, :j, :j]).max() for j in range(2, k + 1)]
    return np.array(rho) / math.sqrt(p)


def _assert_matches_unpruned(d, p, k, trials, seed):
    # bit for bit up to order (p+1)/2; above it the walk's 1.0 is exact and
    # the solved reference is within 1e-12 of it
    want = _unpruned_worst_curve(p, k, trials, seed)
    top = (p + 1) // 2
    assert np.array_equal(d[:top], want[:top])
    assert np.all(d[top:] == 1.0)
    assert np.all(np.abs(want[top:] - 1.0) < 1e-12)


@pytest.mark.parametrize("p, k, trials", [
    (19, 12, 500), (7, 7, 50), (103, 60, 40), (1019, 60, 30), (103, 60, 300), (1019, 60, 300),
])
def test_estimate_worst_matches_unpruned_reference(p, k, trials):
    # (19, 12, 500) is tie-heavy; (103, 60, 40) spans several stacks; every
    # case at p <= 103 passes (p+3)/2; (1019, 60, 300) spans two stored
    # groups, the first not a whole number of stacks
    _assert_matches_unpruned(estimate_rip_worst(p, k, trials, seed=4), p, k, trials, seed=4)


@pytest.mark.parametrize("p, k", [(19, 19), (103, 60), (1019, 80)])
def test_computed_radii_interlace_within_slack(p, k):
    # the prune's premise: a trial's computed radius at order j is at most
    # its computed radius at every higher order, up to the relative slack
    idx = np.array([random_subset(p, k, sub_seed(8, t)) for t in range(40)])
    c = sign_matrix(p, idx)
    rho = np.stack([skew_spectral_radius(c[:, :j, :j]) for j in range(2, k + 1)], axis=1)
    later_min = np.minimum.accumulate(rho[:, ::-1], axis=1)[:, ::-1]
    assert np.all(rho <= later_min * (1.0 + _INTERLACING_SLACK))


def test_estimate_worst_small_groups_match_unpruned_reference(monkeypatch):
    # groups of five trials: each is pruned against the max of those before it
    monkeypatch.setattr(experiments, "_STORED_ENTRIES", 5 * 10 * 10)
    _assert_matches_unpruned(estimate_rip_worst(19, 12, 500, seed=4), 19, 12, 500, seed=4)


def test_estimate_worst_builds_each_sign_matrix_once(monkeypatch):
    built = []
    full = experiments.sign_matrix

    def counting(p, idx):
        built.append(len(idx))
        return full(p, idx)

    monkeypatch.setattr(experiments, "sign_matrix", counting)
    estimate_rip_worst(103, 30, 1000, seed=1)
    assert sum(built) == 1000
    assert len(built) <= math.ceil(1000 / (STACK_ENTRIES // 30**2))


def _count_gram_solves(monkeypatch) -> list:
    # the number of matrices each spectra.gram_radius call solves
    solved = []
    full = spectra.gram_radius

    def counting(s):
        solved.append(math.prod(np.shape(s)[:-2]))
        return full(s)

    monkeypatch.setattr(spectra, "gram_radius", counting)
    return solved


def test_estimate_worst_prunes_most_solves(monkeypatch):
    # every trial at order 30, and at least the leading trial at each of the
    # 28 orders below it, against 1000 per order unpruned
    solved = _count_gram_solves(monkeypatch)
    estimate_rip_worst(103, 30, 1000, seed=1)
    assert 1000 + 28 <= sum(solved) < 1000 * 29 / 2


def _assert_exact_grams(c):
    # the float32 product, cast, equals the float64 product, and the
    # rank-one downdate from order n equals the fresh order n - 1 product,
    # sign bits of zeros included; gram_radius of either matches the top
    # eigenvalue of the Hermitian matrix iC from LAPACK's complex solver
    a = c.astype(np.float64)
    s = spectra.sign_gram(c)
    down = s[:-1, :-1] - np.outer(a[-1, :-1], a[-1, :-1])
    fresh = a[:-1, :-1].T @ a[:-1, :-1]
    for got, want in ((s, a.T @ a), (down, fresh), (spectra.sign_gram(c[:-1, :-1]), fresh)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    for got, m in ((s, c), (down, c[:-1, :-1])):
        oracle = np.linalg.eigvalsh(1j * m)[-1]
        assert abs(spectra.gram_radius(got) - oracle) <= 1e-12 * max(1.0, oracle)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
def test_gram_products_and_downdate_are_exact(n, seed):
    # random +-1 orientations of order n
    upper = np.triu(np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int8), (n, n)), 1)
    _assert_exact_grams(upper - upper.T)


def test_gram_product_exact_at_order_1019():
    # the whole Paley tournament at p = 1019
    _assert_exact_grams(sign_matrix(1019, range(1019)).astype(np.int8))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([103, 1019]), k=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
def test_single_support_downdates_match_unpruned_reference(p, k, seed):
    # one trial is solved alone at every order, each product downdated from
    # the order above: the same bits as a fresh solve at every order
    k = min(k, p)
    _assert_matches_unpruned(estimate_rip_worst(p, k, 1, seed), p, k, 1, seed)


def _corrupt(monkeypatch, support, entry):
    # sign_matrix as experiments calls it, with `entry` written at (0, 1) of
    # the matrix of `support`; returns the list of writes made
    full = experiments.sign_matrix
    writes = []

    def patched(p, idx):
        c = full(p, idx)
        for t in np.flatnonzero((np.asarray(idx) == support).all(axis=-1)):
            c[t, 0, 1] = c[t, 1, 0] if entry == "symmetric" else entry
            writes.append(t)
        return c

    monkeypatch.setattr(experiments, "sign_matrix", patched)
    return writes


@pytest.mark.parametrize("entry", ["symmetric", 2])
def test_gate_guards_second_stored_group(monkeypatch, entry):
    # a trial of the second stored group of (1019, 60, 300), whose stack is
    # gated once, before any of its solves
    p, k, trials = 1019, 60, 300
    t = experiments._STORED_ENTRIES // (k * k) + 4
    assert t < trials
    support = random_subsets(p, k, [sub_seed(5, i) for i in range(trials)])[t]
    writes = _corrupt(monkeypatch, support, entry)
    with pytest.raises(NonHermitianError):
        estimate_rip_worst(p, k, trials, seed=5)
    assert len(writes) == 1


@pytest.mark.parametrize("entry", ["symmetric", 2])
def test_gate_guards_exact_rip_chunk(monkeypatch, entry):
    # a representative in the third chunk of the (19, 7) enumeration, which
    # runs because no 7-support attains cot(pi/14) at p = 19
    rest = next(islice(combinations(range(2, 19), 5), 3000, None))
    writes = _corrupt(monkeypatch, (0, 1, *rest), entry)
    with pytest.raises(NonHermitianError):
        exact_rip(19, 7)
    assert len(writes) == 1


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
    assert exact_rip(7, 4) <= family_bounds(4, 7)["dembo_recursive"]


@pytest.mark.parametrize("p", [7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103])
def test_dense_delta_is_one_at_order_p_plus_3_over_2(p):
    # the ceiling's oracle: Gramians of (p+3)/2 columns, the interval and
    # three random supports, by explicit dot products, both spectral
    # extremes from a dense eigensolve
    frame = np.asarray(build_frame(p).entries)
    k = (p + 3) // 2
    for support in [range(k)] + [random_subset(p, k, seed) for seed in range(3)]:
        cols = frame[:, list(support)]
        w = np.linalg.eigvalsh(cols.T @ cols.conj())
        assert abs(max(w[-1] - 1.0, 1.0 - w[0]) - 1.0) < 1e-12


def test_ceiling_orders_are_one_without_a_solve(monkeypatch):
    solved = _count_gram_solves(monkeypatch)
    assert exact_rip(19, 11) == 1.0 and exact_rip(23, 13) == 1.0
    assert exact_rip(7, 5) == 1.0 and exact_rip(7, 7) == 1.0
    assert solved == []
    orders = []
    full = experiments.sign_matrix
    monkeypatch.setattr(experiments, "sign_matrix",
                        lambda p, idx: orders.append(np.shape(idx)[-1]) or full(p, idx))
    d = estimate_rip_worst(19, 19, 3, seed=1)
    assert max(orders) == 10  # (p+1)/2: no larger sign matrix is built
    assert d[9] < 1.0 and np.all(d[10:] == 1.0)


@pytest.mark.parametrize("p", [163, 743])
def test_interval_curve_reads_at_most_one_below_the_ceiling(p):
    # delta_T < 1 at every order <= (p+1)/2; uncapped, the interval read
    # 1.0000000000000007 at order 82 for p = 163, and above 1 at 21 orders for p = 743
    d = experiments._worst_curve(p, np.arange((p + 1) // 2)[None, :])
    assert d.max() <= 1.0


@pytest.mark.parametrize("p, k", [(19, 6), (19, 7)])  # a witness, and the enumeration
def test_exact_rip_caps_a_radius_above_sqrt_p(p, k, monkeypatch):
    # at 1 and at the skew_cot bound, whichever is lower: 0.856 at (19, 6),
    # above 1 at (19, 7)
    monkeypatch.setattr(spectra, "skew_spectral_radius", lambda c: np.full(np.shape(c)[:-2], 5.0))
    assert exact_rip(p, k) == min(family_bounds(k, p)["skew_cot"], 1.0)


def test_certified_exact_rip_is_at_most_skew_cot():
    # the solver reads a tight radius up to about 11 ulps high: uncapped,
    # (151, 8) read 0.4091190857016479 against the bound 0.40911908570164773
    certified = 0
    for p in filter(is_prime, range(7, 152, 4)):
        for k in range(2, min(13, (p + 1) // 2) + 1):
            try:
                if pairs._cot_search(p, k, experiments._WITNESS_CANDIDATES) is None:
                    continue
            except pairs._BudgetSpent:
                continue
            assert exact_rip(p, k) <= family_bounds(k, p)["skew_cot"], (p, k)
            certified += 1
    assert certified == 145


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


@pytest.mark.parametrize("p, k", [(19, 6), (19, 7), (23, 6), (23, 7)])
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
    # the guard counts binomial(p-2, k-2) representatives, not binomial(p, k),
    # and is checked once the witness search has found none (k*(47) = 8)
    with pytest.raises(ParameterRangeError, match=r"no 9-support attains .* binomial\(45, 7\)"):
        exact_rip(47, 9)
    assert math.comb(47, 5) > 10**6
    d5 = exact_rip(47, 5)
    assert estimate_rip_worst(47, 5, 200)[-1] <= d5 <= family_bounds(5, 47)["dembo_recursive"]


@pytest.mark.parametrize("p, k", [(47, 7), (103, 12)])
def test_exact_rip_witness_before_guard(p, k):
    # the enumeration would be past the guard, but a tight support certifies delta_k
    assert math.comb(p - 2, k - 2) > experiments.EXACT_RIP_GUARD
    assert abs(exact_rip(p, k) * math.sqrt(p) - 1.0 / math.tan(math.pi / (2 * k))) < 1e-12


def test_exact_rip_witness_search_budget():
    # proving that no tight 13-support exists at p = 103 takes tens of seconds;
    # the bounded search gives up after a fixed number of candidates
    start = time.perf_counter()
    with pytest.raises(ParameterRangeError,
                       match=r"witness search exceeded its budget .* binomial\(101, 11\)"):
        exact_rip(103, 13)
    assert time.perf_counter() - start < 15.0


def _dense_radii(p, subsets):
    # rho(C_T) of each row of subsets: C from the squares mod p, then a dense
    # eigvalsh of i C per chunk
    squares = {x * x % p for x in range(1, p)}
    chi = np.array([0] + [1 if x in squares else -1 for x in range(1, p)])
    return np.concatenate([
        np.abs(np.linalg.eigvalsh(1j * chi[(chunk[:, :, None] - chunk[:, None, :]) % p])).max(axis=1)
        for chunk in np.array_split(subsets, max(1, len(subsets) // 4096))
    ])


@pytest.mark.parametrize("p", [19, 23])
def test_cot_tightness_hereditary_and_witness_complete(p):
    # brute force over every k-subset at p = 19; at p = 23 over the subsets
    # containing 0, which meet every translation class (tightness is
    # translation-invariant), each (k-1)-subset shifted to contain 0
    def key(t):
        shift = 0 if p == 19 else t[0]
        return tuple(sorted((x - shift) % p for x in t))

    tight_below, k_star = None, None
    for k in range(2, 8):
        if p == 19:
            subsets = np.array(list(combinations(range(p), k)))
        else:
            subsets = np.array([(0, *rest) for rest in combinations(range(1, p), k - 1)])
        cot = 1.0 / math.tan(math.pi / (2 * k))
        rho = _dense_radii(p, subsets)
        is_tight = rho >= cot * (1.0 - 1e-12)
        assert rho.max() <= cot * (1.0 + 1e-12)
        if not is_tight.all():
            # non-tight radii fall at least 5% short: a 1e-12 slack is safe
            assert rho[~is_tight].max() <= 0.95 * cot
        tight = {tuple(int(x) for x in t) for t in subsets[is_tight]}
        if tight_below is not None:
            for t in tight:
                for u in combinations(t, k - 1):
                    assert key(u) in tight_below, (t, u)
        witness = cot_witness(p, k)
        assert (witness is None) == (not tight)
        if witness is not None:
            assert len(witness) == k and key(witness) in tight
            k_star = k
        tight_below = tight
    assert k_star == 6


@pytest.mark.parametrize("p, k_star", [(19, 6), (23, 6), (31, 8), (43, 8), (47, 8)])
def test_cot_witness_pins_k_star(p, k_star):
    frame = build_frame(p)
    for k in range(2, k_star + 1):
        witness = cot_witness(p, k)
        assert witness[:2] == (0, 1) and len(witness) == k
        assert list(witness) == sorted(set(witness)) and witness[-1] < p
        w = np.linalg.eigvalsh(gram_direct(frame, witness))
        deviation = max(w[-1] - 1.0, 1.0 - w[0])
        assert abs(deviation - family_bounds(k, p)["skew_cot"]) < 1e-12
    assert cot_witness(p, k_star + 1) is None


def test_cot_witness_validates_range():
    for k in (0, 1, 20):
        with pytest.raises(ParameterRangeError):
            cot_witness(19, k)
    with pytest.raises(NotPrimeError):
        cot_witness(21, 3)
    assert cot_witness(7, 3) == (0, 1, 2)  # every 3 x 3 sign matrix has radius sqrt(3)


def _spectral_cot_search(p, k, budget):
    # the witness search the switching test replaced: every child's radius
    # solved, kept when it reaches cot(pi/2m) less a 1e-12 relative slack
    solves = 0

    def extend(t, cands):
        nonlocal solves
        if len(t) == k:
            return t
        solves += len(cands)
        if solves > budget:
            raise pairs._BudgetSpent
        m = len(t) + 1
        rho = skew_spectral_radius(sign_matrix(p, [(*t, x) for x in cands]))
        cut = (1.0 - 1e-12) / math.tan(math.pi / (2 * m))
        tight = [x for x, r in zip(cands, rho) if r >= cut]
        for i, x in enumerate(tight):
            rest = tight[i + 1:]
            if m + len(rest) < k:
                break
            if (found := extend((*t, x), rest)) is not None:
                return found
        return None

    return extend((0, 1), list(range(2, p)))


def test_cot_search_matches_spectral_oracle():
    outcomes = []
    for p in (7, 11, 19, 23, 31, 43, 47):
        for k in range(2, min(p, 10) + 1):
            for budget in (10**4, 50):
                try:
                    expected = _spectral_cot_search(p, k, budget)
                except pairs._BudgetSpent:
                    expected = "budget"
                try:
                    got = pairs._cot_search(p, k, budget)
                except pairs._BudgetSpent:
                    got = "budget"
                assert got == expected, (p, k, budget)
                outcomes.append(got)
    assert len(outcomes) == 120 and outcomes.count("budget") == 37


def test_cot_witness_needs_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the witness search called an eigensolver")

    monkeypatch.setattr(spectra, "skew_spectral_radius", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    witness = cot_witness(103, 12)
    monkeypatch.undo()
    assert len(witness) == 12 and witness[:2] == (0, 1)
    rho = skew_spectral_radius(sign_matrix(103, witness))
    assert abs(rho - 1.0 / math.tan(math.pi / 24)) < 1e-12


def test_exact_rip_witness_skips_enumeration(monkeypatch):
    solved = _count_gram_solves(monkeypatch)
    d = exact_rip(23, 6)
    assert sum(solved) == 1  # the witness's radius; the enumeration solves binomial(21, 4) = 5985
    assert abs(d - family_bounds(6, 23)["skew_cot"]) < 1e-12


def test_exhaustive_worst_matches_exact_rip_p7():
    # once the random draws cover every support (at most 35 exist for any j
    # at p = 7), the worst-case curve equals the exhaustive oracle
    for j in (2, 3, 4, 5):
        drawn = random_subsets(7, j, rng.trial_seeds(0, 600))
        assert len({tuple(sorted(s)) for s in drawn}) == math.comb(7, j)  # full coverage
        assert abs(estimate_rip_worst(7, j, trials=600, seed=0)[j - 1] - exact_rip(7, j)) < 1e-10


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
    d = estimate_rip_single(103, 30, seed=9)
    b, intercept, _ = fit_power_law(d, j_min=3)
    j = np.arange(1, 31)
    mask = (j >= 3) & (d > 0)
    slope_ref, int_ref = np.polyfit(np.log(j[mask]), np.log(d[mask]), 1)
    assert abs(b - slope_ref) < 1e-12
    assert abs(intercept - int_ref) < 1e-12


def test_fit_skips_nonpositive_and_nonfinite_points():
    k, p, beta = 30, 103, 0.7
    d = list(np.arange(1, k + 1) ** beta / math.sqrt(p))
    d[5], d[8], d[12], d[20] = math.nan, math.inf, -1.0, 0.0
    b, intercept, r2 = fit_power_law(d)
    assert abs(b - beta) < 1e-10
    assert abs(intercept - math.log(1 / math.sqrt(p))) < 1e-10
    assert abs(r2 - 1.0) < 1e-12


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


@pytest.mark.parametrize("p, k, seed", [(103, 30, s) for s in range(6)] + [(1019, 200, 0)])
def test_dembo_ratio_study_reads_estimate_curve(p, k, seed):
    # the study's lambda_max is 1 + d(j) of the single-support estimate of the same seed, bit for bit
    d = estimate_rip_single(p, k, seed)
    rows = dembo_ratio_study(p, k, seed)
    assert [r.lambda_max for r in rows] == [1.0 + float(d[r.j - 1]) for r in rows]


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
    rec = conjecture_search(5, (0, 1, 2, 3, 4), alpha=0.8)
    assert rec.ratio == pytest.approx(1.0 / 3.0)
    assert rec.numerator == 1
    assert rec.satisfied
    # works at p = 5 even though no frame exists there


def test_conjecture_search_worst_set():
    rec = conjecture_search(19, WORST_SET_19, alpha=0.8)
    # a perfectly balanced pair exists, beating the exhibited 2/8 pair
    assert rec.ratio == 0.0
    assert rec.numerator == 0
    assert rec.satisfied
    # the minimum can never exceed the exhibited pair's ratio
    assert rec.ratio <= one_sided_ratio(19, WORST_SET_19, 6, 7)


def test_conjecture_search_tie_breaking():
    # symmetric summand: ordered scan lands on the lexicographically
    # smallest position pair among minimizers
    rec = conjecture_search(19, WORST_SET_19)
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


def test_conjecture_scan_alpha_one():
    # ratio <= 1 always, so alpha = 1 satisfies every trial unless some
    # support's best pair sits exactly at 1
    s = conjecture_scan(19, 8, trials=50, alpha=1.0, seed=2)
    assert 0.0 <= s.worst_ratio <= 1.0
    if s.worst_ratio < 1.0:
        assert s.fraction_satisfied == 1.0


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_pair_searches_reject_nonfinite_alpha(alpha):
    for run in (lambda: conjecture_search(19, (1, 2, 3, 4, 5), alpha),
                lambda: greedy_peel(19, (1, 2, 3, 4, 5), alpha),
                lambda: conjecture_scan(19, 5, 3, alpha)):
        with pytest.raises(ParameterRangeError, match="alpha must be finite"):
            run()
