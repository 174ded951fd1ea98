"""The numpy-free pair search and Gramian against their numpy references.

The popcount pair search of `pairs`, the only pair-numerator path of the
package, must give the same records as the stacked float32 |C C^T| product
kept here as its oracle, alone and through the Monte Carlo scan
`pairs.conjecture_scan`, and the peel the same trace as a loop that solves
one sign matrix per step with it.  The search's row masks are rotations of
one p-bit residue mask, so the cases include rotations by 0 and p - 1,
both classes of p mod 4, p = 3 and k = p.  `frame.gram_rows` must give
`spectra.gram_analytic`'s entries bit for bit, signed zeros included.

The witness search `pairs.cot_witness` reads the same masks: each
"beaten by" mask B_x, which the search forms inline and `_beaten_by` here
forms the same way, must match the switched tournament's signs bit for
bit, and the search must give the outcomes of the list-predicate search it
replaced, kept here as its oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paleyrip import pairs
from paleyrip.errors import ParameterRangeError
from paleyrip.experiments import sign_matrix
from paleyrip.frame import check_support, gram_rows
from paleyrip.numtheory import chi_signs, sign_gram_ints
from paleyrip.pairs import (
    ConjectureRecord,
    _BudgetSpent,
    _cot_search,
    _residue_mask,
    _row_mask,
    conjecture_scan,
    conjecture_search,
    cot_witness,
    greedy_peel,
    one_sided_ratio,
)
from paleyrip.rng import random_subset, random_subsets, sub_seed
from paleyrip.spectra import gram_analytic

# both residue classes mod 4, past one 64-bit word from 67 on
PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 67, 71, 73, 97, 101, 103, 131, 137]


def _pair_records(p, supports, c, alpha):
    """The oracle: the best pair of each k-support, from the stack c of their sign matrices.

    Entry (i, j) of |C C^T| is the exact pair numerator.  The product runs
    in float32, which is exact: every partial sum is an integer of size at
    most k < 2^24.  With the diagonal set to k, above every pair numerator,
    argmin gives the first minimum in row-major order.
    """
    k = c.shape[-1]
    cf = c.astype(np.float32)
    nums = np.abs(cf @ cf.transpose(0, 2, 1)).reshape(len(c), k * k)
    nums[:, :: k + 1] = k
    records = []
    for support, row in zip(supports, nums):
        best = int(row.argmin())
        n = int(row[best])
        records.append(ConjectureRecord(
            support=tuple(support), pair=divmod(best, k), ratio=n / (k - 2),
            satisfied=n / (k - 2) < alpha, numerator=n,
        ))
    return records


def test_pair_product_float32_is_exact():
    # the pair numerators |C C^T| are integers of size <= k, exact in float32
    idx = random_subsets(1019, 200, [sub_seed(0, t) for t in range(4)])
    c = sign_matrix(1019, idx)
    c32, c64 = c.astype(np.float32), c.astype(float)
    assert np.array_equal(c32 @ c32.transpose(0, 2, 1), c64 @ c64.transpose(0, 2, 1))


def _stacked_peel(p, support, alpha, m_alpha):
    """The oracle: one sign matrix per peel, its best pair from the stacked product."""
    remaining = tuple(support)
    c = sign_matrix(p, remaining)
    trace = []
    while len(remaining) >= m_alpha:
        trace += _pair_records(p, [remaining], c[None], alpha)
        keep = [x for x in range(len(remaining)) if x not in trace[-1].pair]
        remaining = tuple(remaining[x] for x in keep)
        c = c[np.ix_(keep, keep)]
    return trace


_supports = st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(
    st.just(p), st.integers(3, p), st.integers(0, 2**64 - 1)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_supports, st.sampled_from([0.5, 0.8, 1.0]))
@example((103, 70, 5), 0.8)
@example((137, 101, 1), 0.8)
@example((131, 131, 2), 0.8)
@example((137, 137, 3), 0.8)
@example((5, 5, 0), 0.8)
def test_search_matches_stacked_product(case, alpha):
    p, k, seed = case
    support = random_subset(p, k, seed)
    want = _pair_records(p, [support], sign_matrix(p, [support]), alpha)[0]
    assert conjecture_search(p, support, alpha) == want


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_supports, st.integers(3, 9))
@example((103, 70, 5), 5)
@example((137, 101, 1), 5)
@example((131, 131, 2), 3)
@example((137, 137, 3), 4)
def test_peel_matches_stacked_loop(case, m_alpha):
    p, k, seed = case
    support = random_subset(p, k, seed)
    m_alpha = min(m_alpha, k)
    assert greedy_peel(p, support, 0.8, m_alpha) == _stacked_peel(p, support, 0.8, m_alpha)


@pytest.mark.parametrize("k", [200, 201, 1019])
def test_search_matches_stacked_product_at_1019(k):
    support = random_subset(1019, k, k)
    want = _pair_records(1019, [support], sign_matrix(1019, [support]), 0.8)[0]
    assert conjecture_search(1019, support) == want


@pytest.mark.parametrize("k", [200, 201])
def test_peel_matches_stacked_loop_at_1019(k):
    support = random_subset(1019, k, 3)
    assert greedy_peel(1019, support) == _stacked_peel(1019, support, 0.8, 5)


def _rotation_edge_supports(p):
    """Supports holding residues 0 and p - 1, the masks rotated by 0 and by p - 1."""
    k = min(p, 12)
    middle = random_subset(p - 2, k - 2, p)  # k - 2 residues of 1..p-2, shifted below
    return [
        (0, p - 1, *(x + 1 for x in middle)),
        (*(x + 1 for x in middle), p - 1, 0),
        tuple(range(k - 1)) + (p - 1,),
        tuple(range(p - 1, p - 1 - k, -1)),
    ]


# p = 1 (mod 4) makes chi(-u) = chi(u), so R is symmetric; p = 3 is the smallest prime
@pytest.mark.parametrize("p", [3, 5, 13, 19, 29, 101, 103])
def test_search_matches_stacked_product_at_rotation_edges(p):
    for support in _rotation_edge_supports(p) + [tuple(range(p)), tuple(range(p))[::-1]]:
        want = _pair_records(p, [support], sign_matrix(p, [support]), 0.8)[0]
        assert conjecture_search(p, support) == want, support


@pytest.mark.parametrize("p", [3, 5, 13, 19, 29, 101, 103])
def test_peel_matches_stacked_loop_at_rotation_edges(p):
    for support in _rotation_edge_supports(p) + [tuple(range(p)), random_subset(p, p, 1)]:
        m_alpha = min(5, len(support))
        assert greedy_peel(p, support, 0.8, m_alpha) == _stacked_peel(p, support, 0.8, m_alpha)


@pytest.mark.parametrize("p", [13, 29, 101])
def test_search_matches_stacked_product_one_mod_four(p):
    # supports of every size, k = p included, at primes p = 1 (mod 4)
    for k in range(3, p + 1, max(1, p // 12)):
        for seed in range(3):
            support = random_subset(p, k, sub_seed(p, seed))
            want = _pair_records(p, [support], sign_matrix(p, [support]), 0.8)[0]
            assert conjecture_search(p, support) == want, support
            assert greedy_peel(p, support, 0.8, 3) == _stacked_peel(p, support, 0.8, 3)


def test_conjecture_scan_records_match_per_support_search():
    # every scan record equals the stacked product's on its trial's own
    # support, and reruns agree; the sizes cover both parities of k, k = 3
    # and k = p
    for p, k, trials in ((43, 8, 30), (103, 60, 40), (19, 12, 500), (1019, 201, 20),
                         (131, 3, 100), (5, 5, 10), (13, 13, 30), (3, 3, 5)):
        s1 = conjecture_scan(p, k, trials=trials, alpha=0.8, seed=5)
        assert s1.records == conjecture_scan(p, k, trials=trials, alpha=0.8, seed=5).records
        idx = random_subsets(p, k, [sub_seed(5, t) for t in range(trials)])
        assert list(s1.records) == _pair_records(p, idx.tolist(), sign_matrix(p, idx), 0.8)
        worst = max(range(trials), key=lambda t: (s1.records[t].ratio, -t))
        assert (s1.worst_ratio, s1.worst_support) == (s1.records[worst].ratio,
                                                       tuple(idx[worst].tolist()))
        assert all(rec.satisfied == (rec.ratio < 0.8) for rec in s1.records)


def test_conjecture_scan_records_are_conjecture_search():
    # the scan peels its own draws without validating them again; each record
    # is still the validated library call's on the trial's support
    summary = conjecture_scan(19, 12, 50, seed=7)
    assert list(summary.records) == [
        conjecture_search(19, random_subset(19, 12, sub_seed(7, t))) for t in range(50)]


@pytest.mark.parametrize("call, message", [
    (lambda: check_support(19, ()), "k must be in [1, p], got k=0, p=19"),
    (lambda: check_support(7, range(8)), "k must be in [1, p], got k=8, p=7"),
    (lambda: one_sided_ratio(19, (1, 2), 0, 1), "k must be in [3, p], got k=2, p=19"),
    (lambda: one_sided_ratio(7, range(8), 0, 1), "k must be in [1, p], got k=8, p=7"),
    (lambda: conjecture_search(19, (1, 2)), "k must be in [3, p], got k=2, p=19"),
    (lambda: conjecture_search(7, range(8)), "k must be in [1, p], got k=8, p=7"),
    (lambda: greedy_peel(19, (1, 2, 3, 4), 0.8, 5), "k must be in [5, p], got k=4, p=19"),
    (lambda: greedy_peel(7, range(8), 0.8, 5), "k must be in [1, p], got k=8, p=7"),
])
def test_support_size_is_decided_by_check_k(call, message):
    # a support above p fails check_support's size check before any minimum
    with pytest.raises(ParameterRangeError) as exc:
        call()
    assert str(exc.value) == message


def test_search_reaches_parity_floor_on_all_residues():
    # over all of Z_p every pair's character sum is the Jacobi sum -1
    for p in (13, 19, 1019):
        rec = conjecture_search(p, range(p))
        assert (rec.numerator, rec.pair) == (1, (0, 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([7, 11, 19, 43, 103, 1019]).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=40, unique=True))))
@example((7, [0, 1, 3]))
def test_gram_rows_bits_match_gram_analytic(case):
    p, support = case
    rows = np.array(gram_rows(p, support), dtype=complex)
    assert np.array_equal(rows.view(np.uint64), gram_analytic(p, support).view(np.uint64))


def _pair_bound(n):
    """sqrt(cot^2(pi/2n) - n + 1), the module docstring's bound on the smallest numerator."""
    return math.sqrt((1.0 / math.tan(math.pi / (2 * n))) ** 2 - n + 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(5, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1))))
def test_pair_numerator_bound_on_random_tournaments(case):
    # any tournament, not only a Paley support: the numerators are |S_ij| of
    # S = C^T C, tr(S^2) <= rho^2 tr(S) and rho <= cot(pi/2n); pair t's sign is bit t
    n, word = case
    masks = [0] * n  # row u: the v that u beats, C_uv = +1
    for t, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        u, v = (i, j) if word >> t & 1 else (j, i)
        masks[u] |= 1 << v
    s = sign_gram_ints(masks, [1 << u for u in range(n)])
    rho2 = float(np.linalg.eigvalsh(np.array(s, dtype=float))[-1])
    assert rho2 <= (1.0 / math.tan(math.pi / (2 * n))) ** 2 * (1 + 1e-12)
    assert sum(x * x for row in s for x in row) <= rho2 * n * (n - 1) * (1 + 1e-12)
    smallest = min(abs(s[i][j]) for i in range(n) for j in range(i + 1, n))
    assert smallest <= _pair_bound(n) * (1 + 1e-12)
    assert smallest / (n - 2) < 0.8


def test_pair_bound_meets_alpha_from_five():
    # 0.780 at n = 5, falling towards 2/pi
    ratios = [_pair_bound(n) / (n - 2) for n in range(5, 10**4)]
    assert ratios[0] == max(ratios) < 0.78 and ratios[-1] > 2 / math.pi


# --- the witness search on the tournament's masks ---------------------------------


def _switching_signs(p):
    # s_u = chi(-u) for u > 0 and s_0 = 1: the switching that makes 0 a source
    return [1, *chi_signs(p)[:0:-1]]


def _beaten_by(r, p, x):
    """B_x as the search forms it inline: P_x ^ S, complemented when s_x = -1."""
    b = _row_mask(r, p, x) ^ (r | 1)
    return b if x == 0 or r >> x & 1 else ~b


@pytest.mark.parametrize("p", [7, 11, 19, 23, 43, 103])
def test_beaten_by_mask_matches_switched_tournament(p):
    chi, s, r = chi_signs(p), _switching_signs(p), _residue_mask(p)
    for x in range(p):
        b = _beaten_by(r, p, x)
        assert [b >> u & 1 for u in range(p) if u != x] == [
            int(s[u] * chi[u - x] * s[x] == 1) for u in range(p) if u != x], x


def _list_predicate_search(p, k, budget):
    """The oracle: the witness search as it was before it read masks.

    Each candidate's beats are a Python list over the members' order, and it
    keeps the node tight when the members that beat it are the first j.
    """
    chi, s = chi_signs(p), _switching_signs(p)
    tested = 0

    def extend(order, cands):
        nonlocal tested
        if len(order) == k:
            return tuple(sorted(order))
        tested += len(cands)
        if tested > budget:
            raise _BudgetSpent
        tight = []
        for x in cands:
            beats = [s[u] * chi[u - x] == s[x] for u in order]
            if all(beats[:(j := sum(beats))]):
                tight.append((x, [*order[:j], x, *order[j:]]))
        for i, (_, child) in enumerate(tight):
            if len(child) + len(tight) - i - 1 < k:
                break
            if (found := extend(child, [x for x, _ in tight[i + 1:]])) is not None:
                return found
        return None

    return extend([0, 1], list(range(2, p)))


def _past_cutoff(p, k):
    # cot^2(pi/2k) > p: no k-support is tight, and the search returns None at once
    return (1.0 / math.tan(math.pi / (2 * k))) ** 2 > p


def test_cot_search_matches_list_predicate_oracle():
    # the 13 primes p = 3 (mod 4) from 7 to 103 and k = 2..min(p, 16): 181
    # cells, each at a budget that completes most searches and one that
    # stops most of them; past the cutoff the oracle, which has none, finds
    # no witness either
    outcomes = []
    for p in (7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83, 103):
        for k in range(2, min(p, 16) + 1):
            for budget in (10**4, 50):
                try:
                    expected = _list_predicate_search(p, k, budget)
                except _BudgetSpent:
                    expected = "budget"
                try:
                    got = _cot_search(p, k, budget)
                except _BudgetSpent:
                    got = "budget"
                if _past_cutoff(p, k):
                    assert got is None and not isinstance(expected, tuple), (p, k, budget)
                else:
                    assert got == expected, (p, k, budget)
                outcomes.append("budget" if got == "budget" else type(got).__name__)
    assert len(outcomes) == 362
    # (119, 46, 197) without the cutoff: 83 searches past it spent the budget of 50
    assert (outcomes.count("tuple"), outcomes.count("NoneType"), outcomes.count("budget")) == (
        119, 129, 114)


@pytest.mark.parametrize("p, k_max", [(19, 6), (23, 7), (31, 8), (43, 10), (47, 10), (103, 15),
                                      (107, 16), (151, 19), (199, 22), (1019, 50)])
def test_cot_witness_is_none_past_the_cutoff(p, k_max, monkeypatch):
    # k_max is the largest k with cot(pi/2k) <= sqrt p; past it no support
    # is tight, and the search returns before it reads a mask (without the
    # cutoff, cot_witness(151, 20) searched for 10.8 s)
    assert not _past_cutoff(p, k_max) and _past_cutoff(p, k_max + 1)

    def refuse(p):
        raise AssertionError("the witness search read a mask past the cutoff")

    monkeypatch.setattr(pairs, "_residue_mask", refuse)
    assert cot_witness(p, k_max + 1) is None
