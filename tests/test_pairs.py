"""The numpy-free pair search and Gramian against their numpy references.

The popcount pair search of `pairs` must give the same records as the
stacked |C C^T| of `experiments._pair_records`, and the peel the same trace
as a loop that solves one sign matrix per step with it.  `frame.gram_rows`
must give gram_analytic's entries bit for bit, signed zeros included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paleyrip.experiments import _pair_records
from paleyrip.frame import gram_analytic, gram_rows, sign_matrix
from paleyrip.numtheory import chi_signs, chi_table
from paleyrip.pairs import conjecture_search, greedy_peel
from paleyrip.rng import random_subset

# both residue classes mod 4, past one 64-bit word from 67 on
PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 67, 71, 73, 97, 101, 103, 131, 137]


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


@pytest.mark.parametrize("p", [3, 5, 7, 13, 19, 1019])
def test_chi_table_is_chi_signs(p):
    table = chi_table(p)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table.tolist() == list(chi_signs(p))
    assert all(type(s) is int for s in chi_signs(p))
