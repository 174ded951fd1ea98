import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paleyrip import bounds, frame, spectra, verify
from paleyrip.numtheory import chi_signs, is_prime
from paleyrip.rng import SplitMix64, sub_seed
from paleyrip.verify import (
    _bordered_matrix,
    _charpoly3,
    _check_block_det,
    _check_charpoly,
    _check_cot_radius,
    _check_delta3_spectrum,
    _check_gamma_nonneg,
    _check_lemma_k,
    _closed_form_det,
    _cot_square_bounds,
    _gauss_det,
    _gdot,
    _gmul,
    _lagrange_gamma,
    _lemma_k_holds,
    _norm_below,
    _order3_signs,
    _paper_gamma_sums,
    _tournament_gram,
    _top_below,
)

PALEY_PRIMES = [p for p in range(7, 1020) if p % 4 == 3 and is_prime(p)]


def _orientations(rng: SplitMix64):
    """(n, C) for the 50 random orientations per order n = 2..12, each from two outputs.

    The first output is the low half of a 128-bit word; the t-th pair of the
    upper triangle, row by row, is +1 where bit t is set.
    """
    for n in range(2, 13):
        for _ in range(50):
            low, high = rng.next_u64(), rng.next_u64()
            bits = [(high if t >= 64 else low) >> (t % 64) & 1 for t in range(n * (n - 1) // 2)]
            c = np.zeros((n, n), dtype=int)
            c[np.triu_indices(n, 1)] = [1 if b else -1 for b in bits]
            yield n, c - c.T


@pytest.mark.parametrize("p", [7, 19, 103, 1019])
def test_cot_radius_stack_matches_per_matrix_loop(p, monkeypatch):
    # every C^T C the check forms is the dense one of the same orientation,
    # and its exact decisions are dense eigvalsh's wherever they are apart
    seed = sub_seed(0x5EED0FA1, p)
    rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
    grams = []

    def spy(n, bits):
        grams.append(s := _tournament_gram(n, bits))
        return s

    monkeypatch.setattr(verify, "_tournament_gram", spy)
    result = _check_cot_radius(p, rng)
    assert result.passed and "550 of 550" in result.detail
    canonical = [grams[51 * (n - 2)] for n in range(2, 13)]
    for n, s in zip(range(2, 13), canonical):
        ones = np.ones((n, n), dtype=int)
        c = np.triu(ones, 1) - np.tril(ones, -1)  # +1 above the diagonal, -1 below
        assert s == (c.T @ c).tolist()
    oriented = [s for t, s in enumerate(grams) if t % 51]
    assert len(oriented) == 550
    for (n, c), s in zip(_orientations(ref_rng), oriented):
        assert s == (c.T @ c).tolist()
        top = float(np.linalg.eigvalsh(c.T @ c)[-1])
        lo, hi = _cot_square_bounds(n)
        if abs(math.sqrt(top) - 1 / math.tan(math.pi / (2 * n))) > 1e-9:
            assert _norm_below(s, hi) or _top_below(s, hi)
        for h in (hi / 2, hi * 3 / 4, lo * 15 / 16):
            if abs(top - h) > 1e-9 * top:
                assert (_norm_below(s, h) or _top_below(s, h)) is (top < h)
    # same draws in the same order: both generators end in the same state
    assert rng.next_u64() == ref_rng.next_u64()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    st.fractions(Fraction(1, 2), Fraction(3, 2), max_denominator=64))))
def test_norm_bounds_settle_only_what_the_pivots_decide(case):
    # the integer screen may only say "below" where h I - S is positive definite,
    # and the Gram matrix it reads is the dense C^T C of the orientation
    n, bits, f = case
    s = _tournament_gram(n, bits)
    c = np.zeros((n, n), dtype=int)
    c[np.triu_indices(n, 1)] = [1 if b else -1 for b in bits]
    c -= c.T
    assert s == (c.T @ c).tolist()
    h = f * _cot_square_bounds(n)[1]
    if _norm_below(s, h):
        assert _top_below(s, h)


def test_cot_check_catches_a_bound_below_the_canonical_radius(monkeypatch):
    # h+_n = cot^2(pi/2n)(1 - 1e-12): the canonical tournament's rho^2 = cot^2 exceeds it
    p = 103
    assert _check_cot_radius(p, SplitMix64(sub_seed(0, p))).passed

    def tight(n):
        lo, _ = _cot_square_bounds(n)
        return lo, Fraction(math.tan(math.pi / (2 * n)) ** -2 * (1 - 1e-12))

    monkeypatch.setattr(verify, "_cot_square_bounds", tight)
    result = _check_cot_radius(p, SplitMix64(sub_seed(0, p)))
    assert not result.passed
    assert result.detail.startswith(
        "h-_n < rho^2 < h+_n for the canonical tournament, n = 2..12: 0 of 11;")


@pytest.mark.parametrize("c, holds", [
    (Fraction(1, 2), False),  # the margin is 0 at k = 1: the check has teeth
    (Fraction(1, 4), False),
    (Fraction(0), False),
    (Fraction(-1), False),
    (Fraction(1, 2) + Fraction(1, 10**12), True),
    (Fraction(1), True),
    (Fraction(bounds.DEMBO_C), True),
    (Fraction(10), True),
])
def test_lemma_exact_holds_exactly_above_one_half(c, holds):
    assert _lemma_k_holds(c) is holds


def test_lemma_exact_agrees_with_the_squared_lemma():
    # the oracle: the lemma squared, t^2/4 + k + 1 < (R - t/2)^2 with R > t/2,
    # evaluated exactly at each k, without the closed form
    for c in (Fraction(3, 5), Fraction(1), Fraction(2), Fraction(10)):
        assert _lemma_k_holds(c)
        for k in range(1, 300):
            t, r = k - 1 / (c * k), k + 1 - 1 / (c * (k + 1))
            assert r > t / 2 and t * t / 4 + k + 1 < (r - t / 2) ** 2, (c, k)
    c, k = Fraction(1, 2), 1  # where _lemma_k_holds turns False: equality
    t, r = k - 1 / (c * k), k + 1 - 1 / (c * (k + 1))
    assert t * t / 4 + k + 1 == (r - t / 2) ** 2


def test_lemma_check_catches_a_tampered_lemma(monkeypatch):
    assert _check_lemma_k(7, None).passed
    monkeypatch.setattr(verify, "_lemma_k_holds", lambda c: c != 2)
    result = _check_lemma_k(7, None)
    assert not result.passed
    assert result.detail.endswith("for every k >= 1: False")


def test_gamma_check_catches_a_dropped_correction(monkeypatch):
    # gamma without its second sum, k(k-1) times p^-2 at sign borders, is
    # nonnegative, but it is not the Lagrange form k^2 - (a.b)^2
    p = 103
    assert _check_gamma_nonneg(p, SplitMix64(sub_seed(0, p))).passed
    paper_sums = verify._paper_gamma_sums
    monkeypatch.setattr(verify, "_paper_gamma_sums", lambda c, d: (paper_sums(c, d)[0], (0, 0)))
    result = _check_gamma_nonneg(p, SplitMix64(sub_seed(0, p)))
    assert not result.passed
    assert "200 of 200" not in result.detail


_GAUSS = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    c=st.lists(_GAUSS, min_size=1, max_size=12),
    z=_GAUSS,
    e=st.lists(_GAUSS, min_size=12, max_size=12),
    kind=st.sampled_from(["generic", "parallel", "c0"]),
)
def test_gamma_sums_equal_the_lagrange_form(c, z, e, kind):
    # the paper's two sums are |c|^2 |d|^2 - |d.conj c|^2 over Z[i] for any
    # borders, not only the sign borders the check draws: never negative,
    # and 0 exactly when d is parallel to c (k = 1, d = z c, c = 0)
    k = len(c)
    d = e[:k]
    if kind == "parallel":
        d = [_gmul(z, w) for w in c]
    elif kind == "c0":
        c = [(0, 0)] * k
    first, second = _paper_gamma_sums(c, d)
    gamma = _lagrange_gamma(c, d)
    assert (first[0] - second[0], first[1] - second[1]) == (gamma, 0)
    assert gamma >= 0
    if k == 1 or kind != "generic":
        assert gamma == 0


def test_block_det_check_catches_a_dropped_cross_term(monkeypatch):
    # the closed form without 2 (eta-x) Re(b (d.conj c)) is wrong at almost every point
    p = 103
    assert _check_block_det(p, SplitMix64(sub_seed(0, p))).passed

    def without_cross_term(a, b, c, d, eta, x):
        full = _closed_form_det(a, b, c, d, eta, x)
        v = (eta[0] - x[0], eta[1] - x[1])
        term = (2 * _gmul(b, _gdot(d, c))[0], 0)
        for _ in range(len(c) - 1):
            term = _gmul(term, v)
        return full[0] - term[0], full[1] - term[1]

    monkeypatch.setattr(verify, "_closed_form_det", without_cross_term)
    result = _check_block_det(p, SplitMix64(sub_seed(0, p)))
    assert not result.passed
    assert ": 0 of 20;" in result.detail


def _laplace_det(m):
    """Cofactor expansion along the first row, over Python complex with small integer parts."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_gauss_det_matches_cofactor_expansion(m):
    # small parts make zero pivots common, so the row swaps run; the
    # expansion's products of at most five entries are exact in floats
    want = _laplace_det([[complex(*z) for z in row] for row in m])
    assert _gauss_det(m) == (round(want.real), round(want.imag))


def test_bordered_matrix_is_the_dense_one():
    # the order-(k+2) matrix over Z[i] is BorderedBlock.assemble() - xI
    c, d = [(1, 2), (0, -3), (4, 1)], [(2, 0), (-1, 1), (0, 5)]
    a, b, eta, x = (3, 0), (1, -2), (-2, 0), (1, 0)
    blk = spectra.BorderedBlock(a=3.0, b=1 - 2j, c=[complex(*z) for z in c],
                                d=[complex(*z) for z in d], eta=-2.0)
    dense = blk.assemble() - 1.0 * np.eye(len(c) + 2)
    rows = _bordered_matrix(a, b, c, d, eta, x)
    assert np.array_equal(np.array([[complex(*z) for z in row] for row in rows]), dense)
    assert _gauss_det(rows) == _closed_form_det(a, b, c, d, eta, x)
    det = np.linalg.det(dense)
    assert _closed_form_det(a, b, c, d, eta, x) == (round(det.real), round(det.imag))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_charpoly3_matches_determinants(entries):
    # det(xI - M) at four points fixes the monic cubic; small integer
    # determinants are exact in floats once rounded
    m = [entries[0:3], entries[3:6], entries[6:9]]
    e2, e1, e0 = _charpoly3(m)
    for x in range(4):
        assert round(np.linalg.det(x * np.eye(3) - np.array(m))) == x**3 + e2 * x**2 + e1 * x + e0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PALEY_PRIMES).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=3, max_size=3, unique=True))))
def test_exact_order3_check_agrees_with_lapack(case):
    # where the exact check passes, dense eigvalsh sits on 1 and 1 +- sqrt(3/p)
    p, support = case
    c, exact = _order3_signs(p, support)
    ctc = [[sum(r[i] * r[j] for r in c) for j in range(3)] for i in range(3)]
    assert exact and _charpoly3(c) == (0, 3, 0) and _charpoly3(ctc) == (-6, 9, 0)
    t = math.sqrt(3.0 / p)
    w = np.linalg.eigvalsh(spectra.gram_analytic(p, support))
    assert np.abs(w - [1.0 - t, 1.0, 1.0 + t]).max() <= 1e-12


_real_gram_rows = frame.gram_rows


def _flip_one_sign(p, support):
    g = _real_gram_rows(p, support)
    g[0][1] = -g[0][1]
    return g


def _flip_one_pair(p, support):
    # another skew sign pattern: the same spectrum, so no eigensolver sees it
    g = _real_gram_rows(p, support)
    g[0][1], g[1][0] = -g[0][1], -g[1][0]
    return g


def _scale_one_over_p(p, support):
    chi = chi_signs(p)
    return [[1 + 0j if a == b else chi[a - b] * (1j / p) for b in support] for a in support]


def _diagonal_one_ulp_high(p, support):
    g = _real_gram_rows(p, support)
    for i, row in enumerate(g):
        row[i] = complex(1.0 + 2.0**-52, 0.0)
    return g


def _unsigned_zero_real_parts(p, support):
    # -0.0 real parts (chi = -1) made +0.0: equal under ==, not bit for bit
    return [[complex(abs(z.real), z.imag) for z in row] for row in _real_gram_rows(p, support)]


@pytest.mark.parametrize("fault", [_flip_one_sign, _flip_one_pair, _scale_one_over_p,
                                   _diagonal_one_ulp_high, _unsigned_zero_real_parts])
def test_order3_checks_catch_a_faulty_gramian(monkeypatch, fault):
    p = 103
    for check in (_check_delta3_spectrum, _check_charpoly):
        assert check(p, SplitMix64(sub_seed(0, p))).passed
    monkeypatch.setattr(frame, "gram_rows", fault)
    for check in (_check_delta3_spectrum, _check_charpoly):
        result = check(p, SplitMix64(sub_seed(0, p)))
        assert not result.passed
        assert result.detail.startswith("gram_rows = I + (i/sqrt p) C bit for bit: 0 of 50;")
        assert result.detail.endswith(": 50 of 50")


def test_order3_checks_catch_a_faulty_legendre_symbol(monkeypatch):
    # chi(-x) = chi(x) breaks skew symmetry: the polynomials, not only the entries, fail
    p = 103
    monkeypatch.setattr(verify, "legendre", lambda a, q: 0 if a == 0 else 1)
    for check in (_check_delta3_spectrum, _check_charpoly):
        result = check(p, SplitMix64(sub_seed(0, p)))
        assert not result.passed
        assert result.detail.endswith(": 0 of 50")
