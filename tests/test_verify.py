import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paleyrip import bounds, frame, spectra, verify
from paleyrip.numtheory import is_prime
from paleyrip.rng import SplitMix64, sub_seed
from paleyrip.verify import (
    CheckResult,
    _charpoly3,
    _check_charpoly,
    _check_cot_radius,
    _check_delta3_spectrum,
    _check_gamma_nonneg,
    _check_lemma_k,
    _lemma_k_holds,
    _order3_signs,
)

PALEY_PRIMES = [p for p in range(7, 1020) if p % 4 == 3 and is_prime(p)]


def _cot_radius_reference(rng: SplitMix64) -> CheckResult:
    # one matrix and one solve per random orientation, signs drawn row by row
    worst_eq = 0.0
    worst_excess = 0.0
    for n in range(2, 13):
        target = 1.0 / math.tan(math.pi / (2 * n))
        rho = spectra.skew_spectral_radius(spectra.canonical_tournament(n))
        worst_eq = max(worst_eq, abs(rho - target))
        for _ in range(50):
            c = np.zeros((n, n), dtype=int)
            for i in range(n):
                for j in range(i + 1, n):
                    s = 1.0 if rng.below(2) else -1.0
                    c[i, j] = s
                    c[j, i] = -s
            worst_excess = max(worst_excess, spectra.skew_spectral_radius(c) - target)
    ok = worst_eq <= 1e-12 and worst_excess <= 1e-12
    return CheckResult(
        "cot_radius", ok,
        f"canonical equality error {worst_eq:.3e}, random-orientation excess {worst_excess:.3e}",
    )


@pytest.mark.parametrize("p", [7, 19, 103, 1019])
def test_cot_radius_stack_matches_per_matrix_loop(p):
    seed = sub_seed(0x5EED0FA1, p)
    rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
    assert _check_cot_radius(p, rng) == _cot_radius_reference(ref_rng)
    # same draws in the same order: both generators end in the same state
    assert rng.next_u64() == ref_rng.next_u64()


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


def test_lemma_check_catches_a_tampered_float_lemma(monkeypatch):
    assert _check_lemma_k(7, None).passed
    monkeypatch.setattr(bounds, "lemma_k_inequality", lambda c, k: k != 100)
    result = _check_lemma_k(7, None)
    assert not result.passed
    assert result.detail.endswith("float failures at k in {1, 2, 3, 10, 100, 1000}: 4")


def test_gamma_check_catches_a_dropped_correction(monkeypatch):
    # gamma without its second sum, k(k-1)/p^2, is nonnegative and below the
    # old bound 2k(k-1)/p^2, but not the closed form k^2 - (a.b)^2 over p^2
    p = 103
    assert _check_gamma_nonneg(p, SplitMix64(sub_seed(0, p))).passed
    monkeypatch.setattr(spectra, "gamma_term", lambda c, d: len(c) * (len(c) - 1) / p**2)
    assert not _check_gamma_nonneg(p, SplitMix64(sub_seed(0, p))).passed


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
    w = np.linalg.eigvalsh(frame.gram_analytic(p, support))
    assert np.abs(w - [1.0 - t, 1.0, 1.0 + t]).max() <= 1e-12


_real_gram_analytic = frame.gram_analytic


def _flip_one_sign(p, support):
    g = _real_gram_analytic(p, support)
    g[0, 1] = -g[0, 1]
    return g


def _flip_one_pair(p, support):
    # another skew sign pattern: the same spectrum, so no eigensolver sees it
    g = _real_gram_analytic(p, support)
    g[0, 1], g[1, 0] = -g[0, 1], -g[1, 0]
    return g


def _scale_one_over_p(p, support):
    g = frame.sign_matrix(p, support) * (1j / p)
    np.fill_diagonal(g, 1.0)
    return g


def _diagonal_one_ulp_high(p, support):
    g = _real_gram_analytic(p, support)
    np.fill_diagonal(g, 1.0 + 2.0**-52)
    return g


def _unsigned_zero_real_parts(p, support):
    # -0.0 real parts (chi = -1) made +0.0: equal under ==, not bit for bit
    g = _real_gram_analytic(p, support)
    return np.abs(g.real) + 1j * g.imag


@pytest.mark.parametrize("fault", [_flip_one_sign, _flip_one_pair, _scale_one_over_p,
                                   _diagonal_one_ulp_high, _unsigned_zero_real_parts])
def test_order3_checks_catch_a_faulty_gramian(monkeypatch, fault):
    p = 103
    for check in (_check_delta3_spectrum, _check_charpoly):
        assert check(p, SplitMix64(sub_seed(0, p))).passed
    monkeypatch.setattr(frame, "gram_analytic", fault)
    for check in (_check_delta3_spectrum, _check_charpoly):
        result = check(p, SplitMix64(sub_seed(0, p)))
        assert not result.passed
        assert result.detail.startswith("gram_analytic = I + (i/sqrt p) C bit for bit: 0 of 50;")
        assert result.detail.endswith(": 50 of 50")


def test_order3_checks_catch_a_faulty_legendre_symbol(monkeypatch):
    # chi(-x) = chi(x) breaks skew symmetry: the polynomials, not only the entries, fail
    p = 103
    monkeypatch.setattr(verify, "legendre", lambda a, q: 0 if a == 0 else 1)
    for check in (_check_delta3_spectrum, _check_charpoly):
        result = check(p, SplitMix64(sub_seed(0, p)))
        assert not result.passed
        assert result.detail.endswith(": 0 of 50")
