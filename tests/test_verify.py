import math
from fractions import Fraction

import numpy as np
import pytest

from paleyrip import bounds, spectra
from paleyrip.rng import SplitMix64, sub_seed
from paleyrip.verify import (
    CheckResult,
    _check_cot_radius,
    _check_gamma_nonneg,
    _check_lemma_k,
    _lemma_k_holds,
)


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
