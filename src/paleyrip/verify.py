"""Self-check suite behind the `verify` CLI command.

Runs the identity and inequality checks that the closed-form machinery
rests on, at a caller-chosen prime plus a fixed internal grid, and returns
a structured pass/fail report.  Checks route through the public module
functions so a fault injected into any of them is caught here.

Four checks are exact: delta3_spectrum and charpoly_identity (gram_analytic
bit for bit against I + (i/sqrt p) C, then the characteristic polynomials
of C^T C and C in ints), lemma_k_inequality and c_alpha_search.  Three
compare float code with an exact value or with dense LAPACK: gamma_nonneg
(the float gamma_term against the integer p^2 gamma within 1e-12 relative,
and min gamma >= -1e-14), block_determinant and cot_radius.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import bounds, frame, spectra
from .numtheory import check_paley, legendre
from .rng import SplitMix64, random_subsets, sub_seed

REPORTED_C_ALPHA = 899_998

_SUITE_SEED = 0x5EED0FA1  # fixed: the report must be reproducible


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _random_sign_vector(rng: SplitMix64, k: int, scale: float) -> np.ndarray:
    signs = np.array([1.0 if rng.below(2) else -1.0 for _ in range(k)])
    return 1j * scale * signs


def _charpoly3(m) -> tuple[int, int, int]:
    """(e2, e1, e0) with det(xI - M) = x^3 + e2 x^2 + e1 x + e0, for a 3x3 integer M."""
    (a, b, c), (d, e, f), (g, h, i) = m
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return -(a + e + i), (a * e - b * d) + (a * i - c * g) + (e * i - f * h), -det


def _order3_signs(p, support) -> tuple[list[list[int]], bool]:
    """C_T in ints, and whether gram_analytic(p, T) is I + (i/sqrt p) C_T bit for bit.

    C_ab = legendre(T_a - T_b, p), by Euler's criterion, not from the chi
    table gram_analytic reads; signed zeros must match too.
    """
    c = [[legendre(a - b, p) for b in support] for a in support]
    scale = 1j / math.sqrt(p)
    ref = np.array([[1 if a == b else s * scale for b, s in enumerate(row)]
                    for a, row in enumerate(c)])
    g = np.asarray(frame.gram_analytic(p, support), dtype=complex)
    return c, g.shape == (3, 3) and g.tobytes() == ref.tobytes()


def _check_order3(name, p, rng, poly_of, want, claim) -> CheckResult:
    cases = [_order3_signs(p, t) for t in random_subsets(p, 3, rng.next_u64s(50))]
    exact = sum(ok for _, ok in cases)
    polys = sum(_charpoly3(poly_of(c)) == want for c, _ in cases)
    detail = f"gram_analytic = I + (i/sqrt p) C bit for bit: {exact} of 50; {claim}: {polys} of 50"
    return CheckResult(name, exact == polys == 50, detail)


def _check_delta3_spectrum(p, rng) -> CheckResult:
    return _check_order3(
        "delta3_spectrum", p, rng,
        lambda c: [[sum(r[i] * r[j] for r in c) for j in range(3)] for i in range(3)],
        (-6, 9, 0),
        "det(xI - C^T C) = x(x-3)^2 in integers, so spectrum {1-sqrt(3/p), 1, 1+sqrt(3/p)}",
    )


def _check_charpoly(p, rng) -> CheckResult:
    return _check_order3(
        "charpoly_identity", p, rng, lambda c: c, (0, 3, 0),
        "det(xI - C) = x^3 + 3x in integers, so det(G - xI) = (1-x)^3 - 3(1-x)/p",
    )


def _check_gamma_nonneg(p, rng) -> CheckResult:
    # sign borders c = i a/sqrt p, d = i b/sqrt p: p^2 gamma = k^2 - (a.b)^2 exactly
    scale = 1.0 / math.sqrt(p)
    low, worst = 0.0, 0.0
    for _ in range(200):
        k = 2 + rng.below(9)
        c = _random_sign_vector(rng, k, scale)
        d = _random_sign_vector(rng, k, scale)
        g = spectra.gamma_term(c, d)
        low = min(low, g)
        a_dot_b = int(np.sign(c.imag) @ np.sign(d.imag))
        worst = max(worst, abs(g * p**2 - (k * k - a_dot_b**2)) / (k * k))
    ok = low >= -1e-14 and worst <= 1e-12
    return CheckResult(
        "gamma_nonneg", ok,
        f"min gamma {low:.3e}, max |p^2 gamma - (k^2 - (a.b)^2)|/k^2 {worst:.3e}",
    )


def _check_block_det(p, rng) -> CheckResult:
    scale = 1.0 / math.sqrt(p)
    worst = 0.0
    for _ in range(200):
        k = 2 + rng.below(9)
        blk = spectra.BorderedBlock(
            a=1.0,
            b=1j * scale * (1.0 if rng.below(2) else -1.0),
            c=_random_sign_vector(rng, k, scale),
            d=_random_sign_vector(rng, k, scale),
            eta=1.0 + (rng.below(1000) / 1000.0 - 0.5) * scale,
        )
        x = rng.below(2000) / 1000.0 - 0.5
        closed = spectra.block3_det(blk, x)
        dense = np.linalg.det(blk.assemble() - x * np.eye(blk.order))
        err = abs(closed - dense) / max(abs(dense), 1e-14)
        worst = max(worst, err)
    return CheckResult(
        "block_determinant", worst <= 1e-10,
        f"max relative error vs dense LU determinant: {worst:.3e}",
    )


def _lemma_k_holds(c: Fraction) -> bool:
    """Whether the step lemma holds strictly for every k >= 1 at c, decided exactly.

    With t = k - 1/(ck) and R = k + 1 - 1/(c(k+1)), the lemma
    t/2 + sqrt(t^2/4 + k + 1) < R holds exactly when R > t/2 and the margin
    R(R - t) - (k + 1) is positive.  Times c^2 k (k+1)^2, both sides of
    R(R - t) - (k + 1) = (1 - 1/(c(k+1))) / (c k (k+1)) are polynomials of
    degree at most 4 in k, so equality at k = 1..5 makes it an identity.
    For c > 0 the closed form's numerator c(k+1) - 1 grows with k, so the
    margin is positive for every k >= 1 once it is at k = 1 (c > 1/2).  R
    grows with k too, so R > 0 at k = 1 gives R > 0 for every k; R(R - t) > 0
    then gives R - t > 0, and with it 2R - t = R + (R - t) > 0.
    """

    def margins(k: int) -> tuple[Fraction, Fraction, Fraction]:
        t, r = k - 1 / (c * k), k + 1 - 1 / (c * (k + 1))
        return r, r * (r - t) - (k + 1), (1 - 1 / (c * (k + 1))) / (c * k * (k + 1))

    if c <= 0 or any(m != closed for _, m, closed in map(margins, range(1, 6))):
        return False
    r, margin, _ = margins(1)
    return margin > 0 and r > 0


def _check_lemma_k(p, rng) -> CheckResult:
    constants = (1.0, bounds.DEMBO_C, 2.0, 10.0)
    proved = all(_lemma_k_holds(Fraction(c)) for c in constants)
    failures = sum(not bounds.lemma_k_inequality(c, k)
                   for c in constants for k in (1, 2, 3, 10, 100, 1000))
    return CheckResult(
        "lemma_k_inequality", proved and failures == 0,
        f"c in {{1, 1/(2(2-sqrt3)), 2, 10}}: exact margin (c(k+1) - 1)/(c^2 k (k+1)^2) > 0 "
        f"and R > t/2 for every k >= 1: {proved}; "
        f"float failures at k in {{1, 2, 3, 10, 100, 1000}}: {failures}",
    )


def _check_cot_radius(p, rng) -> CheckResult:
    worst_eq = 0.0
    worst_excess = 0.0
    for n in range(2, 13):
        target = 1.0 / math.tan(math.pi / (2 * n))
        rho = spectra.skew_spectral_radius(spectra.canonical_tournament(n))
        worst_eq = max(worst_eq, abs(rho - target))
        # 50 random orientations in one stack; signs drawn row by row over
        # each upper triangle, which is the order triu_indices lists it in.
        # below(2) never rejects (2 divides 2^64), so each sign is the low
        # bit of one output.
        upper = np.triu_indices(n, 1)
        signs = np.where(rng.next_u64s(50 * len(upper[0])) & 1, 1, -1).astype(np.int8)
        c = np.zeros((50, n, n), dtype=np.int8)
        c[:, upper[0], upper[1]] = np.reshape(signs, (50, -1))
        c = c - np.swapaxes(c, -1, -2)
        worst_excess = max(worst_excess, float(np.max(spectra.skew_spectral_radius(c))) - target)
    ok = worst_eq <= 1e-12 and worst_excess <= 1e-12
    return CheckResult(
        "cot_radius", ok,
        f"canonical equality error {worst_eq:.3e}, random-orientation excess {worst_excess:.3e}",
    )


def _check_c_alpha(p, rng) -> CheckResult:
    c_star = bounds.find_c_alpha(0.8, 0.7)

    def holds(c: int) -> bool:
        return 60**10 * c**7 < (c - 10) ** 10 if c > 10 else False

    ok = holds(c_star) and not holds(c_star - 1)
    reported_ok = holds(REPORTED_C_ALPHA)
    flag = "" if c_star == REPORTED_C_ALPHA else (
        f"; differs from the reported {REPORTED_C_ALPHA} "
        f"(which {'satisfies' if reported_ok else 'violates'} the inequality but is not minimal)"
    )
    return CheckResult(
        "c_alpha_search", ok,
        f"smallest c = {c_star}, holds at c and fails at c-1: {ok}{flag}",
    )


_CHECKS = (
    _check_delta3_spectrum,
    _check_charpoly,
    _check_gamma_nonneg,
    _check_block_det,
    _check_lemma_k,
    _check_cot_radius,
    _check_c_alpha,
)


def run_verification(p) -> dict:
    """Run every check at prime p; returns a JSON-ready report."""
    p = check_paley(p)
    rng = SplitMix64(sub_seed(_SUITE_SEED, p))
    results = [check(p, rng) for check in _CHECKS]
    return {
        "p": p,
        "checks": [
            {"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results
        ],
        "all_passed": bool(all(r.passed for r in results)),
        "failed": [r.name for r in results if not r.passed],
    }
