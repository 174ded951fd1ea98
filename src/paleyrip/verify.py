"""Self-check suite behind the `verify` CLI command.

Runs the identity and inequality checks that the closed-form machinery
rests on, at a caller-chosen prime plus a fixed internal grid, and returns
a structured pass/fail report.  Checks route through the public module
functions so a fault injected into any of them is caught here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, spectra
from .frame import gram_analytic
from .numtheory import check_paley
from .rng import SplitMix64, random_subsets, sub_seed

REPORTED_C_ALPHA = 899_998

_SUITE_SEED = 0x5EED0FA1  # fixed: the report must be reproducible


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_sign_vector(rng: SplitMix64, k: int, scale: float) -> np.ndarray:
    signs = np.array([1.0 if rng.below(2) else -1.0 for _ in range(k)])
    return 1j * scale * signs


def _check_delta3_spectrum(p, rng) -> CheckResult:
    target = math.sqrt(3.0 / p)
    expected = (1.0 - target, 1.0, 1.0 + target)
    worst = 0.0
    for support in random_subsets(p, 3, rng.next_u64s(50)):
        w = spectra.hermitian_spectrum(gram_analytic(p, support))
        worst = max(worst, *(abs(x - e) for x, e in zip(w, expected)))
    return CheckResult(
        "delta3_spectrum", worst <= 1e-10,
        f"max deviation from {{1-sqrt(3/p), 1, 1+sqrt(3/p)}}: {worst:.3e}",
    )


def _check_charpoly(p, rng) -> CheckResult:
    worst = 0.0
    for support in random_subsets(p, 3, rng.next_u64s(50)):
        worst = max(worst, spectra.gram3_charpoly_check(gram_analytic(p, support), p))
    return CheckResult(
        "charpoly_identity", worst < 1e-12,
        f"max residual of det(G - xI) vs (1-x)^3 - 3(1-x)/p: {worst:.3e}",
    )


def _check_gamma_nonneg(p, rng) -> CheckResult:
    scale = 1.0 / math.sqrt(p)
    low, high_excess = 0.0, 0.0
    for _ in range(200):
        k = 2 + rng.below(9)
        c = _random_sign_vector(rng, k, scale)
        d = _random_sign_vector(rng, k, scale)
        g = spectra.gamma_term(c, d)
        low = min(low, g)
        high_excess = max(high_excess, g - 2.0 * k * (k - 1) / p**2)
    ok = low >= -1e-14 and high_excess <= 1e-14
    return CheckResult(
        "gamma_nonneg", ok,
        f"min gamma {low:.3e}, excess over 2k(k-1)/p^2 {high_excess:.3e}",
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


def _check_lemma_k(p, rng) -> CheckResult:
    failures = sum(not bounds.lemma_k_inequality(c, k)
                   for c in (1.0, bounds.DEMBO_C, 2.0, 10.0) for k in range(1, 10_001))
    return CheckResult(
        "lemma_k_inequality", failures == 0,
        f"{failures} failures over c in {{1, 1/(2(2-sqrt3)), 2, 10}}, k <= 10^4",
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
