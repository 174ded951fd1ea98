"""Closed-form RIP bound families and the c_alpha search of the conditional family.

All families bound delta_k for the Paley construction by f(k)/sqrt(p):

    gershgorin          f(k) = k - 1
    skew_linear         f(k) = (2/pi) k
    skew_cot            f(k) = cot(pi / 2k)
    dembo_recursive     f(k) = k - 1 - 2(2 - sqrt(3))/(k - 1)        (k >= 3)
    generalized_dembo   f(k) = k - 1 - (2/3)(2 - sqrt(3))            (k >= 3)
    conjectural         f(k) = k^beta, valid only if the residue
                        distribution conjecture holds

FAMILIES declares each of the five unconditional families once, as its
f(k) and its domain min_k <= k <= p, p >= min_p; family_bounds and
max_sparsity read it, and numtheory.check_k decides the range of k for
every one.  max_sparsity and find_c_alpha each find the first integer
where a monotone inequality turns true, with one search, _first_true.
The module returns values only: the CLI assembles the `bounds` document
and the ripcurve columns from family_bounds, bound_conjectural and
max_sparsity.  The formulas are pure arithmetic in (k, p): they do
not touch the frame, so they accept any prime p (notably p = 1009 = 1
mod 4, which appears in the sparsity-threshold comparison as formula
evaluation only).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from typing import NamedTuple

from .errors import ParameterRangeError
from .numtheory import check_k, check_prime

# Constant of the recursive family; 1/(2c) = 2 - sqrt(3) makes the k = 3
# base case collapse to sqrt(3)/sqrt(p).
DEMBO_C = 1.0 / (2.0 * (2.0 - math.sqrt(3.0)))

# k-independent improvement of the generalized family, equal to 1/(3c).
GENERALIZED_OFFSET = (2.0 / 3.0) * (2.0 - math.sqrt(3.0))

RECOVERY_THRESHOLD = 1.0 / math.sqrt(2.0)


class Family(NamedTuple):
    """One unconditional family: delta_k <= f(k)/sqrt(p) for min_k <= k <= p, p >= min_p.

    `floor` is the family's printed closed-form sparsity threshold, if any.
    """

    f: Callable[[int], float]
    min_k: int = 1
    min_p: int = 3
    floor: Callable[[int], int] | None = None


FAMILIES = {
    "gershgorin": Family(lambda k: k - 1,
                         floor=lambda p: math.floor(math.sqrt(p / 2.0)) + 1),
    # 0.0 at k = 1, the radius of the 1 x 1 zero matrix, where the float
    # cot(pi/2) would leave ~6e-17
    "skew_cot": Family(lambda k: 1.0 / math.tan(math.pi / (2.0 * k)) if k > 1 else 0.0),
    "skew_linear": Family(lambda k: 2.0 * k / math.pi,
                          floor=lambda p: math.floor(math.sqrt(p / 2.0) * math.pi / 2.0)),
    "dembo_recursive": Family(lambda k: k - 1 - 1.0 / (DEMBO_C * (k - 1)), min_k=3, min_p=7),
    "generalized_dembo": Family(lambda k: k - 1 - GENERALIZED_OFFSET, min_k=3, min_p=7),
}


def bound_conjectural(k: int, p, beta: float) -> float:
    """k^beta/sqrt(p); conditional on the quadratic-residue conjecture.

    fit.fit_power_law (the `fit` command) estimates beta from an RIP curve.
    """
    p = check_prime(p)
    if not 0.0 < beta <= 1.0:
        raise ParameterRangeError(f"beta must be in (0, 1], got {beta}")
    return check_k(k, p, 1) ** beta / math.sqrt(p)


def family_bounds(k: int, p) -> dict[str, float | None]:
    """Every family's bound at (k, p), in FAMILIES order; None below a family's domain."""
    p = check_prime(p)
    k = check_k(k, p, 1)
    return {name: fam.f(k) / math.sqrt(p) if k >= fam.min_k and p >= fam.min_p else None
            for name, fam in FAMILIES.items()}


class SparsityThreshold(NamedTuple):
    """Largest even sparsity 2k a family certifies for recovery at a given p.

    `max_even` is the largest even m with family-bound(m) < 1/sqrt(2);
    `floor_threshold` is the family's printed closed-form floor where one
    exists, reported side by side because the printed value may be odd
    while a sparsity budget is even.  The family is the caller's argument.
    """

    max_even: int
    floor_threshold: int | None


def _first_true(holds: Callable[[int], bool]) -> int:
    """Smallest n >= 1 with holds(n), for a predicate false below some n and true from it on.

    Doubling finds the first power of two where holds is true; bisect then
    searches the gap above the previous one, so no upper end is needed.
    """
    hi = 1
    while not holds(hi):
        hi *= 2
    lo = hi // 2 + 1
    return lo + bisect_left(range(lo, hi), True, key=holds)


def max_sparsity(p, family: str) -> SparsityThreshold:
    """Largest even m = 2k <= p with family-bound(m) < 1/sqrt(2), found by _first_true on k."""
    if family not in FAMILIES:
        raise ParameterRangeError(f"unknown bound family {family!r}")
    fam = FAMILIES[family]
    p = check_prime(p, min_p=fam.min_p)
    sqrt_p = math.sqrt(p)
    # delta_2 = mu = 1/sqrt(p) exactly, for every family; f increases from m = 4
    k = _first_true(lambda k: (1.0 if k == 1 else fam.f(2 * k)) / sqrt_p >= RECOVERY_THRESHOLD)
    return SparsityThreshold(min(2 * k - 2, p - 1), fam.floor(p) if fam.floor else None)


def find_c_alpha(alpha: float, beta: float) -> int:
    """Smallest positive integer c with 12 c^(1+beta) < (1-alpha) c^2 - 2c, exactly.

    With 1 - alpha = s/t and 1 + beta = q/r in lowest terms (from each
    float's shortest repr), the r-th power of the inequality,
    12^r c^q t^r < (s c^2 - 2tc)^r, is decided in integers.  The domain is
    0 < alpha, beta < 1 with t <= 10^9 and r <= 1000, which holds for every
    alpha of at most nine digits after the point and every beta of at most
    three; outside it, or if no c <= 2^63 satisfies the inequality, it
    raises ParameterRangeError.  c* is re-checked to hold and c* - 1 to fail.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterRangeError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ParameterRangeError(f"beta must be in (0, 1), got {beta}")
    from fractions import Fraction  # loaded on demand: only this search needs it

    s, t = (1 - Fraction(str(alpha))).as_integer_ratio()
    q, r = (1 + Fraction(str(beta))).as_integer_ratio()
    if r > 1000 or t > 10**9:
        raise ParameterRangeError(f"c_alpha needs denominators <= 10^9 for alpha and <= 1000 "
                                  f"for beta, got alpha={alpha}, beta={beta}")

    def holds(c: int) -> bool:
        base = s * c * c - 2 * t * c
        return base > 0 and 12**r * c**q * t**r < base**r

    # true past 2^63, so the doubling stops there
    c_star = _first_true(lambda c: c > 2**63 or holds(c))
    if c_star > 2**63:
        raise ParameterRangeError(
            f"c_alpha inequality unsatisfiable in 64-bit range for alpha={alpha}, beta={beta}"
        )
    if not holds(c_star) or (c_star > 1 and holds(c_star - 1)):
        raise ParameterRangeError(f"c_alpha search failed to isolate the boundary at {c_star}")
    return c_star
