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
f(k) and its domain min_k <= k <= p, p >= min_p; family_bounds and the
sparsity scan read it, and numtheory.check_k decides the range of k for
every one.  The module returns values only: the CLI assembles the `bounds`
document and the ripcurve columns from family_bounds, bound_conjectural
and max_sparsity.  The formulas are pure arithmetic in (k, p): they do
not touch the frame, so they accept any prime p (notably p = 1009 = 1
mod 4, which appears in the sparsity-threshold comparison as formula
evaluation only).
"""

from __future__ import annotations

import math
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


def max_sparsity(p, family: str) -> SparsityThreshold:
    """Scan even m = 2k upward until family-bound(m) reaches 1/sqrt(2)."""
    if family not in FAMILIES:
        raise ParameterRangeError(f"unknown bound family {family!r}")
    fam = FAMILIES[family]
    p = check_prime(p, min_p=fam.min_p)
    best = 0
    for m in range(2, p + 1, 2):
        # delta_2 = mu exactly, for every family
        if (1.0 if m == 2 else fam.f(m)) / math.sqrt(p) >= RECOVERY_THRESHOLD:
            break
        best = m
    return SparsityThreshold(best, fam.floor(p) if fam.floor else None)


# --- smallest integer satisfying 12 c^(1+beta) < (1-alpha) c^2 - 2c ---------

_EXACT_DENOM_LIMIT = 1000


def _c_alpha_holds_exact(c: int, one_minus_alpha, one_plus_beta) -> bool:
    # Raise both sides to the beta denominator so everything is integer
    # arithmetic: 12^r c^(r+q) t^r < (s c^2 - 2 t c)^r, with exponent
    # (r+q)/r and 1-alpha = s/t.
    q, r = one_plus_beta.as_integer_ratio()
    s, t = one_minus_alpha.as_integer_ratio()
    rhs_base = s * c * c - 2 * t * c
    if rhs_base <= 0:
        return False
    return 12**r * c ** q * t**r < rhs_base**r


def _c_alpha_holds_decimal(c: int, alpha: float, beta: float, digits: int = 60) -> bool:
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = digits
        cd = Decimal(c)
        lhs = Decimal(12) * (cd.ln() * (Decimal(1) + Decimal(str(beta)))).exp()
        rhs = (Decimal(1) - Decimal(str(alpha))) * cd * cd - 2 * cd
        if abs(lhs - rhs) < Decimal(10) ** (-(digits // 2)) * max(abs(lhs), abs(rhs), Decimal(1)):
            if digits >= 240:
                raise ParameterRangeError(
                    f"cannot decide the c_alpha inequality at c={c} even at {digits} digits"
                )
            return _c_alpha_holds_decimal(c, alpha, beta, digits * 2)
        return lhs < rhs


def find_c_alpha(alpha: float, beta: float) -> int:
    """Smallest positive integer c with 12 c^(1+beta) < (1-alpha) c^2 - 2c.

    When alpha and beta have short decimal expansions the comparison runs
    in exact big-integer arithmetic (both sides raised to the denominator
    of 1+beta); otherwise a high-precision decimal evaluation with an
    ambiguity guard decides each candidate.  The satisfying set is a ray
    [c*, inf), so exponential growth followed by bisection finds the
    boundary; the result is re-verified to hold at c* and fail at c* - 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterRangeError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ParameterRangeError(f"beta must be in (0, 1), got {beta}")
    from fractions import Fraction  # loaded on demand: only this search needs it

    alpha_f = Fraction(str(alpha))
    beta_f = Fraction(str(beta))
    if beta_f.denominator <= _EXACT_DENOM_LIMIT and alpha_f.denominator <= 10**9:
        one_minus_alpha = 1 - alpha_f
        one_plus_beta = 1 + beta_f
        holds = lambda c: _c_alpha_holds_exact(c, one_minus_alpha, one_plus_beta)
    else:
        holds = lambda c: _c_alpha_holds_decimal(c, alpha, beta)

    hi = 1
    while not holds(hi):
        hi *= 2
        if hi > 2**63:
            raise ParameterRangeError(
                f"c_alpha inequality unsatisfiable in 64-bit range for alpha={alpha}, beta={beta}"
            )
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    if not holds(hi) or (hi > 1 and holds(hi - 1)):
        raise ParameterRangeError(f"c_alpha search failed to isolate the boundary at {hi}")
    return hi
