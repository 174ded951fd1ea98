"""Closed-form RIP bound families and the scalar inequality checkers.

All families bound delta_k for the Paley construction by f(k)/sqrt(p):

    gershgorin          f(k) = k - 1
    skew_linear         f(k) = (2/pi) k
    skew_cot            f(k) = cot(pi / 2k)
    dembo_recursive     f(k) = k - 1 - 2(2 - sqrt(3))/(k - 1)        (k >= 3)
    generalized_dembo   f(k) = k - 1 - (2/3)(2 - sqrt(3))            (k >= 3)
    conjectural         f(k) = k^beta, valid only if the residue
                        distribution conjecture holds

The formulas are pure arithmetic in (k, p): they do not touch the frame, so
they accept any prime p (notably p = 1009 = 1 mod 4, which appears in the
sparsity-threshold comparison as formula evaluation only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import ParameterRangeError
from .numtheory import check_prime

# Constant of the recursive family; 1/(2c) = 2 - sqrt(3) makes the k = 3
# base case collapse to sqrt(3)/sqrt(p).
DEMBO_C = 1.0 / (2.0 * (2.0 - math.sqrt(3.0)))

# k-independent improvement of the generalized family, equal to 1/(3c).
GENERALIZED_OFFSET = (2.0 / 3.0) * (2.0 - math.sqrt(3.0))

RECOVERY_THRESHOLD = 1.0 / math.sqrt(2.0)

# First order j of the log-log fit d(j) ~ j^beta that estimates the
# conditional family's beta (experiments.fit_power_law and the `fit` command).
DEFAULT_FIT_JMIN = 3

UNCONDITIONAL_FAMILIES = (
    "gershgorin",
    "skew_cot",
    "skew_linear",
    "dembo_recursive",
    "generalized_dembo",
)


def bound_gershgorin(k: int, p) -> float:
    """(k - 1)/sqrt(p): the disk-theorem bound, uniform over all eigenvalues."""
    p = check_prime(p)
    k = int(k)
    if k < 1:
        raise ParameterRangeError(f"k must be >= 1, got {k}")
    return (k - 1) / math.sqrt(p)


def bound_skew(k: int, p, exact: bool = False) -> float:
    """Skew-adjacency bound: cot(pi/2k)/sqrt(p), or its linear relaxation (2k/pi)/sqrt(p).

    cot(x) <= 1/x on (0, pi/2), so the exact variant never exceeds the
    linear one.  At k = 1 the exact variant is 0.0, the radius of the 1 x 1
    zero matrix, where the float cot(pi/2) would leave ~6e-17.
    """
    p = check_prime(p)
    k = int(k)
    if not 1 <= k <= p:
        raise ParameterRangeError(f"k must be in [1, p], got k={k}, p={p}")
    if exact:
        if k == 1:
            return 0.0
        return (1.0 / math.tan(math.pi / (2.0 * k))) / math.sqrt(p)
    return (2.0 * k / math.pi) / math.sqrt(p)


def bound_dembo_recursive(k: int, p) -> float:
    """(k - 1 - 1/(c(k-1)))/sqrt(p) with c = 1/(2(2 - sqrt(3))), for k >= 3."""
    p = check_prime(p, min_p=7)
    k = int(k)
    if k < 3:
        raise ParameterRangeError(f"recursive bound needs k >= 3, got {k}")
    return (k - 1 - 1.0 / (DEMBO_C * (k - 1))) / math.sqrt(p)


def bound_generalized_dembo(k: int, p) -> float:
    """(k - 1 - (2/3)(2 - sqrt(3)))/sqrt(p) for k >= 3; the offset is k-free."""
    p = check_prime(p, min_p=7)
    k = int(k)
    if k < 3:
        raise ParameterRangeError(f"generalized bound needs k >= 3, got {k}")
    return (k - 1 - GENERALIZED_OFFSET) / math.sqrt(p)


def bound_conjectural(k: int, p, beta: float) -> float:
    """k^beta/sqrt(p); conditional on the quadratic-residue conjecture."""
    p = check_prime(p)
    if not 0.0 < beta <= 1.0:
        raise ParameterRangeError(f"beta must be in (0, 1], got {beta}")
    k = int(k)
    if k < 1:
        raise ParameterRangeError(f"k must be >= 1, got {k}")
    return k**beta / math.sqrt(p)


_FAMILY_FUNCS = {
    "gershgorin": lambda m, p: bound_gershgorin(m, p),
    "skew_linear": lambda m, p: bound_skew(m, p, exact=False),
    "skew_cot": lambda m, p: bound_skew(m, p, exact=True),
    "dembo_recursive": lambda m, p: bound_dembo_recursive(m, p),
    "generalized_dembo": lambda m, p: bound_generalized_dembo(m, p),
}


@dataclass(frozen=True)
class SparsityThreshold:
    """Largest even sparsity 2k a family certifies for recovery at a given p.

    `max_even` is the largest even m with family-bound(m) < 1/sqrt(2);
    `floor_threshold` is the printed closed-form floor where one exists
    (floor(sqrt(p/2)) + 1 for gershgorin, floor(sqrt(p/2) * pi/2) for
    skew_linear), reported side by side because the printed value may be
    odd while a sparsity budget is even.
    """

    family: str
    max_even: int
    floor_threshold: int | None


def max_sparsity(p, family: str) -> SparsityThreshold:
    """Scan even m = 2k upward until family-bound(m) reaches 1/sqrt(2)."""
    p = check_prime(p)
    if family not in _FAMILY_FUNCS:
        raise ParameterRangeError(f"unknown bound family {family!r}")
    func = _FAMILY_FUNCS[family]
    best = 0
    m = 2
    while m <= p:
        if m == 2:
            val = 1.0 / math.sqrt(p)  # delta_2 = mu exactly, for every family
        else:
            try:
                val = func(m, p)
            except ParameterRangeError:
                m += 2
                continue
        if val < RECOVERY_THRESHOLD:
            best = m
            m += 2
        else:
            break
    if family == "gershgorin":
        floor_value = math.floor(math.sqrt(p / 2.0)) + 1
    elif family == "skew_linear":
        floor_value = math.floor(math.sqrt(p / 2.0) * math.pi / 2.0)
    else:
        floor_value = None
    return SparsityThreshold(family, best, floor_value)


def lemma_k_inequality(c: float, k: int, slack: float = 1e-12) -> bool:
    """Single-step inductive inequality behind the recursive family.

    Checks (k - 1/(ck))/2 + sqrt((k - 1/(ck))^2/4 + k + 1) <= k + 1 - 1/(c(k+1))
    in floating point with the given equality slack.
    """
    if c < 1.0:
        raise ParameterRangeError(f"c must be >= 1, got {c}")
    k = int(k)
    if k < 1:
        raise ParameterRangeError(f"k must be >= 1, got {k}")
    t = k - 1.0 / (c * k)
    lhs = t / 2.0 + math.sqrt(t * t / 4.0 + k + 1.0)
    rhs = k + 1.0 - 1.0 / (c * (k + 1.0))
    return lhs <= rhs + slack


# --- smallest integer satisfying 12 c^(1+beta) < (1-alpha) c^2 - 2c ---------

_EXACT_DENOM_LIMIT = 1000


def _c_alpha_holds_exact(c: int, one_minus_alpha: Fraction, one_plus_beta: Fraction) -> bool:
    # Raise both sides to the beta denominator so everything is integer
    # arithmetic: 12^r c^(r+q) t^r < (s c^2 - 2 t c)^r, with exponent
    # (r+q)/r and 1-alpha = s/t.
    q = one_plus_beta.numerator
    r = one_plus_beta.denominator
    s = one_minus_alpha.numerator
    t = one_minus_alpha.denominator
    rhs_base = s * c * c - 2 * t * c
    if rhs_base <= 0:
        return False
    return 12**r * c ** q * t**r < rhs_base**r


def _c_alpha_holds_decimal(c: int, alpha: float, beta: float, digits: int = 60) -> bool:
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


@dataclass(frozen=True)
class BoundReport:
    """All bound-family values at one (p, k), plus optional extras.

    The recursive and generalized families are None below k = 3 (or when
    p < 7); `conjectural` is populated only on request and must be treated
    as conditional.  `best` is the pointwise minimum over the defined
    unconditional families: no single family dominates for every k, the
    crossover between skew_linear and the additive families sits near
    k = 3.
    """

    p: int
    k: int
    gershgorin: float
    skew_cot: float
    skew_linear: float
    dembo_recursive: float | None
    generalized_dembo: float | None
    conjectural: float | None = None
    conjectural_beta: float | None = None
    empirical_lower: float | None = None

    @property
    def best(self) -> float:
        vals = [self.gershgorin, self.skew_cot, self.skew_linear]
        if self.dembo_recursive is not None:
            vals.append(self.dembo_recursive)
        if self.generalized_dembo is not None:
            vals.append(self.generalized_dembo)
        return min(vals)

    def to_dict(self, include_sparsity: bool = True) -> dict:
        doc = {
            "p": self.p,
            "k": self.k,
            "bounds": {
                "gershgorin": self.gershgorin,
                "skew_cot": self.skew_cot,
                "skew_linear": self.skew_linear,
                "dembo_recursive": self.dembo_recursive,
                "generalized_dembo": self.generalized_dembo,
            },
            "best": self.best,
        }
        if self.conjectural is not None:
            doc["conditional"] = {
                "conjectural": self.conjectural,
                "beta": self.conjectural_beta,
                "note": "valid only if the quadratic-residue conjecture holds",
            }
        if self.empirical_lower is not None:
            doc["empirical_lower"] = self.empirical_lower
        if include_sparsity:
            doc["max_sparsity"] = {
                fam: {
                    "max_even": th.max_even,
                    "floor_threshold": th.floor_threshold,
                }
                for fam in ("gershgorin", "skew_linear", "skew_cot")
                for th in (max_sparsity(self.p, fam),)
            }
        return doc


def build_report(p, k: int, beta: float | None = None) -> BoundReport:
    """Evaluate every family at (p, k); k >= 2 required."""
    p = check_prime(p)
    k = int(k)
    if k < 2:
        raise ParameterRangeError(f"bound report needs k >= 2, got {k}")
    dembo = None
    generalized = None
    if k >= 3 and p >= 7:
        dembo = bound_dembo_recursive(k, p)
        generalized = bound_generalized_dembo(k, p)
    conjectural = None
    if beta is not None:
        conjectural = bound_conjectural(k, p, beta)
    return BoundReport(
        p=p,
        k=k,
        gershgorin=bound_gershgorin(k, p),
        skew_cot=bound_skew(k, p, exact=True),
        skew_linear=bound_skew(k, p, exact=False),
        dembo_recursive=dembo,
        generalized_dembo=generalized,
        conjectural=conjectural,
        conjectural_beta=beta if conjectural is not None else None,
    )
