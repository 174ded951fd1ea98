"""Quadratic-residue pair experiments behind the square-root-barrier conjecture.

For a support T of distinct residues and two of its positions i != j, the
pair numerator is the exact integer

    |sum over l outside {i, j} of chi(T_i - T_l) chi(T_j - T_l)|,

and the one-sided ratio divides it by |T| - 2.  `conjecture_search` finds
the pair with the smallest numerator in one support, and `greedy_peel`
removes best pairs one after another, as in the inductive peeling
argument.  (Bandeira, Fickus, Mixon & Wong, "The road to deterministic
matrices with the restricted isometry property", JFAA 2013.)

Both work on bitmasks of Python ints read from the Legendre table
`numtheory.chi_signs`, and this module loads no numpy.  The masks live in
residue space, p bits wide.  R has bit u set when chi(-u) = +1; it is
built once per prime and cached, and row x's mask P_x, R rotated left by x
within p bits, has bit t set when chi(x - t) = +1, in either class of
p mod 4.  Every summand is +-1, +1 where P_{T_i} and P_{T_j} agree, so
with A the mask of the surviving residues and n its size the numerator is
|(n - 2) - 2 popcount((P_{T_i} ^ P_{T_j}) & A & ~(bit T_i | bit T_j))|.
It has the parity of n, so a pair that reaches n mod 2 ends the search.
Cost model: a row mask is one rotation and a pair a few operations on
p-bit ints, so each costs O(p/64) machine words whatever the support size;
the supports themselves are never reindexed.

This is the one place a pair numerator is computed.  `conjecture_scan`,
the Monte Carlo scan over many supports, draws each with the scalar
`rng.random_subset` and runs `conjecture_search` on it, so the scan loads
no numpy either; `one_sided_ratio` is the scalar oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterRangeError
from .frame import check_k, check_support
from .numtheory import check_prime, chi_signs
from .rng import random_subset, sub_seed


@dataclass(frozen=True)
class ConjectureRecord:
    """Best balanced pair found in one support.

    `numerator` is the exact integer |sum over the one-sided difference set
    of chi(r_i - r_l) chi(r_j - r_l)|; ratio = numerator / (k - 2).
    `zero_terms` counts off-diagonal chi-arguments that vanish mod p; a
    validated support of distinct residues has none, so it is always 0.
    """

    p: int
    support: tuple[int, ...]
    pair: tuple[int, int]
    ratio: float
    alpha: float
    satisfied: bool
    numerator: int = 0
    zero_terms: int = 0


def check_alpha(alpha) -> float:
    """The conjecture threshold as a float; ParameterRangeError when it is NaN or infinite."""
    if not math.isfinite(alpha := float(alpha)):
        raise ParameterRangeError(f"alpha must be finite, got {alpha}")
    return alpha


def one_sided_ratio(p, support, i: int, j: int) -> float:
    """Normalized character sum over the one-sided difference set of (i, j).

    With a = r_j - r_i the summand chi(r_i - r_l) chi(r_i - r_l + a) equals
    chi(r_i - r_l) chi(r_j - r_l); the numerator is accumulated as an exact
    integer and divided by |support| - 2.
    """
    p = check_prime(p)
    support = check_support(p, support)
    k = len(support)
    if k < 3:
        raise ParameterRangeError(f"need |support| >= 3, got {k}")
    if i == j or not (0 <= i < k and 0 <= j < k):
        raise ParameterRangeError(f"invalid pair positions ({i}, {j}) for size {k}")
    chi = chi_signs(p)
    # chi(0) = 0 drops l in {i, j}
    num = sum(chi[support[i] - t] * chi[support[j] - t] for t in support)
    return abs(num) / (k - 2)


@lru_cache(maxsize=128)
def _residue_mask(p: int) -> int:
    """The p-bit int R whose bit u is set when chi(-u) = +1, cached per prime.

    Its binary digits, most significant first, are 1 where chi(1), ...,
    chi(p - 1) is +1 and 0 elsewhere, then 0 for bit 0, as chi(0) = 0.
    """
    return int("".join("1" if s == 1 else "0" for s in chi_signs(p)[1:]) + "0", 2)


def _peel(p: int, support: tuple[int, ...], alpha: float, m_alpha: int) -> list[ConjectureRecord]:
    """Best pair of the surviving support, then remove it, while >= m_alpha survive.

    Each step scans the pairs i < j of surviving positions in lexicographic
    order and keeps a strictly smaller numerator, so it returns the first
    minimum in row-major order of the full pair table, and it stops at the
    first pair that reaches the parity floor.  Masks live in residue space:
    row x's mask is R rotated left by x within p bits, whose bit t is set
    when chi(x - t) = +1, and the surviving mask holds the residues of the
    surviving positions.  Row masks are built once, on first use; a peel
    clears bits of the surviving mask and rebuilds no row.
    """
    r, full = _residue_mask(p), (1 << p) - 1
    masks: list[int | None] = [None] * len(support)

    def mask(a: int) -> int:
        if masks[a] is None:
            x = support[a]
            masks[a] = ((r << x) | (r >> (p - x))) & full
        return masks[a]

    def best_pair(order: list[int], alive: int) -> tuple[int, int, int]:
        n = len(order)
        floor, best = n % 2, (n, 0, 0)  # n is above every numerator
        for s, a in enumerate(order):
            mask_a, rest = mask(a), alive ^ 1 << support[a]
            for t in range(s + 1, n):
                b = order[t]
                num = abs(n - 2 - 2 * ((mask_a ^ mask(b)) & (rest ^ 1 << support[b])).bit_count())
                if num < best[0]:
                    best = (num, s, t)
                    if num == floor:
                        return best
        return best

    order = list(range(len(support)))  # surviving positions, in support order
    bits = bytearray(p // 8 + 1)  # the surviving mask, written in O(p/8 + k)
    for x in support:
        bits[x >> 3] |= 1 << (x & 7)
    alive = int.from_bytes(bits, "little")
    records = []
    while len(order) >= m_alpha:
        num, i, j = best_pair(order, alive)
        ratio = num / (len(order) - 2)
        records.append(ConjectureRecord(
            p=p, support=tuple(support[x] for x in order), pair=(i, j), ratio=ratio,
            alpha=float(alpha), satisfied=ratio < alpha, numerator=num,
        ))
        alive ^= 1 << support[order[i]] | 1 << support[order[j]]
        del order[j], order[i]
    return records


def conjecture_search(p, support, alpha: float = 0.8) -> ConjectureRecord:
    """Exhaustive pair scan for the smallest one-sided ratio.

    All ordered pairs are admissible (the summand is symmetric in i and j,
    so the minimum lands on the lexicographically smallest position pair).
    """
    alpha = check_alpha(alpha)
    p = check_prime(p)
    support = check_support(p, support)
    if len(support) < 3:
        raise ParameterRangeError(f"need |support| >= 3, got {len(support)}")
    return _peel(p, support, alpha, len(support))[0]


def greedy_peel(p, support, alpha: float = 0.8, m_alpha: int = 5) -> list[ConjectureRecord]:
    """Repeatedly remove the best balanced pair until < m_alpha elements remain.

    Mirrors the inductive peeling argument: each step must find a pair with
    ratio below alpha among the surviving elements.  Returns the full trace;
    the final residual has m_alpha - 1 or m_alpha - 2 elements, matching the
    parity of the starting size.
    """
    alpha = check_alpha(alpha)
    p = check_prime(p)
    support = check_support(p, support)
    if m_alpha < 3:
        raise ParameterRangeError(f"m_alpha must be >= 3, got {m_alpha}")
    if len(support) < m_alpha:
        raise ParameterRangeError(f"need |support| >= m_alpha, got {len(support)} < {m_alpha}")
    return _peel(p, support, alpha, m_alpha)


# --- Monte Carlo scan of the pair conjecture ---------------------------------


@dataclass(frozen=True)
class ConjectureScanSummary:
    p: int
    k: int
    trials: int
    seed: int
    alpha: float
    records: tuple[ConjectureRecord, ...]
    fraction_satisfied: float
    worst_ratio: float
    worst_support: tuple[int, ...]


def conjecture_scan(p, k: int, trials: int, alpha: float = 0.8,
                    seed: int = 0) -> ConjectureScanSummary:
    """Best-pair search over many random supports; reports the worst case.

    Trial t's support is random_subset(p, k, sub_seed(seed, t)), the trial
    sub-seeding of experiments.estimate_rip_worst, so extending the trial
    count only appends trials and can never lower the worst best-ratio.
    Each trial's record is conjecture_search on its support.
    """
    alpha = check_alpha(alpha)
    p = check_prime(p)
    trials = int(trials)
    if trials < 1:
        raise ParameterRangeError(f"trials must be >= 1, got {trials}")
    k = check_k(k, p, 3)

    records = [conjecture_search(p, random_subset(p, k, sub_seed(seed, t)), alpha)
               for t in range(trials)]
    worst = max(range(trials), key=lambda t: (records[t].ratio, -t))
    frac = sum(r.satisfied for r in records) / trials
    return ConjectureScanSummary(
        p=p, k=k, trials=trials, seed=int(seed), alpha=float(alpha),
        records=tuple(records), fraction_satisfied=frac,
        worst_ratio=records[worst].ratio, worst_support=records[worst].support,
    )
