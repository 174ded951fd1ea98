"""Quadratic-residue pair experiments behind the square-root-barrier conjecture.

For a support T of distinct residues and two of its positions i != j, the
pair numerator is the exact integer |S_ij|, S = C^T C for the sign matrix
C_ab = chi(T_a - T_b) (the integers of numtheory.sign_gram_ints):

    S_ij = sum over l outside {i, j} of chi(T_i - T_l) chi(T_j - T_l),

and the one-sided ratio divides it by |T| - 2.  `conjecture_search` finds
the pair with the smallest numerator in one support, and `greedy_peel`
removes best pairs one after another, as in the inductive peeling
argument.  (Bandeira, Fickus, Mixon & Wong, "The road to deterministic
matrices with the restricted isometry property", JFAA 2013.)

For p = 3 (mod 4) every peel step with n >= 5 survivors meets alpha = 0.8.
Their sign matrix C is the skew-adjacency matrix of a tournament, and
S = C^T C, S_ii = n - 1, is positive semidefinite with top eigenvalue
rho(C)^2 <= cot^2(pi/2n), so tr(S^2) <= rho^2 tr(S) reads
n(n-1)^2 + sum_{i != j} S_ij^2 <= rho^2 n(n-1), and the smallest
numerator is at most sqrt(cot^2(pi/2n) - n + 1).  Over n - 2 that is
0.780 at n = 5, and as cot x < 1/x its square is below
(4n^2/pi^2 - n + 1)/(n - 2)^2 < 0.64 for n >= 6 (the larger root is 5.42).

Only this module reads the Legendre tournament as bitmasks, Python ints
read from `numtheory.chi_signs`; it loads no numpy.  The masks live in
residue space, p bits wide.  R has bit u set when chi(-u) = +1; it is
built once per prime and cached, and row x's mask P_x (`_row_mask`), R
rotated left by x within p bits, has bit t set when chi(x - t) = +1, in
either class of p mod 4: the sign masks m_x of the kernel.  With
A the mask of the surviving residues, the numerator is the absolute value
of numtheory.sign_gram_entry, taken one pair at a time and not from a whole
S.  It has the parity of n, so a pair that reaches n mod 2 ends the search.
`cot_witness`, the skew_cot witness search of `experiments.exact_rip`,
reads them too: the mask B_x of the residues that beat x is P_x ^ (R | 1)
or its complement, formed inline for each candidate.  A row mask, a pair
and a candidate each cost O(p/64) words whatever the support size; supports
are never reindexed, and no p-mask table is held.

This is the one place a pair numerator is computed.  `conjecture_scan`,
the Monte Carlo scan over many supports, draws each with the scalar
`rng.random_subset` and runs `conjecture_search`'s peel on it, so the scan
loads no numpy either; `one_sided_ratio` is the scalar oracle.  The
records hold results only: p, k, alpha, the seed and the trial count are
the caller's arguments.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import NamedTuple

from .errors import ParameterRangeError
from .frame import check_support
from .numtheory import check_k, check_paley, check_prime, chi_signs, sign_gram_entry
from .rng import random_subset, trial_seeds


class ConjectureRecord(NamedTuple):
    """Best balanced pair found in one support.

    `numerator` is the exact integer |sum over the one-sided difference set
    of chi(r_i - r_l) chi(r_j - r_l)|; ratio = numerator / (k - 2), and
    `satisfied` is ratio < alpha.
    """

    support: tuple[int, ...]
    pair: tuple[int, int]
    ratio: float
    satisfied: bool
    numerator: int


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
    k = check_k(len(support), p, 3)
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


def _row_mask(r: int, p: int, x: int) -> int:
    """P_x, R rotated left by x within p bits: bit t is set when chi(x - t) = +1."""
    return ((r << x) | (r >> (p - x))) & ((1 << p) - 1)


def _peel(p: int, support: tuple[int, ...], alpha: float, m_alpha: int) -> list[ConjectureRecord]:
    """Best pair of the surviving support, then remove it, while >= m_alpha survive.

    Each step scans the pairs i < j of surviving positions in lexicographic
    order and keeps a strictly smaller numerator, so it returns the first
    minimum in row-major order of the full pair table, and it stops at the
    first pair that reaches the parity floor.  The surviving mask holds the
    surviving residues; a peel clears its bits and rebuilds no row mask.
    """
    r = _residue_mask(p)
    mask = cache(lambda a: _row_mask(r, p, support[a]))  # row masks, built on first use

    def best_pair(order: list[int], alive: int) -> tuple[int, int, int]:
        n = len(order)
        floor, best = n % 2, (n, 0, 0)  # n is above every numerator
        for s, a in enumerate(order):
            mask_a, rest = mask(a), alive ^ 1 << support[a]
            for t in range(s + 1, n):
                b = order[t]
                num = abs(sign_gram_entry(n, mask_a, mask(b), rest ^ 1 << support[b]))
                if num < best[0]:
                    best = (num, s, t)
                    if num == floor:
                        return best
        return best

    order = list(range(len(support)))  # surviving positions, in support order
    alive = 0  # the surviving mask
    for x in support:
        alive |= 1 << x
    records = []
    while len(order) >= m_alpha:
        num, i, j = best_pair(order, alive)
        ratio = num / (len(order) - 2)
        records.append(ConjectureRecord(
            support=tuple(support[x] for x in order), pair=(i, j), ratio=ratio,
            satisfied=ratio < alpha, numerator=num,
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
    return _peel(p, support, alpha, check_k(len(support), p, 3))[0]


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
    check_k(len(support), p, m_alpha)
    return _peel(p, support, alpha, m_alpha)


class _BudgetSpent(Exception):
    """The witness search reached its candidate budget before it finished."""


def cot_witness(p, k: int) -> tuple[int, ...] | None:
    """A k-support T with rho(C_T) = cot(pi/2k), the skew_cot bound, or None.

    C_T is the skew-adjacency matrix of a tournament on T (u beats v when
    chi(u - v) = 1), and rho(C_T) = cot(pi/2k) exactly when C_T lies in the
    switching class of the transitive tournament (Cavers et al., "Skew-
    adjacency matrices of graphs", Linear Algebra Appl. 436, 2012).
    Switching at s_u = chi(-u), s_0 = 1, makes 0 a source; making a vertex
    of a transitive tournament a source only rotates its order, so T is
    tight exactly when the switched tournament (u beats v when
    s_u chi(u - v) s_v = 1) is transitive.  Depth-first over increasing
    extensions of (0, 1), members kept in that order, with pre[j] the mask
    of the first j: a candidate x keeps a node tight exactly when the
    members that beat x form a prefix, b = B_x & pre[-1] = pre[popcount(b)],
    and goes right after them.  Tight candidates are passed down; a branch
    is cut once len(T) plus its candidates falls short of k.  Tightness is
    AGL(1,p)-invariant (x -> a x + b maps C_T to chi(a) C_T) and hereditary,
    so the search is complete: None means no tight k-support exists.  A
    direct call has no budget; at (107, 12) it tests 5.1 million candidates.
    """
    p = check_paley(p)
    k = check_k(k, p, 2)
    return _cot_search(p, k, math.inf)


def _cot_search(p: int, k: int, budget: float) -> tuple[int, ...] | None:
    """cot_witness's search, raising _BudgetSpent once it tests more than `budget` candidates.

    B_x, bit u != x set when u beats x after switching (s_u chi(u - x) s_x = 1),
    is P_x ^ S with S = R | 1 (s_u = chi(-u) = +1, s_0 = 1) when s_x = +1,
    else its complement, as chi(u - x) = -chi(x - u) for p = 3 (mod 4).  Only
    B_x & pre[-1] is read, so P_x's rotation is left unmasked: the bits it
    carries past p fall outside the members.

    It returns None at once when cot^2(pi/2k) > p, a proof and not a spent
    budget: C_T^T C_T = pI - J - B^T B <= pI (experiments' docstring), so
    rho(C_T)^2 <= p for every T.  The test keeps a relative margin of 1e-9,
    far above the float error of cot and below the smallest relative gap at
    the primes tested, 8.4e-4 at (103, 16); inside it the search runs.
    """
    if (1.0 / math.tan(math.pi / (2 * k))) ** 2 > p * (1.0 + 1e-9):
        return None
    r = _residue_mask(p)
    s = r | 1
    tested = 0

    def extend(pre: list[int], cands: list[int]) -> tuple[int, ...] | None:
        nonlocal tested
        if len(pre) > k:
            return tuple(sorted((pre[j + 1] ^ pre[j]).bit_length() - 1 for j in range(k)))
        tested += len(cands)
        if tested > budget:
            raise _BudgetSpent
        tight = []  # (x, popcount(b)) for each x that keeps the node tight
        top = pre[-1]
        for x in cands:  # x >= 2, so s_x = chi(-x) is bit x of R
            b = ((r << x | r >> (p - x)) ^ s) & top
            if not r >> x & 1:
                b ^= top
            if b == pre[j := b.bit_count()]:
                tight.append((x, j))
        for i, (x, j) in enumerate(tight):
            if len(pre) + len(tight) - i - 1 < k:
                break
            child = [*pre[:j + 1], *(m | 1 << x for m in pre[j:])]
            if (found := extend(child, [y for y, _ in tight[i + 1:]])) is not None:
                return found
        return None

    return extend([0, 1, 3], list(range(2, p)))  # the order (0, 1): 0 is a source


# --- Monte Carlo scan of the pair conjecture ---------------------------------


class ConjectureScanSummary(NamedTuple):
    """The scan's records, one per trial in trial order, and the worst of them."""

    records: tuple[ConjectureRecord, ...]
    fraction_satisfied: float
    worst_ratio: float
    worst_support: tuple[int, ...]


def conjecture_scan(p, k: int, trials: int, alpha: float = 0.8,
                    seed: int = 0) -> ConjectureScanSummary:
    """Best-pair search over many random supports; reports the worst case.

    Trial t's support is random_subset(p, k, s), s seed t of rng.trial_seeds
    as in experiments.estimate_rip_worst, so extending the trial count only
    appends trials and can never lower the worst best-ratio.
    Each trial's record is conjecture_search's on its support, read from
    _peel: a draw is k distinct residues, so it is not validated again.
    """
    alpha = check_alpha(alpha)
    p = check_prime(p)
    seeds = trial_seeds(seed, trials)
    k = check_k(k, p, 3)
    records = [_peel(p, random_subset(p, k, s), alpha, k)[0] for s in seeds]
    trials = len(records)
    worst = max(range(trials), key=lambda t: (records[t].ratio, -t))
    frac = sum(r.satisfied for r in records) / trials
    return ConjectureScanSummary(
        records=tuple(records), fraction_satisfied=frac,
        worst_ratio=records[worst].ratio, worst_support=records[worst].support,
    )
