"""Reproducible numerical experiments on the Paley construction.

Covers the empirical RIP lower-bound curves d(j) and their worst-case
variant over many random supports, exhaustive exact RIP at tiny scale, the
log-log power-law fit, the bordered-bound sharpness study, and the
quadratic-residue pair searches behind the square-root-barrier conjecture.

Every Gramian of the frame is I + (i/sqrt p) C with C the integer sign
matrix chi(T_a - T_b) of the support T, and its deviation from the identity
is exactly rho(C)/sqrt p.  The spectral experiments therefore build C stacks
straight from chi_table and hand them to spectra.skew_spectral_radius, at
most STACK_ENTRIES matrix entries per call.

Determinism contract: every result is a pure function of its arguments
including the master seed.  Per-trial sub-seeds come from rng.sub_seed, and
batch sizes depend only on the matrix order, so outcomes do not depend on
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from . import spectra
from .errors import MalformedInputError, ParameterRangeError
from .frame import SupportSet, as_support
from .numtheory import as_paley_prime, check_prime, chi_table
from .rng import random_subset, sub_seed

EXACT_RIP_GUARD = 10**6
DEFAULT_FIT_JMIN = 3
# Sign-matrix entries per stacked eigensolve: large enough to amortise the
# per-call cost, small enough that a batch stays about a megabyte.
STACK_ENTRIES = 2**16


def _sign_stack(p: int, idx: np.ndarray) -> np.ndarray:
    """Integer sign matrices C[..., a, b] = chi(T_a - T_b) for supports idx[..., :]."""
    return chi_table(p)[(idx[..., :, None] - idx[..., None, :]) % p]


def _max_rho(p: int, supports, k: int) -> float:
    """Largest rho(C_T) over an iterable of k-supports T, in stacked batches."""
    batch = max(1, STACK_ENTRIES // (k * k))
    rest = iter(supports)
    worst = 0.0
    while chunk := list(islice(rest, batch)):
        rho = spectra.skew_spectral_radius(_sign_stack(p, np.array(chunk)))
        worst = max(worst, float(rho.max()))
    return worst


def _worst_curve(p: int, supports: list[tuple[int, ...]], k: int) -> np.ndarray:
    """d(j) = max over supports of rho(C_j)/sqrt p for each prefix order j."""
    idx = np.array(supports)
    d = np.zeros(k)
    for j in range(2, k + 1):
        d[j - 1] = _max_rho(p, idx[:, :j], j) / math.sqrt(p)
    return d


@dataclass(frozen=True)
class RipEstimate:
    """Empirical RIP lower-bound curve d(1..k) with full provenance.

    d[j-1] = rho(C_j)/sqrt p, where C_j is the sign matrix of the j-prefix,
    is max(lambda_max(G_j) - 1, 1 - lambda_min(G_j)); d[0] (order 1) is 0.
    Within a trial the supports are nested prefixes of one random draw, so d
    is nondecreasing by eigenvalue interlacing of principal submatrices.
    """

    p: int
    k: int
    seed: int
    trials: int
    d: np.ndarray = field(repr=False)
    supports: tuple[tuple[int, ...], ...] | None = None


def estimate_rip_single(p, k: int, seed: int = 0) -> RipEstimate:
    """d(j) for j = 1..k from one uniformly random k-subset.

    Each nested prefix gives d(j) = rho(C_j)/sqrt p; the draw is a pure
    function of (p, k, seed).
    """
    pp = as_paley_prime(p)
    k = int(k)
    if not 2 <= k <= pp.p:
        raise ParameterRangeError(f"k must be in [2, p], got k={k}, p={pp.p}")
    support = random_subset(pp.p, k, seed)
    d = _worst_curve(pp.p, [support], k)
    return RipEstimate(pp.p, k, int(seed), 1, d, (support,))


def estimate_rip_worst(p, k: int, trials: int, seed: int = 0,
                       keep_supports: bool = True) -> RipEstimate:
    """Pointwise max of d(j) over `trials` independent single-support runs.

    Trial t uses sub_seed(seed, t); each order j is one batched solve over
    every trial's j-prefix.
    """
    pp = as_paley_prime(p)
    trials = int(trials)
    if trials < 1:
        raise ParameterRangeError(f"trials must be >= 1, got {trials}")
    k = int(k)
    if not 2 <= k <= pp.p:
        raise ParameterRangeError(f"k must be in [2, p], got k={k}, p={pp.p}")

    supports = [random_subset(pp.p, k, sub_seed(seed, t)) for t in range(trials)]
    d = _worst_curve(pp.p, supports, k)
    return RipEstimate(pp.p, k, int(seed), trials, d,
                       tuple(supports) if keep_supports else None)


def exact_rip(p, k: int) -> float:
    """Worst eigenvalue deviation over all k-subsets (tiny scale only).

    Guarded by binomial(p, k) <= 10^6; this is the brute-force oracle the
    closed-form bounds are checked against.  Only order k is solved, as
    max rho(C_T)/sqrt p over the streamed supports T.
    """
    pp = as_paley_prime(p)
    k = int(k)
    if not 1 <= k <= pp.p:
        raise ParameterRangeError(f"k must be in [1, p], got k={k}, p={pp.p}")
    if math.comb(pp.p, k) > EXACT_RIP_GUARD:
        raise ParameterRangeError(
            f"binomial({pp.p}, {k}) exceeds the exhaustive guard {EXACT_RIP_GUARD}"
        )
    return _max_rho(pp.p, combinations(range(pp.p), k), k) / math.sqrt(pp.p)


def fit_power_law(d, j_min: int = DEFAULT_FIT_JMIN) -> tuple[float, float, float]:
    """Least-squares slope of log d(j) on log j over j in [j_min, k].

    `d` is the curve d(1..k), as in RipEstimate.d.  Nonpositive d(j) are
    skipped.  Returns (beta, intercept, r2).  The default window starts at 3
    because d(2) and d(3) are deterministic for this construction and would
    bias the slope of the stochastic regime.
    """
    if j_min < 2:
        raise ParameterRangeError(f"j_min must be >= 2, got {j_min}")
    d = np.asarray(d, dtype=float)
    j = np.arange(1, len(d) + 1)
    mask = (j >= j_min) & (d > 0.0) & np.isfinite(d)
    if mask.sum() < 3:
        raise MalformedInputError(
            f"power-law fit needs >= 3 positive points in the window, got {int(mask.sum())}"
        )
    x = np.log(j[mask].astype(float))
    y = np.log(d[mask])
    xm, ym = float(x.mean()), float(y.mean())
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    beta = sxy / sxx
    intercept = ym - beta * xm
    resid = y - (beta * x + intercept)
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / sst if sst > 0 else 1.0
    return beta, intercept, r2


@dataclass(frozen=True)
class DemboRatioRow:
    j: int
    lambda_max: float
    dembo_bound: float
    gershgorin_bound: float
    dembo_ratio: float
    gershgorin_ratio: float


def dembo_ratio_study(p, k: int, seed: int = 0) -> list[DemboRatioRow]:
    """Sharpness of the one-step bordered bound against the disk bound.

    One random support; for each prefix order j the bordered bound is fed
    the exact previous top eigenvalue (the idealized recursion) and the
    squared border norm (j-1)/p, then both bounds are divided by the true
    lambda_max = 1 + rho(C_j)/sqrt p of the prefix Gramian.
    """
    pp = as_paley_prime(p)
    k = int(k)
    if not 3 <= k <= pp.p:
        raise ParameterRangeError(f"k must be in [3, p], got k={k}, p={pp.p}")
    c = _sign_stack(pp.p, np.array(random_subset(pp.p, k, seed)))
    sqrt_p = math.sqrt(pp.p)
    rows = []
    lam_prev = 1.0  # top eigenvalue of the 1x1 prefix
    for j in range(2, k + 1):
        lam = 1.0 + spectra.skew_spectral_radius(c[:j, :j]) / sqrt_p
        dembo = spectra.dembo_upper(1.0, lam_prev, (j - 1) / pp.p)
        gersh = 1.0 + (j - 1) / sqrt_p
        rows.append(DemboRatioRow(j, lam, dembo, gersh, dembo / lam, gersh / lam))
        lam_prev = lam
    return rows


# --- quadratic-residue pair experiments -------------------------------------


@dataclass(frozen=True)
class ConjectureRecord:
    """Best balanced pair found in one support.

    `numerator` is the exact integer |sum over the one-sided difference set
    of chi(r_i - r_l) chi(r_j - r_l)|; ratio = numerator / (k - 2).
    `zero_terms` counts chi-arguments that vanished mod p (impossible for a
    validated distinct support, kept for transparency).
    """

    p: int
    support: tuple[int, ...]
    pair: tuple[int, int]
    ratio: float
    alpha: float
    satisfied: bool
    numerator: int = 0
    zero_terms: int = 0


def one_sided_ratio(p, support, i: int, j: int) -> float:
    """Normalized character sum over the one-sided difference set of (i, j).

    With a = r_j - r_i the summand chi(r_i - r_l) chi(r_i - r_l + a) equals
    chi(r_i - r_l) chi(r_j - r_l); the numerator is accumulated as an exact
    integer and divided by |support| - 2.
    """
    p = check_prime(p)
    T = as_support(p, support)
    k = len(T)
    if k < 3:
        raise ParameterRangeError(f"need |support| >= 3, got {k}")
    if i == j or not (0 <= i < k and 0 <= j < k):
        raise ParameterRangeError(f"invalid pair positions ({i}, {j}) for size {k}")
    cm = _sign_stack(p, np.array(T.indices))
    num = int(np.dot(cm[i], cm[j]))  # diagonal chi(0) = 0 drops l in {i, j}
    return abs(num) / (k - 2)


def conjecture_search(p, support, alpha: float = 0.8) -> ConjectureRecord:
    """Exhaustive pair scan for the smallest one-sided ratio.

    All ordered pairs are admissible (the summand is symmetric in i and j,
    so the minimum lands on the lexicographically smallest position pair:
    argmin returns the first minimum in row-major order).
    """
    p = check_prime(p)
    T = as_support(p, support)
    k = len(T)
    if k < 3:
        raise ParameterRangeError(f"need |support| >= 3, got {k}")
    cm = _sign_stack(p, np.array(T.indices))
    nums = np.abs(cm @ cm.T)  # entry (i, j): exact pair numerator
    np.fill_diagonal(nums, k)  # above every pair numerator, which is <= k - 2
    i, j = divmod(int(nums.argmin()), k)
    n = int(nums[i, j])
    zero_terms = int(np.sum(cm[i] == 0) + np.sum(cm[j] == 0)) - 2  # beyond chi(0) diag
    ratio = n / (k - 2)
    return ConjectureRecord(
        p=p, support=T.indices, pair=(i, j), ratio=ratio, alpha=float(alpha),
        satisfied=ratio < alpha, numerator=n, zero_terms=max(zero_terms, 0),
    )


def greedy_peel(p, support, alpha: float = 0.8, m_alpha: int = 5) -> list[ConjectureRecord]:
    """Repeatedly remove the best balanced pair until < m_alpha elements remain.

    Mirrors the inductive peeling argument: each step must find a pair with
    ratio below alpha among the surviving elements.  Returns the full trace;
    the final residual has m_alpha - 1 or m_alpha - 2 elements, matching the
    parity of the starting size.
    """
    p = check_prime(p)
    T = as_support(p, support)
    if m_alpha < 3:
        raise ParameterRangeError(f"m_alpha must be >= 3, got {m_alpha}")
    if len(T) < m_alpha:
        raise ParameterRangeError(f"need |support| >= m_alpha, got {len(T)} < {m_alpha}")
    remaining = list(T.indices)
    trace = []
    while len(remaining) >= m_alpha:
        rec = conjecture_search(p, SupportSet(p, tuple(remaining)), alpha)
        trace.append(rec)
        i, j = rec.pair
        for pos in sorted((i, j), reverse=True):
            remaining.pop(pos)
    return trace


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

    Trial sub-seeding matches estimate_rip_worst, so extending the trial
    count only appends trials and can never lower the worst best-ratio.
    """
    p = check_prime(p)
    trials = int(trials)
    if trials < 1:
        raise ParameterRangeError(f"trials must be >= 1, got {trials}")
    k = int(k)
    if not 3 <= k <= p:
        raise ParameterRangeError(f"k must be in [3, p], got k={k}, p={p}")

    supports = [random_subset(p, k, sub_seed(seed, t)) for t in range(trials)]
    records = tuple(conjecture_search(p, SupportSet(p, s), alpha) for s in supports)
    worst = max(range(trials), key=lambda t: (records[t].ratio, -t))
    frac = sum(r.satisfied for r in records) / trials
    return ConjectureScanSummary(
        p=p, k=k, trials=trials, seed=int(seed), alpha=float(alpha),
        records=records, fraction_satisfied=frac,
        worst_ratio=records[worst].ratio, worst_support=supports[worst],
    )
