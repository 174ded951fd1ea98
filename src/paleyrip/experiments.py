"""Reproducible numerical experiments on the Paley construction.

Covers the empirical RIP lower-bound curves d(j) and their worst-case
variant over many random supports, exhaustive exact RIP at tiny scale, the
log-log power-law fit, the bordered-bound sharpness study, and the
quadratic-residue pair searches behind the square-root-barrier conjecture.

Every Gramian of the frame is I + (i/sqrt p) C with C the integer sign
matrix chi(T_a - T_b) of the support T, and its deviation from the identity
is exactly rho(C)/sqrt p.  The experiments build sign matrices with
frame.sign_matrix, in stacks of at most STACK_ENTRIES matrix entries, for
spectra.skew_spectral_radius (rho(C)^2 is the top eigenvalue of the exact
integer product C^T C, one real symmetric solve per matrix) and for the pair
searches' |C C^T|.  The worst-case curve walks the prefix order down and, by
Cauchy interlacing, solves at each order only the trials that can still set
the max.

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
from .bounds import DEFAULT_FIT_JMIN
from .errors import MalformedInputError, ParameterRangeError
from .frame import as_support, sign_matrix
from .numtheory import as_paley_prime, check_prime
from .rng import random_subset, sub_seed

# Largest number of orbit representatives (k-subsets containing {0, 1},
# binomial(p-2, k-2) of them) exact_rip will solve.
EXACT_RIP_GUARD = 10**6
# Sign-matrix entries per stack: large enough to amortise the per-call
# cost of a stacked solve or product, small enough to stay about a megabyte.
STACK_ENTRIES = 2**16
# Computed radii of nested blocks break interlacing by up to ~1e-15 relative.
_INTERLACING_SLACK = 1e-12


def _sign_batches(p: int, supports, k: int):
    """Sign-matrix stacks of an iterable of k-supports, STACK_ENTRIES entries at most."""
    batch = max(1, STACK_ENTRIES // (k * k))
    rest = iter(supports)
    while chunk := list(islice(rest, batch)):
        yield sign_matrix(p, chunk)


def _worst_curve(p: int, supports: list[tuple[int, ...]], k: int) -> np.ndarray:
    """d(j) = max over supports of rho(C_j)/sqrt p for each prefix order j.

    C_j is the leading j x j block of C_{j+1}, so by Cauchy interlacing each
    trial's radius is nondecreasing in j, and its last solved radius is an
    upper bound ub at every lower order.  All trials are solved at order k;
    then, walking j down, the trial with the largest ub is solved first, and
    after it only the trials whose ub still reaches that value less the
    slack.  Pruned trials cannot set the max, so d equals the full max exactly.
    """
    idx = np.asarray(supports)

    def solve(rows, j: int) -> np.ndarray:
        batch = max(1, STACK_ENTRIES // (j * j))
        return np.concatenate([
            spectra.skew_spectral_radius(sign_matrix(p, idx[rows[s:s + batch], :j]))
            for s in range(0, len(rows), batch)
        ])

    ub = solve(np.arange(len(idx)), k)
    rho = np.zeros(k)
    rho[k - 1] = ub.max()
    for j in range(k - 1, 1, -1):
        top = np.argmax(ub)
        ub[top] = best = solve([top], j)[0]
        rest = np.flatnonzero(ub > best * (1.0 - _INTERLACING_SLACK))
        rest = rest[rest != top]
        if rest.size:
            ub[rest] = solve(rest, j)
            best = max(best, ub[rest].max())
        rho[j - 1] = best
    return rho / math.sqrt(p)


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

    Trial t uses sub_seed(seed, t).  Every trial is solved at order k; below
    it, a trial is solved at order j only while its radius at the last order
    it was solved at can still reach the max (see _worst_curve), so most
    solves are skipped and d is the same as solving every trial at every j.
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

    x -> a x + b maps C_T to chi(a) C_T, so rho(C_T) is constant on AGL(1,p)
    orbits, and 2-transitivity puts a support containing {0, 1} in each.
    Only those binomial(p-2, k-2) <= EXACT_RIP_GUARD representatives are
    solved, at order k, as max rho(C_T)/sqrt p.  This is the oracle the
    closed-form bounds are checked against.
    """
    pp = as_paley_prime(p)
    k = int(k)
    if not 1 <= k <= pp.p:
        raise ParameterRangeError(f"k must be in [1, p], got k={k}, p={pp.p}")
    if k == 1:
        return 0.0  # C_T = [0]; there is no pair to fix
    if math.comb(pp.p - 2, k - 2) > EXACT_RIP_GUARD:
        raise ParameterRangeError(
            f"binomial({pp.p - 2}, {k - 2}) exceeds the exhaustive guard {EXACT_RIP_GUARD}"
        )
    reps = ((0, 1, *rest) for rest in combinations(range(2, pp.p), k - 2))
    batches = _sign_batches(pp.p, reps, k)
    return float(max(spectra.skew_spectral_radius(c).max() for c in batches)) / math.sqrt(pp.p)


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
    c = sign_matrix(pp.p, random_subset(pp.p, k, seed))
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
    cm = sign_matrix(p, T.indices)
    num = int(np.dot(cm[i], cm[j]))  # diagonal chi(0) = 0 drops l in {i, j}
    return abs(num) / (k - 2)


def _pair_records(p: int, supports, c: np.ndarray, alpha: float) -> list[ConjectureRecord]:
    """Best pair of each k-support, from the stack c of their sign matrices.

    Entry (i, j) of |C C^T| is the exact pair numerator (float64 is exact:
    the entries are integers of size <= k).  With the diagonal set to k, above
    every pair numerator, argmin gives the first minimum in row-major order.
    """
    k = c.shape[-1]
    cf = c.astype(float)
    nums = np.abs(cf @ cf.transpose(0, 2, 1)).reshape(len(c), k * k)
    nums[:, :: k + 1] = k
    records = []
    for support, row in zip(supports, nums):
        best = int(row.argmin())
        n = int(row[best])
        records.append(ConjectureRecord(
            p=p, support=tuple(support), pair=divmod(best, k), ratio=n / (k - 2),
            alpha=float(alpha), satisfied=n / (k - 2) < alpha, numerator=n,
        ))
    return records


def conjecture_search(p, support, alpha: float = 0.8) -> ConjectureRecord:
    """Exhaustive pair scan for the smallest one-sided ratio.

    All ordered pairs are admissible (the summand is symmetric in i and j,
    so the minimum lands on the lexicographically smallest position pair).
    """
    p = check_prime(p)
    T = as_support(p, support)
    if len(T) < 3:
        raise ParameterRangeError(f"need |support| >= 3, got {len(T)}")
    return _pair_records(p, [T.indices], sign_matrix(p, [T.indices]), alpha)[0]


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
    remaining = T.indices
    c = sign_matrix(p, remaining)
    trace = []
    while len(remaining) >= m_alpha:
        trace += _pair_records(p, [remaining], c[None], alpha)
        keep = [x for x in range(len(remaining)) if x not in trace[-1].pair]
        remaining = tuple(remaining[x] for x in keep)
        c = c[np.ix_(keep, keep)]
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
    records = []
    for c in _sign_batches(p, supports, k):
        records += _pair_records(p, supports[len(records):], c, alpha)
    worst = max(range(trials), key=lambda t: (records[t].ratio, -t))
    frac = sum(r.satisfied for r in records) / trials
    return ConjectureScanSummary(
        p=p, k=k, trials=trials, seed=int(seed), alpha=float(alpha),
        records=tuple(records), fraction_satisfied=frac,
        worst_ratio=records[worst].ratio, worst_support=supports[worst],
    )
