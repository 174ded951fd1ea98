"""Reproducible numerical experiments on the Paley construction.

Covers the empirical RIP lower-bound curves d(j) and their worst-case
variant over many random supports, exact RIP (certified by a support that
attains the skew_cot bound cot(pi/2k)/sqrt p where one exists, else
exhaustive at tiny scale) and the bordered-bound sharpness study.  The
quadratic-residue pair experiments, the Monte Carlo scan included, live in
`pairs`, and the log-log power-law fit of d(j) in `fit`; neither needs
numpy, and this module imports neither.

Every Gramian of the frame is I + (i/sqrt p) C with C the integer sign
matrix chi(T_a - T_b) of the support T, and its deviation from the identity
is exactly rho(C)/sqrt p.  The experiments build sign matrices with
frame.sign_matrix, in stacks of at most STACK_ENTRIES matrix entries, solved
by _radii through spectra.skew_spectral_radius (rho(C)^2 is the top
eigenvalue of the exact integer product C^T C, one real symmetric solve per
matrix).  _worst_curve is the one prefix-radius path: the RIP curves and
the bordered-bound study read it.  It builds each trial's C once, at
order k, into an int8 stack of at most 1 MiB whatever the trial count, then
walks the prefix order down and, by Cauchy interlacing, solves at each order
only the leading blocks of the trials that can still set the max.
exact_rip first searches the supports with rho(C_T) = cot(pi/2k), a set
closed under subsets and under x -> a x + b, so a depth-first search from
{0, 1} finds one if any exists; one such witness is a lower bound that
meets the upper bound.  That search runs first, tests tightness exactly
(see cot_witness) within its own candidate budget, and EXACT_RIP_GUARD
bounds only the orbit enumeration that runs when it finds none.

Determinism contract: every result is a pure function of its arguments
including the master seed.  Per-trial sub-seeds come from rng.sub_seed, a
run's supports are drawn in one rng.random_subsets call (bit-exact with
drawing each alone), and batch sizes depend only on the matrix order, so
outcomes do not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from . import spectra
from .errors import ParameterRangeError
from .frame import sign_matrix
from .numtheory import check_paley, chi_signs
from .rng import random_subsets, sub_seed

# Largest number of orbit representatives (k-subsets containing {0, 1},
# binomial(p-2, k-2) of them) exact_rip will enumerate; it is checked only
# when the witness search has found no witness.
EXACT_RIP_GUARD = 10**6
# Candidates exact_rip allows its witness search to test, about 0.3 s on one
# core of a 2-core x86 host.  Witnesses at k = 12 took at most 1,450 at the
# primes tried from 103 to 223; proving that none exists at (107, 12) took
# 5.1 million.
_WITNESS_CANDIDATES = 10**5
# Sign-matrix entries per stack: large enough to amortise the per-call
# cost of a stacked solve, small enough to stay about a megabyte.
STACK_ENTRIES = 2**16
# int8 sign-matrix entries _worst_curve stores at once (1 MiB), whatever
# the trial count.
_STORED_ENTRIES = 16 * STACK_ENTRIES
# Computed radii of nested blocks break interlacing by up to ~1e-15 relative.
_INTERLACING_SLACK = 1e-12


def _check_k(k, p: int, lo: int) -> int:
    """k as an int; ParameterRangeError unless lo <= k <= p."""
    if not lo <= (k := int(k)) <= p:
        raise ParameterRangeError(f"k must be in [{lo}, p], got k={k}, p={p}")
    return k


def _batch(k: int) -> int:
    """Order-k matrices per stack: STACK_ENTRIES entries, at least one matrix."""
    return max(1, STACK_ENTRIES // (k * k))


def _radii(c: np.ndarray, rows, j: int) -> np.ndarray:
    """rho of the leading j x j blocks of c[rows], solved _batch(j) matrices at a time.

    Each batch is sliced from c on its own, so a selection of a large
    stored stack is never copied whole.
    """
    return np.concatenate([
        spectra.skew_spectral_radius(c[rows[s:s + _batch(j)], :j, :j])
        for s in range(0, len(rows), _batch(j))
    ])


def _worst_curve(p: int, idx: np.ndarray, k: int) -> np.ndarray:
    """d(j) = max over the supports idx[t] of rho(C_j)/sqrt p for each prefix order j.

    C_j is the leading j x j block of C_{j+1}, so by Cauchy interlacing each
    trial's radius is nondecreasing in j, and its last solved radius is an
    upper bound ub at every lower order.  The trials are taken in groups of
    at most _STORED_ENTRIES sign-matrix entries, each group's C built once,
    at order k, as an int8 stack whose leading blocks are solved.  A group
    solves all its trials at order k; then, walking j down, its trial with
    the largest ub is solved first, and after it only the trials whose ub
    still reaches the max so far at j, from this group and those before it,
    less the slack.  Pruned trials cannot set the max, so d equals the full
    max exactly.
    """
    rho = np.zeros(k)
    group = max(1, _STORED_ENTRIES // (k * k))
    for g in range(0, len(idx), group):
        members = idx[g:g + group]
        c = np.empty((len(members), k, k), dtype=np.int8)
        for s in range(0, len(c), _batch(k)):
            c[s:s + _batch(k)] = sign_matrix(p, members[s:s + _batch(k)])
        ub = _radii(c, np.arange(len(c)), k)
        rho[k - 1] = max(rho[k - 1], ub.max())
        for j in range(k - 1, 1, -1):
            best = rho[j - 1]
            top = np.argmax(ub)
            if ub[top] <= best * (1.0 - _INTERLACING_SLACK):
                continue  # no trial of this group can reach the max at j
            ub[top] = r = _radii(c, [top], j)[0]
            best = max(best, r)
            rest = np.flatnonzero(ub > best * (1.0 - _INTERLACING_SLACK))
            rest = rest[rest != top]
            if rest.size:
                ub[rest] = _radii(c, rest, j)
                best = max(best, ub[rest].max())
            rho[j - 1] = best
    return rho / math.sqrt(p)


@dataclass(frozen=True, eq=False)
class RipEstimate:
    """Empirical RIP lower-bound curve d(1..k) with full provenance.

    d[j-1] = rho(C_j)/sqrt p, where C_j is the sign matrix of the j-prefix,
    is max(lambda_max(G_j) - 1, 1 - lambda_min(G_j)); d[0] (order 1) is 0.
    Within a trial the supports are nested prefixes of one random draw, so d
    is nondecreasing by eigenvalue interlacing of principal submatrices.
    `supports` is the (trials, k) array of drawn column indices, row t the
    support of trial t in draw order.  Two estimates are equal when their
    fields are, the arrays compared whole; like the arrays, they are unhashable.
    """

    p: int
    k: int
    seed: int
    trials: int
    d: np.ndarray = field(repr=False)
    supports: np.ndarray = field(repr=False)

    def __eq__(self, other):
        if not isinstance(other, RipEstimate):
            return NotImplemented
        return ((self.p, self.k, self.seed, self.trials)
                == (other.p, other.k, other.seed, other.trials)
                and np.array_equal(self.d, other.d)
                and np.array_equal(self.supports, other.supports))

    __hash__ = None


def estimate_rip_single(p, k: int, seed: int = 0) -> RipEstimate:
    """d(j) for j = 1..k from one uniformly random k-subset.

    Each nested prefix gives d(j) = rho(C_j)/sqrt p; the draw is a pure
    function of (p, k, seed).
    """
    p = check_paley(p)
    k = _check_k(k, p, 2)
    idx = random_subsets(p, k, [seed])
    return RipEstimate(p, k, int(seed), 1, _worst_curve(p, idx, k), idx)


def estimate_rip_worst(p, k: int, trials: int, seed: int = 0) -> RipEstimate:
    """Pointwise max of d(j) over `trials` independent single-support runs.

    Trial t uses sub_seed(seed, t); all supports come from one
    random_subsets draw.  Every trial is solved at order k; below
    it, a trial is solved at order j only while its radius at the last order
    it was solved at can still reach the max (see _worst_curve), so most
    solves are skipped and d is the same as solving every trial at every j.
    """
    p = check_paley(p)
    trials = int(trials)
    if trials < 1:
        raise ParameterRangeError(f"trials must be >= 1, got {trials}")
    k = _check_k(k, p, 2)

    idx = random_subsets(p, k, [sub_seed(seed, t) for t in range(trials)])
    return RipEstimate(p, k, int(seed), trials, _worst_curve(p, idx, k), idx)


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
    extensions of (0, 1), members kept in that order: a candidate x keeps
    a node tight exactly when the members that beat x form a prefix, and
    goes right after it.  Tight candidates are passed down; a branch is cut
    once len(T) plus its candidates falls short of k.  Tightness is
    AGL(1,p)-invariant (x -> a x + b maps C_T to chi(a) C_T) and hereditary,
    so the search is complete: None means no tight k-support exists.  A
    direct call has no budget; at (107, 12) it tests 5.1 million candidates.
    """
    p = check_paley(p)
    k = _check_k(k, p, 2)
    return _cot_search(p, k, math.inf)


def _cot_search(p: int, k: int, budget: float) -> tuple[int, ...] | None:
    """cot_witness's search, raising _BudgetSpent once it tests more than `budget` candidates."""
    chi = chi_signs(p)
    s = [1, *chi[:0:-1]]  # s_u = chi(-u) for u > 0
    tested = 0

    def extend(order: list[int], cands: list[int]) -> tuple[int, ...] | None:
        nonlocal tested
        if len(order) == k:
            return tuple(sorted(order))
        tested += len(cands)
        if tested > budget:
            raise _BudgetSpent
        tight = []  # (x, the order with x inserted) for each x that keeps the node tight
        for x in cands:
            beats = [s[u] * chi[u - x] == s[x] for u in order]
            if all(beats[:(j := sum(beats))]):  # the members that beat x are the first j
                tight.append((x, [*order[:j], x, *order[j:]]))
        for i, (_, child) in enumerate(tight):
            if len(child) + len(tight) - i - 1 < k:
                break
            if (found := extend(child, [x for x, _ in tight[i + 1:]])) is not None:
                return found
        return None

    return extend([0, 1], list(range(2, p)))


def exact_rip(p, k: int) -> float:
    """Worst eigenvalue deviation over all k-subsets (tiny scale only).

    x -> a x + b maps C_T to chi(a) C_T, so rho(C_T) is constant on AGL(1,p)
    orbits, and 2-transitivity puts a support containing {0, 1} in each.
    Every rho(C_T) is at most cot(pi/2k) (the skew_cot bound), so a
    cot_witness support certifies delta_k = rho(C_T)/sqrt p at once.  The
    witness search runs first, testing at most _WITNESS_CANDIDATES candidates.
    Only where it finds none, or runs out of budget, are the
    binomial(p-2, k-2) orbit representatives solved, at order k, as max
    rho(C_T)/sqrt p; EXACT_RIP_GUARD bounds that enumeration, and the error
    it raises says how the witness search ended.  This is the oracle the
    closed-form bounds are checked against.
    """
    p = check_paley(p)
    k = _check_k(k, p, 1)
    if k == 1:
        return 0.0  # C_T = [0]; there is no pair to fix
    try:
        if (witness := _cot_search(p, k, _WITNESS_CANDIDATES)) is not None:
            return spectra.skew_spectral_radius(sign_matrix(p, witness)) / math.sqrt(p)
        searched = f"no {k}-support attains cot(pi/{2 * k})"
    except _BudgetSpent:
        searched = f"the witness search exceeded its budget of {_WITNESS_CANDIDATES} candidates"
    if math.comb(p - 2, k - 2) > EXACT_RIP_GUARD:
        raise ParameterRangeError(
            f"{searched}, and the enumeration of binomial({p - 2}, {k - 2}) representatives"
            f" exceeds the exhaustive guard {EXACT_RIP_GUARD}"
        )
    reps = ((0, 1, *rest) for rest in combinations(range(2, p), k - 2))
    rho = 0.0
    while chunk := list(islice(reps, _batch(k))):
        c = sign_matrix(p, chunk)
        rho = max(rho, _radii(c, np.arange(len(c)), k).max())
    return float(rho) / math.sqrt(p)


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

    One random support, the one estimate_rip_single(p, k, seed) draws; for
    each prefix order j the bordered bound is fed the exact previous top
    eigenvalue (the idealized recursion) and the squared border norm
    (j-1)/p, then both bounds are divided by the true
    lambda_max = 1 + d(j) = 1 + rho(C_j)/sqrt p of the prefix Gramian, read
    from that estimate's curve.
    """
    p = check_paley(p)
    k = _check_k(k, p, 3)
    d = estimate_rip_single(p, k, seed).d
    sqrt_p = math.sqrt(p)
    rows = []
    lam_prev = 1.0  # top eigenvalue of the 1x1 prefix
    for j in range(2, k + 1):
        lam = 1.0 + float(d[j - 1])
        dembo = spectra.dembo_upper(1.0, lam_prev, (j - 1) / p)
        gersh = 1.0 + (j - 1) / sqrt_p
        rows.append(DemboRatioRow(j, lam, dembo, gersh, dembo / lam, gersh / lam))
        lam_prev = lam
    return rows
