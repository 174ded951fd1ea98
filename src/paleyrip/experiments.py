"""Reproducible numerical experiments on the Paley construction.

Covers the empirical RIP lower-bound curves d(j) and their worst-case
variant over many random supports, exact RIP (certified by a support that
attains the skew_cot bound cot(pi/2k)/sqrt p where one exists, else
exhaustive at tiny scale) and the bordered-bound sharpness study.  The
quadratic-residue pair experiments, the Monte Carlo scan included, live in
`pairs`, and the log-log power-law fit of d(j) in `fit`; neither needs
numpy, and only exact_rip imports one: `pairs`, for its witness search.
It imports `bounds` too, whose skew_cot value caps what it returns.

Every Gramian of the frame is I + (i/sqrt p) C with C the integer sign
matrix chi(T_a - T_b) of the support T, and its deviation from the identity
is exactly rho(C)/sqrt p.  The experiments build sign matrices with
frame.sign_matrix, in stacks of at most STACK_ENTRIES matrix entries, and
solve them on spectra's exact radius path: gate, exact C^T C product, one
real symmetric solve per matrix (the spectra docstring says why the product
is exact).  _worst_curve is the one prefix-radius path: the RIP curves and
the bordered-bound study read it.  It builds each trial's C once, at order
k, into an int8 stack of at most 1 MiB whatever the trial count, then walks
the prefix order down and, by Cauchy interlacing, solves at each order only
the leading blocks of the trials that can still set the max; a trial solved
alone at consecutive orders takes its product as an exact rank-one downdate
of the one above.
exact_rip first runs the witness search of pairs.cot_witness, within its
own candidate budget: a support with rho(C_T) = cot(pi/2k), the skew_cot
bound, is a lower bound that meets the upper bound.  EXACT_RIP_GUARD
bounds only the orbit enumeration that runs when it finds none.

Every support of order k >= (p+3)/2 has delta_T = 1 exactly, so no
experiment solves there.  The p x p sign matrix C of all of Z_p has
C^T C = pI - J.  Its columns T hold C_T in the rows T and a (p - k) x k
block B in the other rows, so C_T^T C_T = pI - J - B^T B.  J + B^T B is
positive semidefinite of rank at most p - k + 1, which is below k, so
C_T^T C_T has the eigenvalue p and none above it: rho(C_T) = sqrt p.  The
curves are 1.0 at those orders and exact_rip returns 1.0, where a computed
radius would exceed 1 by rounding.  Below, for k <= (p+1)/2, delta_T < 1
strictly, for every T: J + B^T B is positive definite, since equality
would need a vector on T whose Fourier transform is supported on one half
of the nonzero residues, and Tao's uncertainty principle for Z_p
(|supp f| + |supp f^| >= p + 1) forbids it.  So a computed radius above
sqrt p there is rounding too, and the curves and exact_rip cap d at 1.0.
A curve is returned as the float64 array d(1..k) alone: its caller holds
the arguments.

Determinism contract: every result is a pure function of its arguments
including the master seed.  Trial seeds come from rng.trial_seeds, a
run's supports are drawn in one rng.random_subsets call (bit-exact with
drawing each alone), and batch sizes depend only on the matrix order, so
outcomes do not depend on evaluation order.
"""

from __future__ import annotations

import math
from itertools import combinations, islice
from typing import NamedTuple

import numpy as np

from . import spectra
from .errors import ParameterRangeError
from .frame import sign_matrix
from .numtheory import check_k, check_paley
from .rng import random_subsets, trial_seeds

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


def _batch(k: int) -> int:
    """Order-k matrices per stack: STACK_ENTRIES entries, at least one matrix."""
    return max(1, STACK_ENTRIES // (k * k))


def _radii(c: np.ndarray, rows, j: int) -> np.ndarray:
    """rho of the leading j x j blocks of c[rows], solved _batch(j) matrices at a time.

    c is a gated sign-matrix stack.  Each batch is sliced from c on its
    own, so a selection of a large stored stack is never copied whole.
    """
    return np.concatenate([
        spectra.gram_radius(spectra.sign_gram(c[rows[s:s + _batch(j)], :j, :j]))
        for s in range(0, len(rows), _batch(j))
    ])


def _worst_curve(p: int, idx: np.ndarray) -> np.ndarray:
    """d(j) = max over the supports idx[t] of rho(C_j)/sqrt p for each prefix order j.

    The orders run j = 1..idx.shape[1]; d(j) is 1.0 for j >= (p+3)/2 and
    below 1 under it (see the module docstring), so the walk below builds
    and solves orders up to k = min(idx.shape[1], (p+1)/2) only, and caps
    what it solves at 1.0.

    C_j is the leading j x j block of C_{j+1}, so by Cauchy interlacing each
    trial's radius is nondecreasing in j, and its last solved radius is an
    upper bound ub at every lower order.  The trials are taken in groups of
    at most _STORED_ENTRIES sign-matrix entries, each group's C built once,
    at order k, as an int8 stack that is gated once and whose leading
    blocks are solved.  A group solves all its trials at order k; then,
    walking j down, it solves them best first, in one stable order of
    descending ub: the first trial alone, then chunks of 8, 16, ... up to
    _batch(j) trials, each chunk only of the trials whose ub still reaches
    the max so far at j, from this group and those before it, less the
    slack.  Pruned trials cannot set the max, so d equals the full max
    exactly.
    A trial solved alone at order j + 1 and again at j has
    C_j^T C_j = (C_{j+1}^T C_{j+1})[:j, :j] - c c^T with c = C[j, :j], an
    exact integer downdate, so only that one product is held.  Order k is
    solved as a stack, so the held product starts at order k - 1.
    """
    k = min(idx.shape[1], (p + 1) // 2)
    ceiling = np.ones(idx.shape[1] - k)
    idx = idx[:, :k]
    rho = np.zeros(k)
    group = max(1, _STORED_ENTRIES // (k * k))
    for g in range(0, len(idx), group):
        members = idx[g:g + group]
        c = np.empty((len(members), k, k), dtype=np.int8)
        for s in range(0, len(c), _batch(k)):
            c[s:s + _batch(k)] = sign_matrix(p, members[s:s + _batch(k)])
        spectra.check_sign_matrices(c)
        held = None  # (t, C^T C) of the trial t last solved alone, at order len(C^T C)

        def alone(t: int, j: int) -> float:
            nonlocal held
            if held is not None and held[0] == t and len(held[1]) == j + 1:
                row = c[t, j, :j].astype(np.float64)
                s = held[1][:j, :j] - np.outer(row, row)
            else:
                s = spectra.sign_gram(c[t, :j, :j])
            held = (t, s)
            return spectra.gram_radius(s)

        ub = _radii(c, np.arange(len(c)), k)
        rho[k - 1] = max(rho[k - 1], ub.max())
        for j in range(k - 1, 1, -1):
            best, size = rho[j - 1], 1
            rest = np.argsort(-ub, kind="stable")
            while (rest := rest[ub[rest] > best * (1.0 - _INTERLACING_SLACK)]).size:
                chunk, rest = rest[:size], rest[size:]
                ub[chunk] = alone(chunk[0], j) if size == 1 else _radii(c, chunk, j)
                best = max(best, ub[chunk].max())
                size = min(max(8, 2 * size), _batch(j))
            rho[j - 1] = best
    return np.concatenate([np.minimum(rho / math.sqrt(p), 1.0), ceiling])


def estimate_rip_single(p, k: int, seed: int = 0) -> np.ndarray:
    """The empirical RIP lower-bound curve d(1..k) of one uniformly random k-subset.

    d[j-1] = rho(C_j)/sqrt p, where C_j is the sign matrix of the j-prefix,
    is max(lambda_max(G_j) - 1, 1 - lambda_min(G_j)); d[0] (order 1) is 0.
    The prefixes are nested, so d is nondecreasing in exact arithmetic, by
    eigenvalue interlacing of principal submatrices; at ties a computed
    value can dip by a rounding step, never by more than _INTERLACING_SLACK
    relative.  The draw is random_subset(p, k, seed), a pure function of
    (p, k, seed).
    """
    p = check_paley(p)
    k = check_k(k, p, 2)
    return _worst_curve(p, random_subsets(p, k, [seed]))


def estimate_rip_worst(p, k: int, trials: int, seed: int = 0) -> np.ndarray:
    """Pointwise max of the curves d(1..k) of `trials` independent single-support runs.

    Trial t uses seed t of rng.trial_seeds; all supports come from one
    random_subsets draw.  Every trial is solved at order k; below
    it, a trial is solved at order j only while its radius at the last order
    it was solved at can still reach the max (see _worst_curve), so most
    solves are skipped and d is the same as solving every trial at every j.
    """
    p = check_paley(p)
    seeds = trial_seeds(seed, trials)
    k = check_k(k, p, 2)
    return _worst_curve(p, random_subsets(p, k, seeds))


def exact_rip(p, k: int) -> float:
    """Worst eigenvalue deviation over all k-subsets (tiny scale only).

    x -> a x + b maps C_T to chi(a) C_T, so rho(C_T) is constant on AGL(1,p)
    orbits, and 2-transitivity puts a support containing {0, 1} in each.
    Every rho(C_T) is at most cot(pi/2k) (the skew_cot bound), so a
    pairs.cot_witness support certifies delta_k = rho(C_T)/sqrt p at once.
    That search runs first, testing at most _WITNESS_CANDIDATES candidates.
    Only where it finds none, or runs out of budget, are the
    binomial(p-2, k-2) orbit representatives solved, at order k, as max
    rho(C_T)/sqrt p; EXACT_RIP_GUARD bounds that enumeration, and the error
    it raises says how the witness search ended.  This is the oracle the
    closed-form bounds are checked against.  For k >= (p+3)/2 it returns
    1.0 before any search: every k-support has delta_T = 1 exactly; below,
    delta_T < 1, and a computed value is capped at 1 (see the module
    docstring) and at the skew_cot bound.
    """
    p = check_paley(p)
    k = check_k(k, p, 1)
    if k == 1:
        return 0.0  # C_T = [0]; there is no pair to fix
    if 2 * k >= p + 3:
        return 1.0
    # imported on call: importing experiments loads neither bounds nor pairs
    from . import bounds
    from .pairs import _BudgetSpent, _cot_search
    try:
        witness = _cot_search(p, k, _WITNESS_CANDIDATES)
        searched = f"no {k}-support attains cot(pi/{2 * k})"
    except _BudgetSpent:
        witness = None
        searched = f"the witness search exceeded its budget of {_WITNESS_CANDIDATES} candidates"
    if witness is not None:
        reps = iter([witness])  # the one support solved
    elif math.comb(p - 2, k - 2) > EXACT_RIP_GUARD:
        raise ParameterRangeError(
            f"{searched}, and the enumeration of binomial({p - 2}, {k - 2}) representatives"
            f" exceeds the exhaustive guard {EXACT_RIP_GUARD}"
        )
    else:
        reps = ((0, 1, *rest) for rest in combinations(range(2, p), k - 2))
    rho = 0.0
    while chunk := list(islice(reps, _batch(k))):
        rho = max(rho, spectra.skew_spectral_radius(sign_matrix(p, chunk)).max())
    # a tight radius can read a few ulps above skew_cot, which caps it but is no
    # value of its own: the float cot(pi/4) is 1 + 2^-52, delta_2 = 1/sqrt p
    cot = bounds.FAMILIES["skew_cot"].f(k) / math.sqrt(p)
    return min(float(rho) / math.sqrt(p), cot, 1.0)


class DemboRatioRow(NamedTuple):
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
    k = check_k(k, p, 3)
    d = estimate_rip_single(p, k, seed)
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
