"""Self-contained deterministic randomness for the experiments.

Published seeds must reproduce byte-identical outputs forever, so the
generator is pinned here instead of relying on a library whose stream may
change between releases.  The algorithm is SplitMix64 (Steele, Lea and
Vigna's 64-bit counter generator with a xorshift-multiply finalizer):

    state_t   = seed + (t + 1) * 0x9E3779B97F4A7C15   (mod 2^64)
    output_t  = mix(state_t)

Per-trial sub-seeds reuse the same stream: sub_seed(master, t) is simply the
t-th output of SplitMix64(master), which makes trial results independent of
evaluation order and safe to compute in parallel.  trial_seeds, the trial
rule of both Monte Carlo experiments, lists those of trials 0, ..., n - 1.

A k-subset of {0, ..., p-1} is drawn by the partial Fisher-Yates shuffle
of SplitMix64(seed): step i swaps slot i with slot i + below(p - i), and
the first k slots, in draw order, are the subset.  Both samplers compute
these swap targets, then run the one shuffle _shuffle, which keeps only
the slots it has moved, so a draw costs O(k) time and memory whatever p.
random_subset takes its targets from SplitMix64.below, without numpy;
random_subsets mixes those of many seeds in one uint64 numpy call, so numpy
computes only the stream, and each row is bit-exact with random_subset.
The scalar draw takes bounds up to 2^64, the batched one (intp rows) 2^63.
"""

from __future__ import annotations

from .errors import ParameterRangeError
from .numtheory import check_k

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(z):
    """SplitMix64 finalizer of a Python int or, elementwise, a uint64 array."""
    z = (z ^ (z >> 30)) * _MUL1 & _MASK
    z = (z ^ (z >> 27)) * _MUL2 & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream over 64-bit unsigned outputs."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection (no modulo bias)."""
        if not 0 < n <= _MASK + 1:  # past 2^64 the limit is 0 and no output is accepted
            raise ParameterRangeError(f"bound must be in [1, 2^64], got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def sub_seed(master_seed: int, trial: int) -> int:
    """Deterministic per-trial seed: the trial-th output of SplitMix64(master)."""
    state = (int(master_seed) + (int(trial) + 1) * _GAMMA) & _MASK
    return _mix(state)


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    """The sub-seeds of trials 0, ..., trials - 1; ParameterRangeError unless trials >= 1."""
    if (trials := int(trials)) < 1:
        raise ParameterRangeError(f"trials must be >= 1, got {trials}")
    return [sub_seed(master_seed, t) for t in range(trials)]


def _targets(p: int, k: int, seed: int) -> list[int]:
    """The swap targets i + below(p - i), i < k, of SplitMix64(seed)."""
    stream = SplitMix64(seed)
    return [i + stream.below(p - i) for i in range(k)]


def _shuffle(targets) -> list[int]:
    """The partial Fisher-Yates shuffle of 0, 1, 2, ... with the swap targets, in draw order.

    Step i swaps slot i with slot j = targets[i] and emits the new slot i.
    Slot i is never read again, so only the value moved to slot j is
    stored, in a dict of the slots written so far; a slot not in it still
    holds its own index.
    """
    moved: dict[int, int] = {}
    out = []
    for i, j in enumerate(targets):
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return out


def random_subsets(p: int, k: int, seeds):
    """Uniform random k-subsets of {0, ..., p-1} in draw order, one row per seed.

    Row t is random_subset(p, k, seeds[t]).  Every lane's k outputs are
    mixed at once from the states seed + (i + 1) * gamma and reduced to swap
    targets; a lane with an output in below()'s rejection zone takes its
    targets from _targets instead.  Each row of targets is then shuffled
    by _shuffle and written back.  Seeds are taken mod 2^64, as
    SplitMix64 takes them.
    """
    k = check_k(k, p, 1)
    if p > 1 << 63:  # the rows are intp; past 2^64 it is below()'s own bound
        raise ParameterRangeError(f"bound must be in [1, 2^{64 if p > 1 << 64 else 63}], got {p}")
    import numpy as np

    seeds = [int(s) & _MASK for s in seeds]
    n = np.arange(p, p - k, -1, dtype=np.uint64)  # below()'s bound at step i
    # below(n) accepts u < 2^64 - (2^64 mod n), and 2^64 mod n = (_MASK mod n + 1) mod n
    top = np.uint64(_MASK) - (np.uint64(_MASK) % n + np.uint64(1)) % n
    steps = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    u = _mix(np.array(seeds, dtype=np.uint64)[:, None] + steps)
    out = (u % n).astype(np.intp) + np.arange(k)
    for lane in np.flatnonzero((u > top).any(axis=1)):
        out[lane] = _targets(p, k, seeds[lane])
    out[:] = [_shuffle(row) for row in out.tolist()]
    return out


def random_subset(p: int, k: int, seed: int) -> tuple[int, ...]:
    """Uniform random k-subset of {0, ..., p-1} in draw order: the partial Fisher-Yates shuffle.

    Step i swaps slot i with slot i + below(p - i) of SplitMix64(seed) and
    emits the new slot i; see _targets and _shuffle.
    """
    k = check_k(k, p, 1)
    return tuple(_shuffle(_targets(p, k, seed)))
