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
the first k slots, in draw order, are the subset.  random_subset runs it
in plain Python ints, keeping only the slots it has moved, so a draw costs
O(k) time and memory whatever p, and needs no numpy.  random_subsets draws
the k-subsets of many seeds at once: it runs the same shuffle of every
seed's stream side by side in uint64 numpy arithmetic, and redraws a
rejected lane through SplitMix64.below, so each row is bit-exact with
random_subset of that seed.  Neither draws below a bound past 2^64.
"""

from __future__ import annotations

from .errors import ParameterRangeError
from .numtheory import check_k

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# Shuffled slots random_subsets holds at once (rows times p).
_DRAW_ENTRIES = 2**18


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


def random_subsets(p: int, k: int, seeds):
    """Uniform random k-subsets of {0, ..., p-1} in draw order, one row per seed.

    Row t is the partial Fisher-Yates shuffle driven by SplitMix64(seeds[t]):
    step i swaps slot i with slot i + below(p - i), and the first k slots
    are returned.  Each lane's k outputs are mixed at once from the states
    seed + (i + 1) * gamma, and the swaps run over all lanes together,
    _DRAW_ENTRIES shuffled slots at a time.  A lane with an output in
    below()'s rejection zone is redrawn alone by SplitMix64.below, so row t
    equals random_subset(p, k, seeds[t]).  Seeds are taken mod 2^64, as
    SplitMix64 takes them.
    """
    import numpy as np

    k = check_k(k, p, 1)
    if p > _MASK + 1:  # below(p)'s bound, and past the uint64 arithmetic
        raise ParameterRangeError(f"bound must be in [1, 2^64], got {p}")
    seeds = np.array([int(s) & _MASK for s in seeds], dtype=np.uint64)
    n = np.arange(p, p - k, -1, dtype=np.uint64)  # below()'s bound at step i
    # below(n) accepts u < 2^64 - (2^64 mod n), and 2^64 mod n = (_MASK mod n + 1) mod n
    top = np.uint64(_MASK) - (np.uint64(_MASK) % n + np.uint64(1)) % n
    steps = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    out = np.empty((len(seeds), k), dtype=np.intp)
    rows = max(1, _DRAW_ENTRIES // p)
    for s in range(0, len(seeds), rows):
        lane_seeds = seeds[s:s + rows]
        u = _mix(lane_seeds[:, None] + steps)
        j = (u % n).astype(np.intp) + np.arange(k)
        for lane in np.flatnonzero((u > top).any(axis=1)):
            rng = SplitMix64(int(lane_seeds[lane]))
            j[lane] = [i + rng.below(p - i) for i in range(k)]
        lanes = np.arange(len(j))
        arr = np.tile(np.arange(p), (len(j), 1))
        for i in range(k):
            slot = arr[:, i].copy()
            arr[:, i] = arr[lanes, j[:, i]]
            arr[lanes, j[:, i]] = slot
        out[s:s + rows] = arr[:, :k]
    return out


def random_subset(p: int, k: int, seed: int) -> tuple[int, ...]:
    """Uniform random k-subset of {0, ..., p-1} in draw order: the partial Fisher-Yates shuffle.

    Step i swaps slot i with slot j = i + below(p - i) of SplitMix64(seed)
    and emits the new slot i.  Slot i is never read again, so only the
    value moved to slot j is stored, in a dict of the slots written so far;
    a slot not in it still holds its own index.
    """
    k = check_k(k, p, 1)
    stream = SplitMix64(seed)
    moved: dict[int, int] = {}
    out = []
    for i in range(k):
        j = i + stream.below(p - i)
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return tuple(out)
