"""Self-contained deterministic randomness for the experiments.

Published seeds must reproduce byte-identical outputs forever, so the
generator is pinned here instead of relying on a library whose stream may
change between releases.  The algorithm is SplitMix64 (Steele, Lea and
Vigna's 64-bit counter generator with a xorshift-multiply finalizer):

    state_t   = seed + (t + 1) * 0x9E3779B97F4A7C15   (mod 2^64)
    output_t  = mix(state_t)

Per-trial sub-seeds reuse the same stream: sub_seed(master, t) is simply the
t-th output of SplitMix64(master), which makes trial results independent of
evaluation order and safe to compute in parallel.

random_subsets draws the k-subsets of many seeds at once: it runs the
partial Fisher-Yates shuffle of every seed's stream side by side in uint64
numpy arithmetic, and redraws a rejected lane on its own, so each row is
bit-exact with the scalar shuffle of that seed alone.  random_subset is its
one-row case.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Shuffled slots random_subsets holds at once (rows times p).
_DRAW_ENTRIES = 2**18


def _mix(z):
    """SplitMix64 finalizer of a Python int or, elementwise, a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
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
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def sub_seed(master_seed: int, trial: int) -> int:
    """Deterministic per-trial seed: the trial-th output of SplitMix64(master)."""
    state = (int(master_seed) + (int(trial) + 1) * _GAMMA) & _MASK
    return _mix(state)


def random_subsets(p: int, k: int, seeds):
    """Uniform random k-subsets of {0, ..., p-1} in draw order, one row per seed.

    Row t is the partial Fisher-Yates shuffle driven by SplitMix64(seeds[t]):
    step i swaps slot i with slot i + below(p - i), and the first k slots
    are returned.  Each lane's k outputs are mixed at once from the states
    seed + (i + 1) * gamma, and the swaps run over all lanes together,
    _DRAW_ENTRIES shuffled slots at a time.  A lane with an output in
    below()'s rejection zone is redrawn alone by SplitMix64.below, so every
    row is a pure function of (p, k, seed).  Seeds are taken mod 2^64, as
    SplitMix64 takes them.
    """
    import numpy as np

    if not 0 < k <= p:
        raise ValueError(f"need 0 < k <= p, got k={k}, p={p}")
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
    """Uniform random k-subset of {0, ..., p-1} in draw order: random_subsets of one seed."""
    return tuple(random_subsets(p, k, [seed])[0].tolist())
