"""Exact integer arithmetic: primality, Legendre symbols, quadratic residues.

Everything here is deterministic and exact.  `chi_table` is the Legendre
symbol every computation of the package reads: the sign matrices, the
quadratic-residue row set and the Gramians all come from it.  `legendre`
evaluates Euler's criterion for one argument and is the independent oracle
the table is checked against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NotPrimeError, ParameterRangeError, WrongResidueError

# Witness set making Miller-Rabin deterministic for all n < 3.3e24,
# comfortably past the 64-bit range this package targets.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all 64-bit inputs."""
    n = int(n)
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in small:
        return True
    if any(n % q == 0 for q in small):
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p) -> int:
    """Legendre symbol (a/p) for an odd prime p.

    Returns 0 when p divides a, +1 for a nonzero quadratic residue,
    -1 otherwise.  `a` is reduced into [0, p) first, so negative
    differences are fine.  Uses Euler's criterion a^((p-1)/2) mod p; a
    modulus that is not an odd prime is rejected as in `check_prime`.
    """
    p = check_prime(p)
    a = int(a) % p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def check_prime(p, min_p: int = 3) -> int:
    """Validate a prime modulus (an int or a PaleyPrime) and return it as an int.

    Raises NotPrimeError when p is not prime and ParameterRangeError when it
    is a prime below `min_p`.
    """
    p = int(getattr(p, "p", p))
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p < min_p:
        raise ParameterRangeError(f"p must be >= {min_p}, got {p}")
    return p


@lru_cache(maxsize=128)
def chi_table(p: int) -> np.ndarray:
    """Legendre symbol lookup table chi[a] for a in [0, p).

    Built from the squares mod p rather than p Euler evaluations and cached
    per prime.  The returned array is read-only, so no caller can corrupt
    the cached copy.
    """
    p = check_prime(p)
    table = np.full(p, -1, dtype=np.int64)
    table[0] = 0
    for x in range(1, (p - 1) // 2 + 1):
        table[x * x % p] = 1
    table.flags.writeable = False
    return table


class PaleyPrime:
    """A prime p = 3 (mod 4), p >= 7 (a Paley frame modulus), validated at construction."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = check_prime(p, min_p=2)
        if p % 4 != 3:
            raise WrongResidueError(f"{p} = {p % 4} (mod 4), need 3 (mod 4)")
        if p < 7:
            raise ParameterRangeError(f"p must be >= 7, got {p}")
        self.p = p

    def __int__(self) -> int:
        return self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, PaleyPrime) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PaleyPrime", self.p))

    def __repr__(self) -> str:
        return f"PaleyPrime({self.p})"


@lru_cache(maxsize=64)
def _cached_paley(p: int) -> PaleyPrime:
    return PaleyPrime(p)


def as_paley_prime(p) -> PaleyPrime:
    """Coerce an int (or pass through a PaleyPrime) with validation."""
    if isinstance(p, PaleyPrime):
        return p
    return _cached_paley(int(p))


def row_index_set(p) -> list[int]:
    """Indices m in {0, ..., p-1} with m = 0 or (m/p) = 1, ascending.

    These are the DFT rows kept by the Paley construction; the list has
    exactly (p + 1) / 2 entries and starts with 0.
    """
    p = as_paley_prime(p).p
    return [0] + np.flatnonzero(chi_table(p) == 1).tolist()
