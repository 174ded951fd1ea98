"""Exact integer arithmetic, without numpy: primality, Legendre symbols,
quadratic residues, the sign Gramian C^T C from bitmasks, and positive
definiteness of integer symmetric matrices.

`chi_signs` is the one Legendre table of the package, a cached tuple of
Python ints built once per prime from the squares mod p: the sign matrices
(experiments.sign_matrix reads it as an array in each call), the pair
searches, the quadratic-residue row set and the Gramians all come from it.
`legendre`, Euler's criterion for one argument, is its independent oracle.
`sign_gram_ints` is the one builder of the integers C_T^T C_T, which
`verify`'s tournaments and the pair search of `pairs` read; and
`is_positive_definite` decides from the pivots of fraction-free
elimination, so a threshold on a spectral radius is decided with no
eigensolve and no rounding.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotPrimeError, ParameterRangeError, WrongResidueError

# The first twelve primes as bases make Miller-Rabin exact for all n below
# psi_12 = 318665857834031151167461, a strong pseudoprime to every one of
# them (Sorenson & Webster, Math. Comp. 86, 2017); 3.3e24 is the limit of
# the bases up to 41.  psi_12 is far past the 64-bit range this package targets.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461
# Largest p chi_signs builds its table for.  The table is the one allocation
# of size O(p) in the package: at p = 2^24 it and one numpy copy of it take
# about 2.4 s and 290 MiB on one core of a 2-core x86 host, and at p = 10^9
# it would take more than 8 GB.
CHI_TABLE_MAX_P = 2**24


# Cached: legendre re-validates its modulus on every call (900 legendre and
# 1,002 is_prime calls in `verify --p 103`).
@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for n < psi_12; ParameterRangeError from psi_12 on."""
    n = int(n)
    if n >= _PSI_12:
        raise ParameterRangeError(f"primality is decided only below {_PSI_12}, got {n}")
    if n < 2:
        return False
    if n in _MR_WITNESSES:
        return True
    if any(n % q == 0 for q in _MR_WITNESSES):
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
    """Validate a prime modulus and return it as an int.

    Raises NotPrimeError when p is not prime and ParameterRangeError when it
    is a prime below `min_p` or when p >= psi_12, where is_prime is not exact.
    """
    p = int(p)
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p < min_p:
        raise ParameterRangeError(f"p must be >= {min_p}, got {p}")
    return p


def check_k(k, p: int, lo: int) -> int:
    """k as an int; ParameterRangeError unless lo <= k <= p."""
    if not lo <= (k := int(k)) <= p:
        raise ParameterRangeError(f"k must be in [{lo}, p], got k={k}, p={p}")
    return k


def check_paley(p) -> int:
    """Validate a Paley frame modulus, a prime p = 3 (mod 4) with p >= 7, as an int.

    Checked in this order: NotPrimeError when p is not prime,
    WrongResidueError when p != 3 (mod 4), ParameterRangeError when p = 3.
    """
    p = check_prime(p, min_p=2)
    if p % 4 != 3:
        raise WrongResidueError(f"{p} = {p % 4} (mod 4), need 3 (mod 4)")
    if p < 7:
        raise ParameterRangeError(f"p must be >= 7, got {p}")
    return p


@lru_cache(maxsize=128)
def chi_signs(p) -> tuple[int, ...]:
    """Legendre symbol chi[a] for a in [0, p), as a tuple of Python ints.

    Built from the squares mod p rather than p Euler evaluations and cached
    per prime.  Indexing with a difference x - y of residues in [0, p)
    needs no reduction: a negative index wraps to x - y + p.  A prime past
    CHI_TABLE_MAX_P raises ParameterRangeError before anything is allocated.
    """
    p = check_prime(p)
    if p > CHI_TABLE_MAX_P:
        raise ParameterRangeError(
            f"the Legendre table is built only for p <= {CHI_TABLE_MAX_P}, got p = {p}")
    table = [-1] * p
    table[0] = 0
    for x in range(1, (p - 1) // 2 + 1):
        table[x * x % p] = 1
    return tuple(table)


def row_index_set(p) -> list[int]:
    """Indices m in {0, ..., p-1} with m = 0 or (m/p) = 1, ascending.

    These are the DFT rows kept by the Paley construction; the list has
    exactly (p + 1) / 2 entries and starts with 0.
    """
    p = check_paley(p)
    return [0] + [m for m, s in enumerate(chi_signs(p)) if s == 1]


def sign_gram_ints(masks, bits) -> list[list[int]]:
    """S = C^T C in Python ints for an n x n sign matrix C held as bitmasks.

    C has a zero diagonal and +-1 elsewhere, and is skew (a tournament, or a
    Paley support's C_ab = chi(T_a - T_b) at p = 3 (mod 4)) or symmetric (a
    support at p = 1 (mod 4)).  Member a has its own bit b_a = bits[a],
    distinct single bits, and its sign mask m_a = masks[a], with b_l set
    where C_al = +1; mask bits of non-members are ignored.  C C^T = C^T C, as
    -C^2 or C^2, so S_ab = sum_l C_al C_bl.  The terms l = a, b vanish, as
    C_aa = C_bb = 0, and each other term is +1 where m_a and m_b agree at
    b_l and -1 where they differ.  With A the OR of all bits,

        S_aa = n - 1,  S_ab = (n - 2) - 2 popcount((m_a ^ m_b) & A & ~(b_a | b_b)),

    the second being sign_gram_entry.  The masks may live in residue space
    (pairs' P_x, b_a = bit T_a) or in index space (verify's tournaments,
    b_a = bit a).  Each entry costs O(width/64) words.
    """
    n, alive = len(masks), sum(bits)  # the bits are distinct
    s = [[n - 1] * n for _ in range(n)]
    for a, (m_a, row) in enumerate(zip(masks, s)):
        rest = alive ^ bits[a]
        for b in range(a + 1, n):
            row[b] = s[b][a] = sign_gram_entry(n, m_a, masks[b], rest ^ bits[b])
    return s


def sign_gram_entry(n: int, m_a: int, m_b: int, others: int) -> int:
    """S_ab, a != b, of sign_gram_ints, with `others` the mask of the n - 2 members but a and b."""
    return n - 2 - 2 * ((m_a ^ m_b) & others).bit_count()


def is_positive_definite(m) -> bool:
    """Whether the integer symmetric matrix m (a sequence of rows) is positive definite, exactly.

    By Sylvester's criterion it is when every leading principal minor is
    positive.  Fraction-free (Bareiss) elimination returns those minors as
    its pivots: after step k, entry (i, j) of the trailing block is the
    minor on rows 0..k, i and columns 0..k, j, so each division by the
    previous pivot is exact.  It stops at the first pivot that is not
    positive.  Only the upper triangle is read, so m is taken as symmetric;
    it is not modified.  (Bareiss, Math. Comp. 22, 1968.)
    """
    a = [list(map(int, row)) for row in m]
    prev = 1
    for k, row_k in enumerate(a):
        pivot = row_k[k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(a)):
            f = row_k[i]  # a[i][k], read from the upper triangle
            a[i][i:] = [(x * pivot - f * y) // prev for x, y in zip(a[i][i:], row_k[i:])]
        prev = pivot
    return True
