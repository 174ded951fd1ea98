"""Paley measurement matrices and their Gramian submatrices.

The frame is the (p+1)/2 x p slice of the p x p DFT matrix restricted to
rows indexed by 0 and the quadratic residues mod p, rescaled to unit-norm
columns.  Inner products of distinct columns then reduce to Legendre
symbols: <phi_n, phi_n'> = chi(n - n') * i / sqrt(p), so the Gramian of a
support T is I + (i/sqrt p) C_T.  `sign_matrix` is the one builder of C_T,
which `gram_analytic` and every experiment use.  `gram_direct` recomputes
the Gramian from explicit column dot products and exists as the validation
oracle for the analytic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateSupportError, ParameterRangeError
from .numtheory import as_paley_prime, chi_table, row_index_set


@dataclass(frozen=True)
class SupportSet:
    """Ordered set of distinct column indices in [0, p).

    Order is preserved as given: nested-prefix experiments and the pair
    re-tagging procedure both rely on a caller-chosen ordering.  Use
    `canonical()` for the sorted variant.
    """

    p: int
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if not 1 <= len(self.indices) <= self.p:
            raise ParameterRangeError(
                f"support size must be in [1, p], got {len(self.indices)} for p={self.p}"
            )
        for i in self.indices:
            if not 0 <= i < self.p:
                raise ParameterRangeError(f"support index {i} outside [0, {self.p})")
        if len(set(self.indices)) != len(self.indices):
            raise DuplicateSupportError(f"duplicate indices in support {self.indices}")

    def __len__(self) -> int:
        return len(self.indices)

    def canonical(self) -> "SupportSet":
        return SupportSet(self.p, tuple(sorted(self.indices)))


def reduce_support(p: int, values) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Reduce raw residue values mod p, reporting which elements changed.

    Accepts literal 1-based sets (an element equal to p maps to 0).  Raises
    DuplicateSupportError when two inputs collide after reduction.
    """
    p = int(p)
    reduced = []
    changed = []
    for v in values:
        v = int(v)
        r = v % p
        if r != v:
            changed.append((v, r))
        reduced.append(r)
    if len(set(reduced)) != len(reduced):
        raise DuplicateSupportError(f"support {list(values)} collides after reduction mod {p}")
    return tuple(reduced), changed


def as_support(p: int, support) -> SupportSet:
    if isinstance(support, SupportSet):
        if support.p != int(getattr(p, "p", p)):
            raise ParameterRangeError(
                f"support is over p={support.p}, operation uses p={int(getattr(p, 'p', p))}"
            )
        return support
    return SupportSet(int(getattr(p, "p", p)), tuple(support))


@dataclass(frozen=True)
class PaleyFrame:
    """Dense (p+1)/2 x p measurement matrix with its kept row indices."""

    p: int
    rows: tuple[int, ...]
    entries: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def build_frame(p) -> PaleyFrame:
    """Build the normalized partial-DFT frame for a prime p = 3 (mod 4).

    Row m', column n holds scale(m') * exp(2*pi*i * rows[m'] * n / p) with
    scale sqrt(1/p) on the constant row and sqrt(2/p) elsewhere; every
    column has Euclidean norm 1.
    """
    pp = as_paley_prime(p)
    rows = row_index_set(pp)
    n = np.arange(pp.p)
    m = np.asarray(rows)
    phase = np.exp(2j * np.pi * np.outer(m, n) / pp.p)
    scale = np.full(len(rows), math.sqrt(2.0 / pp.p))
    scale[0] = math.sqrt(1.0 / pp.p)
    return PaleyFrame(pp.p, tuple(rows), scale[:, None] * phase)


def gram_direct(frame: PaleyFrame, support) -> np.ndarray:
    """Gramian of the selected columns via explicit complex dot products.

    Entry (i, j) is sum_m col_i[m] * conj(col_j[m]), the orientation under
    which off-diagonals equal chi(T_i - T_j) * i / sqrt(p).  Hermitian
    symmetry is enforced by mirroring the strict upper triangle.
    """
    T = as_support(frame.p, support)
    cols = frame.entries[:, list(T.indices)]
    g = cols.T @ cols.conj()
    upper = np.triu(g, 1)
    return upper + upper.conj().T + np.diag(g.diagonal().real)


def sign_matrix(p: int, idx) -> np.ndarray:
    """Integer sign matrices C[..., a, b] = chi(T_a - T_b) of supports idx[..., :].

    One support (k,) gives a (k, k) matrix, a stack (..., k) gives (..., k, k).
    p is any odd prime; the supports are taken as given, not validated.  The
    differences are reduced mod p by take's wrap mode, not by a separate %.
    """
    idx = np.asarray(idx)
    return chi_table(p).take(idx[..., :, None] - idx[..., None, :], mode="wrap")


def gram_analytic(p, support) -> np.ndarray:
    """Gramian from the Legendre formula, no DFT evaluation.

    Entry (i, j) = chi(T_i - T_j) * i / sqrt(p) for i != j, diagonal 1.
    Hermitian by construction since chi(-x) = -chi(x) for p = 3 (mod 4).
    """
    pp = as_paley_prime(p)
    T = as_support(pp.p, support)
    g = sign_matrix(pp.p, T.indices) * (1j / math.sqrt(pp.p))
    np.fill_diagonal(g, 1.0)
    return g


def coherence(frame) -> float:
    """Largest |<col_i, col_j>| over distinct column pairs.

    Accepts a PaleyFrame or any matrix whose columns are the vectors.
    For Paley frames the value is 1/sqrt(p).
    """
    cols = frame.entries if isinstance(frame, PaleyFrame) else np.asarray(frame)
    g = cols.conj().T @ cols
    np.fill_diagonal(g, 0.0)
    return float(np.abs(g).max())


def l1_coherence(p, s: int) -> float:
    """Worst s-term sum of off-diagonal inner-product magnitudes: s/sqrt(p).

    Every distinct-column inner product of the Paley frame has magnitude
    exactly 1/sqrt(p), so the s-term coherence function is s times the
    plain coherence.
    """
    pp = as_paley_prime(p)
    s = int(s)
    if not 1 <= s <= pp.p - 1:
        raise ParameterRangeError(f"s must be in [1, p-1], got {s} for p={pp.p}")
    return s / math.sqrt(pp.p)


def _entries_to_json(entries: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in entries]


def frame_to_json(frame: PaleyFrame) -> dict:
    """JSON document {"p", "rows", "entries"}; entries are [re, im] pairs."""
    return {
        "p": frame.p,
        "rows": list(frame.rows),
        "entries": _entries_to_json(frame.entries),
    }


def gram_to_json(p: int, support, entries: np.ndarray) -> dict:
    """Same schema as frame_to_json; "rows" holds the support indices."""
    T = as_support(p, support)
    return {
        "p": int(getattr(p, "p", p)),
        "rows": list(T.indices),
        "entries": _entries_to_json(entries),
    }
