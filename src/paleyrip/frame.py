"""Paley measurement matrices and their Gramian submatrices.

The frame is the (p+1)/2 x p slice of the p x p DFT matrix restricted to
rows indexed by 0 and the quadratic residues mod p, rescaled to unit-norm
columns.  Inner products of distinct columns then reduce to Legendre
symbols: <phi_n, phi_n'> = chi(n - n') * i / sqrt(p), so the Gramian of a
support T is I + (i/sqrt p) C_T.  `sign_matrix` is the one array builder
of C_T, which `gram_analytic` and the experiments' stacked spectral solves
use (the pair search of `pairs` reads the Legendre table itself);
`gram_rows` writes the same Gramian as nested lists straight from that table.
`gram_direct` recomputes the Gramian from explicit column dot products and
exists as the validation oracle for the analytic path.

numpy is imported only inside the array builders (`build_frame`,
`gram_direct`, `sign_matrix`, `gram_analytic`, `coherence`), so the
validators, `gram_rows` and the JSON writers run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DuplicateSupportError, ParameterRangeError
from .numtheory import check_paley, check_prime, chi_signs, chi_table, row_index_set

if TYPE_CHECKING:
    import numpy as np


def check_support(p: int, values) -> tuple[int, ...]:
    """Validate a support: distinct column indices in [0, p), kept in the given order.

    Order matters: nested-prefix experiments and the pair re-tagging
    procedure both rely on a caller-chosen ordering.  Raises
    ParameterRangeError when the size is outside [1, p] or an index lies
    outside [0, p), then DuplicateSupportError on a repeated index.
    """
    p = int(p)
    indices = tuple(int(i) for i in values)
    if not 1 <= len(indices) <= p:
        raise ParameterRangeError(
            f"support size must be in [1, p], got {len(indices)} for p={p}"
        )
    for i in indices:
        if not 0 <= i < p:
            raise ParameterRangeError(f"support index {i} outside [0, {p})")
    if len(set(indices)) != len(indices):
        raise DuplicateSupportError(f"duplicate indices in support {indices}")
    return indices


def check_k(k, p: int, lo: int) -> int:
    """k as an int; ParameterRangeError unless lo <= k <= p."""
    if not lo <= (k := int(k)) <= p:
        raise ParameterRangeError(f"k must be in [{lo}, p], got k={k}, p={p}")
    return k


def reduce_support(p: int, values) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """Reduce raw residue values mod p, reporting which elements changed.

    Accepts literal 1-based sets (an element equal to p maps to 0).  Raises
    NotPrimeError when p is not prime and there is an element to reduce
    (an empty support is left to check_support's size check), then
    DuplicateSupportError when two inputs collide after reduction.
    """
    values = [int(v) for v in values]
    if values:
        p = check_prime(p, min_p=2)
    reduced = tuple(v % p for v in values)
    if len(set(reduced)) != len(reduced):
        raise DuplicateSupportError(f"support {values} collides after reduction mod {p}")
    return reduced, [(v, r) for v, r in zip(values, reduced) if r != v]


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
    import numpy as np

    p = check_paley(p)
    rows = row_index_set(p)
    n = np.arange(p)
    m = np.asarray(rows)
    phase = np.exp(2j * np.pi * np.outer(m, n) / p)
    scale = np.full(len(rows), math.sqrt(2.0 / p))
    scale[0] = math.sqrt(1.0 / p)
    return PaleyFrame(p, tuple(rows), scale[:, None] * phase)


def gram_direct(frame: PaleyFrame, support) -> np.ndarray:
    """Gramian of the selected columns via explicit complex dot products.

    Entry (i, j) is sum_m col_i[m] * conj(col_j[m]), the orientation under
    which off-diagonals equal chi(T_i - T_j) * i / sqrt(p).  Hermitian
    symmetry is enforced by mirroring the strict upper triangle.
    """
    import numpy as np

    cols = frame.entries[:, list(check_support(frame.p, support))]
    g = cols.T @ cols.conj()
    upper = np.triu(g, 1)
    return upper + upper.conj().T + np.diag(g.diagonal().real)


def sign_matrix(p: int, idx) -> np.ndarray:
    """Integer sign matrices C[..., a, b] = chi(T_a - T_b) of supports idx[..., :].

    One support (k,) gives a (k, k) matrix, a stack (..., k) gives (..., k, k).
    p is any odd prime; the supports are taken as given, not validated.  The
    differences are reduced mod p by take's wrap mode, not by a separate %.
    """
    import numpy as np

    idx = np.asarray(idx)
    return chi_table(p).take(idx[..., :, None] - idx[..., None, :], mode="wrap")


def gram_analytic(p, support) -> np.ndarray:
    """Gramian from the Legendre formula, no DFT evaluation.

    Entry (i, j) = chi(T_i - T_j) * i / sqrt(p) for i != j, diagonal 1.
    Hermitian by construction since chi(-x) = -chi(x) for p = 3 (mod 4).
    """
    import numpy as np

    p = check_paley(p)
    g = sign_matrix(p, check_support(p, support)) * (1j / math.sqrt(p))
    np.fill_diagonal(g, 1.0)
    return g


def coherence(frame) -> float:
    """Largest |<col_i, col_j>| over distinct column pairs.

    Accepts a PaleyFrame or any matrix whose columns are the vectors.
    For Paley frames the value is 1/sqrt(p).
    """
    import numpy as np

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
    p = check_paley(p)
    s = int(s)
    if not 1 <= s <= p - 1:
        raise ParameterRangeError(f"s must be in [1, p-1], got {s} for p={p}")
    return s / math.sqrt(p)


def gram_rows(p, support) -> list[list[complex]]:
    """gram_analytic(p, support) as nested lists of Python complex, without numpy.

    Each off-diagonal entry is the integer sign times the same scalar,
    chi(T_i - T_j) * (1j / sqrt p), so every entry, signed zeros of the real
    parts included, is bit-identical to gram_analytic's; the diagonal is 1+0j.
    """
    p = check_paley(p)
    support = check_support(p, support)
    chi, scale = chi_signs(p), 1j / math.sqrt(p)
    return [[1 + 0j if a == b else chi[a - b] * scale for b in support] for a in support]


def _entries_to_json(entries) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in entries]


def frame_to_json(frame: PaleyFrame) -> dict:
    """JSON document {"p", "rows", "entries"}; entries are [re, im] pairs."""
    return {
        "p": frame.p,
        "rows": list(frame.rows),
        "entries": _entries_to_json(frame.entries),
    }


def gram_to_json(p: int, support, entries) -> dict:
    """Same schema as frame_to_json; "rows" holds the support indices.

    entries is a complex array or nested lists of complex (gram_rows).
    """
    return {
        "p": int(p),
        "rows": list(check_support(p, support)),
        "entries": _entries_to_json(entries),
    }
