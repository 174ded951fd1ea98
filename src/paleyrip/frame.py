"""Paley measurement matrices and their Gramian submatrices, without numpy.

The frame is the (p+1)/2 x p slice of the p x p DFT matrix restricted to
rows indexed by 0 and the quadratic residues mod p, rescaled to unit-norm
columns.  Inner products of distinct columns then reduce to Legendre
symbols: <phi_n, phi_n'> = chi(n - n') * i / sqrt(p), so the Gramian of a
support T is I + (i/sqrt p) C_T.  `gram_rows` writes it as nested lists
straight from the Legendre table numtheory.chi_signs; `gram_direct`
recomputes it from explicit column dot products and is the validation
oracle for the analytic path.  The frame (`build_frame`) is rows of Python
complex, and the CLI writes the frame and Gramian JSON documents from their
entries; callers that want an array call `np.asarray`.  The sign-matrix
array builder is experiments.sign_matrix.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

from .errors import DuplicateSupportError, ParameterRangeError
from .numtheory import check_k, check_paley, chi_signs, row_index_set

# Largest p build_frame builds the frame for.  The frame holds (p+1)/2 * p
# Python complex entries, and the `frame` command's indented JSON of them
# peaks near 540 bytes an entry: at p = 2039 the command takes 12-15 s and
# 1078 MiB on one core of a 2-core x86 host, and at p = 2591 it runs out of
# a 1.5 GB address space.  At p = 1000003 the frame alone has 5e11 entries.
FRAME_MAX_P = 2**11


def check_support(p: int, values) -> tuple[int, ...]:
    """Validate a support: distinct column indices in [0, p), kept in the given order.

    Order matters: nested-prefix experiments and the pair re-tagging
    procedure both rely on a caller-chosen ordering.  Raises
    ParameterRangeError when check_k rejects the size (outside [1, p]) or
    an index lies outside [0, p), then DuplicateSupportError on a repeated index.
    """
    p = int(p)
    indices = tuple(int(i) for i in values)
    check_k(len(indices), p, 1)
    for i in indices:
        if not 0 <= i < p:
            raise ParameterRangeError(f"support index {i} outside [0, {p})")
    if len(set(indices)) != len(indices):
        raise DuplicateSupportError(f"duplicate indices in support {indices}")
    return indices


class PaleyFrame(NamedTuple):
    """Dense (p+1)/2 x p measurement matrix with its kept row indices."""

    p: int
    rows: tuple[int, ...]
    entries: tuple[tuple[complex, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    def __repr__(self) -> str:  # the entries are left out
        return f"PaleyFrame(p={self.p!r}, rows={self.rows!r})"


def build_frame(p) -> PaleyFrame:
    """Build the normalized partial-DFT frame for a prime p = 3 (mod 4).

    Row m', column n holds scale(m') * exp(2*pi*i * rows[m'] * n / p) with
    scale sqrt(1/p) on the constant row and sqrt(2/p) elsewhere; every
    column has Euclidean norm 1.  The phase angle is (2*pi*(m*n)) * (1/p),
    the order numpy evaluates 2j*pi*outer(m, n)/p in, so each entry is the
    numpy frame's bit for bit, signed zeros included.  A prime past
    FRAME_MAX_P raises ParameterRangeError before anything is allocated.
    """
    p = int(p)
    if p > FRAME_MAX_P:
        check_paley(p)  # a composite or a prime = 1 (mod 4) keeps its own error
        raise ParameterRangeError(f"the frame is built only for p <= {FRAME_MAX_P}, got p = {p}")
    rows = row_index_set(p)  # row_index_set checks p
    inv_p, two_pi = 1.0 / p, 2 * math.pi
    scales = [math.sqrt(1.0 / p)] + [math.sqrt(2.0 / p)] * (len(rows) - 1)
    entries = tuple(
        tuple(complex(scale) * complex(math.cos(y), math.sin(y))
              for y in [two_pi * (m * n) * inv_p for n in range(p)])
        for m, scale in zip(rows, scales)
    )
    return PaleyFrame(p, tuple(rows), entries)


def gram_direct(frame: PaleyFrame, support) -> list[list[complex]]:
    """Gramian of the selected columns via explicit complex dot products.

    Entry (i, j) is sum_m col_i[m] * conj(col_j[m]), the orientation under
    which off-diagonals equal chi(T_i - T_j) * i / sqrt(p).  Only the upper
    triangle is summed; the lower one is its conjugate and the diagonal is
    kept real, so the result is Hermitian exactly.  Nested lists of Python
    complex, as `gram_rows` returns.
    """
    support = check_support(frame.p, support)
    cols = [[row[t] for row in frame.entries] for t in support]
    conj = [[z.conjugate() for z in col] for col in cols]
    g = [[0j] * len(cols) for _ in cols]
    for i, col in enumerate(cols):
        g[i][i] = complex(sum(map(mul, col, conj[i])).real)
        for j in range(i + 1, len(cols)):
            g[i][j] = z = sum(map(mul, col, conj[j]))
            g[j][i] = z.conjugate()
    return g


def gram_rows(p, support) -> list[list[complex]]:
    """The analytic Gramian of a support, as nested lists of Python complex.

    Entry (i, j) = chi(T_i - T_j) * i / sqrt(p) for i != j, diagonal 1+0j:
    the integer sign times the one scalar 1j / sqrt p, so the real parts of
    the off-diagonal entries are signed zeros.  spectra.gram_analytic is
    this, as a numpy array.
    """
    p = check_paley(p)
    support = check_support(p, support)
    chi, scale = chi_signs(p), 1j / math.sqrt(p)
    return [[1 + 0j if a == b else chi[a - b] * scale for b in support] for a in support]
