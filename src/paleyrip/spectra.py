"""Eigenvalue machinery and the closed-form determinant identities.

Every Gramian of the Paley frame is I + (i/sqrt p) C with C a +-1
skew-symmetric sign matrix, and the spectrum of iC is symmetric about 0, so
the deviation max(lambda_max - 1, 1 - lambda_min) is exactly rho(C)/sqrt p.
skew_spectral_radius is the one radius path for sign matrices: it gates C
exactly with check_sign_matrices, forms S = C^T C with sign_gram and solves
it with gram_radius, sqrt(lambda_max(S)), the one call of LAPACK's real
symmetric solver (numpy.linalg.eigvalsh) on sign matrices, for one matrix
or a stack.  For a gated sign matrix every partial sum of C^T C is an
integer of size at most the order n, so the float32 product of sign_gram is
exact for n < 2^24 and only the solver rounds; code that solves many slices
of one stored stack gates it once and calls sign_gram and gram_radius
itself.  The tolerance gate of hermitian_spectrum is relative to the
largest entry.  The bordered-matrix bounds are evaluated from their closed
forms and cross-checked elsewhere against dense oracles; the extreme roots
of the two-row bordered quartic are the extreme eigenvalues of that matrix
compressed to its invariant subspace of dimension at most 4, a 4x4 matrix
written in closed form from |c|^2, |d|^2 and d.conj c (no QR), and both
comparison matrices are solved in one stacked call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonHermitianError, ParameterRangeError

HERMITIAN_TOL = 1e-10
# Points at which gram3_charpoly_check compares the two cubics.
CHARPOLY_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)


def hermitian_spectrum(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    Inputs with a NaN or infinite entry, or whose deviation from Hermitian
    exceeds HERMITIAN_TOL * max(1, max|M|), are rejected; LAPACK
    convergence failures propagate as numpy.linalg.LinAlgError.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterRangeError(f"need a square matrix, got shape {m.shape}")
    scale = float(np.abs(m).max())
    if not math.isfinite(scale):
        raise NonHermitianError("matrix has a NaN or infinite entry")
    dev = float(np.abs(m - m.conj().T).max())
    bound = HERMITIAN_TOL * max(1.0, scale)
    if dev > bound:
        raise NonHermitianError(f"Hermitian deviation {dev:.3e} exceeds {bound:.1e}")
    return np.linalg.eigvalsh(m)


def gram3_charpoly_check(g: np.ndarray, p) -> float:
    """Max residual of det(G - xI) - [(1-x)^3 - 3(1-x)/p] over CHARPOLY_GRID.

    Every order-3 Gramian of the Paley frame has this characteristic
    polynomial regardless of the off-diagonal sign pattern, which pins its
    spectrum to {1 - sqrt(3/p), 1, 1 + sqrt(3/p)}.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (3, 3):
        raise ParameterRangeError(f"need a 3x3 matrix, got shape {g.shape}")
    p = int(p)
    worst = 0.0
    eye = np.eye(3)
    for x in CHARPOLY_GRID:
        det = np.linalg.det(g - x * eye)
        ref = (1.0 - x) ** 3 - 3.0 * (1.0 - x) / p
        worst = max(worst, abs(det - ref))
    return worst


def canonical_tournament(n: int) -> np.ndarray:
    """Integer skew adjacency of the transitive tournament: +1 above, -1 below."""
    n = int(n)
    if n < 1:
        raise ParameterRangeError(f"order must be >= 1, got {n}")
    ones = np.ones((n, n), dtype=int)
    return np.triu(ones, 1) - np.tril(ones, -1)


def check_sign_matrices(c) -> None:
    """Gate a sign matrix or a stack of them, whole, before their products are solved.

    Raises ParameterRangeError for input that is not square and of an
    integer dtype, and NonHermitianError for an entry outside {-1, 0, 1} or
    a matrix that is not exactly skew-symmetric.  What passes has integer
    C^T C entries of size at most n, so sign_gram forms its product exactly.
    """
    c = np.asarray(c)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise ParameterRangeError(f"need square matrices, got shape {c.shape}")
    if not np.issubdtype(c.dtype, np.integer):
        raise ParameterRangeError(f"need integer sign matrices, got dtype {c.dtype}")
    if c.size and (c.min() < -1 or c.max() > 1):
        raise NonHermitianError("sign matrices need entries in {-1, 0, 1}")
    asym = np.any(c + np.swapaxes(c, -1, -2), axis=(-2, -1))
    if asym.any():
        raise NonHermitianError(
            f"{np.count_nonzero(asym)} of {asym.size} sign matrices are not skew-symmetric"
        )


def sign_gram(c: np.ndarray) -> np.ndarray:
    """C^T C of a gated sign matrix or stack, formed in float32 and cast to float64.

    Every partial sum is an integer of size at most the order n < 2^24, so
    the product is exact: the same bits as the float64 product.
    """
    a = c.astype(np.float32)
    return (np.swapaxes(a, -1, -2) @ a).astype(np.float64)


def gram_radius(s):
    """sqrt(lambda_max(S)) of a real symmetric S = C^T C, or of each in a stack.

    For real skew-symmetric C this is rho(C).  One eigvalsh call, which
    reads the lower triangle; the input is taken as it is, ungated.
    """
    return np.sqrt(np.linalg.eigvalsh(s)[..., -1])


def skew_spectral_radius(c):
    """Spectral radius of a sign matrix, or of each in a stack: gram_radius(sign_gram(C)).

    C must pass check_sign_matrices: square, of an integer dtype, with
    entries in {-1, 0, 1} and exactly skew-symmetric.  rho(C) is the
    largest eigenvalue of the Hermitian matrix i*C and the square root of
    the top eigenvalue of C^T C = -C^2.  `c` is one (n, n) matrix, giving a
    float, or a stack (..., n, n), giving an array of radii.  For any
    orientation of a graph on n vertices the radius is at most cot(pi/2n),
    with equality for the canonical tournament.
    """
    c = np.asarray(c)
    check_sign_matrices(c)
    rho = gram_radius(sign_gram(c))
    return float(rho) if c.ndim == 2 else rho


def dembo_upper(c: float, eta_k: float, btb: float) -> float:
    """Upper bound (c + eta)/2 + sqrt((c - eta)^2/4 + b*b) on the top eigenvalue.

    `eta_k` is any upper bound for the trailing block's largest eigenvalue
    and `btb` the squared norm of the border vector.
    """
    if btb < 0:
        raise ParameterRangeError(f"btb must be >= 0, got {btb}")
    return (c + eta_k) / 2.0 + math.sqrt((c - eta_k) ** 2 / 4.0 + btb)


def dembo_lower(c: float, eta_1: float, btb: float) -> float:
    """Mirror of dembo_upper bounding the bottom eigenvalue from below."""
    if btb < 0:
        raise ParameterRangeError(f"btb must be >= 0, got {btb}")
    return (c + eta_1) / 2.0 - math.sqrt((c - eta_1) ** 2 / 4.0 + btb)


def schur_bordered_det(a, b, c, eta, k: int):
    """det of [[a, b], [c, eta*I_k]] via the Schur complement: eta^k (a - b.c/eta).

    `b` is the length-k top row block, `c` the length-k left column block;
    the dot product does not conjugate either factor.
    """
    if eta == 0:
        raise ParameterRangeError("eta must be nonzero")
    b = np.asarray(b, dtype=complex).ravel()
    c = np.asarray(c, dtype=complex).ravel()
    if len(b) != k or len(c) != k:
        raise ParameterRangeError(f"border length mismatch: {len(b)}, {len(c)} vs k={k}")
    if k == 0:
        return complex(a)
    return eta**k * (a - np.dot(b, c) / eta)


def gamma_term(c, d) -> float:
    """Correction term of the bordered determinant closed form.

    gamma = sum_i |c_i|^2 (d_i . d_i*) - sum_i c_i d_i* (d_i . c_i*), where
    the subscript-i vectors drop entry i.  The value is real in exact
    arithmetic; an imaginary residue above 1e-12 of |first| + |second| (the
    magnitudes of the two sums) raises NonHermitianError.
    """
    c = np.asarray(c, dtype=complex).ravel()
    d = np.asarray(d, dtype=complex).ravel()
    if len(c) != len(d):
        raise ParameterRangeError(f"length mismatch: {len(c)} vs {len(d)}")
    if len(c) < 1:
        raise ParameterRangeError("vectors must have length >= 1")
    dd = np.abs(d) ** 2
    first = float(np.sum(np.abs(c) ** 2 * (dd.sum() - dd)))
    s_dc = np.dot(d, c.conj())
    second = np.sum(c * d.conj() * (s_dc - d * c.conj()))
    gamma = first - second
    scale = abs(first) + abs(second)
    if abs(gamma.imag) > 1e-12 * scale:
        raise NonHermitianError(f"gamma has imaginary residue {gamma.imag:.3e} at scale {scale:.3e}")
    return float(gamma.real)


@dataclass(frozen=True)
class BorderedBlock:
    """Data of the two-row bordered matrix [[a, b, c], [b*, a, d], [c*, d*, eta*I]].

    `eta` is the spectral proxy standing in for the trailing block.
    """

    a: float
    b: complex
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    eta: float

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex).ravel()
        d = np.asarray(self.d, dtype=complex).ravel()
        if len(c) != len(d) or len(c) < 1:
            raise ParameterRangeError(
                f"border vectors need equal length >= 1, got {len(c)} and {len(d)}"
            )
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def order(self) -> int:
        return len(self.c) + 2

    def assemble(self) -> np.ndarray:
        """Dense matrix for oracle comparisons."""
        k = len(self.c)
        r = np.zeros((k + 2, k + 2), dtype=complex)
        r[0, 0] = r[1, 1] = self.a
        r[0, 1] = self.b
        r[1, 0] = np.conj(self.b)
        r[0, 2:] = self.c
        r[2:, 0] = np.conj(self.c)
        r[1, 2:] = self.d
        r[2:, 1] = np.conj(self.d)
        r[2:, 2:] = self.eta * np.eye(k)
        return r


def _bordered_quartic(blk: BorderedBlock, x) -> np.ndarray:
    """Degree-4 factor of det(R - xI) for the bordered matrix R.

    q(x) = (a-x)^2 (eta-x)^2 - (a-x)(eta-x)(dd* + cc*) - bb*(eta-x)^2
           + 2 (eta-x) Re(b d.c*) + gamma
    """
    u = blk.a - np.asarray(x, dtype=float)
    v = blk.eta - np.asarray(x, dtype=float)
    cc = float(np.sum(np.abs(blk.c) ** 2))
    dd = float(np.sum(np.abs(blk.d) ** 2))
    bb = abs(blk.b) ** 2
    rbdc = float(np.real(blk.b * np.dot(blk.d, blk.c.conj())))
    gam = gamma_term(blk.c, blk.d)
    return u * u * v * v - u * v * (dd + cc) - bb * v * v + 2.0 * v * rbdc + gam


def block3_det(blk: BorderedBlock, x: float = 0.0) -> float:
    """Closed-form det(R - xI) = (eta-x)^(k-2) * quartic(x) for k >= 2.

    Matches a dense LU determinant of the assembled matrix to 1e-10
    relative; the quartic's roots are found by _compressed_spectrum.
    """
    k = len(blk.c)
    if k < 2:
        raise ParameterRangeError(f"block determinant needs k >= 2, got {k}")
    return float((blk.eta - x) ** (k - 2) * _bordered_quartic(blk, x))


def _compressed_spectrum(*blks: BorderedBlock) -> np.ndarray:
    """Eigenvalues, ascending, of each bordered matrix R compressed to an invariant subspace.

    R maps V = span{e0, e1, (0, 0, conj c), (0, 0, conj d)} into itself and
    acts as eta*I on the complement of V.  The basis u1 = conj c / |c| and
    u2, the normalized Gram-Schmidt residual of conj d against u1, gives
    the compression in closed form from |c|^2, |d|^2 and d.conj c alone:

        [[a,   b,                 |c|,           0],
         [b*,  a,                 d.conj c/|c|,  r],
         [|c|, (d.conj c/|c|)*,   eta,           0],
         [0,   r,                 0,           eta]]

    with r = |d - (d.conj c/|c|^2) c| = |conj d - (u1^H conj d) u1|.  By the
    Lagrange identity r^2 = gamma/|c|^2, which ties the compression to the
    bordered quartic: its characteristic polynomial is that quartic.  r is
    the norm of the residual vector, accurate to about eps |d| even for d
    parallel to c, where sqrt(|d|^2 - |d.conj c|^2/|c|^2) would cancel to
    about sqrt(eps) |d|.  c = 0 takes u1 from conj d.  A zero residual (d
    parallel to c, k = 1, zero borders) only adds the eigenvalue eta.  All
    blocks are solved in one stacked call.
    """
    def norm(v) -> float:
        return math.sqrt(np.vdot(v, v).real)

    h = np.zeros((len(blks), 4, 4), dtype=complex)
    for hb, blk in zip(h, blks):
        nc = norm(blk.c)
        if nc > 0.0:
            dc = np.vdot(blk.c, blk.d)  # d.conj c
            hb[0, 2] = nc
            hb[1, 2] = dc / nc
            hb[1, 3] = norm(blk.d - (dc / (nc * nc)) * blk.c)
        else:
            hb[1, 2] = norm(blk.d)
        hb[0, 0] = hb[1, 1] = blk.a
        hb[0, 1] = blk.b
        hb[2, 2] = hb[3, 3] = blk.eta
    return np.linalg.eigvalsh(h, UPLO="U")  # reads only the upper triangle filled above


def generalized_dembo_extremes(blk_up: BorderedBlock, blk_low: BorderedBlock) -> tuple[float, float]:
    """Extreme-eigenvalue bounds from the two bordered comparison matrices.

    `upper` is the largest real root of the quartic factor for the matrix
    built with the upper proxy eta, `lower` the smallest root for the lower
    proxy; eta itself is always a candidate (it is an eigenvalue of
    multiplicity k-2, and sits between the extremes of the bordered matrix
    for any k).  The roots are the eigenvalues of R compressed to its
    invariant subspace of dimension at most 4 (see _compressed_spectrum), so
    every root is found, wherever it lies; both matrices are solved in one
    stacked call.
    """
    if blk_up.eta < blk_low.eta:
        raise ParameterRangeError(
            f"upper proxy eta {blk_up.eta} below lower proxy eta {blk_low.eta}"
        )
    w = _compressed_spectrum(blk_up, blk_low)
    return max(float(w[0, -1]), blk_up.eta), min(float(w[1, 0]), blk_low.eta)
