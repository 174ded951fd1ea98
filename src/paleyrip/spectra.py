"""Eigenvalue machinery: the sign-matrix radius and the bordered-block extremes.

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
itself.  dembo_upper is the one-step bordered bound demboratio prints.

BorderedBlock, generalized_dembo_extremes and hermitian_spectrum, like
frame.gram_analytic, have no caller in the package: they stay only because
the benchmark's oracle job imports them (ROADMAP items 1 and 9).  The
extremes are the eigenvalues of the bordered matrix compressed to its
invariant subspace of order at most 4, written in closed form from |c|^2,
d.conj c and the residual norm of d against c.  hermitian_spectrum, also
the dense oracle of the tests, gates its input relative to the largest
entry.  The paper's identities for these matrices (the closed-form
determinant, the Lagrange form of gamma, rho = cot(pi/2n) for the
canonical tournament) are decided exactly, in integers, by verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonHermitianError, ParameterRangeError

HERMITIAN_TOL = 1e-10


def hermitian_spectrum(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    Inputs with a NaN or infinite entry, or whose deviation from Hermitian
    exceeds HERMITIAN_TOL * max(1, max|M|), are rejected; LAPACK
    convergence failures propagate as numpy.linalg.LinAlgError.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ParameterRangeError(f"need a square matrix of order >= 1, got shape {m.shape}")
    scale = float(np.abs(m).max())
    if not math.isfinite(scale):
        raise NonHermitianError("matrix has a NaN or infinite entry")
    dev = float(np.abs(m - m.conj().T).max())
    bound = HERMITIAN_TOL * max(1.0, scale)
    if dev > bound:
        raise NonHermitianError(f"Hermitian deviation {dev:.3e} exceeds {bound:.1e}")
    return np.linalg.eigvalsh(m)


def check_sign_matrices(c) -> None:
    """Gate a sign matrix or a stack of them, whole, before their products are solved.

    Raises ParameterRangeError for input that is not square, of order >= 1
    and of an integer dtype (a stack of no matrices passes), and
    NonHermitianError for an entry outside {-1, 0, 1} or a matrix that is
    not exactly skew-symmetric.  What passes has integer C^T C entries of
    size at most n, so sign_gram forms its product exactly.
    """
    c = np.asarray(c)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2] or c.shape[-1] == 0:
        raise ParameterRangeError(f"need square matrices of order >= 1, got shape {c.shape}")
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
    and `btb` the squared norm of the border vector; all three must be
    finite, and btb >= 0.
    """
    if not (math.isfinite(c) and math.isfinite(eta_k) and 0 <= btb < math.inf):
        raise ParameterRangeError(f"need finite c, eta and btb >= 0, got {c}, {eta_k}, {btb}")
    return (c + eta_k) / 2.0 + math.sqrt((c - eta_k) ** 2 / 4.0 + btb)


@dataclass(frozen=True, eq=False)
class BorderedBlock:
    """Data of the two-row bordered matrix [[a, b, c], [b*, a, d], [c*, d*, eta*I]].

    `eta` is the spectral proxy standing in for the trailing block.  Every
    field must be finite, and the borders, stored as flat complex arrays,
    of equal length >= 1 (ParameterRangeError otherwise).  Blocks compare
    and hash by identity.
    """

    a: float
    b: complex
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    eta: float

    def __post_init__(self):
        if not np.isfinite((self.a, self.b, self.eta)).all():
            raise ParameterRangeError(f"need finite a, b and eta, got {self.a}, {self.b}, {self.eta}")
        c = np.asarray(self.c, dtype=complex).ravel()
        d = np.asarray(self.d, dtype=complex).ravel()
        if len(c) != len(d) or len(c) < 1 or not (np.isfinite(c).all() and np.isfinite(d).all()):
            raise ParameterRangeError(
                f"border vectors need finite entries and equal length >= 1, got {len(c)} and {len(d)}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

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


def _compressed_spectrum(*blks: BorderedBlock) -> np.ndarray:
    """Eigenvalues, ascending, of each bordered matrix R compressed to an invariant subspace.

    R maps V = span{e0, e1, (0, 0, conj c), (0, 0, conj d)} into itself and
    acts as eta*I on the complement of V.  The basis u1 = conj c / |c| and
    u2, the normalized Gram-Schmidt residual of conj d against u1, gives
    the compression in closed form from |c|^2 and d.conj c alone:

        [[a,   b,                 |c|,           0],
         [b*,  a,                 d.conj c/|c|,  r],
         [|c|, (d.conj c/|c|)*,   eta,           0],
         [0,   r,                 0,           eta]]

    with r = |d - (d.conj c/|c|^2) c|, the residual vector's norm, accurate
    to about eps |d| even for d parallel to c, where
    sqrt(|d|^2 - |d.conj c|^2/|c|^2) would cancel to sqrt(eps) |d|.  The
    characteristic polynomial is the bordered quartic.  c = 0 takes u1 from
    conj d, so r = |d| sits in the place of d.conj c/|c|; a zero residual
    (d parallel to c, k = 1, zero borders) only adds the eigenvalue eta.
    One stacked solve.
    """
    h = np.zeros((len(blks), 4, 4), dtype=complex)
    for hb, blk in zip(h, blks):
        c, d = blk.c, blk.d
        cc = np.vdot(c, c).real
        if cc > 0.0:
            dc = np.vdot(c, d)  # d.conj c
            nc = math.sqrt(cc)
            res = d - (dc / (nc * nc)) * c
            hb[0, 2], hb[1, 2], hb[1, 3] = nc, dc / nc, math.sqrt(np.vdot(res, res).real)
        else:
            hb[1, 2] = math.sqrt(np.vdot(d, d).real)
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
