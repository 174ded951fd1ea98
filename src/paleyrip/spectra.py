"""Dense oracles of the benchmark's oracle job: the analytic Gramian and the bordered extremes.

No command runs anything here (their radius path is
experiments.skew_spectral_radius); the module stays because the benchmark's
oracle job imports it (ROADMAP items 1 and 9).  gram_analytic is
frame.gram_rows as a complex array, no DFT evaluated.  The bordered
extremes come from a dense solve of the assembled matrices.
hermitian_spectrum, also the dense oracle of the tests, gates its input
relative to the largest entry.  The paper's identities for these matrices
are decided exactly, in integers, by verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonHermitianError, ParameterRangeError
from .frame import gram_rows

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


def gram_analytic(p, support) -> np.ndarray:
    """The analytic Gramian I + (i/sqrt p) C_T: frame.gram_rows as a complex array."""
    return np.array(gram_rows(p, support))


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
        """The dense bordered matrix, of order k + 2."""
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


def generalized_dembo_extremes(blk_up: BorderedBlock, blk_low: BorderedBlock) -> tuple[float, float]:
    """Extreme-eigenvalue bounds from the two bordered comparison matrices.

    `upper` is the largest eigenvalue of the matrix built with the upper
    proxy eta, `lower` the smallest of the one built with the lower proxy.
    By interlacing with the trailing eta*I block, eta lies between the
    extremes, and neither result crosses it.  Both assembled matrices are
    solved in one stacked call.
    """
    if blk_up.eta < blk_low.eta:
        raise ParameterRangeError(
            f"upper proxy eta {blk_up.eta} below lower proxy eta {blk_low.eta}"
        )
    w = np.linalg.eigvalsh(np.stack([blk_up.assemble(), blk_low.assemble()]))
    return max(float(w[0, -1]), blk_up.eta), min(float(w[1, 0]), blk_low.eta)
