import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paleyrip.errors import NonHermitianError, ParameterRangeError
from paleyrip.frame import gram_analytic, sign_matrix
from paleyrip.rng import SplitMix64, random_subset
from paleyrip.spectra import (
    BorderedBlock,
    check_sign_matrices,
    dembo_upper,
    generalized_dembo_extremes,
    hermitian_spectrum,
    sign_gram,
    skew_spectral_radius,
)
from paleyrip.verify import _closed_form_det, _lagrange_gamma


def _canonical_tournament(n: int) -> np.ndarray:
    # integer skew adjacency of the transitive tournament: +1 above, -1 below
    ones = np.ones((n, n), dtype=int)
    return np.triu(ones, 1) - np.tril(ones, -1)


def _parts(v) -> list[tuple[float, float]]:
    # a complex vector as the (re, im) pairs verify's ring arithmetic reads
    return [(float(z.real), float(z.imag)) for z in v]


def _sign_vector(rng: SplitMix64, k: int, scale: float) -> np.ndarray:
    return 1j * scale * np.array([1.0 if rng.below(2) else -1.0 for _ in range(k)])


def _random_paley_block(rng: SplitMix64, p: int, k: int, eta: float | None = None) -> BorderedBlock:
    s = 1.0 / math.sqrt(p)
    return BorderedBlock(
        a=1.0,
        b=1j * s * (1.0 if rng.below(2) else -1.0),
        c=_sign_vector(rng, k, s),
        d=_sign_vector(rng, k, s),
        eta=1.0 + (rng.below(1000) / 1000.0 - 0.5) * s if eta is None else eta,
    )


def _rotated_scaled_hermitian(scale: float = 1e5) -> tuple[np.ndarray, np.ndarray]:
    # Q (s H) Q^H for a random 30x30 Hermitian H and unitary Q; at this seed
    # the rounding asymmetry is about 1.7e-10, above the 1e-10 tolerance an
    # absolute gate would use
    rng = np.random.default_rng(1)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    h = (a + a.conj().T) / 2
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
    return q @ (scale * h) @ q.conj().T, scale * np.linalg.eigvalsh(h)


# --- hermitian_spectrum ------------------------------------------------------


def test_spectrum_identity():
    w = hermitian_spectrum(np.eye(4))
    assert np.abs(w - 1.0).max() < 1e-14


def test_spectrum_2x2_coherence_block():
    mu = 0.3
    m = np.array([[1.0, 1j * mu], [-1j * mu, 1.0]])
    w = hermitian_spectrum(m)
    assert abs(w[0] - (1 - mu)) < 1e-12
    assert abs(w[1] - (1 + mu)) < 1e-12


def test_spectrum_3x3_real_equicoherent():
    mu = 0.2
    m = np.full((3, 3), mu) + (1 - mu) * np.eye(3)
    w = hermitian_spectrum(m)
    assert np.abs(w - np.array([1 - mu, 1 - mu, 1 + 2 * mu])).max() < 1e-12


def test_spectrum_3x3_imaginary_off_diagonals():
    # all-imaginary off-diagonals push the extremes in to 1 +- sqrt(3) mu
    mu = 0.2
    m = np.array([
        [1.0, 1j * mu, 1j * mu],
        [-1j * mu, 1.0, 1j * mu],
        [-1j * mu, -1j * mu, 1.0],
    ])
    w = hermitian_spectrum(m)
    assert abs(w[0] - (1 - math.sqrt(3) * mu)) < 1e-12
    assert abs(w[2] - (1 + math.sqrt(3) * mu)) < 1e-12


def test_spectrum_trace_identity():
    rng = SplitMix64(11)
    for _ in range(25):
        k = 2 + rng.below(12)
        support = random_subset(103, k, rng.next_u64())
        g = gram_analytic(103, support)
        w = hermitian_spectrum(g)
        assert len(w) == k
        assert np.all(np.diff(w) >= -1e-12)
        assert abs(w.sum() - k) < 1e-8 * k


def test_spectrum_signed_permutation_invariance():
    rng = SplitMix64(12)
    g = gram_analytic(43, random_subset(43, 8, 5))
    for _ in range(10):
        perm = list(range(8))
        for i in range(8):
            j = i + rng.below(8 - i)
            perm[i], perm[j] = perm[j], perm[i]
        signs = np.array([1.0 if rng.below(2) else -1.0 for _ in range(8)])
        q = np.zeros((8, 8))
        q[np.arange(8), perm] = signs
        w0 = hermitian_spectrum(g)
        w1 = hermitian_spectrum(q @ g @ q.conj().T)
        assert np.abs(w0 - w1).max() < 1e-9


def test_spectrum_symmetric_about_one_for_gramians():
    rng = SplitMix64(13)
    for _ in range(20):
        k = 2 + rng.below(10)
        g = gram_analytic(19, random_subset(19, k, rng.next_u64()))
        w = hermitian_spectrum(g)
        assert np.abs((w - 1.0) + (w - 1.0)[::-1]).max() < 1e-9


def test_spectrum_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ParameterRangeError):
        hermitian_spectrum(np.ones((2, 3)))
    # the gate is relative to the largest entry: a large rotated Hermitian
    # matrix carries rounding asymmetry but is accepted
    m, expected = _rotated_scaled_hermitian()
    assert np.abs(hermitian_spectrum(m) - expected).max() < 1e-12 * np.abs(expected).max()


def test_spectrum_rejects_order_zero():
    with pytest.raises(ParameterRangeError, match="order >= 1"):
        hermitian_spectrum(np.zeros((0, 0)))


# --- order-3 characteristic polynomial --------------------------------------


@pytest.mark.parametrize("p", [7, 19, 103])
def test_charpoly_identity_and_spectrum(p):
    rng = SplitMix64(p * 7)
    target = math.sqrt(3.0 / p)
    for _ in range(30):
        g = gram_analytic(p, random_subset(p, 3, rng.next_u64()))
        # det(xI - G) = (x-1)^3 - 3(x-1)/p, from LAPACK's eigenvalues
        assert np.abs(np.poly(g) - [1.0, -3.0, 3.0 - 3.0 / p, 3.0 / p - 1.0]).max() < 1e-12
        w = hermitian_spectrum(g)
        assert np.abs(w - np.array([1 - target, 1.0, 1 + target])).max() < 1e-10


def test_charpoly_p7_extremes():
    g = gram_analytic(7, (0, 2, 5))
    w = hermitian_spectrum(g)
    assert abs(w[0] - (1 - 0.6546536707079771)) < 1e-10
    assert abs(w[2] - (1 + 0.6546536707079771)) < 1e-10


# --- tournaments and skew spectral radius ------------------------------------


def test_skew_radius_canonical_values():
    assert abs(skew_spectral_radius(_canonical_tournament(2)) - 1.0) < 1e-12
    assert abs(skew_spectral_radius(_canonical_tournament(3)) - math.sqrt(3)) < 1e-12 * math.sqrt(3)
    for n in range(4, 13):
        target = 1.0 / math.tan(math.pi / (2 * n))
        assert abs(skew_spectral_radius(_canonical_tournament(n)) - target) < 1e-12 * target


def test_skew_radius_bounds_random_orientations():
    rng = SplitMix64(99)
    for n in range(2, 13):
        target = 1.0 / math.tan(math.pi / (2 * n))
        for _ in range(200):
            c = np.zeros((n, n), dtype=int)
            for i in range(n):
                for j in range(i + 1, n):
                    s = 1.0 if rng.below(2) else -1.0
                    c[i, j], c[j, i] = s, -s
            assert skew_spectral_radius(c) <= target * (1 + 1e-12)


def test_skew_radius_rejects_non_skew():
    with pytest.raises(NonHermitianError):
        skew_spectral_radius(np.eye(3, dtype=int))
    with pytest.raises(NonHermitianError):
        skew_spectral_radius(np.stack([_canonical_tournament(3), np.eye(3, dtype=int)]))
    with pytest.raises(ParameterRangeError):
        skew_spectral_radius(np.ones((2, 3), dtype=int))
    # C^T C is not the Hermitian square of a complex skew matrix, so complex
    # input is refused rather than given a wrong radius
    with pytest.raises(ParameterRangeError):
        skew_spectral_radius(np.array([[0, 1 + 1j], [-1 - 1j, 0]]))


def test_skew_radius_takes_only_integer_sign_matrices():
    # the radius path is exact for integer sign matrices only: float, complex
    # and bool input is refused whatever its values, an entry of 2 is not a sign
    assert np.issubdtype(_canonical_tournament(4).dtype, np.integer)
    for c in (_canonical_tournament(4).astype(float), _canonical_tournament(4) + 0j,
              np.zeros((4, 4), dtype=bool)):
        with pytest.raises(ParameterRangeError, match="integer"):
            skew_spectral_radius(c)
    with pytest.raises(NonHermitianError, match=r"\{-1, 0, 1\}"):
        skew_spectral_radius(2 * _canonical_tournament(4))


def test_sign_gate_admits_exactly_skew_sign_stacks():
    good = sign_matrix(103, np.array([random_subset(103, 12, s) for s in range(6)]))
    for c in (good, good.astype(np.int8), good[0], np.zeros((3, 1, 1), dtype=np.int8)):
        check_sign_matrices(c)
    for dtype in (np.int8, np.int64):
        for bad in (2, -2, -128):
            c = good.astype(dtype)
            c[4, 0, 1] = bad
            c[4, 1, 0] = -bad if bad != -128 else 1  # skew where the dtype allows it
            with pytest.raises(NonHermitianError, match=r"\{-1, 0, 1\}"):
                check_sign_matrices(c)
        for a, b in ((3, 9), (7, 7)):
            c = good.astype(dtype)
            c[2, a, b] = c[2, b, a] if a != b else 1  # sign entries, but not skew
            with pytest.raises(NonHermitianError, match="1 of 6"):
                check_sign_matrices(c)
    with pytest.raises(ParameterRangeError):
        check_sign_matrices(good.astype(float))  # exactness is argued for integers only
    with pytest.raises(ParameterRangeError):
        check_sign_matrices(good[:, :, :5])


def test_sign_gate_rejects_order_zero_but_not_an_empty_stack():
    for c in (np.zeros((0, 0), dtype=int), np.zeros((3, 0, 0), dtype=np.int8)):
        with pytest.raises(ParameterRangeError, match="order >= 1"):
            skew_spectral_radius(c)
    rho = skew_spectral_radius(np.zeros((0, 4, 4), dtype=int))
    assert isinstance(rho, np.ndarray) and rho.shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_gates_reject_nonfinite_entries(bad):
    # NaN compares False against any bound, so the deviation gate alone
    # would let these through to LAPACK
    with pytest.raises(NonHermitianError, match="NaN or infinite"):
        hermitian_spectrum(np.array([[0.0, bad], [bad, 0.0]]))
    with pytest.raises(NonHermitianError, match="NaN or infinite"):
        hermitian_spectrum(np.array([[1.0, 1j * bad], [-1j * bad, 1.0]]))


def test_skew_radius_stack_shapes():
    stack = np.stack([_canonical_tournament(5), -_canonical_tournament(5),
                      np.zeros((5, 5), dtype=int)])
    rho = skew_spectral_radius(stack)
    assert isinstance(rho, np.ndarray) and rho.shape == (3,)
    target = 1.0 / math.tan(math.pi / 10)
    assert np.abs(rho - [target, target, 0.0]).max() < 1e-12
    # an all-zero member and an order-1 matrix give exactly 0, not a rounded
    # or negative square root
    assert rho[2] == 0.0
    assert skew_spectral_radius(np.zeros((1, 1), dtype=np.int8)) == 0.0
    assert skew_spectral_radius(np.zeros((1, 1), dtype=np.int64)) == 0.0
    assert skew_spectral_radius(stack.reshape(3, 1, 5, 5)).shape == (3, 1)
    assert isinstance(skew_spectral_radius(stack[0]), float)


def _assert_matches_complex_oracle(c):
    # the oracle is the top eigenvalue of the Hermitian matrix iC, from
    # LAPACK's complex solver, per matrix and over the whole stack; a stack
    # member and the same matrix alone go through the same product and the
    # same per-matrix LAPACK call, so they agree bit for bit
    rho = skew_spectral_radius(c)
    oracle = np.linalg.eigvalsh(1j * c)[..., -1]
    assert np.all(np.abs(rho - oracle) <= 1e-12 * np.maximum(1.0, oracle))
    for t in range(len(c)):
        assert rho[t] == skew_spectral_radius(c[t])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 16),
    batch=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_skew_radius_stack_property_vs_dense(n, batch, seed):
    # random +-1 orientations
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.choice([-1, 1], size=(batch, n, n)), 1)
    _assert_matches_complex_oracle(upper - np.swapaxes(upper, -1, -2))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    p=st.sampled_from([19, 103, 1019]),
    k=st.integers(1, 200),
    batch=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_skew_radius_sign_matrix_stacks_vs_dense(p, k, batch, seed):
    # Paley sign-matrix stacks up to order 200 at p = 1019
    k = min(k, p)
    rng = np.random.default_rng(seed)
    idx = np.stack([rng.choice(p, size=k, replace=False) for _ in range(batch)])
    _assert_matches_complex_oracle(sign_matrix(p, idx))


@pytest.mark.parametrize("p,k,batch", [(19, 19, 4), (103, 30, 50), (1019, 200, 5)])
def test_sign_matrix_gram_product_is_exact(p, k, batch):
    # C^T C of a sign matrix has integer entries of size at most k, so the
    # float32 product sign_gram forms, and a float64 product, equal the
    # int64 product exactly
    rng = np.random.default_rng(p + k)
    idx = np.stack([rng.choice(p, size=k, replace=False) for _ in range(batch)])
    c = sign_matrix(p, idx)
    exact = np.swapaxes(c, -1, -2) @ c
    a = c.astype(np.float64)
    assert np.array_equal(np.swapaxes(a, -1, -2) @ a, exact)
    assert np.array_equal(sign_gram(c), exact)
    assert np.abs(exact).max() <= k


# --- one-step bordered bounds -------------------------------------------------


def test_dembo_closed_forms():
    assert dembo_upper(1.0, 1.0, 0.0) == 1.0
    k, p = 5, 103
    assert abs(dembo_upper(1.0, 1.0, k / p) - (1 + math.sqrt(k / p))) < 1e-15


def test_dembo_upper_vs_eigvalsh():
    # dembo_upper is the top eigenvalue of [[c, sqrt b], [sqrt b, eta]]
    rng = SplitMix64(5)
    for _ in range(50):
        c = rng.below(1000) / 500.0
        e = rng.below(1000) / 500.0
        b = rng.below(1000) / 1000.0
        lam = np.linalg.eigvalsh([[c, math.sqrt(b)], [math.sqrt(b), e]])[-1]
        assert abs(dembo_upper(c, e, b) - lam) <= 1e-14 * max(1.0, abs(lam))


def test_dembo_upper_monotone():
    grid = [0.0, 0.25, 0.5, 1.0, 2.0]
    for b in grid:
        vals = [dembo_upper(1.0, e, b) for e in grid]
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))
    for e in grid:
        vals = [dembo_upper(1.0, e, b) for b in grid]
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))
    with pytest.raises(ParameterRangeError):
        dembo_upper(1.0, 1.0, -0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("slot", [0, 1, 2], ids=["c", "eta", "btb"])
def test_dembo_bounds_reject_nonfinite_input(bad, slot):
    # a NaN btb passes a btb < 0 gate, and a NaN c or eta would come back as a NaN bound
    args = [1.0, 1.0, 0.5]
    args[slot] = bad
    with pytest.raises(ParameterRangeError, match="finite"):
        dembo_upper(*args)


# --- the bordered block -------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("field", ["a", "b", "c", "d", "eta"])
def test_bordered_block_rejects_nonfinite_input(bad, field):
    # a NaN in c used to fail the |c|^2 > 0 branch and be read as c = 0
    fields = {"a": 1.0, "b": 0j, "c": [1.0, 1.0], "d": [1.0, 1.0], "eta": 1.0}
    fields[field] = [bad, 1.0] if field in ("c", "d") else bad
    with pytest.raises(ParameterRangeError, match="finite"):
        BorderedBlock(**fields)


def test_bordered_real_cross_term_vanishes_for_paley_data():
    rng = SplitMix64(41)
    s = 1.0 / math.sqrt(43)
    for _ in range(50):
        k = 2 + rng.below(9)
        b = 1j * s * (1.0 if rng.below(2) else -1.0)
        c = _sign_vector(rng, k, s)
        d = _sign_vector(rng, k, s)
        assert abs(np.real(b * np.dot(d, c.conj()))) < 1e-18


# --- extreme roots of the bordered quartic -------------------------------------


def test_generalized_extremes_decoupled():
    k = 4
    z = np.zeros(k)
    up = BorderedBlock(a=1.5, b=0.0, c=z, d=z, eta=1.0)
    low = BorderedBlock(a=1.5, b=0.0, c=z, d=z, eta=0.5)
    upper, lower = generalized_dembo_extremes(up, low)
    assert abs(upper - 1.5) < 1e-12
    assert abs(lower - 0.5) < 1e-12


def _with_eta(blk: BorderedBlock, eta: float) -> BorderedBlock:
    return BorderedBlock(blk.a, blk.b, blk.c, blk.d, eta=eta)


def _edge_case_pairs():
    s = 1.0 / math.sqrt(103)
    v = 1j * s * np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    return [
        # the upper extreme 10 lies 9 above eta
        (BorderedBlock(a=10, b=0, c=0, d=0, eta=1), 0.5),
        (BorderedBlock(a=1.0, b=1j * s, c=v, d=-v, eta=1.0 + s), 1.0 - s),  # c parallel to d
        (BorderedBlock(a=1.0, b=-1j * s, c=[1j * s], d=[-1j * s], eta=1.1), 0.9),  # k = 1
        (BorderedBlock(a=1.0, b=1j * s, c=np.zeros(4), d=np.zeros(4), eta=1.2), 0.7),  # c = d = 0
    ]


def _quartic(blk: BorderedBlock, x: float) -> float:
    # the bordered quartic q(x) of verify's closed form, on float pairs: every
    # eigenvalue of the bordered matrix other than eta is one of its roots
    det, _ = _closed_form_det((blk.a, 0.0), (blk.b.real, blk.b.imag), _parts(blk.c),
                              _parts(blk.d), (blk.eta, 0.0), (x, 0.0))
    return det / (blk.eta - x) ** max(len(blk.c) - 2, 0)


def test_generalized_extremes_match_dense_eigensolver():
    # the dense solve against an independent oracle: each extreme that is not
    # eta itself is a root of the quartic, relative to the scale of its terms
    rng = SplitMix64(51)
    pairs = []
    for _ in range(40):
        k = 2 + rng.below(9)
        blk_up = _random_paley_block(rng, 103, k, eta=1.0 + rng.below(500) / 1000.0)
        pairs.append((blk_up, blk_up.eta - rng.below(500) / 1000.0))
    roots = 0
    for blk_up, eta_low in pairs + _edge_case_pairs():
        blk_low = _with_eta(blk_up, eta_low)
        for blk, x in zip((blk_up, blk_low), generalized_dembo_extremes(blk_up, blk_low)):
            if x != blk.eta:
                scale = max(abs(blk.a - x), abs(blk.eta - x), 1.0) ** 4
                assert abs(_quartic(blk, x)) / scale <= 1e-12
                roots += 1
    assert roots >= 80  # at least the two extremes of each random block


def test_generalized_extremes_one_stacked_solve(monkeypatch):
    calls = []
    full = np.linalg.eigvalsh

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return full(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    blk_up, eta_low = _edge_case_pairs()[1]
    generalized_dembo_extremes(blk_up, _with_eta(blk_up, eta_low))
    assert calls == [(2, 7, 7)]


def test_peeling_step_quartic_positive_at_threshold():
    # one peeling step: when the gamma inequality (C-D)((2k+1)C - D) < p^2 gamma
    # holds, the bordered-matrix characteristic quartic is strictly positive at
    # the candidate point x = 1 + (k+2)^beta / sqrt(p), i.e. that point is not
    # an eigenvalue of the comparison matrix.  The closed form and gamma are
    # verify's ring arithmetic, here on float pairs
    rng = SplitMix64(61)
    p, beta = 103, 0.7
    s = 1.0 / math.sqrt(p)
    checked = 0
    for _ in range(200):
        k = 6 + rng.below(5)
        blk = _random_paley_block(rng, p, k, eta=1.0 + k**beta * s)
        d_const = k**beta
        c_const = (k + 2) ** beta
        c, d = _parts(blk.c), _parts(blk.d)
        gam = _lagrange_gamma(c, d)
        lhs = (c_const - d_const) * ((2 * k + 1) * c_const - d_const) / p**2
        if lhs < gam:
            x0 = 1.0 + c_const * s
            q_dimensionless = _quartic(blk, x0) * p**2
            expected = (
                c_const**2 * (c_const - d_const) ** 2
                - 2 * k * c_const * (c_const - d_const)
                - (c_const - d_const) ** 2
                + gam * p**2
            )
            assert q_dimensionless > 0.0
            assert abs(q_dimensionless - expected) < 1e-8 * max(1.0, abs(expected))
            checked += 1
    assert checked > 0


def test_generalized_extremes_validates_eta_order():
    z = np.zeros(3)
    up = BorderedBlock(1.0, 0.0, z, z, eta=0.5)
    low = BorderedBlock(1.0, 0.0, z, z, eta=1.0)
    with pytest.raises(ParameterRangeError):
        generalized_dembo_extremes(up, low)
