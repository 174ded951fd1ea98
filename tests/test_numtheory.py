import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paleyrip import numtheory
from paleyrip.errors import NotPrimeError, ParameterRangeError, WrongResidueError
from paleyrip.experiments import sign_gram, sign_matrix
from paleyrip.numtheory import (
    check_paley,
    check_prime,
    chi_signs,
    is_positive_definite,
    is_prime,
    legendre,
    row_index_set,
    sign_gram_ints,
)

PALEY_PRIMES = [7, 11, 19, 43, 103]
ODD_PRIMES_TO_103 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                     59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103]


def _trial_division(n: int) -> bool:
    # independent oracle for is_prime
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _square_set(p: int) -> set:
    return {x * x % p for x in range(1, p)}


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(103)
    assert is_prime(1009)


def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == _trial_division(n), n
    # a few larger spot checks
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 2)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_refuses_past_psi_12():
    # psi_12 = 399165290221 x 798330580441 is a strong pseudoprime to bases 2..37;
    # 3317044064679887385961981 is psi_13, the same for bases 2..41
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12 - 2)
    for n in (psi_12, 3317044064679887385961981):
        with pytest.raises(ParameterRangeError, match=f"only below {psi_12}"):
            is_prime(n)


def test_is_prime_cached():
    # every bound family re-validates p, so a repeated modulus is one test
    is_prime.cache_clear()
    assert [is_prime(1019) for _ in range(4)] == [True] * 4
    info = is_prime.cache_info()
    assert (info.hits, info.misses) == (3, 1)


def test_legendre_examples():
    assert legendre(0, 7) == 0
    assert legendre(2, 7) == 1   # 3^2 = 2 mod 7
    assert legendre(3, 7) == -1  # squares mod 7 are {1, 2, 4}


@pytest.mark.parametrize("p", ODD_PRIMES_TO_103)
def test_legendre_matches_square_enumeration(p):
    squares = _square_set(p)
    for a in range(p):
        expected = 0 if a == 0 else (1 if a in squares else -1)
        assert legendre(a, p) == expected
    # negative inputs reduce mod p first
    assert legendre(-1, p) == legendre(p - 1, p)


@pytest.mark.parametrize("p", ODD_PRIMES_TO_103)
def test_legendre_multiplicative(p):
    chi = chi_signs(p)
    for a in range(p):
        for b in range(p):
            assert chi[a * b % p] == chi[a] * chi[b]


@pytest.mark.parametrize("p", [q for q in ODD_PRIMES_TO_103 if q % 4 == 3])
def test_minus_one_is_nonresidue_for_3_mod_4(p):
    assert legendre(-1, p) == -1
    chi = chi_signs(p)
    for a in range(1, p):
        assert chi[a] == -chi[(-a) % p]
        assert chi[a] * chi[a] == 1


@pytest.mark.parametrize("p", ODD_PRIMES_TO_103)
def test_chi_table_agrees_with_euler(p):
    chi = chi_signs(p)
    assert type(chi) is tuple and all(type(s) is int for s in chi)
    for a in range(p):
        assert chi[a] == legendre(a, p)


def test_row_index_set_examples():
    assert row_index_set(7) == [0, 1, 2, 4]
    assert row_index_set(11) == [0, 1, 3, 4, 5, 9]


@pytest.mark.parametrize("p", PALEY_PRIMES)
def test_row_index_set_size_and_zero(p):
    rows = row_index_set(p)
    assert len(rows) == (p + 1) // 2
    assert rows[0] == 0
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)


def test_paley_prime_validation():
    # error order: primality, then residue class, then size
    with pytest.raises(NotPrimeError):
        check_paley(6)
    for p in (2, 5, 13):
        with pytest.raises(WrongResidueError):
            check_paley(p)
    with pytest.raises(ParameterRangeError):
        check_paley(3)
    assert check_paley(7) == 7 and type(check_paley(7)) is int


def test_legendre_rejects_even_modulus():
    # composites used to get Euler's criterion: legendre(4, 15) was -1
    for a, n in ((1, 4), (4, 15), (1, 9)):
        with pytest.raises(NotPrimeError):
            legendre(a, n)
    with pytest.raises(ParameterRangeError):
        legendre(1, 2)


def test_check_prime():
    assert check_prime(3) == 3
    assert check_prime(1009) == 1009
    for n in (-7, 0, 1, 9, 1001):
        with pytest.raises(NotPrimeError):
            check_prime(n)
    with pytest.raises(ParameterRangeError):
        check_prime(2)
    with pytest.raises(ParameterRangeError):
        check_prime(5, min_p=7)
    assert check_prime(7, min_p=7) == 7


def test_p2_is_a_range_error():
    # 2 is prime but below every odd-prime routine's domain: exit code 4, not 2
    with pytest.raises(ParameterRangeError):
        chi_signs(2)
    with pytest.raises(NotPrimeError):
        chi_signs(9)


def test_chi_signs_refuses_primes_past_its_bound(monkeypatch):
    # checked before the table is built; patched small, so nothing large is allocated
    monkeypatch.setattr(numtheory, "CHI_TABLE_MAX_P", 19)
    build = chi_signs.__wrapped__  # past the cache, which may hold tables built before the patch
    assert build(19) == tuple(legendre(a, 19) for a in range(19))
    with pytest.raises(ParameterRangeError, match=r"only for p <= 19, got p = 23$"):
        build(23)
    with pytest.raises(NotPrimeError):
        build(25)


def _sign_gram(p: int, support) -> list[list[int]]:
    """C^T C in ints for C_ab = chi(T_a - T_b)."""
    chi = chi_signs(p)
    c = [[chi[a - b] for b in support] for a in support]
    return [[sum(r[i] * r[j] for r in c) for j in range(len(c))] for i in range(len(c))]


def _kernel_gram(p: int, support) -> list[list[int]]:
    """sign_gram_ints of a support, its masks in residue space read from chi_signs."""
    chi = chi_signs(p)
    masks = [sum(1 << t for t in range(p) if chi[x - t] == 1) for x in support]
    return sign_gram_ints(masks, [1 << x for x in support])


# both classes: C is skew at p = 3 (mod 4) and symmetric at p = 1 (mod 4)
_KERNEL_PRIMES = [5, 7, 11, 13, 17, 19, 29, 43, 101, 103]
_kernel_supports = st.sampled_from(_KERNEL_PRIMES).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=min(30, p), unique=True)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_kernel_supports)
def test_sign_gram_ints_matches_float_product_and_chi_table(case):
    # the float32 product of experiments, ungated (the skew gate refuses
    # p = 1 (mod 4)), and the chi-table sums of _sign_gram
    p, support = case
    s = _kernel_gram(p, support)
    assert np.array_equal(np.array(s, dtype=float), sign_gram(sign_matrix(p, support)))
    assert s == _sign_gram(p, support)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_kernel_supports.flatmap(lambda case: st.tuples(
    st.just(case), st.integers(1, case[0] - 1), st.integers(0, case[0] - 1),
    st.permutations(range(len(case[1]))))))
def test_sign_gram_ints_is_affine_and_order_invariant(case):
    # x -> a x + b maps C to chi(a) C, and S to itself; reordering T reorders S
    (p, support), a, b, perm = case
    s = _kernel_gram(p, support)
    assert _kernel_gram(p, [(a * x + b) % p for x in support]) == s
    assert _kernel_gram(p, [support[i] for i in perm]) == [[s[i][j] for j in perm] for i in perm]


def test_sign_gram_ints_of_all_residues_without_numpy():
    # T = Z_p leaves no residue outside, so S = pI - J (the ceiling identity
    # with B empty), built with numpy unimportable
    code = (
        "import sys\nsys.modules['numpy'] = None\n"
        "from paleyrip.numtheory import chi_signs, sign_gram_ints\n"
        "for p in (13, 19, 103):\n"
        "    chi = chi_signs(p)\n"
        "    masks = [sum(1 << t for t in range(p) if chi[x - t] == 1) for x in range(p)]\n"
        "    s = sign_gram_ints(masks, [1 << x for x in range(p)])\n"
        "    assert s == [[p * (i == j) - 1 for j in range(p)] for i in range(p)], p\n"
        "print(sorted(m for m, mod in sys.modules.items() if mod and m.split('.')[0] == 'numpy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def _shifted(h: Fraction, s) -> list[list[int]]:
    """den h I - den S, with h = num/den: positive definite exactly when lambda_max(S) < h."""
    return [[h.numerator * (i == j) - h.denominator * x for j, x in enumerate(row)]
            for i, row in enumerate(s)]


def _eigenvalues_at_least(s, h: Fraction) -> int:
    """Eigenvalues of the integer symmetric S that are >= h, counted exactly.

    The characteristic polynomial comes from Faddeev-LeVerrier in Fractions
    and is shifted to q(y) = det((y + h) I - S).  Its roots are real, so by
    Descartes' rule its sign changes count the roots y > 0 exactly, and
    its lowest nonzero coefficient gives the multiplicity of y = 0.
    """
    n = len(s)
    a = [[Fraction(x) for x in row] for row in s]
    coeffs = [Fraction(0)] * n + [Fraction(1)]  # det(xI - S), lowest degree first
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][l] * m[l][j] for l in range(n)) + (coeffs[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        coeffs[n - k] = -sum(sum(a[i][l] * m[l][i] for l in range(n)) for i in range(n)) / k
    for top in range(n, 0, -1):  # Taylor shift x = y + h
        for i in range(top - 1, n):
            coeffs[i] += h * coeffs[i + 1]
    signs = [c > 0 for c in coeffs if c]
    zeros = next(i for i, c in enumerate(coeffs) if c)
    return zeros + sum(x != y for x, y in zip(signs, signs[1:]))


def test_is_positive_definite_small_cases():
    assert is_positive_definite([])
    assert is_positive_definite([[1]])
    assert not is_positive_definite([[0]])
    assert is_positive_definite([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert not is_positive_definite([[1, 1], [1, 1]])  # singular: a zero pivot
    assert not is_positive_definite([[1, 2], [2, 1]])  # indefinite: a negative pivot
    m = [[4, 2], [2, 3]]
    assert is_positive_definite(m) and m == [[4, 2], [2, 3]]  # not modified


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([7, 11, 19, 23, 31, 43, 103]).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.integers(0, p - 1), min_size=2, max_size=min(30, p), unique=True),
    st.fractions(Fraction(1, 4), Fraction(3, 2), max_denominator=2**12))))
def test_is_positive_definite_agrees_with_eigvalsh(case):
    # h = f lambda_max(S) rounded to a dyadic; decided as the float top
    # eigenvalue says wherever the relative gap exceeds 1e-9
    p, support, f = case
    s = _sign_gram(p, support)
    top = float(np.linalg.eigvalsh(np.array(s, dtype=float))[-1])
    h = Fraction(round(float(f) * top * 2**20), 2**20)
    if abs(top - h) > 1e-9 * max(top, 1.0):
        assert is_positive_definite(_shifted(h, s)) is (top < h)
    if len(support) <= 6:
        for t in {h, Fraction(round(top)), Fraction(len(support))}:
            assert is_positive_definite(_shifted(t, s)) is (_eigenvalues_at_least(s, t) == 0)


def test_eigenvalue_count_oracle():
    # S = C^T C of the canonical 3-tournament: spectrum {0, 3, 3}
    s = [[2, 1, -1], [1, 2, 1], [-1, 1, 2]]
    assert [_eigenvalues_at_least(s, Fraction(t)) for t in (-1, 0, 1, 3, 4)] == [3, 3, 2, 2, 0]


def _rank(m) -> int:
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(a[0])):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(rank + 1, len(a)):
            f = a[r][col] / a[rank][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("k, definite", [(52, True), (53, False)])
def test_complement_gram_at_the_interval_of_103(k, definite):
    # T = {0, ..., k-1}, B[r, t] = chi(r - t) over the other residues r:
    # C_T^T C_T = pI - J - B^T B, so rho(C_T)^2 < p exactly when J + B^T B
    # is positive definite.  At k = (p+1)/2 it is, by a margin floats cannot
    # resolve (1 - d = 5.4e-12); at k = (p+3)/2 its rank is p - k + 1 < k.
    p = 103
    chi = chi_signs(p)
    b = [[chi[r - t] for t in range(k)] for r in range(k, p)]
    m = [[1 + sum(row[i] * row[j] for row in b) for j in range(k)] for i in range(k)]
    ctc = _sign_gram(p, range(k))
    assert all(ctc[i][j] == p * (i == j) - m[i][j] for i in range(k) for j in range(k))
    assert is_positive_definite(m) is definite
    if not definite:
        assert _rank(m) == p - k + 1 == 51
