import pytest

from paleyrip.errors import NotPrimeError, ParameterRangeError, WrongResidueError
from paleyrip.numtheory import (
    PaleyPrime,
    as_paley_prime,
    check_prime,
    chi_table,
    is_prime,
    legendre,
    row_index_set,
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
    chi = chi_table(p)
    for a in range(p):
        for b in range(p):
            assert chi[a * b % p] == chi[a] * chi[b]


@pytest.mark.parametrize("p", [q for q in ODD_PRIMES_TO_103 if q % 4 == 3])
def test_minus_one_is_nonresidue_for_3_mod_4(p):
    assert legendre(-1, p) == -1
    chi = chi_table(p)
    for a in range(1, p):
        assert chi[a] == -chi[(-a) % p]
        assert chi[a] * chi[a] == 1


@pytest.mark.parametrize("p", ODD_PRIMES_TO_103)
def test_chi_table_agrees_with_euler(p):
    chi = chi_table(p)
    assert not chi.flags.writeable
    for a in range(p):
        assert int(chi[a]) == legendre(a, p)


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
        PaleyPrime(6)
    for p in (2, 5, 13):
        with pytest.raises(WrongResidueError):
            PaleyPrime(p)
    with pytest.raises(ParameterRangeError):
        PaleyPrime(3)
    pp = PaleyPrime(7)
    assert pp.p == 7 and int(pp) == 7
    assert as_paley_prime(pp) is pp
    assert as_paley_prime(7) == pp


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
    assert check_prime(PaleyPrime(7)) == 7
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
        chi_table(2)
    with pytest.raises(NotPrimeError):
        chi_table(9)
