import itertools
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paleyrip import frame
from paleyrip.cli import main
from paleyrip.errors import DuplicateSupportError, NotPrimeError, ParameterRangeError, WrongResidueError
from paleyrip.experiments import sign_matrix, skew_spectral_radius
from paleyrip.frame import build_frame, check_support, gram_direct
from paleyrip.numtheory import legendre
from paleyrip.rng import SplitMix64, random_subset
from paleyrip.spectra import gram_analytic

PALEY_PRIMES = [7, 11, 19, 43, 103]


def test_build_frame_shape_and_norms():
    f = build_frame(7)
    assert f.shape == (4, 7)
    assert f.rows == (0, 1, 2, 4)
    norms = np.linalg.norm(f.entries, axis=0)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_build_frame_row_zero_constant():
    f = build_frame(7)
    assert np.abs(np.asarray(f.entries[0]) - math.sqrt(1.0 / 7.0)).max() < 1e-15


def test_build_frame_entry_formula():
    f = build_frame(11)
    for mi, m in enumerate(f.rows):
        scale = math.sqrt((1.0 if mi == 0 else 2.0) / 11.0)
        for n in range(11):
            expected = scale * np.exp(2j * np.pi * m * n / 11.0)
            assert abs(f.entries[mi][n] - expected) < 1e-14


def test_build_frame_rejects_bad_p():
    with pytest.raises(NotPrimeError):
        build_frame(6)
    with pytest.raises(WrongResidueError):
        build_frame(13)


def test_build_frame_refuses_primes_past_its_bound(monkeypatch):
    # checked after p itself and before anything is built; patched small
    monkeypatch.setattr(frame, "FRAME_MAX_P", 11)
    assert build_frame(11).shape == (6, 11)
    with pytest.raises(ParameterRangeError, match=r"only for p <= 11, got p = 19$"):
        build_frame(19)
    with pytest.raises(NotPrimeError):
        build_frame(21)
    with pytest.raises(WrongResidueError):
        build_frame(17)


def test_gram_direct_singleton_and_pair():
    f = build_frame(7)
    g1 = gram_direct(f, (3,))
    assert np.shape(g1) == (1, 1)
    assert abs(g1[0][0] - 1.0) < 1e-12

    g2 = gram_direct(f, (0, 1))
    assert abs(abs(g2[0][1]) - 1 / math.sqrt(7)) < 1e-12
    # four-term dot product, conjugating the second column
    oracle = sum(f.entries[m][0] * np.conj(f.entries[m][1]) for m in range(4))
    assert abs(oracle - (-1j / math.sqrt(7))) < 1e-12
    assert abs(g2[0][1] - (-1j / math.sqrt(7))) < 1e-12


def test_gram_direct_is_hermitian_with_real_diagonal():
    g = gram_direct(build_frame(19), (3, 18, 0, 7, 12))
    assert all(type(z) is complex for row in g for z in row)
    assert all(g[i][j] == g[j][i].conjugate() for i in range(5) for j in range(5))
    assert all(g[i][i].imag == 0.0 for i in range(5))


@pytest.mark.parametrize("p", [7, 19, 43, 103])
def test_gram_direct_matches_numpy_dot_product(p):
    # the oracle: the frame as an array and one complex matrix product
    f = build_frame(p)
    cols = np.asarray(f.entries)
    rng = SplitMix64(2000 + p)
    for _ in range(40):
        support = random_subset(p, 1 + rng.below(min(p, 30)), rng.next_u64())
        sub = cols[:, list(support)]
        assert np.abs(np.asarray(gram_direct(f, support)) - sub.T @ sub.conj()).max() < 1e-15


def test_gram_analytic_matches_sign_convention():
    # chi(-1) = -1 for p = 3 mod 4, so entry (0, 1) of support {0, 1} is -i/sqrt(p)
    g = gram_analytic(7, (0, 1))
    assert abs(g[0, 1] - (-1j / math.sqrt(7))) < 1e-15
    assert abs(g[1, 0] - (+1j / math.sqrt(7))) < 1e-15


def test_gram_analytic_structure():
    g = gram_analytic(19, (2, 5, 11, 17))
    assert np.abs(g - g.conj().T).max() == 0.0  # Hermitian exactly by construction
    assert np.abs(np.diag(g) - 1.0).max() == 0.0
    off = g[~np.eye(4, dtype=bool)]
    assert np.abs(off.real).max() == 0.0
    assert np.abs(np.abs(off.imag) - 1 / math.sqrt(19)).max() < 1e-15


@pytest.mark.parametrize("p", [7, 11, 19])
def test_gram_oracle_equivalence_exhaustive(p):
    f = build_frame(p)
    for k in range(1, 5):
        for subset in itertools.combinations(range(p), k):
            diff = np.abs(gram_analytic(p, subset) - gram_direct(f, subset)).max()
            assert diff < 1e-12, (subset, diff)


@pytest.mark.parametrize("p", PALEY_PRIMES)
def test_gram_oracle_equivalence_random(p):
    f = build_frame(p)
    rng = SplitMix64(p)
    for _ in range(40):
        k = 2 + rng.below(min(p, 12) - 1)
        support = random_subset(p, k, rng.next_u64())
        diff = np.abs(gram_analytic(p, support) - gram_direct(f, support)).max()
        assert diff < 1e-12


_cached_frame = lru_cache(maxsize=None)(build_frame)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PALEY_PRIMES + [1019]).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=24, unique=True))))
def test_gram_oracle_equivalence_property(case):
    # any ordered support, including orders and residues the seeded draws miss
    p, support = case
    diff = np.abs(gram_analytic(p, support) - gram_direct(_cached_frame(p), support)).max()
    assert diff < 1e-12


@pytest.mark.parametrize("p", [7, 19, 43])
def test_gram_shift_invariance(p):
    rng = SplitMix64(1000 + p)
    for _ in range(20):
        k = 2 + rng.below(min(p, 9) - 1)
        support = random_subset(p, k, rng.next_u64())
        c = rng.below(p)
        shifted = tuple((s + c) % p for s in support)
        diff = np.abs(gram_analytic(p, support) - gram_analytic(p, shifted)).max()
        assert diff == 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([7, 19, 43, 103]).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=2, max_size=24, unique=True),
    st.integers(1, p - 1), st.integers(0, p - 1))))
def test_sign_matrix_agl_invariance_property(case):
    # x -> a x + b multiplies C by chi(a): a residue keeps C, a non-residue
    # negates it, and rho(C) is unchanged either way
    p, support, a, b = case
    c = sign_matrix(p, support)
    mapped = sign_matrix(p, [(a * t + b) % p for t in support])
    assert np.array_equal(mapped, legendre(a, p) * c)
    assert abs(skew_spectral_radius(mapped) - skew_spectral_radius(c)) < 1e-12


def test_gram_minus_identity_is_skew():
    # G = I + A with A purely imaginary and skew-symmetric (A = i C / sqrt(p))
    g = gram_analytic(43, (0, 5, 9, 21, 40))
    a = g - np.eye(5)
    assert np.abs(a + a.T).max() < 1e-12
    assert np.abs(a.real).max() < 1e-12


def test_support_set_validation():
    s = check_support(19, [8, 15, 5])
    assert s == (8, 15, 5)
    with pytest.raises(DuplicateSupportError):
        check_support(19, (1, 1, 2))
    with pytest.raises(ParameterRangeError):
        check_support(19, (0, 19))
    with pytest.raises(ParameterRangeError):
        check_support(7, ())
    # size, then range, then duplicates
    with pytest.raises(ParameterRangeError):
        check_support(3, (0, 0, 0, 0))
    with pytest.raises(ParameterRangeError):
        check_support(7, (9, 9))


def test_gram_rejects_mismatched_support():
    with pytest.raises(ParameterRangeError):
        gram_direct(build_frame(7), (0, 7))


def test_json_documents_round_trip(capsys):
    # the `frame` and `gram` documents the CLI prints
    f = build_frame(7)
    assert main(["frame", "--p", "7"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert list(back) == ["p", "rows", "entries"]
    assert back["p"] == 7
    assert back["rows"] == [0, 1, 2, 4]
    entries = np.array([[complex(re, im) for re, im in row] for row in back["entries"]])
    assert np.abs(entries - f.entries).max() < 1e-15

    g = gram_analytic(7, (0, 1, 3))
    assert main(["gram", "--p", "7", "--support", "0,1,3"]) == 0
    gdoc = json.loads(capsys.readouterr().out)
    assert list(gdoc) == ["p", "rows", "entries"]
    assert gdoc["p"] == 7
    assert gdoc["rows"] == [0, 1, 3]
    gentries = np.array([[complex(re, im) for re, im in row] for row in gdoc["entries"]])
    assert np.abs(gentries - g).max() < 1e-15
