import itertools
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paleyrip.errors import DuplicateSupportError, NotPrimeError, ParameterRangeError, WrongResidueError
from paleyrip.frame import (
    SupportSet,
    build_frame,
    coherence,
    frame_to_json,
    gram_analytic,
    gram_direct,
    gram_to_json,
    l1_coherence,
    reduce_support,
    sign_matrix,
)
from paleyrip.numtheory import legendre
from paleyrip.rng import SplitMix64, random_subset
from paleyrip.spectra import skew_spectral_radius

PALEY_PRIMES = [7, 11, 19, 43, 103]


def test_build_frame_shape_and_norms():
    f = build_frame(7)
    assert f.shape == (4, 7)
    assert f.rows == (0, 1, 2, 4)
    norms = np.linalg.norm(f.entries, axis=0)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_build_frame_row_zero_constant():
    f = build_frame(7)
    assert np.abs(f.entries[0] - math.sqrt(1.0 / 7.0)).max() < 1e-15


def test_build_frame_entry_formula():
    f = build_frame(11)
    for mi, m in enumerate(f.rows):
        scale = math.sqrt((1.0 if mi == 0 else 2.0) / 11.0)
        for n in range(11):
            expected = scale * np.exp(2j * np.pi * m * n / 11.0)
            assert abs(f.entries[mi, n] - expected) < 1e-14


def test_build_frame_rejects_bad_p():
    with pytest.raises(NotPrimeError):
        build_frame(6)
    with pytest.raises(WrongResidueError):
        build_frame(13)


def test_gram_direct_singleton_and_pair():
    f = build_frame(7)
    g1 = gram_direct(f, (3,))
    assert g1.shape == (1, 1)
    assert abs(g1[0, 0] - 1.0) < 1e-12

    g2 = gram_direct(f, (0, 1))
    assert abs(abs(g2[0, 1]) - 1 / math.sqrt(7)) < 1e-12
    # four-term dot product, conjugating the second column
    oracle = sum(f.entries[m, 0] * np.conj(f.entries[m, 1]) for m in range(4))
    assert abs(oracle - (-1j / math.sqrt(7))) < 1e-12
    assert abs(g2[0, 1] - (-1j / math.sqrt(7))) < 1e-12


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


def test_coherence():
    f = build_frame(7)
    # oracle: explicit max over the 21 column pairs
    worst = max(
        abs(np.vdot(f.entries[:, j], f.entries[:, i]))
        for i in range(7) for j in range(i + 1, 7)
    )
    assert abs(worst - 1 / math.sqrt(7)) < 1e-12
    assert abs(coherence(f) - 1 / math.sqrt(7)) < 1e-12
    assert abs(coherence(build_frame(103)) - 1 / math.sqrt(103)) < 1e-12
    assert coherence(np.eye(5)) == 0.0


def test_l1_coherence():
    assert abs(l1_coherence(7, 1) - 1 / math.sqrt(7)) < 1e-15
    assert abs(l1_coherence(103, 30) - 30 / math.sqrt(103)) < 1e-15
    assert abs(l1_coherence(7, 6) - 6 / math.sqrt(7)) < 1e-15
    with pytest.raises(ParameterRangeError):
        l1_coherence(7, 0)
    with pytest.raises(ParameterRangeError):
        l1_coherence(7, 7)


def test_support_set_validation():
    s = SupportSet(19, (8, 15, 5))
    assert len(s) == 3
    assert s.canonical().indices == (5, 8, 15)
    with pytest.raises(DuplicateSupportError):
        SupportSet(19, (1, 1, 2))
    with pytest.raises(ParameterRangeError):
        SupportSet(19, (0, 19))
    with pytest.raises(ParameterRangeError):
        SupportSet(7, ())


def test_reduce_support_mod_p():
    reduced, changed = reduce_support(19, [8, 15, 19])
    assert reduced == (8, 15, 0)
    assert changed == [(19, 0)]
    with pytest.raises(DuplicateSupportError):
        reduce_support(19, [0, 19])


def test_gram_rejects_mismatched_support():
    f = build_frame(7)
    with pytest.raises(ParameterRangeError):
        gram_direct(f, SupportSet(11, (0, 1)))


def test_json_documents_round_trip():
    f = build_frame(7)
    doc = frame_to_json(f)
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["p"] == 7
    assert back["rows"] == [0, 1, 2, 4]
    entries = np.array([[complex(re, im) for re, im in row] for row in back["entries"]])
    assert np.abs(entries - f.entries).max() < 1e-15

    g = gram_analytic(7, (0, 1, 3))
    gdoc = gram_to_json(7, (0, 1, 3), g)
    assert gdoc["rows"] == [0, 1, 3]
    gentries = np.array([[complex(re, im) for re, im in row] for row in gdoc["entries"]])
    assert np.abs(gentries - g).max() < 1e-15
