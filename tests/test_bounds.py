import json
import math
from decimal import Decimal, getcontext, localcontext

import pytest

from paleyrip.bounds import (
    DEMBO_C,
    GENERALIZED_OFFSET,
    bound_conjectural,
    bound_dembo_recursive,
    bound_generalized_dembo,
    bound_gershgorin,
    bound_skew,
    build_report,
    find_c_alpha,
    lemma_k_inequality,
    max_sparsity,
)
from paleyrip.errors import NotPrimeError, ParameterRangeError
from paleyrip.experiments import exact_rip


def test_constants():
    assert abs(DEMBO_C - 1.0 / (4.0 - 2.0 * math.sqrt(3.0))) < 1e-15
    # 2/3 (2 - sqrt(3)) = 1/(3c)
    assert abs(GENERALIZED_OFFSET - 1.0 / (3.0 * DEMBO_C)) < 1e-15


def test_gershgorin():
    assert bound_gershgorin(1, 7) == 0.0
    assert abs(bound_gershgorin(3, 7) - 2 / math.sqrt(7)) < 1e-15
    assert abs(bound_gershgorin(30, 103) - 29 / math.sqrt(103)) < 1e-15
    with pytest.raises(ParameterRangeError):
        bound_gershgorin(0, 7)
    with pytest.raises(NotPrimeError):
        bound_gershgorin(3, 8)


def test_skew():
    # sqrt(3) < 6/pi < 2 at k = 3
    assert math.sqrt(3) < 6 / math.pi < 2
    assert abs(bound_skew(3, 7) - (6 / math.pi) / math.sqrt(7)) < 1e-15
    assert abs(bound_skew(2, 7, exact=True) - 1 / math.sqrt(7)) < 1e-12
    assert abs(bound_skew(30, 103) - 1.881840302316197) < 1e-14
    # cot(x) <= 1/x: the exact variant never exceeds the linear one
    for k in range(1, 60):
        assert bound_skew(k, 103, exact=True) <= bound_skew(k, 103) + 1e-15
    with pytest.raises(ParameterRangeError):
        bound_skew(8, 7)


def test_skew_exact_order_one_is_zero():
    # a 1 x 1 sign matrix has radius 0; the float cot(pi/2) is ~6e-17
    assert 1.0 / math.tan(math.pi / 2.0) > 0.0
    for p in (3, 7, 103, 1019):
        assert bound_skew(1, p, exact=True) == 0.0
        assert bound_skew(1, p, exact=False) == (2.0 / math.pi) / math.sqrt(p)
    # a relative tightness test now holds at order 1 as at every order
    assert 0.0 >= bound_skew(1, 7, exact=True) * (1.0 - 1e-12)


def test_dembo_recursive():
    # k = 3 collapses to sqrt(3)/sqrt(p)
    for p in (7, 19, 103):
        assert abs(bound_dembo_recursive(3, p) - math.sqrt(3) / math.sqrt(p)) < 1e-14
    assert abs(bound_dembo_recursive(4, 7) - 2.821367205045918 / math.sqrt(7)) < 1e-14
    for k in range(3, 100):
        assert bound_dembo_recursive(k, 103) < bound_gershgorin(k, 103)
    with pytest.raises(ParameterRangeError):
        bound_dembo_recursive(2, 7)


def test_dembo_recursive_increments():
    # consecutive difference exceeds the disk-bound increment by exactly
    # 2(2 - sqrt(3)) / (k (k-1) sqrt(p)) and shrinks toward it
    p = 103
    sq = math.sqrt(p)
    for k in range(3, 200):
        diff = bound_dembo_recursive(k + 1, p) - bound_dembo_recursive(k, p)
        excess = 2.0 * (2.0 - math.sqrt(3.0)) / (k * (k - 1))
        assert diff > 1.0 / sq
        assert abs(diff - (1.0 + excess) / sq) < 1e-13


def test_generalized_dembo():
    assert abs(bound_generalized_dembo(3, 7) - (2 - GENERALIZED_OFFSET) / math.sqrt(7)) < 1e-15
    # k = 4: both families reduce to (3 - (2/3)(2 - sqrt 3))/sqrt(p)
    for p in (7, 19, 103):
        assert abs(bound_generalized_dembo(4, p) - bound_dembo_recursive(4, p)) < 1e-15
    with pytest.raises(ParameterRangeError):
        bound_generalized_dembo(2, 7)


def test_family_ordering_measured():
    # measured crossover: the linear skew bound beats the additive families
    # from k = 4 on, but loses at k = 3
    assert bound_skew(3, 103) > bound_generalized_dembo(3, 103)
    assert bound_dembo_recursive(3, 103) < bound_generalized_dembo(3, 103)
    for p in (7, 19, 43, 103):
        for k in range(4, min(p, 60) + 1):
            sk = bound_skew(k, p)
            gd = bound_generalized_dembo(k, p)
            dr = bound_dembo_recursive(k, p)
            ge = bound_gershgorin(k, p)
            assert sk < gd < ge
            assert gd <= dr + 1e-15 if k == 4 else gd < dr
            assert dr < ge


def test_conjectural():
    assert abs(bound_conjectural(1, 7, 0.5) - 1 / math.sqrt(7)) < 1e-15
    for k in range(1, 40):
        assert bound_conjectural(k, 103, 1.0) >= bound_gershgorin(k, 103)
    assert abs(bound_conjectural(32, 103, 0.7) - 1.1147728228665883) < 1e-14
    with pytest.raises(ParameterRangeError):
        bound_conjectural(3, 7, 0.0)


def test_max_sparsity_p1009():
    gersh = max_sparsity(1009, "gershgorin")
    assert gersh.floor_threshold == 23
    assert gersh.max_even == 22
    skew = max_sparsity(1009, "skew_linear")
    assert skew.floor_threshold == 35
    assert skew.max_even == 34
    # direct check of the defining property
    assert bound_skew(34, 1009) < 1 / math.sqrt(2) <= bound_skew(36, 1009)
    assert bound_gershgorin(22, 1009) < 1 / math.sqrt(2) <= bound_gershgorin(24, 1009)


def test_max_sparsity_small_p():
    for family in ("gershgorin", "skew_linear", "skew_cot", "dembo_recursive",
                   "generalized_dembo"):
        assert max_sparsity(7, family).max_even >= 2
    with pytest.raises(ParameterRangeError):
        max_sparsity(7, "nonsense")


def test_lemma_k_inequality():
    for c in (1.0, DEMBO_C, 2.0, 10.0):
        for k in range(1, 2001):
            assert lemma_k_inequality(c, k), (c, k)
    # k = 1, c = 1 by direct evaluation: 0 + sqrt(2) <= 2 - 1/2
    assert math.sqrt(2.0) <= 1.5
    assert lemma_k_inequality(1.0, 1)
    with pytest.raises(ParameterRangeError):
        lemma_k_inequality(0.5, 3)


def _decimal_sides(c: int, alpha: str, beta: str):
    with localcontext() as ctx:
        ctx.prec = 60
        cd = Decimal(c)
        lhs = Decimal(12) * (cd.ln() * (1 + Decimal(beta))).exp()
        rhs = (1 - Decimal(alpha)) * cd * cd - 2 * cd
    return lhs, rhs


def test_find_c_alpha_boundary():
    c_star = find_c_alpha(0.8, 0.7)
    assert c_star == 845645
    # independent high-precision oracle: holds at c*, fails at c* - 1
    lhs, rhs = _decimal_sides(c_star, "0.8", "0.7")
    assert lhs < rhs
    lhs, rhs = _decimal_sides(c_star - 1, "0.8", "0.7")
    assert lhs >= rhs
    # the reported choice 899,998 satisfies the inequality but is larger
    lhs, rhs = _decimal_sides(899_998, "0.8", "0.7")
    assert lhs < rhs
    assert c_star < 899_998


def test_find_c_alpha_keeps_caller_decimal_context():
    # (0.3, 0.7131) takes the high-precision decimal path
    with localcontext() as ctx:
        ctx.prec = 28
        assert find_c_alpha(0.3, 0.7131) == 20029
        assert getcontext().prec == 28


def test_find_c_alpha_monotone_in_alpha():
    assert find_c_alpha(0.99, 0.7) > find_c_alpha(0.8, 0.7)
    with pytest.raises(ParameterRangeError):
        find_c_alpha(1.0, 0.7)
    with pytest.raises(ParameterRangeError):
        find_c_alpha(0.8, 0.0)


def test_bounds_sound_against_exhaustive_oracle():
    for k in range(2, 8):
        exact = exact_rip(7, k)
        assert bound_gershgorin(k, 7) >= exact - 1e-9
        assert bound_skew(k, 7, exact=True) >= exact - 1e-9
        assert bound_skew(k, 7, exact=False) >= exact - 1e-9
        if k >= 3:
            assert bound_dembo_recursive(k, 7) >= exact - 1e-9
            assert bound_generalized_dembo(k, 7) >= exact - 1e-9


def test_build_report():
    rep = build_report(103, 30, beta=0.7)
    assert rep.best == min(rep.skew_cot, rep.skew_linear, rep.gershgorin,
                           rep.dembo_recursive, rep.generalized_dembo)
    assert rep.best == rep.skew_cot  # cot variant wins at k = 30
    doc = rep.to_dict()
    json.dumps(doc)  # serializable
    assert doc["conditional"]["beta"] == 0.7
    # floor(sqrt(103/2)) + 1 = 8
    assert doc["max_sparsity"]["gershgorin"]["floor_threshold"] == 8

    rep2 = build_report(7, 2)
    assert rep2.dembo_recursive is None and rep2.generalized_dembo is None
    assert "conditional" not in rep2.to_dict()
    with pytest.raises(ParameterRangeError):
        build_report(7, 1)


def test_report_empirical_lower_invariant():
    rep = build_report(7, 4)
    exact = exact_rip(7, 4)
    for val in (rep.gershgorin, rep.skew_cot, rep.skew_linear,
                rep.dembo_recursive, rep.generalized_dembo):
        assert val >= exact - 1e-9
