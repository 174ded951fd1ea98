import json
import math
import subprocess
import sys
from decimal import Decimal, localcontext

import pytest

from paleyrip.bounds import (
    DEMBO_C,
    FAMILIES,
    GENERALIZED_OFFSET,
    RECOVERY_THRESHOLD,
    bound_conjectural,
    family_bounds,
    find_c_alpha,
    max_sparsity,
)
from paleyrip.cli import main
from paleyrip.errors import NotPrimeError, ParameterRangeError
from paleyrip.experiments import exact_rip
from paleyrip.numtheory import is_prime

# Each family's column of family_bounds at (k, p).
FAMILY_FUNCTIONS = {name: lambda k, p, name=name: family_bounds(k, p)[name] for name in FAMILIES}

# Each family's bound written out with the float operations of its formula.
WRITTEN_OUT = {
    "gershgorin": lambda k, p: (k - 1) / math.sqrt(p),
    "skew_cot": lambda k, p: 0.0 if k == 1 else (1.0 / math.tan(math.pi / (2.0 * k))) / math.sqrt(p),
    "skew_linear": lambda k, p: (2.0 * k / math.pi) / math.sqrt(p),
    "dembo_recursive": lambda k, p: (k - 1 - 1.0 / (DEMBO_C * (k - 1))) / math.sqrt(p),
    "generalized_dembo": lambda k, p: (k - 1 - GENERALIZED_OFFSET) / math.sqrt(p),
}


def test_constants():
    assert abs(DEMBO_C - 1.0 / (4.0 - 2.0 * math.sqrt(3.0))) < 1e-15
    # 2/3 (2 - sqrt(3)) = 1/(3c)
    assert abs(GENERALIZED_OFFSET - 1.0 / (3.0 * DEMBO_C)) < 1e-15


def test_gershgorin():
    assert family_bounds(1, 7)["gershgorin"] == 0.0
    assert abs(family_bounds(3, 7)["gershgorin"] - 2 / math.sqrt(7)) < 1e-15
    assert abs(family_bounds(30, 103)["gershgorin"] - 29 / math.sqrt(103)) < 1e-15
    with pytest.raises(ParameterRangeError):
        family_bounds(0, 7)
    with pytest.raises(NotPrimeError):
        family_bounds(3, 8)


def test_skew():
    # sqrt(3) < 6/pi < 2 at k = 3
    assert math.sqrt(3) < 6 / math.pi < 2
    assert abs(family_bounds(3, 7)["skew_linear"] - (6 / math.pi) / math.sqrt(7)) < 1e-15
    assert abs(family_bounds(2, 7)["skew_cot"] - 1 / math.sqrt(7)) < 1e-12
    assert abs(family_bounds(30, 103)["skew_linear"] - 1.881840302316197) < 1e-14
    # cot(x) <= 1/x: skew_cot never exceeds skew_linear
    for k in range(1, 60):
        b = family_bounds(k, 103)
        assert b["skew_cot"] <= b["skew_linear"] + 1e-15
    with pytest.raises(ParameterRangeError):
        family_bounds(8, 7)


def test_skew_exact_order_one_is_zero():
    # a 1 x 1 sign matrix has radius 0; the float cot(pi/2) is ~6e-17
    assert 1.0 / math.tan(math.pi / 2.0) > 0.0
    for p in (3, 7, 103, 1019):
        assert family_bounds(1, p)["skew_cot"] == 0.0
        assert family_bounds(1, p)["skew_linear"] == (2.0 / math.pi) / math.sqrt(p)
    # a relative tightness test now holds at order 1 as at every order
    assert 0.0 >= family_bounds(1, 7)["skew_cot"] * (1.0 - 1e-12)


def test_dembo_recursive():
    # k = 3 collapses to sqrt(3)/sqrt(p)
    for p in (7, 19, 103):
        assert abs(family_bounds(3, p)["dembo_recursive"] - math.sqrt(3) / math.sqrt(p)) < 1e-14
    assert abs(family_bounds(4, 7)["dembo_recursive"] - 2.821367205045918 / math.sqrt(7)) < 1e-14
    for k in range(3, 100):
        b = family_bounds(k, 103)
        assert b["dembo_recursive"] < b["gershgorin"]
    assert family_bounds(2, 7)["dembo_recursive"] is None


def test_dembo_recursive_increments():
    # consecutive difference exceeds the disk-bound increment by exactly
    # 2(2 - sqrt(3)) / (k (k-1) sqrt(p)) and shrinks toward it
    p = 1019
    sq = math.sqrt(p)
    for k in range(3, 200):
        diff = family_bounds(k + 1, p)["dembo_recursive"] - family_bounds(k, p)["dembo_recursive"]
        excess = 2.0 * (2.0 - math.sqrt(3.0)) / (k * (k - 1))
        assert diff > 1.0 / sq
        assert abs(diff - (1.0 + excess) / sq) < 1e-13


def test_generalized_dembo():
    assert abs(family_bounds(3, 7)["generalized_dembo"] - (2 - GENERALIZED_OFFSET) / math.sqrt(7)) < 1e-15
    # k = 4: both families reduce to (3 - (2/3)(2 - sqrt 3))/sqrt(p)
    for p in (7, 19, 103):
        b = family_bounds(4, p)
        assert abs(b["generalized_dembo"] - b["dembo_recursive"]) < 1e-15
    assert family_bounds(2, 7)["generalized_dembo"] is None


def test_family_ordering_measured():
    # measured crossover: the linear skew bound beats the additive families
    # from k = 4 on, but loses at k = 3
    b = family_bounds(3, 103)
    assert b["skew_linear"] > b["generalized_dembo"]
    assert b["dembo_recursive"] < b["generalized_dembo"]
    for p in (7, 19, 43, 103):
        for k in range(4, min(p, 60) + 1):
            b = family_bounds(k, p)
            sk, gd = b["skew_linear"], b["generalized_dembo"]
            dr, ge = b["dembo_recursive"], b["gershgorin"]
            assert sk < gd < ge
            assert gd <= dr + 1e-15 if k == 4 else gd < dr
            assert dr < ge


def test_conjectural():
    assert abs(bound_conjectural(1, 7, 0.5) - 1 / math.sqrt(7)) < 1e-15
    for k in range(1, 40):
        assert bound_conjectural(k, 103, 1.0) >= family_bounds(k, 103)["gershgorin"]
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
    skew_linear, gershgorin = FAMILY_FUNCTIONS["skew_linear"], FAMILY_FUNCTIONS["gershgorin"]
    assert skew_linear(34, 1009) < 1 / math.sqrt(2) <= skew_linear(36, 1009)
    assert gershgorin(22, 1009) < 1 / math.sqrt(2) <= gershgorin(24, 1009)


def _scanned_max_even(p: int, family: str) -> int:
    """Oracle: scan even m = 2, 4, ... <= p until the family's bound reaches 1/sqrt(2)."""
    f = FAMILIES[family].f
    best = 0
    for m in range(2, p + 1, 2):
        if (1.0 if m == 2 else f(m)) / math.sqrt(p) >= RECOVERY_THRESHOLD:
            break
        best = m
    return best


def test_max_sparsity_matches_linear_scan():
    for p in filter(is_prime, range(3, 20_000)):
        for family, fam in FAMILIES.items():
            if p >= fam.min_p:
                assert max_sparsity(p, family).max_even == _scanned_max_even(p, family), (p, family)


@pytest.mark.parametrize("p", [1000000000000000003, 18446744073709551629])
def test_bounds_command_large_prime(p):
    # one even m per family meets delta_m < 1/sqrt(2) and m + 2 fails it
    res = subprocess.run([sys.executable, "-m", "paleyrip", "bounds", "--p", str(p), "--k", "4"],
                         capture_output=True, text=True, timeout=30)
    assert res.returncode == 0, res.stderr
    for family, got in json.loads(res.stdout)["max_sparsity"].items():
        m, f = got["max_even"], FAMILIES[family].f
        assert f(m) / math.sqrt(p) < RECOVERY_THRESHOLD <= f(m + 2) / math.sqrt(p), family


def test_max_sparsity_small_p():
    for family in ("gershgorin", "skew_linear", "skew_cot", "dembo_recursive",
                   "generalized_dembo"):
        assert max_sparsity(7, family).max_even >= 2
    with pytest.raises(ParameterRangeError):
        max_sparsity(7, "nonsense")


def _decimal_sides(c: int, alpha: str, beta: str):
    with localcontext() as ctx:
        ctx.prec = 60
        cd = Decimal(c)
        lhs = Decimal(12) * (cd.ln() * (1 + Decimal(beta))).exp()
        rhs = (1 - Decimal(alpha)) * cd * cd - 2 * cd
    return lhs, rhs


def test_find_c_alpha_boundary():
    c_star = find_c_alpha(0.8, 0.7)
    # the reported choice 899,998 satisfies the inequality but is larger
    lhs, rhs = _decimal_sides(899_998, "0.8", "0.7")
    assert lhs < rhs
    assert c_star < 899_998


# (alpha, beta) -> smallest c, as the exact search has always found them
C_ALPHA = {
    (0.8, 0.7): 845645,
    (0.3, 0.71): 18018,
    (0.99, 0.7): 18362740743,
    (0.5, 0.5): 584,
    (0.1, 0.123): 22,
    (0.01, 0.001): 15,
    (0.123456789, 0.25): 36,
}


@pytest.mark.parametrize("alpha, beta", C_ALPHA)
def test_find_c_alpha_pinned(alpha, beta):
    c_star = find_c_alpha(alpha, beta)
    assert c_star == C_ALPHA[alpha, beta]
    # independent high-precision oracle: holds at c*, fails at c* - 1
    lhs, rhs = _decimal_sides(c_star, str(alpha), str(beta))
    assert lhs < rhs
    lhs, rhs = _decimal_sides(c_star - 1, str(alpha), str(beta))
    assert lhs >= rhs


@pytest.mark.parametrize("alpha, beta", [(0.9, 0.9), (0.9, 0.999)])
def test_find_c_alpha_unsatisfiable(alpha, beta):
    with pytest.raises(ParameterRangeError, match="unsatisfiable in 64-bit range"):
        find_c_alpha(alpha, beta)


@pytest.mark.parametrize("alpha, beta", [(0.3, 0.7131), (0.8, 0.7071067811865476),
                                         (0.1234567891, 0.5)])
def test_find_c_alpha_rejects_long_fractions(alpha, beta):
    # beta past three digits after the point, alpha past nine
    with pytest.raises(ParameterRangeError, match="denominators"):
        find_c_alpha(alpha, beta)


def test_find_c_alpha_monotone_in_alpha():
    assert find_c_alpha(0.99, 0.7) > find_c_alpha(0.8, 0.7)
    with pytest.raises(ParameterRangeError):
        find_c_alpha(1.0, 0.7)
    with pytest.raises(ParameterRangeError):
        find_c_alpha(0.8, 0.0)


def test_bounds_sound_against_exhaustive_oracle():
    for k in range(2, 8):
        exact = exact_rip(7, k)
        b = family_bounds(k, 7)
        assert b["gershgorin"] >= exact - 1e-9
        assert b["skew_cot"] >= exact - 1e-9
        assert b["skew_linear"] >= exact - 1e-9
        if k >= 3:
            assert b["dembo_recursive"] >= exact - 1e-9
            assert b["generalized_dembo"] >= exact - 1e-9


def _bounds_document(capsys, argv: str) -> dict:
    """The JSON document `paleyrip bounds <argv>` prints."""
    assert main(["bounds", *argv.split()]) == 0
    return json.loads(capsys.readouterr().out)


def test_build_report(capsys):
    # the report the `bounds` command builds from family_bounds,
    # bound_conjectural and max_sparsity
    doc = _bounds_document(capsys, "--p 103 --k 30 --beta 0.7")
    assert list(doc) == ["p", "k", "bounds", "best", "conditional", "max_sparsity"]
    assert doc["bounds"] == family_bounds(30, 103)
    assert doc["best"] == min(doc["bounds"].values())
    assert doc["best"] == doc["bounds"]["skew_cot"]  # cot variant wins at k = 30
    assert doc["conditional"] == {"conjectural": bound_conjectural(30, 103, 0.7), "beta": 0.7,
                                  "note": "valid only if the quadratic-residue conjecture holds"}
    assert doc["max_sparsity"] == {
        name: {"max_even": th.max_even, "floor_threshold": th.floor_threshold}
        for name in ("gershgorin", "skew_linear", "skew_cot")
        for th in (max_sparsity(103, name),)}
    # floor(sqrt(103/2)) + 1 = 8
    assert doc["max_sparsity"]["gershgorin"]["floor_threshold"] == 8

    doc = _bounds_document(capsys, "--p 7 --k 2")
    assert doc["bounds"]["dembo_recursive"] is None and doc["bounds"]["generalized_dembo"] is None
    assert doc["best"] == min(v for v in doc["bounds"].values() if v is not None)
    assert "conditional" not in doc


def test_report_empirical_lower_invariant(capsys):
    exact = exact_rip(7, 4)
    for val in _bounds_document(capsys, "--p 7 --k 4")["bounds"].values():
        assert val >= exact - 1e-9


@pytest.mark.parametrize("p", [3, 5, 7, 103, 1009, 1019])
def test_bounds_bit_identical_to_written_formulas(p):
    # every k in [1, p], compared with ==; None below each family's domain
    for name, fam in FAMILIES.items():
        for k in range(1, p + 1):
            want = WRITTEN_OUT[name](k, p) if k >= fam.min_k and p >= fam.min_p else None
            assert FAMILY_FUNCTIONS[name](k, p) == want, (name, k)
    for k in range(1, p + 1):
        assert bound_conjectural(k, p, 0.7) == k**0.7 / math.sqrt(p)


# (call(k, p), min_k, min_p) of every public function taking k and p.  A
# family's column raises outside k in [1, p], p >= 3, as family_bounds does;
# below the family's own domain it is None (test_bounds_bit_identical_to_written_formulas).
DOMAINS = {
    **{name: (fn, 1, 3) for name, fn in FAMILY_FUNCTIONS.items()},
    "conjectural": (lambda k, p: bound_conjectural(k, p, 0.5), 1, 3),
    "family_bounds": (family_bounds, 1, 3),
}


@pytest.mark.parametrize("call, min_k, min_p", DOMAINS.values(), ids=DOMAINS)
def test_every_bound_rejects_k_and_p_outside_its_domain(call, min_k, min_p):
    for p in (7, 1019):
        call(p, p)  # k = p is the top of every domain
        with pytest.raises(ParameterRangeError, match=r"k must be in \["):
            call(p + 1, p)
        with pytest.raises(ParameterRangeError, match=r"k must be in \["):
            call(min_k - 1, p)
    below = 2 if min_p == 3 else 5
    with pytest.raises(ParameterRangeError, match=f"p must be >= {min_p}"):
        call(min(min_k, below), below)


# The `bounds` command's domain, 2 <= k <= p and 3 <= p < psi_12 (where
# is_prime stops being exact): its stderr line for each argv outside it
# (exit 4), and none at k = p (exit 0).
BOUNDS_COMMAND_DOMAIN = {
    "--p 7 --k 7": "",
    "--p 7 --k 8": "k must be in [2, p], got k=8, p=7",
    "--p 7 --k 1": "k must be in [2, p], got k=1, p=7",
    "--p 1019 --k 1019": "",
    "--p 1019 --k 1020": "k must be in [2, p], got k=1020, p=1019",
    "--p 1019 --k 1": "k must be in [2, p], got k=1, p=1019",
    "--p 2 --k 2": "p must be >= 3, got 2",
    "--p 318665857834031151167461 --k 4":
        "primality is decided only below 318665857834031151167461, got 318665857834031151167461",
}


@pytest.mark.parametrize("argv", BOUNDS_COMMAND_DOMAIN)
def test_bounds_command_rejects_k_and_p_outside_its_domain(capsys, argv):
    message = BOUNDS_COMMAND_DOMAIN[argv]
    assert main(["bounds", *argv.split()]) == (4 if message else 0)
    assert capsys.readouterr().err == (f"paleyrip bounds: {message}\n" if message else "")


@pytest.mark.parametrize("family", list(FAMILIES))
def test_max_sparsity_rejects_p_below_family_domain(family):
    min_p = FAMILIES[family].min_p
    max_sparsity(min_p, family)
    for p in (2, 3, 5):
        if p < min_p:
            with pytest.raises(ParameterRangeError, match=f"p must be >= {min_p}"):
                max_sparsity(p, family)
