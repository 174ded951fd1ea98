"""Self-check suite behind the `verify` CLI command.

Runs the identity and inequality checks that the closed-form machinery
rests on, at a caller-chosen prime plus a fixed internal grid, and returns
one CheckResult (name, passed, detail) per check; the CLI prints them as
the `verify` report.  Checks route through the public module
functions so a fault injected into any of them is caught here.

Every check decides in Python ints, so `verify` loads neither numpy nor
`spectra`:

- delta3_spectrum and charpoly_identity: frame.gram_rows of 50 random
  3-supports against I + (i/sqrt p) C bit for bit, signed zeros included,
  then the characteristic polynomials of C^T C and C in ints.
- gamma_nonneg: at 200 sign borders c = i a, d = i b (p^2 times the
  paper's, so k = 2..10 and every entry is a Gaussian integer), the
  paper's two sums equal the Lagrange form |c|^2 |d|^2 - |d.conj c|^2 and
  are >= 0.
- block_determinant: det(R - xI) = (eta-x)^(k-2) q(x) at 20 random points
  of Z[i], every real and imaginary part in [-10^6, 10^6] and k = 2..10,
  with a fraction-free determinant of the assembled order-(k+2) matrix on
  the left and the quartic q in ints on the right.  Both sides are
  polynomials of degree k + 2 in the parts, so by Schwartz-Zippel a false
  identity passes one point with probability at most
  (k+2)/(2*10^6 + 1) <= 6.0e-6.
- cot_radius: for every orientation C of K_n, n = 2..12, rho(C) <=
  cot(pi/2n) with equality for the canonical tournament.  With dyadic
  h-_n < cot^2(pi/2n) < h+_n, h+_n - h-_n = 2^-40, rho^2 < h is decided
  by whether h I - C^T C, its integers from numtheory.sign_gram_ints of
  the orientation's row masks, is positive definite (numtheory's Bareiss
  test), after integer Gershgorin and trace bounds that settle most random
  orientations.  The canonical tournament must give h-_n < rho^2 < h+_n,
  and 50 random orientations per order rho^2 < h+_n, so every rho is at
  most cot(pi/2n) + 2^-41.  The sign of pair t, row by row, of a random
  orientation is bit t of two outputs joined low half first.
- lemma_k_inequality and c_alpha_search: exact Fraction and integer
  decisions of the step lemma and of the c_alpha inequality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import bounds, frame
from .numtheory import check_paley, is_positive_definite, legendre, sign_gram_ints
from .rng import SplitMix64, random_subset, sub_seed

REPORTED_C_ALPHA = 899_998

_SUITE_SEED = 0x5EED0FA1  # fixed: the report must be reproducible

# block_determinant's points: real and imaginary parts in [-_PART, _PART].
_DET_POINTS = 20
_PART = 10**6
# h-_n and h+_n are multiples of 1/_COT_DEN.
_COT_DEN = 2**42


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _charpoly3(m) -> tuple[int, int, int]:
    """(e2, e1, e0) with det(xI - M) = x^3 + e2 x^2 + e1 x + e0, for a 3x3 integer M."""
    (a, b, c), (d, e, f), (g, h, i) = m
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return -(a + e + i), (a * e - b * d) + (a * i - c * g) + (e * i - f * h), -det


def _bits(rows) -> list[list[tuple[str, str]]]:
    """Real and imaginary parts of each entry as float.hex: equal exactly when equal bit for bit."""
    return [[(float(z.real).hex(), float(z.imag).hex()) for z in row] for row in rows]


def _order3_signs(p, support) -> tuple[list[list[int]], bool]:
    """C_T in ints, and whether gram_rows(p, T) is I + (i/sqrt p) C_T bit for bit.

    C_ab = legendre(T_a - T_b, p), by Euler's criterion, not from the chi
    table gram_rows reads; signed zeros must match too.
    """
    c = [[legendre(a - b, p) for b in support] for a in support]
    scale = 1j / math.sqrt(p)
    ref = [[1 + 0j if a == b else s * scale for b, s in enumerate(row)]
           for a, row in enumerate(c)]
    return c, _bits(frame.gram_rows(p, support)) == _bits(ref)


def _check_order3(name, p, rng, poly_of, want, claim) -> CheckResult:
    cases = [_order3_signs(p, random_subset(p, 3, rng.next_u64())) for _ in range(50)]
    exact = sum(ok for _, ok in cases)
    polys = sum(_charpoly3(poly_of(c)) == want for c, _ in cases)
    detail = f"gram_rows = I + (i/sqrt p) C bit for bit: {exact} of 50; {claim}: {polys} of 50"
    return CheckResult(name, exact == polys == 50, detail)


def _check_delta3_spectrum(p, rng) -> CheckResult:
    return _check_order3(
        "delta3_spectrum", p, rng,
        lambda c: [[sum(r[i] * r[j] for r in c) for j in range(3)] for i in range(3)],
        (-6, 9, 0),
        "det(xI - C^T C) = x(x-3)^2 in integers, so spectrum {1-sqrt(3/p), 1, 1+sqrt(3/p)}",
    )


def _check_charpoly(p, rng) -> CheckResult:
    return _check_order3(
        "charpoly_identity", p, rng, lambda c: c, (0, 3, 0),
        "det(xI - C) = x^3 + 3x in integers, so det(G - xI) = (1-x)^3 - 3(1-x)/p",
    )


# Gaussian integers are (re, im) pairs of ints.

def _gmul(x, y) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gdot(u, v) -> tuple[int, int]:
    """u.conj v = sum_i u_i conj(v_i)."""
    return (sum(a * c + b * d for (a, b), (c, d) in zip(u, v)),
            sum(b * c - a * d for (a, b), (c, d) in zip(u, v)))


def _lagrange_gamma(c, d) -> int:
    """|c|^2 |d|^2 - |d.conj c|^2, the Lagrange form of gamma."""
    dc = _gdot(d, c)
    return _gdot(c, c)[0] * _gdot(d, d)[0] - dc[0] ** 2 - dc[1] ** 2


def _paper_gamma_sums(c, d) -> tuple[tuple[int, int], tuple[int, int]]:
    """The paper's two sums, sum_i |c_i|^2 (d_i.conj d_i) and sum_i c_i conj(d_i) (d_i.conj c_i).

    The subscript-i vectors drop entry i, so their products are the full
    ones less entry i's term.  gamma is the first sum less the second.
    """
    dd, dc = _gdot(d, d)[0], _gdot(d, c)
    first = sum((a * a + b * b) * (dd - e * e - f * f) for (a, b), (e, f) in zip(c, d))
    second = (0, 0)
    for (a, b), (e, f) in zip(c, d):
        w = a * e + b * f, b * e - a * f  # c_i conj(d_i); d_i conj(c_i) is conj(w)
        t = _gmul(w, (dc[0] - w[0], dc[1] + w[1]))
        second = second[0] + t[0], second[1] + t[1]
    return (first, 0), second


def _sign_border(rng: SplitMix64, k: int) -> list[tuple[int, int]]:
    return [(0, 1) if rng.below(2) else (0, -1) for _ in range(k)]


def _check_gamma_nonneg(p, rng) -> CheckResult:
    # sign borders c = i a/sqrt p, d = i b/sqrt p, scaled by sqrt p: p^2 gamma
    equal, low = 0, math.inf
    for _ in range(200):
        k = 2 + rng.below(9)
        c, d = _sign_border(rng, k), _sign_border(rng, k)
        first, second = _paper_gamma_sums(c, d)
        gamma = (first[0] - second[0], first[1] - second[1])
        equal += gamma == (_lagrange_gamma(c, d), 0)
        low = min(low, gamma[0])
    return CheckResult(
        "gamma_nonneg", equal == 200 and low >= 0,
        f"paper's two sums = |c|^2 |d|^2 - |d.conj c|^2 in Gaussian integers at sign borders:"
        f" {equal} of 200; min p^2 gamma {low}",
    )


def _gauss_det(m) -> tuple[int, int]:
    """Determinant of a square matrix over Z[i] by fraction-free (Bareiss) elimination.

    A row swap brings up a nonzero pivot; each division by the previous
    pivot q is exact, done as t conj(q) / |q|^2 in each part.
    """
    a = [list(row) for row in m]
    n, sign, (qr, qi) = len(a), 1, (1, 0)
    for k in range(n - 1):
        r = next((r for r in range(k, n) if a[r][k] != (0, 0)), None)
        if r is None:
            return 0, 0
        if r != k:
            a[k], a[r], sign = a[r], a[k], -sign
        (pr, pi), row_k, qq = a[k][k], a[k], qr * qr + qi * qi
        for row in a[k + 1:]:
            fr, fi = row[k]
            for j in range(k + 1, n):
                (xr, xi), (yr, yi) = row[j], row_k[j]
                tr = xr * pr - xi * pi - fr * yr + fi * yi  # x p - f y
                ti = xr * pi + xi * pr - fr * yi - fi * yr
                row[j] = (tr * qr + ti * qi) // qq, (ti * qr - tr * qi) // qq
        qr, qi = pr, pi
    dr, di = a[-1][-1]
    return sign * dr, sign * di


def _bordered_matrix(a, b, c, d, eta, x) -> list[list[tuple[int, int]]]:
    """R - xI for R = [[a, b, c], [conj b, a, d], [conj c, conj d, eta I]] over Z[i]."""
    k = len(c)
    u, v = (a[0] - x[0], a[1] - x[1]), (eta[0] - x[0], eta[1] - x[1])
    rows = [[u, b, *c], [(b[0], -b[1]), u, *d]]
    for i in range(k):
        tail = [(0, 0)] * k
        tail[i] = v
        rows.append([(c[i][0], -c[i][1]), (d[i][0], -d[i][1]), *tail])
    return rows


def _closed_form_det(a, b, c, d, eta, x) -> tuple[int, int]:
    """(eta-x)^(k-2) q(x) over Z[i], with the bordered quartic

    q = (a-x)^2 (eta-x)^2 - (a-x)(eta-x)(|d|^2 + |c|^2) - |b|^2 (eta-x)^2
        + 2 (eta-x) Re(b (d.conj c)) + |c|^2 |d|^2 - |d.conj c|^2.
    """
    u, v = (a[0] - x[0], a[1] - x[1]), (eta[0] - x[0], eta[1] - x[1])
    uv, vv = _gmul(u, v), _gmul(v, v)
    cc, dd, bb = _gdot(c, c)[0], _gdot(d, d)[0], b[0] ** 2 + b[1] ** 2
    re2 = 2 * _gmul(b, _gdot(d, c))[0]  # 2 Re(b (d.conj c))
    uu, gamma = _gmul(uv, uv), _lagrange_gamma(c, d)
    q = (uu[0] - (dd + cc) * uv[0] - bb * vv[0] + re2 * v[0] + gamma,
         uu[1] - (dd + cc) * uv[1] - bb * vv[1] + re2 * v[1])
    for _ in range(len(c) - 2):
        q = _gmul(q, v)
    return q


def _check_block_det(p, rng) -> CheckResult:
    def gauss() -> tuple[int, int]:
        return rng.below(2 * _PART + 1) - _PART, rng.below(2 * _PART + 1) - _PART

    agree = 0
    for _ in range(_DET_POINTS):
        k = 2 + rng.below(9)
        a, b, eta, x = gauss(), gauss(), gauss(), gauss()
        c, d = [gauss() for _ in range(k)], [gauss() for _ in range(k)]
        agree += _gauss_det(_bordered_matrix(a, b, c, d, eta, x)) == _closed_form_det(
            a, b, c, d, eta, x)
    bound = (10 + 2) / (2 * _PART + 1)
    return CheckResult(
        "block_determinant", agree == _DET_POINTS,
        f"det(R - xI) = (eta-x)^(k-2) q(x) exactly over Z[i] at random points, k in 2..10, "
        f"parts in [-10^6, 10^6]: {agree} of {_DET_POINTS}; Schwartz-Zippel: a false identity "
        f"passes a point with probability <= (k+2)/{2 * _PART + 1} <= {bound:.1e}",
    )


def _lemma_k_holds(c: Fraction) -> bool:
    """Whether the step lemma holds strictly for every k >= 1 at c, decided exactly.

    With t = k - 1/(ck) and R = k + 1 - 1/(c(k+1)), the lemma
    t/2 + sqrt(t^2/4 + k + 1) < R holds exactly when R > t/2 and the margin
    R(R - t) - (k + 1) is positive.  Times c^2 k (k+1)^2, both sides of
    R(R - t) - (k + 1) = (1 - 1/(c(k+1))) / (c k (k+1)) are polynomials of
    degree at most 4 in k, so equality at k = 1..5 makes it an identity.
    For c > 0 the closed form's numerator c(k+1) - 1 grows with k, so the
    margin is positive for every k >= 1 once it is at k = 1 (c > 1/2).  R
    grows with k too, so R > 0 at k = 1 gives R > 0 for every k; R(R - t) > 0
    then gives R - t > 0, and with it 2R - t = R + (R - t) > 0.
    """

    def margins(k: int) -> tuple[Fraction, Fraction, Fraction]:
        t, r = k - 1 / (c * k), k + 1 - 1 / (c * (k + 1))
        return r, r * (r - t) - (k + 1), (1 - 1 / (c * (k + 1))) / (c * k * (k + 1))

    if c <= 0 or any(m != closed for _, m, closed in map(margins, range(1, 6))):
        return False
    r, margin, _ = margins(1)
    return margin > 0 and r > 0


def _check_lemma_k(p, rng) -> CheckResult:
    proved = all(_lemma_k_holds(Fraction(c)) for c in (1.0, bounds.DEMBO_C, 2.0, 10.0))
    return CheckResult(
        "lemma_k_inequality", proved,
        f"c in {{1, 1/(2(2-sqrt3)), 2, 10}}: exact margin (c(k+1) - 1)/(c^2 k (k+1)^2) > 0 "
        f"and R > t/2 for every k >= 1: {proved}",
    )


def _cot_square_bounds(n: int) -> tuple[Fraction, Fraction]:
    """(h-_n, h+_n): 2/_COT_DEN either side of the multiple of 1/_COT_DEN nearest cot^2(pi/2n).

    The float cot^2 is within 1e-13 of the true one for n <= 12, far less
    than the 2/_COT_DEN = 4.5e-13 margin; the check itself confirms
    h-_n < cot^2(pi/2n) < h+_n on the canonical tournament, exactly.
    """
    m = round(_COT_DEN / math.tan(math.pi / (2 * n)) ** 2)
    return Fraction(m - 2, _COT_DEN), Fraction(m + 2, _COT_DEN)


def _tournament_gram(n: int, bits) -> list[list[int]]:
    """S = C^T C in ints for the orientation C of K_n whose upper triangle, row by row, is bits.

    C_ij = +1 for i < j where the bit is 1, -1 where it is 0, and
    C_ji = -C_ij.  Row i is held as the mask of the l with C_il = +1.
    """
    plus = [0] * n
    pairs = iter(bits)
    for i in range(n):
        for j in range(i + 1, n):
            if next(pairs):
                plus[i] |= 1 << j
            else:
                plus[j] |= 1 << i
    return sign_gram_ints(plus, [1 << i for i in range(n)])


def _norm_below(s, h: Fraction) -> bool:
    """Whether an integer bound shows lambda_max(S) < h for S = C^T C of a tournament.

    Gershgorin: lambda_max(S) <= max_i sum_j |S_ij|.  And with T = S - (n - 1) I,
    which has trace 0, lambda_max(T)^2 <= (n - 1)/n trace(T^2).  Either bound
    below h settles it; neither is tight, so an orientation with rho^2 near h
    is left to the Bareiss test.
    """
    num, den, n = h.numerator, h.denominator, len(s)
    if max(map(sum, (map(abs, row) for row in s))) * den < num:
        return True
    margin = num - (n - 1) * den  # (h - (n - 1)) den
    off = sum(sum(map(mul, row, row)) for row in s) - n * (n - 1) ** 2  # trace(T^2)
    return margin > 0 and n * margin * margin > (n - 1) * off * den * den


def _top_below(s, h: Fraction) -> bool:
    """Whether lambda_max(S) < h for an integer symmetric S: h I - S positive definite, exactly."""
    num, den = h.numerator, h.denominator
    return is_positive_definite(
        [[num * (i == j) - den * x for j, x in enumerate(row)] for i, row in enumerate(s)])


def _check_cot_radius(p, rng) -> CheckResult:
    enclosed = below = by_norms = 0
    for n in range(2, 13):
        lo, hi = _cot_square_bounds(n)
        pairs = n * (n - 1) // 2
        canonical = _tournament_gram(n, [1] * pairs)
        enclosed += _top_below(canonical, hi) and not _top_below(canonical, lo)
        for _ in range(50):
            # pair t's sign is bit t of two outputs, 128 bits for n(n-1)/2 <= 66 pairs
            word = rng.next_u64() | rng.next_u64() << 64
            s = _tournament_gram(n, [word >> t & 1 for t in range(pairs)])
            norms = _norm_below(s, hi)
            by_norms += norms
            below += norms or _top_below(s, hi)
    return CheckResult(
        "cot_radius", enclosed == 11 and below == 550,
        f"h-_n < rho^2 < h+_n for the canonical tournament, n = 2..12: {enclosed} of 11; "
        f"rho^2 < h+_n for random orientations: {below} of 550 ({by_norms} by integer "
        f"norm bounds, the rest by Bareiss pivots); h+_n - h-_n = 2^-40, "
        f"so rho <= cot(pi/2n) + 2^-41",
    )


def _check_c_alpha(p, rng) -> CheckResult:
    c_star = bounds.find_c_alpha(0.8, 0.7)

    def holds(c: int) -> bool:
        return 60**10 * c**7 < (c - 10) ** 10 if c > 10 else False

    ok = holds(c_star) and not holds(c_star - 1)
    reported_ok = holds(REPORTED_C_ALPHA)
    flag = "" if c_star == REPORTED_C_ALPHA else (
        f"; differs from the reported {REPORTED_C_ALPHA} "
        f"(which {'satisfies' if reported_ok else 'violates'} the inequality but is not minimal)"
    )
    return CheckResult(
        "c_alpha_search", ok,
        f"smallest c = {c_star}, holds at c and fails at c-1: {ok}{flag}",
    )


_CHECKS = (
    _check_delta3_spectrum,
    _check_charpoly,
    _check_gamma_nonneg,
    _check_block_det,
    _check_lemma_k,
    _check_cot_radius,
    _check_c_alpha,
)


def run_verification(p) -> list[CheckResult]:
    """Run every check at prime p; one CheckResult per check, in suite order."""
    p = check_paley(p)
    rng = SplitMix64(sub_seed(_SUITE_SEED, p))
    return [check(p, rng) for check in _CHECKS]
