"""Log-log power-law fit of an RIP curve d(j), the estimate of beta.

The conditional family bounds delta_k by k^beta/sqrt(p); beta is read off
an empirical curve as the least-squares slope of log d(j) on log j.  The
fit is a handful of sums over at most k floats, so it runs on plain floats
with math.log and math.fsum and needs neither numpy nor the experiments.
"""

from __future__ import annotations

import math

from .errors import MalformedInputError, ParameterRangeError

# First order j of the fit window; see fit_power_law.
DEFAULT_FIT_JMIN = 3


def fit_power_law(d, j_min: int = DEFAULT_FIT_JMIN) -> tuple[float, float, float]:
    """Least-squares slope of log d(j) on log j over j in [j_min, k].

    `d` is the curve d(1..k), as the estimates return it.  Nonpositive and
    non-finite d(j) are skipped.  Returns (beta, intercept, r2).  The
    default window starts at 3 because d(2) and d(3) are deterministic for
    this construction and would bias the slope of the stochastic regime.
    """
    if j_min < 2:
        raise ParameterRangeError(f"j_min must be >= 2, got {j_min}")
    points = [(j, float(v)) for j, v in enumerate(d, start=1)
              if j >= j_min and 0.0 < float(v) < math.inf]
    if len(points) < 3:
        raise MalformedInputError(
            f"power-law fit needs >= 3 positive points in the window, got {len(points)}"
        )
    x = [math.log(j) for j, _ in points]
    y = [math.log(v) for _, v in points]
    xm, ym = math.fsum(x) / len(x), math.fsum(y) / len(y)
    sxx = math.fsum((a - xm) ** 2 for a in x)
    sxy = math.fsum((a - xm) * (b - ym) for a, b in zip(x, y))
    beta = sxy / sxx
    intercept = ym - beta * xm
    sst = math.fsum((b - ym) ** 2 for b in y)
    sse = math.fsum((b - (beta * a + intercept)) ** 2 for a, b in zip(x, y))
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    return beta, intercept, r2
