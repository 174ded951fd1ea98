import math

import numpy as np
import pytest

from paleyrip import spectra
from paleyrip.rng import SplitMix64, sub_seed
from paleyrip.verify import CheckResult, _check_cot_radius


def _cot_radius_reference(rng: SplitMix64) -> CheckResult:
    # one matrix and one solve per random orientation, signs drawn row by row
    worst_eq = 0.0
    worst_excess = 0.0
    for n in range(2, 13):
        target = 1.0 / math.tan(math.pi / (2 * n))
        rho = spectra.skew_spectral_radius(spectra.canonical_tournament(n))
        worst_eq = max(worst_eq, abs(rho - target))
        for _ in range(50):
            c = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    s = 1.0 if rng.below(2) else -1.0
                    c[i, j] = s
                    c[j, i] = -s
            worst_excess = max(worst_excess, spectra.skew_spectral_radius(c) - target)
    ok = worst_eq <= 1e-12 and worst_excess <= 1e-12
    return CheckResult(
        "cot_radius", ok,
        f"canonical equality error {worst_eq:.3e}, random-orientation excess {worst_excess:.3e}",
    )


@pytest.mark.parametrize("p", [7, 19, 103, 1019])
def test_cot_radius_stack_matches_per_matrix_loop(p):
    seed = sub_seed(0x5EED0FA1, p)
    rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
    assert _check_cot_radius(p, rng) == _cot_radius_reference(ref_rng)
    # same draws in the same order: both generators end in the same state
    assert rng.next_u64() == ref_rng.next_u64()
