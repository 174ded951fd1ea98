"""Oracle workload program: exhaustive exact RIP and bordered extremes.

    python benchmarks/oracle_job.py INPUT.json

INPUT.json holds `exact` (a list of [p, k]), `bordered_p` and
`bordered_supports` (lists of support indices).  For each support the
Gramian's first two rows border the trailing block, whose dense extreme
eigenvalues are the upper and lower `eta`.  Prints one JSON document with
`exact` (exact_rip values) and `bordered` ([upper, lower] per support).
"""

import json
import sys

from paleyrip import (
    BorderedBlock,
    exact_rip,
    generalized_dembo_extremes,
    gram_analytic,
    hermitian_spectrum,
)


def bordered_extremes(p: int, support) -> tuple[float, float]:
    g = gram_analytic(p, support)
    w = hermitian_spectrum(g[2:, 2:])
    a, b, c, d = float(g[0, 0].real), complex(g[0, 1]), g[0, 2:], g[1, 2:]
    upper = BorderedBlock(a=a, b=b, c=c, d=d, eta=float(w[-1]))
    lower = BorderedBlock(a=a, b=b, c=c, d=d, eta=float(w[0]))
    return generalized_dembo_extremes(upper, lower)


def main(path: str) -> None:
    with open(path) as fh:
        spec = json.load(fh)
    doc = {
        "exact": [float(exact_rip(p, k)) for p, k in spec["exact"]],
        "bordered": [list(bordered_extremes(spec["bordered_p"], s))
                     for s in spec["bordered_supports"]],
    }
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
