"""Independent output checker for the benchmark workloads.

Everything here is recomputed from first principles with numpy and the
standard library; nothing is imported from the package under test.  Each
check takes the program's output and returns a list of problems, empty when
the output is correct; output it cannot parse raises, which the caller
counts as a failure.  Tolerances follow the package's own pins: 1e-12 on
RIP curves, eigenvalues and pinned oracle values, 1e-10 on bordered
extreme eigenvalues.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from functools import lru_cache

import numpy as np

TOL = 1e-12
BORDERED_TOL = 1e-10

# exact_rip(p, k) at the sizes the oracle workload runs; cross-checked
# against a batched dense eigvalsh over all k-subsets.
PINNED_EXACT_RIP = {
    (19, 6): 0.8561911748606379,
    (23, 6): 0.7781863873714583,
}

# --- SplitMix64 and partial Fisher-Yates, re-implemented from the documented
# algorithm so the checker can rebuild every support the program drew.

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def sub_seed(master: int, trial: int) -> int:
    return _mix((master + (trial + 1) * _GAMMA) & _MASK)


def random_subset(p: int, k: int, seed: int) -> list[int]:
    state = seed & _MASK
    arr = list(range(p))
    for i in range(k):
        n = p - i
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            state = (state + _GAMMA) & _MASK
            u = _mix(state)
            if u < limit:
                break
        j = i + u % n
        arr[i], arr[j] = arr[j], arr[i]
    return arr[:k]


# --- frame, Gramians and spectra ------------------------------------------


@lru_cache(maxsize=None)
def chi_table(p: int) -> np.ndarray:
    table = np.full(p, -1, dtype=np.int64)
    table[0] = 0
    for x in range(1, (p - 1) // 2 + 1):
        table[x * x % p] = 1
    return table


@lru_cache(maxsize=None)
def frame(p: int) -> tuple[list[int], np.ndarray]:
    """Kept DFT rows and the unit-norm (p+1)/2 x p Paley frame."""
    chi = chi_table(p)
    rows = [0] + [m for m in range(1, p) if chi[m] == 1]
    scale = np.full(len(rows), math.sqrt(2.0 / p))
    scale[0] = math.sqrt(1.0 / p)
    phase = np.exp(2j * np.pi * np.outer(rows, np.arange(p)) / p)
    return rows, scale[:, None] * phase


def gram_direct(p: int, support) -> np.ndarray:
    """Gramian of the selected frame columns by explicit dot products."""
    cols = frame(p)[1][:, list(support)]
    return cols.T @ cols.conj()


def deviation(g: np.ndarray) -> float:
    w = np.linalg.eigvalsh(g)
    return float(max(w[-1] - 1.0, 1.0 - w[0]))


def sample_orders(k: int, rng: random.Random, all_up_to: int = 40, cap: int = 8) -> list[int]:
    """Every prefix order up to k = 40, else {2, 3, k} plus a seeded sample of 8."""
    orders = list(range(2, k + 1))
    if k <= all_up_to:
        return orders
    return sorted({2, 3, k, *rng.sample(orders, cap)})


# --- bound families ----------------------------------------------------------


def bound_families(j: int, p: int) -> dict[str, float | None]:
    s = math.sqrt(p)
    return {
        "gershgorin": (j - 1) / s,
        "skew_linear": (2.0 * j / math.pi) / s,
        "dembo_recursive": (j - 1 - 2.0 * (2.0 - math.sqrt(3.0)) / (j - 1)) / s if j >= 3 else None,
        "generalized_dembo": (j - 1 - (2.0 / 3.0) * (2.0 - math.sqrt(3.0))) / s if j >= 3 else None,
    }


def _max_even(p: int, f) -> int:
    best, m = 0, 2
    while m <= p:
        val = 1.0 / math.sqrt(p) if m == 2 else f(m)
        if val >= 1.0 / math.sqrt(2.0):
            break
        best, m = m, m + 2
    return best


def _close(a, b, tol=TOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(float(a) - float(b)) <= tol


# --- parsing helpers ---------------------------------------------------------


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(text: str) -> float | None:
    return None if text == "nan" else float(text)


# --- per-command checks ------------------------------------------------------


def check_frame(text: str, p: int) -> list[str]:
    doc = json.loads(text)
    rows, ref = frame(p)
    got = np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])
    problems = []
    if doc["p"] != p or doc["rows"] != rows:
        problems.append(f"frame: header p={doc['p']} rows={doc['rows']}, expected {p} {rows}")
    if got.shape != ref.shape or np.abs(got - ref).max() > TOL:
        problems.append("frame: entries differ from the normalized partial DFT")
    return problems


def check_gram(text: str, p: int, support: list[int]) -> list[str]:
    doc = json.loads(text)
    got = np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])
    ref = gram_direct(p, support)
    problems = []
    if doc["rows"] != list(support):
        problems.append(f"gram: rows {doc['rows']} != support {support}")
    if got.shape != ref.shape or np.abs(got - ref).max() > TOL:
        problems.append("gram: entries differ from explicit column dot products")
    return problems


def check_bounds(text: str, p: int, k: int, beta: float | None) -> list[str]:
    doc = json.loads(text)
    s = math.sqrt(p)
    fam = bound_families(k, p)
    expected = {
        "gershgorin": fam["gershgorin"],
        "skew_cot": (1.0 / math.tan(math.pi / (2.0 * k))) / s,
        "skew_linear": fam["skew_linear"],
        "dembo_recursive": fam["dembo_recursive"],
        "generalized_dembo": fam["generalized_dembo"],
    }
    problems = [f"bounds: {name} = {doc['bounds'][name]}, expected {val}"
                for name, val in expected.items() if not _close(doc["bounds"][name], val)]
    if not _close(doc["best"], min(v for v in expected.values() if v is not None)):
        problems.append("bounds: best is not the minimum family")
    if beta is not None and not _close(doc["conditional"]["conjectural"], k**beta / s):
        problems.append("bounds: conditional k^beta bound wrong")
    sparsity = {
        "gershgorin": (lambda m: (m - 1) / s, math.floor(math.sqrt(p / 2.0)) + 1),
        "skew_linear": (lambda m: (2.0 * m / math.pi) / s,
                        math.floor(math.sqrt(p / 2.0) * math.pi / 2.0)),
        "skew_cot": (lambda m: (1.0 / math.tan(math.pi / (2.0 * m))) / s, None),
    }
    for name, (f, floor_value) in sparsity.items():
        got = doc["max_sparsity"][name]
        if got != {"max_even": _max_even(p, f), "floor_threshold": floor_value}:
            problems.append(f"bounds: max_sparsity[{name}] = {got}")
    return problems


def check_ripcurve(text: str, p: int, k: int, trials: int, seed: int) -> list[str]:
    """Bound columns, closed forms, monotonicity and a dense recomputation of d.

    A seeded sample of trials (every trial when there are at most 8) and of
    prefix orders (every order when k <= 40) is recomputed by dense complex
    eigvalsh on the Gramian built from explicit column dot products.  Each
    sampled trial must stay below the reported curve; when every trial is
    sampled their maximum must match it to 1e-12.
    """
    rows = _csv_rows(text)
    if len(rows) != k:
        return [f"ripcurve: {len(rows)} rows, expected {k}"]
    problems = []
    d = [float(row["d"]) for row in rows]
    if d[0] != 0.0:
        problems.append(f"ripcurve: d(1) = {d[0]}, expected 0")
    if not _close(d[1], 1.0 / math.sqrt(p)):
        problems.append(f"ripcurve: d(2) = {d[1]!r}, expected 1/sqrt(p)")
    if k >= 3 and not _close(d[2], math.sqrt(3.0 / p)):
        problems.append(f"ripcurve: d(3) = {d[2]!r}, expected sqrt(3/p)")
    for j, row in enumerate(rows, start=1):
        if int(row["j"]) != j:
            problems.append(f"ripcurve: row {j} has j={row['j']}")
        if j >= 2 and d[j - 1] < d[j - 2] - TOL:
            problems.append(f"ripcurve: d decreases at j={j}")
        for name, bound in bound_families(j, p).items():
            if not _close(_num(row[name]), bound):
                problems.append(f"ripcurve: {name} column wrong at j={j}")
            if bound is not None and d[j - 1] > bound + TOL:
                problems.append(f"ripcurve: d({j}) above the {name} bound")
    rng = random.Random(f"ripcurve:{seed}")
    sampled = range(trials) if trials <= 8 else sorted(rng.sample(range(trials), 8))
    orders = sample_orders(k, rng)
    worst = dict.fromkeys(orders, 0.0)
    for t in sampled:
        g = gram_direct(p, random_subset(p, k, seed if trials == 1 else sub_seed(seed, t)))
        for j in orders:
            worst[j] = max(worst[j], deviation(g[:j, :j]))
    for j in orders:
        if worst[j] > d[j - 1] + TOL or (len(sampled) == trials and not _close(worst[j], d[j - 1])):
            problems.append(f"ripcurve: d({j}) = {d[j - 1]!r}, dense recomputation {worst[j]!r}")
    return problems


def check_sidecar(text: str, command: str, seed: int) -> list[str]:
    doc = json.loads(text)
    if doc["command"] != command or doc["seed"] != seed or doc["wall_time_s"] < 0:
        return [f"sidecar: command={doc['command']} seed={doc['seed']}"]
    return []


def check_fit(text: str, curve_csv: str, j_min: int) -> list[str]:
    doc = json.loads(text)
    rows = _csv_rows(curve_csv)
    j = np.array([int(r["j"]) for r in rows], dtype=float)
    d = np.array([float(r["d"]) for r in rows])
    mask = (j >= j_min) & (d > 0)
    x, y = np.log(j[mask]), np.log(d[mask])
    beta, intercept = np.polyfit(x, y, 1)
    r2 = 1.0 - np.sum((y - (beta * x + intercept)) ** 2) / np.sum((y - y.mean()) ** 2)
    got = (doc["beta"], doc["intercept"], doc["r2"])
    if not all(_close(a, b, 1e-9) for a, b in zip(got, (beta, intercept, r2))):
        return [f"fit: (beta, intercept, r2) = {got}, expected {(beta, intercept, r2)}"]
    if doc["window"] != {"j_min": j_min, "k": len(rows)}:
        return [f"fit: window {doc['window']}"]
    return []


def check_demboratio(text: str, p: int, k: int, seed: int) -> list[str]:
    rows = _csv_rows(text)
    if [int(r["j"]) for r in rows] != list(range(2, k + 1)):
        return ["demboratio: rows do not run j = 2..k"]
    problems = []
    g = gram_direct(p, random_subset(p, k, seed))
    orders = set(sample_orders(k, random.Random(f"demboratio:{seed}")))
    lam_prev = 1.0
    for r in rows:
        j = int(r["j"])
        lam, dembo = float(r["lambda_max"]), float(r["dembo_bound"])
        gersh = float(r["gershgorin_bound"])
        btb = (j - 1) / p
        expect_dembo = (1.0 + lam_prev) / 2.0 + math.sqrt((1.0 - lam_prev) ** 2 / 4.0 + btb)
        if not (_close(dembo, expect_dembo) and _close(gersh, 1.0 + (j - 1) / math.sqrt(p))):
            problems.append(f"demboratio: bounds wrong at j={j}")
        if not (_close(float(r["dembo_ratio"]), dembo / lam)
                and _close(float(r["gershgorin_ratio"]), gersh / lam)):
            problems.append(f"demboratio: ratios wrong at j={j}")
        if dembo < lam - TOL:
            problems.append(f"demboratio: bordered bound below lambda_max at j={j}")
        if j in orders and not _close(lam, np.linalg.eigvalsh(g[:j, :j])[-1]):
            problems.append(f"demboratio: lambda_max wrong at j={j}")
        lam_prev = lam
    return problems


def best_pair(p: int, support) -> tuple[int, int, int]:
    """Lexicographically first position pair with the smallest |numerator|."""
    idx = np.asarray(support)
    cm = chi_table(p)[(idx[:, None] - idx[None, :]) % p].astype(float)
    nums = np.abs(cm @ cm.T)
    np.fill_diagonal(nums, np.inf)
    flat = int(np.argmin(nums))
    i, j = divmod(flat, len(support))
    return i, j, int(nums[i, j])


def _record_problems(rec: dict, p: int, support, alpha: float, where: str) -> list[str]:
    i, j, n = best_pair(p, support)
    ratio = n / (len(support) - 2)
    expected = {"pair": [i, j], "numerator": n, "satisfied": ratio < alpha,
                "support": list(support), "pair_values": [support[i], support[j]]}
    problems = [f"{where}: {key} = {rec[key]}, expected {val}"
                for key, val in expected.items() if rec[key] != val]
    if not _close(rec["ratio"], ratio):
        problems.append(f"{where}: ratio {rec['ratio']}, expected {ratio}")
    return problems


def check_conjecture_single(text: str, p: int, support: list[int], alpha: float) -> list[str]:
    return _record_problems(json.loads(text), p, support, alpha, "conjecture")


def check_conjecture_peel(text: str, p: int, support: list[int], alpha: float,
                          m_alpha: int) -> list[str]:
    doc = json.loads(text)
    remaining = list(support)
    steps = []
    while len(remaining) >= m_alpha:
        steps.append(list(remaining))
        i, j, _ = best_pair(p, remaining)
        for pos in sorted((i, j), reverse=True):
            remaining.pop(pos)
    if len(doc["steps"]) != len(steps):
        return [f"peel: {len(doc['steps'])} steps, expected {len(steps)}"]
    problems = []
    for n, (rec, sup) in enumerate(zip(doc["steps"], steps)):
        problems += _record_problems(rec, p, sup, alpha, f"peel step {n}")
    if doc["all_satisfied"] != all(rec["satisfied"] for rec in doc["steps"]):
        problems.append("peel: all_satisfied disagrees with the steps")
    return problems


def check_conjecture_scan(text: str, p: int, k: int, trials: int, seed: int,
                          alpha: float) -> list[str]:
    rows = _csv_rows(text)
    if len(rows) != trials:
        return [f"scan: {len(rows)} rows, expected {trials}"]
    problems = []
    for t, row in enumerate(rows):
        i, j, n = best_pair(p, random_subset(p, k, sub_seed(seed, t)))
        ratio = n / (k - 2)
        got = (int(row["trial"]), int(row["k"]), int(row["best_i"]), int(row["best_j"]),
               row["satisfied"])
        if got != (t, k, i, j, "true" if ratio < alpha else "false") or not _close(
                float(row["ratio"]), ratio):
            problems.append(f"scan: trial {t} row {dict(row)}, expected ({i}, {j}) ratio {ratio}")
    return problems


def check_verify(text: str, p: int) -> list[str]:
    doc = json.loads(text)
    if doc["p"] != p or doc["all_passed"] is not True or doc["failed"]:
        return [f"verify: all_passed={doc['all_passed']} failed={doc['failed']}"]
    return []


def bordered_block(p: int, support) -> tuple[np.ndarray, float, float]:
    """Order-k Gramian with its trailing block replaced by eta I, for both etas."""
    g = gram_direct(p, support)
    w = np.linalg.eigvalsh(g[2:, 2:])
    return g, float(w[-1]), float(w[0])


def _assemble(g: np.ndarray, eta: float) -> np.ndarray:
    r = g.copy()
    r[2:, 2:] = eta * np.eye(len(g) - 2)
    return r


def check_oracle(text: str, exact: list[tuple[int, int]], p: int,
                 supports: list[list[int]]) -> list[str]:
    doc = json.loads(text)
    problems = []
    if len(doc["exact"]) != len(exact) or len(doc["bordered"]) != len(supports):
        return [f"oracle: {len(doc['exact'])} exact and {len(doc['bordered'])} bordered results"]
    for (pp, k), got in zip(exact, doc["exact"]):
        if not _close(got, PINNED_EXACT_RIP[(pp, k)]):
            problems.append(f"oracle: exact_rip({pp}, {k}) = {got!r}, "
                            f"pinned {PINNED_EXACT_RIP[(pp, k)]!r}")
    for n, (support, (upper, lower)) in enumerate(zip(supports, doc["bordered"])):
        g, eta_up, eta_low = bordered_block(p, support)
        top = np.linalg.eigvalsh(_assemble(g, eta_up))[-1]
        bottom = np.linalg.eigvalsh(_assemble(g, eta_low))[0]
        if not (_close(upper, top, BORDERED_TOL) and _close(lower, bottom, BORDERED_TOL)):
            problems.append(f"oracle: block {n} extremes ({upper!r}, {lower!r}), "
                            f"dense ({top!r}, {bottom!r})")
    return problems
