"""End-to-end and per-layer benchmark of the paleyrip CLI and library.

    python3 benchmarks/run.py                 # every workload, seed 0, summary table
    python3 benchmarks/run.py --workload montecarlo --seed 3 --seconds 30 --trace 0

Run from anywhere; the program measured is the package under `src/` next to
this directory, started as fresh interpreters exactly as a user runs it.
With `--trace 0` the run reports the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` it alternates untraced and traced passes
over one input set and reports the per-layer metrics (see README.md).  The
last line of stdout is one JSON object; a results file with the full run
record goes to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread, here and in every child: on a 2-core machine the default
# thread pool makes the eigensolver timings bimodal.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import checker  # noqa: E402  (imports numpy, which reads the variables above)
import numpy as np  # noqa: E402
import tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PER_PASS = 3    # fresh-interpreter imports before each pass; setup_s is their scaled median
IMPORT_REPS = 3       # -X importtime profiles per traced run
RUN_DEADLINE_S = 170  # a child still running this long after the run began is killed
ALPHA = 0.8           # the CLI's default conjecture threshold
ORACLE_EXACT = ((19, 6), (23, 6))
PROBE_PERIOD_S = 0.5   # pause between speed-probe samples while a child runs
# CPU seconds of one probe sample on an unloaded core of the 2-core host the
# benchmark was tuned on; timings are reported at that core speed.
PROBE_NOMINAL_S = 0.012
AVAILABLE_CPUS = sorted(os.sched_getaffinity(0))  # before main() pins the run to one


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout."""


@dataclass
class Call:
    """One program invocation: interpreter arguments and its output check."""

    label: str
    argv: list[str]
    check: Callable[[str], list[str]]


def _cli(*args) -> list[str]:
    return ["-m", "paleyrip", *map(str, args)]


def _support(values) -> str:
    return ",".join(map(str, values))


# --- workloads: each builds one pass of calls from a seeded generator ---------


def cli_quick(rng: random.Random, work: Path) -> list[Call]:
    """Every README command that finishes in under a second."""
    gram_support = rng.sample(range(7), 3)
    perm5 = rng.sample(range(5), 5)
    peel_support = rng.sample(range(43), 12)
    s_est, s_dembo, s_scan = (rng.getrandbits(32) for _ in range(3))
    curve = work / "curve.csv"
    sidecar = work / "curve.csv.meta.json"
    return [
        Call("frame", _cli("frame", "--p", 7), lambda out: checker.check_frame(out, 7)),
        Call("gram", _cli("gram", "--p", 7, "--support", _support(gram_support)),
             lambda out: checker.check_gram(out, 7, gram_support)),
        Call("gram-direct", _cli("gram", "--p", 7, "--support", _support(gram_support),
                                 "--method", "direct"),
             lambda out: checker.check_gram(out, 7, gram_support)),
        Call("bounds", _cli("bounds", "--p", 1009, "--k", 4),
             lambda out: checker.check_bounds(out, 1009, 4, None)),
        Call("bounds-beta", _cli("bounds", "--p", 103, "--k", 30, "--beta", 0.7),
             lambda out: checker.check_bounds(out, 103, 30, 0.7)),
        Call("estimate", _cli("estimate", "--p", 103, "--k", 30, "--seed", s_est, "--out", curve),
             lambda out: checker.check_ripcurve(curve.read_text(), 103, 30, 1, s_est)
             + checker.check_sidecar(sidecar.read_text(), "estimate", s_est)),
        Call("fit", _cli("fit", "--input", curve),
             lambda out: checker.check_fit(out, curve.read_text(), 3)),
        Call("demboratio", _cli("demboratio", "--p", 103, "--k", 30, "--seed", s_dembo),
             lambda out: checker.check_demboratio(out, 103, 30, s_dembo)),
        Call("conjecture", _cli("conjecture", "--p", 5, "--support", _support(perm5)),
             lambda out: checker.check_conjecture_single(out, 5, perm5, ALPHA)),
        Call("conjecture-scan", _cli("conjecture", "--p", 19, "--k", 12, "--trials", 500,
                                     "--seed", s_scan),
             lambda out: checker.check_conjecture_scan(out, 19, 12, 500, s_scan, ALPHA)),
        Call("conjecture-peel", _cli("conjecture", "--p", 43, "--support", _support(peel_support),
                                     "--peel", "--m-alpha", 5),
             lambda out: checker.check_conjecture_peel(out, 43, peel_support, ALPHA, 5)),
        Call("verify", _cli("verify", "--p", 103), lambda out: checker.check_verify(out, 103)),
    ]


def montecarlo(rng: random.Random, work: Path) -> list[Call]:
    """Fig. 2 worst-case curves, the bound-sharpness study and a pair scan."""
    s_small, s_large, s_dembo, s_scan = (rng.getrandbits(32) for _ in range(4))
    return [
        Call("estimate-103", _cli("estimate", "--p", 103, "--k", 30, "--trials", 1000,
                                  "--seed", s_small),
             lambda out: checker.check_ripcurve(out, 103, 30, 1000, s_small)),
        Call("estimate-1019", _cli("estimate", "--p", 1019, "--k", 200, "--trials", 5,
                                   "--seed", s_large),
             lambda out: checker.check_ripcurve(out, 1019, 200, 5, s_large)),
        Call("demboratio-1019", _cli("demboratio", "--p", 1019, "--k", 200, "--seed", s_dembo),
             lambda out: checker.check_demboratio(out, 1019, 200, s_dembo)),
        Call("conjecture-scan-1019", _cli("conjecture", "--p", 1019, "--k", 200,
                                          "--trials", 100, "--seed", s_scan),
             lambda out: checker.check_conjecture_scan(out, 1019, 200, 100, s_scan, ALPHA)),
    ]


def oracle(rng: random.Random, work: Path) -> list[Call]:
    """Exhaustive exact RIP and 200 bordered blocks through the public API."""
    supports = [rng.sample(range(103), 12) for _ in range(200)]
    spec = work / "oracle-input.json"
    spec.write_text(json.dumps({"exact": ORACLE_EXACT, "bordered_p": 103,
                                "bordered_supports": supports}))
    return [Call("oracle", [str(BENCH_DIR / "oracle_job.py"), str(spec)],
                 lambda out: checker.check_oracle(out, ORACLE_EXACT, 103, supports))]


WORKLOADS = {"cli-quick": cli_quick, "montecarlo": montecarlo, "oracle": oracle}

# Orbit representatives exact_rip needs at each (p, k) of a workload:
# binom(p-2, k-2), the supports containing {0, 1}.
USEFUL_SOLVES = {"oracle": sum(math.comb(p - 2, k - 2) for p, k in ORACLE_EXACT)}


# --- processes -----------------------------------------------------------------

CHILD_RUNNING = threading.Event()  # the speed probe samples only while this is set


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env.pop("PALEY_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # bytecode caches, as for an installed package
    return env


def spawn(argv: list[str], env: dict, out: Path, err: Path,
          deadline: float) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall seconds, peak RSS MiB)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        CHILD_RUNNING.set()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            CHILD_RUNNING.clear()
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_pass(calls: list[Call], env: dict, work: Path, deadline: float,
             spans_dir: Path | None = None) -> list[dict]:
    """Run a pass's calls in order, traced into `spans_dir` when given."""
    records = []
    for n, call in enumerate(calls):
        argv = [sys.executable, *call.argv]
        if spans_dir is not None:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                    str(spans_dir / f"{n:02d}-{call.label}.npz"), *call.argv]
        out, err = work / "stdout.txt", work / "stderr.txt"
        code, wall, rss = spawn(argv, env, out, err, deadline)
        if code != 0:
            problems = [f"exit code {code}: {err.read_text()[-500:]}"]
        else:
            try:
                problems = call.check(out.read_text())
            except Exception as exc:  # a crashing check is a failed output, not a benchmark error
                problems = [f"checker raised {type(exc).__name__}: {exc}"]
        records.append({"label": call.label, "argv": call.argv, "exit": code,
                        "wall_s": wall, "rss_mb": rss, "problems": problems})
    return records


def warm_up(env: dict, work: Path, deadline: float) -> None:
    """Untimed import that writes bytecode caches and proves which package runs."""
    out = work / "warmup.txt"
    code, _, _ = spawn([sys.executable, "-c", "import paleyrip; print(paleyrip.__file__)"],
                       env, out, work / "warmup.err", deadline)
    origin = Path(out.read_text().strip()).resolve() if code == 0 else None
    if origin is None or SRC.resolve() not in origin.parents:
        raise BenchmarkError(f"paleyrip does not import from {SRC} (got {origin}, exit {code})")


def time_import(env: dict, work: Path, deadline: float) -> tuple[float, float]:
    """Wall seconds of a fresh `import paleyrip`, and the mean probe sample around it."""
    before = probe_sample()
    code, wall, _ = spawn([sys.executable, "-c", "import paleyrip"], env,
                          work / "setup.txt", work / "setup.err", deadline)
    after = probe_sample()
    if code != 0:
        raise BenchmarkError(f"import paleyrip failed: {(work / 'setup.err').read_text()[-500:]}")
    return wall, (before + after) / 2


def import_profile(env: dict, work: Path, deadline: float) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and the whole package (-X importtime)."""
    err = work / "importtime.err"
    code, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import paleyrip"], env,
                       work / "importtime.txt", err, deadline)
    if code != 0:
        raise BenchmarkError("import paleyrip failed under -X importtime")
    own = {"numpy": 0.0, "scipy": 0.0}
    total = 0.0
    for line in err.read_text().splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, module = line[len("import time:"):].split("|")
        module = module.strip()
        top = module.split(".")[0]
        if top in own:
            own[top] += int(self_us) / 1e6
        if module == "paleyrip":
            total = int(cumulative_us) / 1e6
    return {"import.numpy_s": own["numpy"], "import.scipy_s": own["scipy"],
            "import.paleyrip_s": total}


# --- run record --------------------------------------------------------------------


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(env: dict) -> dict:
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(AVAILABLE_CPUS),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        # None means unset in the children
        "thread_env": {var: env.get(var) for var in (*BLAS_THREAD_VARS, "PALEY_THREADS")},
    }


# --- measurement -----------------------------------------------------------------

# The host's cores change speed every few seconds and drift over minutes
# (other tenants share them), child CPU time moves with wall time, and the
# two cores move independently.  So the run is pinned to one core, and a
# probe thread in this process, on that core, times a fixed reference job
# in CPU seconds every PROBE_PERIOD_S while a child runs.  Each pass's wall
# times are scaled by PROBE_NOMINAL_S over the pass's mean probe sample; a
# set-up import, shorter than the core's spells of one speed, is scaled by
# the mean of two samples taken just before and just after it.
# The probe is benchmark code, never the program; it takes about 2% of the
# core from the child, the same on every commit.  The reference mixes the
# program's two kinds of work: tiny Hermitian eigensolves driven from
# Python, and a dense order-200 one.
_PROBE_PHASE = np.exp(2j * np.pi * np.arange(17) / 17)
_PROBE_SUPPORTS = [np.asarray(s)
                   for s in itertools.islice(itertools.combinations(range(17), 6), 300)]
_PROBE_LARGE = np.exp(2j * np.pi * np.outer(np.arange(200), np.arange(200) % 37) / 1019)
_PROBE_LARGE = _PROBE_LARGE + _PROBE_LARGE.conj().T


def probe_sample() -> float:
    """CPU seconds of the fixed reference job in the calling thread."""
    start = time.thread_time()
    for idx in _PROBE_SUPPORTS:
        g = _PROBE_PHASE[np.subtract.outer(idx, idx) % 17] / 4.0
        np.linalg.eigvalsh(g + g.conj().T)
    np.linalg.eigvalsh(_PROBE_LARGE)
    return time.thread_time() - start


class SpeedProbe(threading.Thread):
    """Samples `probe_sample` every PROBE_PERIOD_S while CHILD_RUNNING is set."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stopped = threading.Event()
        self.samples: list[float] = []

    def run(self):
        while not self.stopped.wait(PROBE_PERIOD_S):
            if CHILD_RUNNING.is_set():
                self.samples.append(probe_sample())

    def take(self) -> list[float]:
        """The samples since the last call."""
        samples, self.samples = self.samples, []
        return samples


def layer_metrics(spec: list[dict], workload: str, traced: list[tuple[dict, int]],
                  overhead: float, imports: list[dict]) -> dict:
    """Per-layer metric values from span summaries, named as in BENCHMARK.json.

    `<span>.calls` and `<span>.n3` come from the first traced pass (they
    repeat exactly); `<span>.self_s` is the median over traced passes.
    """

    def value(name: str, agg: dict, solves: int):
        if name == "experiments.exact_rip.useful_ratio":
            return USEFUL_SOLVES.get(workload, 0) / solves if solves else 0.0
        span, _, field = name.rpartition(".")
        return agg.get(span, {}).get(field, 0)

    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name.startswith("import."):
            v = statistics.median(sample[name] for sample in imports)
        elif name == "trace.overhead_frac":
            v = overhead
        elif name.endswith(".self_s"):
            v = statistics.median(value(name, agg, solves) for agg, solves in traced)
        else:
            v = value(name, *traced[0])
        metrics[name] = {"value": v, "unit": entry["unit"]}
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    began = time.perf_counter()
    deadline = began + RUN_DEADLINE_S
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    work = RESULTS / f"work-{stem}-{os.getpid()}"
    work.mkdir()
    kept_spans = RESULTS / f"{name}.spans"
    probe = SpeedProbe()
    try:
        env = child_env()
        warm_up(env, work, deadline)
        probe_sample()  # untimed: the first call pays numpy's lazy set-up
        probe.start()
        imports = [import_profile(env, work, deadline) for _ in range(IMPORT_REPS)] if trace else []
        passes, summaries = [], []
        measure_start = time.perf_counter()
        longest = 0.0
        while True:
            n = len(passes)
            traced = trace and n % 2 == 1
            index = 0 if trace else n  # a traced run repeats one input set
            pass_start = time.perf_counter()
            probe.take()
            # set-up samples spread over the run see the same machine states as the passes
            pass_setup = [time_import(env, work, deadline) for _ in range(SETUP_PER_PASS)]
            calls = WORKLOADS[name](random.Random(f"{name}:{seed}:{index}"), work)
            spans_dir = None
            if traced:
                spans_dir = kept_spans if not summaries else work / f"spans-{n}"
                shutil.rmtree(spans_dir, ignore_errors=True)
                spans_dir.mkdir()
            records = run_pass(calls, env, work, deadline, spans_dir)
            if spans_dir is not None:
                summaries.append(tracer.summarize(sorted(spans_dir.glob("*.npz"))))
            passes.append({"index": index, "traced": traced, "records": records,
                           "setup_s": [wall for wall, _ in pass_setup],
                           "setup_probe_s": [probe_s for _, probe_s in pass_setup],
                           "wall_s": sum(r["wall_s"] for r in records),
                           "probe_s": probe.take() or [probe_sample()]})
            longest = max(longest, time.perf_counter() - pass_start)
            # start another pass only if it is expected to end within half a
            # pass of the measuring time, and well before the deadline
            elapsed = time.perf_counter() - measure_start
            both_kinds = not trace or len(passes) >= 2
            if both_kinds and (elapsed + longest / 2 > seconds
                               or time.perf_counter() + longest > deadline):
                break
    finally:
        probe.stopped.set()
        if probe.is_alive():
            probe.join()
        shutil.rmtree(work, ignore_errors=True)

    records = [r for p in passes for r in p["records"]]
    failed = sum(1 for r in records if r["problems"])
    for r in [r for r in records if r["problems"]][:5]:
        print(f"{name} {r['label']}: {'; '.join(r['problems'][:3])}", file=sys.stderr)
    setup = [wall * PROBE_NOMINAL_S / probe_s for p in passes
             for wall, probe_s in zip(p["setup_s"], p["setup_probe_s"])]
    for p in passes:
        p["scaled_wall_s"] = p["wall_s"] * PROBE_NOMINAL_S / statistics.mean(p["probe_s"])
    if trace:
        overhead = (statistics.median(p["scaled_wall_s"] for p in passes if p["traced"])
                    / statistics.median(p["scaled_wall_s"] for p in passes if not p["traced"])
                    - 1.0)
        metrics = layer_metrics(spec["per_layer"], name, summaries, overhead, imports)
    else:
        measured = {
            "wall_s": statistics.median(p["scaled_wall_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "environment": environment(env),
        "run_s": time.perf_counter() - began,
        "import_profiles": imports,
        "spans": str(kept_spans.relative_to(ROOT)) if trace else None,
        "passes": passes, "failed_frac": failed / len(records), **result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def report(name: str, result: dict) -> None:
    """Human-readable lines: every metric by name with its unit, and failed_frac."""
    print(f"{name}: {result['attempted']} invocations, {result['failed']} failed")
    rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
    rows.append(("failed_frac", result["failed"] / result["attempted"], "fraction"))
    for key, value, unit in rows:
        print(f"  {key:<44} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "paleyrip" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"benchmark: no paleyrip sources under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    # The run is sequential, so one core is enough; keeping this process, its
    # reference job and every child on the same core lets the reference see
    # the core the program ran on (the cores' speeds drift independently).
    os.sched_setaffinity(0, {AVAILABLE_CPUS[-1]})
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        except BenchmarkError as exc:
            print(f"benchmark: {exc}", file=sys.stderr)
            return 3
        report(name, results[name])
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
