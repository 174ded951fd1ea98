"""Span tracing of the package from outside, and the per-layer summary.

Run as a bootstrap in place of the interpreter's own entry:

    python benchmarks/tracer.py SPANS.npz -m paleyrip ARGS...
    python benchmarks/tracer.py SPANS.npz SCRIPT.py ARGS...

It imports the package, replaces every public function of the traced
modules with a timing wrapper (in every module that binds it, so
`experiments.gram_analytic` is traced as `frame.gram_analytic`), wraps
numpy's `eigvalsh`/`eigh` as `spectra.lapack` while a package call is open,
runs the program, and writes the spans when it exits.  The package source
is not modified.

Span file (numpy .npz): `names` (span names), and one entry per span in
call order: `name` (index into `names`), `parent` (index of the enclosing
span, -1 at top level), `start` and `end` (perf_counter seconds), `n3`
(sum of n^3 over the matrices of a LAPACK call, batch dimensions included)
and `mats` (number of matrices in that call).  Parents precede children.
"""

from __future__ import annotations

import functools
import importlib
import math
import runpy
import sys
import time
from array import array

import numpy as np

PACKAGE = "paleyrip"
LAYERS = ("numtheory", "rng", "frame", "spectra", "bounds", "experiments", "verify", "cli")
LAPACK = "spectra.lapack"


class Recorder:
    """Spans kept in flat typed arrays until the program exits."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n3 = array("d")
        self.mats = array("q")
        self.stack: list[int] = []

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id: int, n3: float = 0.0, mats: int = 0) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.n3.append(n3)
        self.mats.append(mats)
        self.end.append(math.nan)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 n3=np.frombuffer(self.n3), mats=np.frombuffer(self.mats, dtype=np.int64))


def _span_wrapper(rec: Recorder, name: str, fn):
    name_id = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return traced


def _lapack_wrapper(rec: Recorder, fn):
    name_id = rec.name_id(LAPACK)

    @functools.wraps(fn)
    def traced(a, *args, **kwargs):
        if not rec.stack:
            return fn(a, *args, **kwargs)
        shape = np.shape(a)
        mats = math.prod(shape[:-2])
        idx = rec.open(name_id, float(mats) * shape[-1] ** 3, mats)
        try:
            return fn(a, *args, **kwargs)
        finally:
            rec.close(idx)

    return traced


def install(rec: Recorder) -> None:
    """Wrap every public function of the traced layers wherever it is bound."""
    importlib.import_module(PACKAGE)
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__):
                wrapped[id(obj)] = (obj, _span_wrapper(rec, f"{layer}.{attr}", obj))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    for attr in ("eigvalsh", "eigh"):
        setattr(np.linalg, attr, _lapack_wrapper(rec, getattr(np.linalg, attr)))


def main(argv: list[str]) -> int:
    spans_path, target, rest = argv[0], argv[1], argv[2:]
    rec = Recorder()
    install(rec)
    code: int | str | None = 0
    try:
        if target == "-m":
            sys.argv = [rest[0], *rest[1:]]
            runpy.run_module(rest[0], run_name="__main__", alter_sys=True)
        else:
            sys.argv = [target, *rest]
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        rec.save(spans_path)
    return code if isinstance(code, int) else (0 if code is None else 1)


# --- reading span files --------------------------------------------------------


def summarize(paths, under: str = "experiments.exact_rip") -> tuple[dict, int]:
    """Per-span-name calls, self time, n3 and matrix counts over span files.

    Self time is a span's duration minus the durations of its direct
    children.  Also returns the number of matrices LAPACK solved inside
    spans named `under`.
    """
    agg: dict[str, dict[str, float]] = {}
    solves_under = 0
    for path in paths:
        with np.load(path) as z:
            names, name, parent = z["names"], z["name"], z["parent"]
            dur = z["end"] - z["start"]
            n3, mats = z["n3"], z["mats"]
        nested = parent >= 0
        up = np.where(nested, parent, 0)
        self_s = dur - np.bincount(up[nested], weights=dur[nested], minlength=len(dur))
        sums = {
            "calls": np.bincount(name, minlength=len(names)),
            "self_s": np.bincount(name, weights=self_s, minlength=len(names)),
            "n3": np.bincount(name, weights=n3, minlength=len(names)),
            "mats": np.bincount(name, weights=mats, minlength=len(names)),
        }
        for nid, label in enumerate(names):
            if sums["calls"][nid]:
                entry = agg.setdefault(str(label), dict.fromkeys(sums, 0))
                for key, col in sums.items():
                    entry[key] += col[nid].item()
        # spans at or below a span named `under`; children follow their parents
        covered = np.isin(name, np.flatnonzero(names == under))
        while True:
            grown = covered | (nested & covered[up])
            if (grown == covered).all():
                break
            covered = grown
        solves_under += int(mats[covered].sum())
    return agg, solves_under


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
