"""Command-line surface: frames, bounds, experiments, verification.

Every command is deterministic given its full flag set; experiment output
is CSV (or the equivalent JSON projection) with 17-significant-digit
floats, LF line endings and '.' as the radix point.  When --out is
given, a sidecar <out>.meta.json records the command, package version,
all parameters and the wall time, so published figures are reproducible
from metadata alone; an output or sidecar path that cannot be written is
a usage error (exit 4), and then neither file is left behind.

This module writes every output document: the library layers return
values (arrays, NamedTuples, dicts of floats, check results), and each
handler here chooses the keys and their order.

Each command imports the layers it runs inside its handler, so start-up
loads only those.  Only `estimate` and `demboratio` load numpy: they run
`experiments`, the home of every numpy routine a command runs but the draw
`rng.random_subsets`, and load no `frame`; no command loads `spectra`.
Every other command (`frame`, `bounds`, `fit`, `gram`, `conjecture` in all
three modes, `verify`), --help and --version run without numpy: they
compute in Python ints, complex numbers and floats, as the README details.

Exit codes: 0 ok, 2 non-prime, 3 wrong residue class, 4 parameter/usage
error, 5 malformed input, 6 duplicate support, 7 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import __version__
from .errors import DuplicateSupportError, MalformedInputError, PaleyRipError, ParameterRangeError
from .fit import DEFAULT_FIT_JMIN, fit_power_law

EXIT_VERIFY_FAILED = 7  # a failed identity check is a result, not an error

RIPCURVE_COLUMNS = ("j", "d", "gershgorin", "skew_linear", "dembo_recursive", "generalized_dembo")
CONJECTURE_COLUMNS = ("trial", "k", "best_i", "best_j", "ratio", "satisfied")


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _table_text(args, header, columns, rows, **extra) -> str:
    """The rows as CSV, or with --format json the header arguments, then the rows, then extra."""
    if args.format == "json":
        return _json_text({**{name: getattr(args, name) for name in header},
                           "rows": rows, **extra})
    return _csv_text(columns, rows)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the parameter-range exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(ParameterRangeError.exit_code, f"{self.prog}: error: {message}\n")


def _parse_support(p: int, text: str, check) -> tuple[int, ...]:
    """The support residues in text reduced mod p, once check(p) has accepted p.

    Accepts literal 1-based sets (an element equal to p maps to 0).  The
    modulus is checked, then a collision after reduction raises
    DuplicateSupportError, before any element is warned about.  An empty
    list skips the check and is left to the command's size check.
    """
    try:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise MalformedInputError(f"cannot parse support list {text!r}") from exc
    if not values:
        return ()
    p = check(p)
    reduced = tuple(v % p for v in values)
    if len(set(reduced)) != len(reduced):
        raise DuplicateSupportError(f"support {values} collides after reduction mod {p}")
    for before, after in zip(values, reduced):
        if after != before:
            print(f"warning: support element {before} reduced to {after} mod {p}",
                  file=sys.stderr)
    return reduced


def _entries_doc(p: int, rows, entries) -> dict:
    """The frame and gram document {"p", "rows", "entries"}; entries are [re, im] pairs."""
    return {"p": p, "rows": list(rows),
            "entries": [[[z.real, z.imag] for z in row] for row in entries]}


def _ripcurve_rows(p: int, d) -> list[dict]:
    from .bounds import family_bounds

    return [{"j": j, "d": float(v), **{name: bounds[name] for name in RIPCURVE_COLUMNS[2:]}}
            for j, v in enumerate(d, start=1) for bounds in (family_bounds(j, p),)]


# --- command handlers: each returns (text, extra_meta, exit_code) -----------


def _cmd_frame(args):
    from . import frame

    f = frame.build_frame(args.p)
    return _json_text(_entries_doc(f.p, f.rows, f.entries)), {}, 0


def _cmd_gram(args):
    from . import frame
    from .numtheory import check_paley

    support = _parse_support(args.p, args.support, check_paley)
    if args.method == "direct":
        g = frame.gram_direct(frame.build_frame(args.p), support)
    else:
        g = frame.gram_rows(args.p, support)
    return _json_text(_entries_doc(args.p, support, g)), {}, 0


def _cmd_bounds(args):
    from .bounds import bound_conjectural, family_bounds, max_sparsity
    from .numtheory import check_k, check_prime

    p = check_prime(args.p)
    k = check_k(args.k, p, 2)
    values = family_bounds(k, p)  # cannot raise once p and k have passed: beta is checked third
    # "best" is the least defined family; none is least for every k
    # (skew_linear and the additive families cross near k = 3)
    doc = {"p": p, "k": k, "bounds": values,
           "best": min(v for v in values.values() if v is not None)}
    if args.beta is not None:
        doc["conditional"] = {
            "conjectural": bound_conjectural(k, p, args.beta), "beta": args.beta,
            "note": "valid only if the quadratic-residue conjecture holds"}
    doc["max_sparsity"] = {
        family: {"max_even": th.max_even, "floor_threshold": th.floor_threshold}
        for family in ("gershgorin", "skew_linear", "skew_cot")
        for th in (max_sparsity(p, family),)}
    return _json_text(doc), {}, 0


def _cmd_estimate(args):
    from . import experiments

    if args.trials == 1:
        d = experiments.estimate_rip_single(args.p, args.k, args.seed)
    else:
        d = experiments.estimate_rip_worst(args.p, args.k, args.trials, args.seed)
    rows = _ripcurve_rows(args.p, d)
    return _table_text(args, ("p", "k", "seed", "trials"), RIPCURVE_COLUMNS, rows), {}, 0


def _cmd_fit(args):
    import csv

    try:
        with open(args.input, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "j" not in reader.fieldnames or "d" not in reader.fieldnames:
                raise MalformedInputError(
                    f"{args.input}: expected ripcurve CSV with 'j' and 'd' columns"
                )
            js, ds = [], []
            for line in reader:
                if None in (line["j"], line["d"]):  # a short row's missing cells read None
                    raise MalformedInputError(
                        f"{args.input}: line {reader.line_num} has no 'j' or 'd' cell")
                js.append(int(line["j"]))
                ds.append(float(line["d"]))
    except OSError as exc:
        raise MalformedInputError(f"cannot read {args.input}: {exc}") from exc
    except (ValueError, KeyError) as exc:
        raise MalformedInputError(f"{args.input}: malformed ripcurve CSV: {exc}") from exc
    if not js or js != list(range(1, len(js) + 1)):
        raise MalformedInputError(f"{args.input}: 'j' column must run 1..k")
    k = ds.index(1.0) if 1.0 in ds else len(ds)  # from the ceiling d = 1 on, no slope
    beta, intercept, r2 = fit_power_law(ds[:k], j_min=args.jmin)
    doc = {"beta": beta, "intercept": intercept, "r2": r2,
           "window": {"j_min": args.jmin, "k": k}}
    return _json_text(doc), {}, 0


def _cmd_demboratio(args):
    from . import experiments

    rows = [r._asdict() for r in experiments.dembo_ratio_study(args.p, args.k, args.seed)]
    text = _table_text(args, ("p", "k", "seed"), experiments.DemboRatioRow._fields, rows)
    return text, {}, 0


def _record_doc(rec, p: int, alpha: float) -> dict:
    return {
        "p": p,
        "support": list(rec.support),
        "pair": list(rec.pair),
        "pair_values": [rec.support[rec.pair[0]], rec.support[rec.pair[1]]],
        "numerator": rec.numerator,
        "ratio": rec.ratio,
        "alpha": alpha,
        "satisfied": rec.satisfied,
        "zero_terms": 0,  # a support of distinct residues has no chi(0) term
    }


# Defaults of the conjecture flags that only some modes read.  The parser
# leaves them None, so that a flag the chosen mode ignores can be rejected.
_CONJECTURE_DEFAULTS = {"trials": 1, "seed": 0, "format": "csv", "m_alpha": 5}


def _cmd_conjecture(args):
    if args.support is None:
        if args.peel:
            raise ParameterRangeError("--peel needs --support")
        if args.k is None:
            raise ParameterRangeError("conjecture scan mode needs --k (or pass --support)")
        ignored = {"m_alpha": "the --k scan"}
    elif args.k is not None:
        raise ParameterRangeError(
            "--k sets the scan's support size and cannot be given with --support")
    else:
        ignored = dict.fromkeys(("trials", "seed", "format"), "--support")
        if not args.peel:
            ignored["m_alpha"] = "--support without --peel"
    for name, mode in ignored.items():
        if getattr(args, name) is not None:
            raise ParameterRangeError(f"{mode} ignores --{name.replace('_', '-')}")
    for name, default in _CONJECTURE_DEFAULTS.items():  # the values the sidecar records
        if getattr(args, name) is None:
            setattr(args, name, default)
    from . import pairs

    if args.support is not None:
        from .numtheory import check_prime

        support = _parse_support(args.p, args.support, check_prime)
        if args.peel:
            trace = pairs.greedy_peel(args.p, support, args.alpha, args.m_alpha)
            doc = {"p": args.p, "alpha": args.alpha, "m_alpha": args.m_alpha,
                   "steps": [_record_doc(rec, args.p, args.alpha) for rec in trace],
                   "all_satisfied": all(rec.satisfied for rec in trace)}
            return _json_text(doc), {}, 0
        rec = pairs.conjecture_search(args.p, support, args.alpha)
        return _json_text(_record_doc(rec, args.p, args.alpha)), {}, 0
    summary = pairs.conjecture_scan(args.p, args.k, args.trials, args.alpha, args.seed)
    rows = [
        {"trial": t, "k": args.k, "best_i": r.pair[0], "best_j": r.pair[1],
         "ratio": r.ratio, "satisfied": r.satisfied}
        for t, r in enumerate(summary.records)
    ]
    meta = {
        "summary": {
            "fraction_satisfied": summary.fraction_satisfied,
            "worst_ratio": summary.worst_ratio,
            "worst_support": list(summary.worst_support),
        }
    }
    if args.format == "csv":
        print(f"summary: fraction_satisfied={_fmt(summary.fraction_satisfied)} "
              f"worst_ratio={_fmt(summary.worst_ratio)}", file=sys.stderr)
    text = _table_text(args, ("p", "k", "trials", "seed", "alpha"), CONJECTURE_COLUMNS, rows,
                       **meta)
    return text, meta, 0


def _cmd_verify(args):
    from .verify import run_verification

    results = run_verification(args.p)
    failed = [r.name for r in results if not r.passed]
    doc = {"p": args.p, "checks": [r._asdict() for r in results],
           "all_passed": not failed, "failed": failed}
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
    return _json_text(doc), {}, EXIT_VERIFY_FAILED if failed else 0


def build_parser() -> _Parser:
    """The parser of every command's arguments."""
    parser = _Parser(prog="paleyrip", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"paleyrip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text, *, k=False, seed=False, trials=False,
            alpha=False, beta=False, fmt=None, support=False):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        if name != "fit":
            sp.add_argument("--p", type=int, required=True, help="prime modulus")
        if k:
            sp.add_argument("--k", type=int, required=(name != "conjecture"),
                            default=None, help="sparsity / support size")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        if trials:
            sp.add_argument("--trials", type=int, default=1, help="number of random supports")
        if alpha:
            sp.add_argument("--alpha", type=float, default=0.8, help="conjecture threshold")
        if beta:
            sp.add_argument("--beta", type=float, default=None,
                            help="include the conditional k^beta bound")
        if fmt:
            sp.add_argument("--format", choices=("csv", "json"), default=fmt)
        if support:
            sp.add_argument("--support", type=str, default=None,
                            help="comma-separated residues, reduced mod p")
        sp.add_argument("--out", type=str, default=None, help="output file (default stdout)")
        return sp

    add("frame", _cmd_frame, "emit the measurement matrix as JSON")
    gram = add("gram", _cmd_gram, "emit a Gramian submatrix as JSON", support=True)
    gram.add_argument("--method", choices=("analytic", "direct"), default="analytic")
    add("bounds", _cmd_bounds, "evaluate every bound family at (p, k)", k=True, beta=True)
    add("estimate", _cmd_estimate, "empirical RIP curve d(j) as ripcurve CSV",
        k=True, seed=True, trials=True, fmt="csv")
    fit = add("fit", _cmd_fit, "power-law fit of a ripcurve CSV")
    fit.add_argument("--input", type=str, required=True, help="ripcurve CSV path")
    fit.add_argument("--jmin", type=int, default=DEFAULT_FIT_JMIN,
                     help="first order included in the fit window")
    add("demboratio", _cmd_demboratio, "bound-sharpness study as demboratio CSV",
        k=True, seed=True, fmt="csv")
    conj = add("conjecture", _cmd_conjecture, "one-sided difference-set pair search",
               k=True, seed=True, trials=True, alpha=True, fmt="csv", support=True)
    conj.add_argument("--peel", action="store_true",
                      help="with --support: peel best pairs until < m_alpha remain")
    conj.add_argument("--m-alpha", dest="m_alpha", type=int,
                      help="minimum support size the peeling keeps searching at")
    conj.set_defaults(**dict.fromkeys(_CONJECTURE_DEFAULTS))
    add("verify", _cmd_verify, "run the identity suite; exit 7 on failure")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        text, extra_meta, code = args.func(args)
    except PaleyRipError as exc:
        print(f"paleyrip {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    wall = time.monotonic() - t0

    if args.out:
        params = {
            key: value for key, value in sorted(vars(args).items())
            if key not in ("func", "out")
        }
        meta = {
            "command": args.command,
            "version": __version__,
            "parameters": params,
            "seed": getattr(args, "seed", None),
            "wall_time_s": wall,
            **extra_meta,
        }
        path = args.out
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
            path = f"{args.out}.meta.json"
            with open(path, "w") as fh:
                fh.write(_json_text(meta))
        except OSError as exc:
            # the output was written: remove it, unless it is a device such as /dev/null
            if path != args.out and os.path.isfile(args.out):
                with contextlib.suppress(OSError):
                    os.remove(args.out)
            print(f"paleyrip {args.command}: cannot write {path}: {exc.strerror or exc}",
                  file=sys.stderr)
            return ParameterRangeError.exit_code
    else:
        sys.stdout.write(text)
    return code


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
