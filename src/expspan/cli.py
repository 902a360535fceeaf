"""Command line entry point wiring all modules together.

Structured results are JSON (complex numbers as [re, im] decimal-string
pairs printed to --dps digits; floats would defeat the point of high-precision
computation), plottable tables are CSV.  Identical configuration yields
byte-identical output.  Every failure class has its own exit code:

    2 bad input/argument     4 size cap exceeded      6 bad sequence
    3 precision exhausted    5 domain violation       1 anything else
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys

import mpmath as mp

from . import carleson as carleson_mod
from . import gram as gram_mod
from . import lambda_analysis, products
from . import moment as moment_mod
from . import series as series_mod
from .core import Interval, PrecisionContext, read_count, read_number, validate_sequence
from .errors import (CapError, ConfigError, DomainError, ExpspanError,
                     PrecisionError, SequenceError)
from .fixtures import list_fixtures, load_sequence, read_json, sequence_from_spec

SCHEMA_VERSION = 1

_EXIT_CODES = [(ConfigError, 2), (PrecisionError, 3), (CapError, 4),
               (DomainError, 5), (SequenceError, 6)]


def _pair(z, dps: int) -> list[str]:
    z = mp.mpc(z)
    return [mp.nstr(mp.re(z), dps), mp.nstr(mp.im(z), dps)]


def _num(x, dps: int) -> str:
    return mp.nstr(mp.mpf(x), dps)


def _decay_rate(d, lam, text) -> str | None:
    """text(log(d) / Re lambda), the rate column of a distance table; None (JSON
    null, an empty CSV cell) where Re lambda = 0."""
    re = mp.re(lam)
    return text(mp.log(d) / re) if re else None


@contextlib.contextmanager
def _writing(what: str, path: str):
    """Turn an OSError raised inside into a ConfigError naming `what` and
    path, as `fixtures.read_json` does for a file it cannot read."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc}") from exc


def _dump(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with _writing("output file", path), open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with _writing("CSV file", path), open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _parse_interval(text: str, digits: int) -> Interval:
    """'gamma,beta' read at the command's working digits; endpoints that are
    out of order fail with Interval's own message."""
    try:
        gamma, beta = text.split(",")
    except (ValueError, AttributeError) as exc:
        raise ConfigError(f"bad interval {text!r}; expected 'gamma,beta'") from exc
    with mp.workdps(digits):
        return Interval(*(read_number(x, "interval endpoint", real=True)
                          for x in (gamma, beta)))


def _parse_grid(text: str) -> list:
    """'lo:hi:steps' -> steps equispaced points from lo to hi inclusive."""
    try:
        lo, hi, steps = text.split(":")
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}; expected 'lo:hi:steps'") from exc
    steps = read_count(steps, "--grid steps", least=2)
    lo, hi = (read_number(x, "--grid endpoint", real=True) for x in (lo, hi))
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _load_seq(args) -> "MultiplicitySequence":
    return load_sequence(args.seq, default_terms=args.N)


def _ctx(args) -> PrecisionContext:
    kw = {"digits": getattr(args, "digits", None), "trunc_N": getattr(args, "N", None)}
    return PrecisionContext(**{k: v for k, v in kw.items() if v is not None})


# -- serializers shared by the subcommands and `run` ---------------------------

def _pick(obj: dict, *keys: str) -> dict:
    return {k: obj[k] for k in keys}


def _value_obj(val, dps: int) -> dict:
    return dict(zip(("value_re", "value_im"), _pair(val, dps)))


def _trend_obj(v: lambda_analysis.TrendVerdict, dps: int) -> dict:
    return {"passed": v.passed,
            "slope": _num(v.slope, dps),
            "first_third_median": _num(v.first_third_median, dps),
            "last_third_max": _num(v.last_third_max, dps),
            "contraction": _num(v.contraction, dps),
            "ratios": [_num(r, dps) for r in v.ratios]}


def _analyze_obj(report: lambda_analysis.ClassReport, dps: int) -> dict:
    return {
        "provenance": report.provenance,
        "N": report.N,
        "condition_a": {"verdict": report.cond_a.verdict,
                        "increment_ratio": _num(report.cond_a.increment_ratio, dps),
                        "partials": [_num(p, dps) for p in report.cond_a.partials]},
        "condition_b": {"eta_hat": _num(report.eta_hat, dps),
                        "passed": report.cond_b_passed},
        "geometric_i": _trend_obj(report.geom_i, dps),
        "geometric_ii": _trend_obj(report.geom_ii, dps),
        "necessary": _trend_obj(report.necessary, dps),
        "density": _trend_obj(report.density, dps),
        "separation_delta": (_num(report.separation_delta, dps)
                             if report.separation_delta is not None else None),
        "gap": {"eps": _num(report.gap.eps, dps),
                "fitted_m": _num(report.gap.fitted_m, dps),
                "disks_disjoint": True},  # gap_check raises on an overlap
        "condensation": ({"chat": _num(report.condensation.chat, dps),
                          "ratios": [_num(r, dps) for r in report.condensation.ratios]}
                         if report.condensation else None),
        "all_passed": report.all_passed,
    }


def _moment_obj(sol: moment_mod.MomentSolution, dps: int) -> dict:
    return {**series_mod.series_to_obj(sol.series, dps=dps),
            "solved": True,
            "forced": sol.forced,
            "growth_a": _num(sol.gate.a, dps),
            "residual_max": _num(sol.residual_max, 8),
            "coefficient_bound_verdict": sol.coefficient_bound.verdict}


def _abscissa_obj(rep: series_mod.AbscissaReport, dps: int) -> dict:
    return {"a": _num(rep.a, dps),
            "implied_beta": _num(rep.implied_beta, dps),
            "ratios": [_num(r, dps) for r in rep.ratios]}


def _counterexample_obj(rep: carleson_mod.CounterexampleReport, dps: int) -> dict:
    return {"samples": [_pair(z, dps) for z in rep.samples],
            "rows": [{"n": r.n,
                      "grouped_abs": [_num(v, dps) for v in r.grouped_abs],
                      "grouped_bound": [_num(v, dps) for v in r.grouped_bound],
                      "ungrouped_abs": [_num(v, dps) for v in r.ungrouped_abs]}
                     for r in rep.rows],
            "grouped_decreasing": rep.grouped_decreasing,
            "ungrouped_increasing": rep.ungrouped_increasing,
            "f_at_zero": _pair(rep.value_at_zero, dps)}


# -- subcommand handlers --------------------------------------------------------
# A handler returns its result object and its CSV table or None; main writes both.
_Result = tuple[dict, tuple[list[str], list[list]] | None]

def _cmd_analyze(args) -> _Result:
    report = lambda_analysis.analyze(load_sequence(args.seq, default_terms=args.terms),
                                     args.terms, read_number(args.eps, "--eps", real=True))
    dps = 30
    rows = [[n + 1] + [_num(v.ratios[n], dps)
                       for v in (report.geom_i, report.geom_ii, report.necessary)]
            for n in range(report.N)]
    return _analyze_obj(report, dps), (
        ["n", "geom_i_ratio", "geom_ii_ratio", "necessary_ratio"], rows)


def _cmd_validate(args) -> _Result:
    seq = _load_seq(args)
    violations = validate_sequence(seq, args.N)
    return {"provenance": seq.provenance,
            "valid": not violations,
            "violations": [{"index": v.index, "rule": v.rule, "detail": v.detail}
                           for v in violations]}, None


def _cmd_product_eval(args) -> _Result:
    seq = _load_seq(args)
    ctx = _ctx(args)
    kind = products.ProductKind(args.kind)
    with mp.workdps(ctx.digits):
        z = read_number(args.z, "--z")
        val = products.eval_product(kind, seq, args.N, z)
    return {"kind": args.kind, "z": _pair(z, args.dps),
            **_value_obj(val, args.dps)}, None


def _cmd_lk(args) -> _Result:
    seq = _load_seq(args)
    ctx = _ctx(args)
    with mp.workdps(ctx.digits):
        lk = products.lk_function(seq, _parse_interval(args.interval, ctx.digits), ctx)
        if args.action == "eval":
            z = read_number(args.z, "--z")
            return {"z": _pair(z, args.dps),
                    **_value_obj(products.lk_eval(lk, z), args.dps)}, None
        eps = read_number(args.eps, "--eps", real=True)
        ns = list(range(1, min(args.circles, lk.trunc_N) + 1))
        minima = products.lk_circle_minima(lk, eps, ns)
    rows = [[m.n, _num(m.radius, args.dps), _num(m.min_abs, args.dps),
             _num(m.fitted_const, args.dps)] for m in minima]
    return {"eps": _num(eps, args.dps),
            "minima": [dict(zip(("n", "radius", "min_abs", "fitted_const"), r))
                       for r in rows]}, (
        ["n", "radius", "min_abs_G", "fitted_const"], rows)


def _cmd_gram(args) -> _Result:
    seq = _load_seq(args)
    ctx = _ctx(args)
    dom = None if args.half_line else _parse_interval(args.interval, ctx.digits)
    g = gram_mod.gram_matrix(seq, args.N, dom, ctx)
    dps = args.dps
    obj = {"dim": g.dim,
           "digits_used": g.digits_used,
           "cond_estimate": _num(g.cond_estimate, 8),
           "indices": [[ix.n, ix.k] for ix in g.indices]}
    if args.action == "build":
        obj["matrix"] = [[_pair(g.matrix[i, j], dps) for j in range(g.dim)]
                         for i in range(g.dim)]
        return obj, None
    if args.action == "distance":
        norms, dists = gram_mod.dual_norms(g)
        rows = [[ix.n, ix.k, _num(mp.re(seq.lam(ix.n)), dps), _num(d, dps),
                 _decay_rate(d, seq.lam(ix.n), lambda x: _num(x, dps)), _num(norm, dps)]
                for ix, d, norm in zip(g.indices, dists, norms)]
        obj["distances"] = [dict(zip(("n", "k", "re_lambda", "distance", "log_ratio",
                                      "dual_norm"), r)) for r in rows]
        return obj, (["n", "k", "re_lambda", "distance",
                      "log_distance_over_re_lambda", "dual_norm"], rows)
    if args.action == "biorthogonal":
        fam = gram_mod.biorthogonal(g)
        obj["identity_residual"] = _num(fam.identity_residual, 8)
        obj["norms"] = [_num(v, dps) for v in fam.norms]
        obj["coeffs"] = [[_pair(fam.coeffs[i, j], dps) for j in range(g.dim)]
                         for i in range(g.dim)]
        return obj, None
    # mixed: random partitions
    import random
    rng = random.Random(args.seed)
    obj["partitions"] = []
    for _ in range(args.partitions):
        n2 = [ix for ix in g.indices if rng.random() < 0.5]
        n1 = [ix for ix in g.indices if ix not in n2]
        rep = gram_mod.mixed_completeness(g, (n1, n2))
        obj["partitions"].append({"n2": [[ix.n, ix.k] for ix in rep.n2],
                                  "min_singular": _num(rep.min_singular, 8)})
    return obj, None


def _cmd_series(args) -> _Result:
    s = series_mod.load_series(args.series)
    ctx = _ctx(args)
    terms = s.seq.size if args.terms is None else args.terms
    # the values are printed at ctx.digits, not at the ambient precision
    with mp.workdps(ctx.digits):
        if args.action == "eval":
            z = read_number(args.z, "--z")
            res = series_mod.td_eval(s, z, terms)
            return {**_value_obj(res.value, args.dps),
                    "tail_bound": _num(res.tail_bound, args.dps),
                    "terms_used": res.terms_used}, None
        if args.action == "abscissa":
            rep = series_mod.star_abscissa(s, terms)
            return _abscissa_obj(rep, args.dps), None
        rep = series_mod.bound_check(s, read_number(args.beta, "--beta", real=True),
                                     read_number(args.eps, "--eps", real=True), args.terms)
        return {"m_hat": _num(rep.m_hat, args.dps),
                "argmax": list(rep.argmax) if rep.argmax else None,
                "verdict": rep.verdict}, None


def _cmd_moment(args) -> _Result:
    seq = _load_seq(args)
    ctx = _ctx(args)
    interval = _parse_interval(args.interval, ctx.digits)
    data = moment_mod.load_moments(args.data)
    try:
        sol = moment_mod.solve(data, seq, args.N, interval, ctx, force=args.force)
    except moment_mod.GrowthGateError as exc:
        return {"solved": False, "reason": str(exc)}, None
    return _moment_obj(sol, args.dps), None


def _cmd_carleson(args) -> _Result:
    ctx = _ctx(args)
    if args.action == "counterexample":
        rep = carleson_mod.counterexample(args.nmax, ctx)
        return _counterexample_obj(rep, args.dps), None
    seq = _load_seq(args)
    op = carleson_mod.carleson_operator(seq, args.N, ctx)
    if args.action == "apply":
        with mp.workdps(ctx.digits):
            lam = read_number(args.lam, "--lam")
            x = read_number(args.x, "--x", real=True)
            [[val]] = carleson_mod.apply_to_exponential(op, lam, [args.k], [x], ctx)
        return _value_obj(val, args.dps), None
    # residual over a grid for a series file
    s = series_mod.load_series(args.series)
    rep = carleson_mod.residual_on_span(op, s, _parse_grid(args.grid), ctx)
    return {"sup_residual": _num(rep.sup_residual, 8),
            "scale": _num(rep.scale, 8)}, None


def _cmd_fixtures(args) -> _Result:
    return {"fixtures": [{"name": f.name, "description": f.description,
                          "paired": f.paired} for f in list_fixtures()]}, None


_EXPERIMENT_KINDS = ("analyze", "gram", "biorthogonal", "distance-trend", "series",
                     "moment", "carleson", "counterexample", "full-report")


def _cmd_run(args) -> None:
    """Validate the whole config, compute every artifact, then write the bundle."""
    cfg = read_json(args.config, "config")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind not in _EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {_EXPERIMENT_KINDS}")
    seq_spec = cfg.get("seq")
    if seq_spec is None and kind != "counterexample":
        raise ConfigError("config needs a 'seq' spec")
    if kind == "series" and cfg.get("series") is None:
        raise ConfigError("series experiment needs a 'series' object")
    if kind == "moment" and cfg.get("data") is None:
        raise ConfigError("moment experiment needs a 'data' row list")
    outdir = cfg.get("out", args.out or "expspan-report")
    if not isinstance(outdir, str):
        raise ConfigError(f"config 'out' must be a string, got {outdir!r}")
    if os.path.exists(outdir) and not os.path.isdir(outdir):
        raise ConfigError(f"cannot write output directory {outdir}: not a directory")
    N = read_count(cfg.get("N", 6), "config 'N'", least=1)
    nmax = (read_count(cfg.get("nmax", 5), "config 'nmax'", least=2)
            if kind in ("counterexample", "full-report") else None)
    ctx = PrecisionContext(digits=read_count(cfg.get("digits", 120), "config 'digits'"),
                           trunc_N=N)
    seq = sequence_from_spec(seq_spec, default_terms=N) if seq_spec else None
    interval = (_parse_interval(cfg.get("interval", "0,1"), ctx.digits)
                if kind not in ("analyze", "series", "counterexample") else None)
    dps = 30
    artifacts = {}  # file name -> JSON object, or (header, rows) for a CSV

    if kind in ("analyze", "full-report"):
        eps = read_number(str(cfg.get("eps", "0.1")), "config 'eps'", real=True)
        rep = lambda_analysis.analyze(seq, N, eps)
        artifacts["analyze.json"] = _pick(_analyze_obj(rep, dps), "provenance",
                                          "all_passed", "geometric_i", "geometric_ii")
    if kind in ("gram", "biorthogonal", "distance-trend", "full-report"):
        g = gram_mod.gram_matrix(seq, N, interval, ctx)
        fam = gram_mod.biorthogonal(g)
        artifacts["biorthogonal.json"] = {
            "dim": g.dim, "digits_used": g.digits_used,
            "identity_residual": _num(fam.identity_residual, 8)}
        rows = [[ix.n, mp.nstr(mp.re(seq.lam(ix.n)), dps), mp.nstr(d, dps),
                 _decay_rate(d, seq.lam(ix.n), lambda x: mp.nstr(x, dps))]
                for ix, d in zip(g.indices, fam.distances)]
        artifacts["distance_trend.csv"] = (
            ["n", "re_lambda", "distance", "log_distance_over_re_lambda"], rows)
    if kind == "series":
        s = series_mod.series_from_obj(cfg["series"])
        with mp.workdps(ctx.digits):
            rep = series_mod.star_abscissa(s, s.seq.size)
        artifacts["series_abscissa.json"] = _abscissa_obj(rep, dps)
    if kind == "moment":
        data = moment_mod.moments_from_obj(cfg["data"])
        sol = moment_mod.solve(data, seq, N, interval, ctx,
                               force=bool(cfg.get("force", False)))
        artifacts["moment_solution.json"] = _pick(_moment_obj(sol, dps), "residual_max",
                                                  "growth_a", "forced")
    if kind in ("carleson", "full-report"):
        op = carleson_mod.carleson_operator(seq, N, ctx)
        grid = [interval.gamma + interval.length * (i + 1) / 11 for i in range(10)]
        worst = max(abs(v) for n in range(1, N + 1)
                    for row in carleson_mod.apply_to_exponential(op, seq.lam(n),
                                                                 range(seq.mu(n)), grid, ctx)
                    for v in row)
        artifacts["carleson_annihilation.json"] = {
            "sup_annihilation_residual": _num(worst, 8), "degree": op.degree}
    if kind in ("counterexample", "full-report"):
        rep = carleson_mod.counterexample(nmax, ctx)
        artifacts["counterexample.json"] = _pick(
            _counterexample_obj(rep, dps), "grouped_decreasing", "ungrouped_increasing")

    with _writing("output directory", outdir):
        os.makedirs(outdir, exist_ok=True)
    for name, content in artifacts.items():
        path = os.path.join(outdir, name)
        if name.endswith(".csv"):
            _write_csv(path, *content)
        else:
            _dump(content, path)
    _dump({"schema_version": SCHEMA_VERSION, "kind": kind, "artifacts": list(artifacts)},
          os.path.join(outdir, "manifest.json"))


# -- argument wiring -------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seq", required=True, help="sequence spec JSON file")
    p.add_argument("--N", type=int, default=8, help="truncation prefix length")
    p.add_argument("--digits", type=int, default=None, help="working decimal digits")
    p.add_argument("--dps", type=int, default=30, help="printed digits")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")


@functools.cache  # one parser per process: building it costs more than a short job
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="expspan",
                                 description="high-precision exponential-system toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="sequence class diagnostics")
    p.add_argument("seq", help="sequence spec JSON file")
    p.add_argument("--N", dest="terms", type=int, default=12)
    p.add_argument("--eps", default="0.1")
    p.add_argument("--csv", default=None, help="ratio table CSV path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("validate", help="report sequence invariant violations")
    p.add_argument("seq", help="sequence spec JSON file")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("product", help="canonical product evaluation")
    psub = p.add_subparsers(dest="action", required=True)
    pe = psub.add_parser("eval")
    _add_common(pe)
    pe.add_argument("--kind", default="F", choices=[k.value for k in products.ProductKind])
    pe.add_argument("--z", required=True, help="evaluation point, e.g. '1.5+0.5i'")
    pe.set_defaults(func=_cmd_product_eval)

    p = sub.add_parser("lk", help="windowed even product")
    psub = p.add_subparsers(dest="action", required=True)
    for name in ("eval", "lowerbound"):
        pe = psub.add_parser(name)
        _add_common(pe)
        pe.add_argument("--interval", required=True, help="'gamma,beta'")
        if name == "eval":
            pe.add_argument("--z", required=True)
        else:
            pe.add_argument("--eps", default="0.1")
            pe.add_argument("--circles", type=int, default=4)
            pe.add_argument("--csv", default=None)
        pe.set_defaults(func=_cmd_lk, action=name)

    p = sub.add_parser("gram", help="Gram systems, distances, biorthogonal family")
    psub = p.add_subparsers(dest="action", required=True)
    for name in ("build", "distance", "biorthogonal", "mixed"):
        pe = psub.add_parser(name)
        _add_common(pe)
        pe.add_argument("--interval", default="0,1")
        pe.add_argument("--half-line", action="store_true")
        if name == "distance":
            pe.add_argument("--csv", default=None)
        if name == "mixed":
            pe.add_argument("--partitions", type=int, default=5)
            pe.add_argument("--seed", type=int, default=0)
        pe.set_defaults(func=_cmd_gram, action=name)

    p = sub.add_parser("series", help="Taylor-Dirichlet series operations")
    psub = p.add_subparsers(dest="action", required=True)
    for name in ("eval", "abscissa", "bound"):
        pe = psub.add_parser(name)
        pe.add_argument("--series", required=True, help="series JSON file")
        # a series prefix, not a product truncation, so _ctx does not read it
        pe.add_argument("--N", dest="terms", type=int, default=None)
        pe.add_argument("--digits", type=int, default=None)
        pe.add_argument("--dps", type=int, default=30)
        pe.add_argument("--out", default=None)
        if name == "eval":
            pe.add_argument("--z", required=True)
        if name == "bound":
            pe.add_argument("--beta", required=True)
            pe.add_argument("--eps", default="0.1")
        pe.set_defaults(func=_cmd_series, action=name)

    p = sub.add_parser("moment", help="moment problem solver")
    psub = p.add_subparsers(dest="action", required=True)
    pe = psub.add_parser("solve")
    _add_common(pe)
    pe.add_argument("--interval", required=True)
    pe.add_argument("--data", required=True, help="moments JSON file")
    pe.add_argument("--force", action="store_true",
                    help="solve even when the growth gate fails")
    pe.set_defaults(func=_cmd_moment)

    p = sub.add_parser("carleson", help="infinite-order operator experiments")
    psub = p.add_subparsers(dest="action", required=True)
    pe = psub.add_parser("apply")
    _add_common(pe)
    pe.add_argument("--lam", required=True, help="frequency lambda")
    pe.add_argument("--k", type=int, default=0)
    pe.add_argument("--x", default="0")
    pe.set_defaults(func=_cmd_carleson, action="apply")
    pe = psub.add_parser("residual")
    _add_common(pe)
    pe.add_argument("--series", required=True)
    pe.add_argument("--grid", default="0.05:0.95:20", help="lo:hi:steps")
    pe.set_defaults(func=_cmd_carleson, action="residual")
    pe = psub.add_parser("counterexample")
    pe.add_argument("--nmax", type=int, default=5)
    pe.add_argument("--digits", type=int, default=None)
    pe.add_argument("--dps", type=int, default=30)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=_cmd_carleson, action="counterexample")

    p = sub.add_parser("fixtures", help="list built-in sequences")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("run", help="run an experiment config, emit a report bundle")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_run)

    return ap


# (dest, option, least) of every count option; --digits keeps PrecisionContext's
# floor and --seed takes any integer.  The --N of analyze and series is a prefix
# length (dest terms), elsewhere the product truncation trunc_N.
_COUNT_OPTIONS = (("N", "--N", 1), ("terms", "--N", 1), ("dps", "--dps", 1),
                  ("circles", "--circles", 1), ("partitions", "--partitions", 1),
                  ("k", "--k", 0), ("nmax", "--nmax", 2))


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        for dest, option, least in _COUNT_OPTIONS:
            if getattr(args, dest, None) is not None:
                read_count(getattr(args, dest), option, least)
        # no digit past the working digits is right, and mp.nstr at a huge --dps hangs
        if hasattr(args, "dps") and args.dps > (digits := _ctx(args).digits):
            raise ConfigError(f"--dps must be <= the working digits {digits}, "
                              f"got {args.dps}; raise --digits")
        result = args.func(args)
        if result is not None:  # `run` writes its own bundle
            obj, table = result
            # the CSV first: a failed write leaves stdout empty
            if table is not None and args.csv:
                _write_csv(args.csv, *table)
            _dump({"schema_version": SCHEMA_VERSION, **obj}, args.out)
        return 0
    except ExpspanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for klass, code in _EXIT_CODES if isinstance(exc, klass)), 1)


if __name__ == "__main__":
    sys.exit(main())
