"""expspan benchmark: seeded workloads of CLI jobs, checked, timed, optionally traced.

    python3 bench/run.py --workload gram-ladder --seed 0 --seconds 32 --trace 0

Runs the workload's job list in one process, one job at a time (a closed
loop with a single client), pass after pass: a further pass starts only if
it is expected to end within --seconds, and there is always one.  Every
result is checked (checks.py).  With --trace 0 it reports the end-to-end
metrics; with --trace 1 every pass is traced (spans.py) and it reports the
per-layer metrics instead.  Human-readable lines come first; the last line
of stdout is one JSON object with keys correct, attempted, failed, metrics.

Times are in reference seconds.  On a shared virtual machine the speed of
a vCPU swings by up to 2x, in spells that last from under a second to over
a minute, and the process's CPU time swings with its wall time.  So before
the first job of a pass and after every job the run times a fixed reference
kernel (mpmath arithmetic that calls no expspan code), for REF_SHARE of the
job's time and at least once.  Each job is scaled by REF_SECONDS over the
mean reference time just before and just after it (at least REF_WINDOW_S on
each side, taken from the nearest blocks): its time is what it would have
taken on a host on which the kernel takes REF_SECONDS.  pass_s is the
median over passes of the scaled pass; job_s_p50 and job_s_tail are the
median and tail over jobs of each job's median scaled time.  Raw wall times
and the scale factors go to result.json.

Set-up is done SETUP_REPEATS times in the run.  Each time, mpmath and
expspan are imported afresh (every module the previous set-up imported is
dropped first), the inputs are generated and the references loaded;
setup_s is the median of these, each scaled by the reference times around
it.  Work files go to .bench_work/ under the checkout.

`attempted` counts the jobs of the list and `failed` those that failed in
any pass.  A job that raises, exits with a code other than 0 and other than
the one recorded for it in expected.json, or fails a check that is not a
known defect (checks.py) makes `correct` false, as does a pass that printed
something other than the first pass, or a traced call count that differs
between passes.

--record adds this seed's references to bench/expected.json: run it only
when the program's output is meant to change.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(BENCH, "expected.json")
SETUP_REPEATS = 9
TAIL_ABOVE = 10
# reference kernel: REF_TERMS complex steps at REF_DIGITS digits; it takes
# about REF_SECONDS on a 2-vCPU Xeon virtual machine at its usual speed
REF_DIGITS, REF_TERMS, REF_SECONDS = 200, 100, 0.010
REF_SHARE = 0.1
REF_BLOCK_S = 0.1  # reference time after each set-up and before each pass
REF_WINDOW_S = 0.05  # least reference time on each side of a job

# what is imported before the first set-up; every other module is dropped
# before each set-up so that it imports mpmath and the program afresh
_BASE_MODULES = frozenset(sys.modules)


def _import_program():
    """Import expspan from this checkout's src/, and nothing else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import expspan
        import expspan.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import expspan from {SRC}: {exc}")
    if not os.path.abspath(expspan.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: expspan imported from {expspan.__file__}, not from {SRC}")
    return expspan.cli


def _load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def _setup(workload: str, seed: int, workdir: str):
    """Everything a run does before its first timed job."""
    cli = _import_program()
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = workloads.build(workload, seed, workdir)
    return cli, jobs, _load_expected()


def _ref_once() -> float:
    """Wall time of one run of the reference kernel."""
    import mpmath as mp
    t0 = time.perf_counter()
    with mp.workdps(REF_DIGITS):
        a, s = mp.mpc("1.1", "0.3"), mp.mpc(0)
        for k in range(1, REF_TERMS + 1):
            s += a * a / (a + k) - mp.sqrt(a * k)
    return time.perf_counter() - t0


def _refs(seconds: float) -> list[float]:
    """Reference kernel times, at least one, until they add up to seconds."""
    out = [_ref_once()]
    while sum(out) < seconds:
        out.append(_ref_once())
    return out


def _scale(before: list[float], after: list[float]) -> float:
    """Scale factor of the work between two blocks of reference times."""
    return 2 * REF_SECONDS / (statistics.mean(before) + statistics.mean(after))


def _scales(blocks: list[list[float]]) -> list[float]:
    """Scale factor of each job from the reference blocks around it.

    blocks[k] precedes job k and blocks[k + 1] follows it.  Each side takes
    further blocks outward until it holds REF_WINDOW_S of reference time, so
    that a short job is not scaled by a single reference time.
    """
    out = []
    for k in range(len(blocks) - 1):
        sides = []
        for order in (range(k, -1, -1), range(k + 1, len(blocks))):
            side: list[float] = []
            for i in order:
                side += blocks[i]
                if sum(side) >= REF_WINDOW_S:
                    break
            sides.append(side)
        out.append(_scale(*sides))
    return out


def _timed_setups(workload: str, seed: int, workdir: str):
    """The last of SETUP_REPEATS set-ups, and the scaled time of each."""
    times, refs, done = [], [], None
    for _ in range(SETUP_REPEATS):
        done = None  # let the previous set-up's modules be collected
        for name in set(sys.modules) - _BASE_MODULES:
            del sys.modules[name]
        gc.collect()
        t0 = time.perf_counter()
        done = _setup(workload, seed, workdir)
        times.append(time.perf_counter() - t0)
        refs.append(_refs(REF_BLOCK_S))
    scaled = [t * _scale(refs[i - 1] if i else refs[i], refs[i])
              for i, t in enumerate(times)]
    return done, scaled


# -- running jobs -------------------------------------------------------------------

def _clear(paths: list[str]) -> None:
    for p in paths:
        if os.path.isdir(p):
            shutil.rmtree(p)
        elif os.path.exists(p):
            os.remove(p)


def _run_job(cli, job, state: dict) -> dict:
    """Run one job; only the call itself is timed."""
    _clear(job.files)
    out, err = io.StringIO(), io.StringIO()
    code, error, result = None, None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is not None:
                code = cli.main(job.argv)
            else:
                result = job.call(state)
                code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    text = out.getvalue() if job.argv is not None else (
        json.dumps(result, indent=2, sort_keys=True) + "\n" if result is not None else "")
    files = checks.read_files(job.files)
    return {"id": job.id, "code": code, "error": error or err.getvalue().strip()[:300],
            "stdout": text, "files": files, "seconds": seconds,
            "bytes": len(text.encode()) + sum(len(v.encode()) for v in files.values())}


def _verdict(job, res: dict, expected: dict) -> tuple[list[str], bool, list[int]]:
    """Failures, whether one is a wrong result (not a known defect), oracle digits.

    expected holds this job's recorded "digits_used", "digest" and non-zero
    "exit_code" (each may be absent).  A job that exits 0 where a non-zero
    code is recorded has had its defect fixed and is checked as usual.
    """
    if res["code"] != 0:
        why = res["error"] if res["code"] is None else f"exit code {res['code']}: {res['error']}"
        return [why], res["code"] != expected.get("exit_code", 0), []
    wrong, known, digits = checks.check(job, res["stdout"], res["files"], expected)
    return wrong + known, bool(wrong), digits


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile leaving at least TAIL_ABOVE samples above it.

    With too few samples for that percentile to lie above the median, the
    maximum (percentile 100, none above).
    """
    xs = sorted(samples)
    rank = len(xs) - TAIL_ABOVE
    if rank <= len(xs) // 2:
        return xs[-1], 100.0, 0
    return xs[rank - 1], 100.0 * rank / len(xs), TAIL_ABOVE


def _provenance(args) -> dict:
    import mpmath
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    pkg = os.path.join(SRC, "expspan")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "git_commit": commit,
            "src_expspan_lines": lines}


def _span_cost(tracer) -> float:
    """Measured cost of one span: a wrapped no-op call minus a plain one."""
    def noop():
        return None
    wrapped = tracer.wrap("calibration", noop)
    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    del tracer.spans[-n:]
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def _run_passes(cli, jobs, seconds: float, tracer, one_pass: bool):
    """Passes over the job list while the next is expected to end in time.

    Returns the job results of every pass with their "scale" factors and,
    when traced, the span index range of each pass.
    """
    passes, bounds = [], []
    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        state: dict = {}
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install()
        results, blocks = [], [_refs(REF_BLOCK_S)]
        for job in jobs:
            if tracer:
                tracer.job = f"{len(passes)}:{job.id}"
            results.append(_run_job(cli, job, state))
            blocks.append(_refs(REF_SHARE * results[-1]["seconds"]))
        for res, scale in zip(results, _scales(blocks)):
            res["scale"] = scale
        if tracer:
            tracer.uninstall()
            bounds.append((first_span, len(tracer.spans)))
        passes.append(results)
        now = time.perf_counter()
        if one_pass or (now - t_begin) + (now - t_pass) > seconds:
            return passes, bounds


def _check_passes(jobs, passes, refs: dict) -> dict:
    """Check the first pass fully; later passes must repeat it byte for byte.

    Returns each job's verdict by id: (failures, wrong, oracle digits).
    """
    first = {r["id"]: r for r in passes[0]}
    verdicts = {job.id: _verdict(job, first[job.id], refs.get(job.id, {})) for job in jobs}
    for p, results in enumerate(passes[1:], start=1):
        for r in results:
            f0 = first[r["id"]]
            if (r["code"], r["stdout"], r["files"]) != (f0["code"], f0["stdout"], f0["files"]):
                fails, _, digits = verdicts[r["id"]]
                verdicts[r["id"]] = (fails + [f"pass {p} printed something else than pass 0"],
                                     True, digits)
    return verdicts


def _references(expected: dict, workload: str, seed: int) -> dict[str, dict]:
    """job id -> its recorded digits_used, exit_code and (this seed's) digest."""
    tables = {"digits_used": expected.get("digits_used", {}).get(workload, {}),
              "exit_code": expected.get("exit_codes", {}).get(workload, {}),
              "digest": expected.get("digests", {}).get(workload, {}).get(str(seed), {})}
    out: dict[str, dict] = {}
    for key, table in tables.items():
        for job, value in table.items():
            out.setdefault(job, {})[key] = value
    return out


def _end_to_end(jobs, passes, setups, oracle, failed: int) -> dict:
    """name -> (value, unit, note) of the untraced run, times in reference seconds."""
    pass_times = [sum(r["seconds"] * r["scale"] for r in res) for res in passes]
    job_times = [statistics.median(res[i]["seconds"] * res[i]["scale"] for res in passes)
                 for i in range(len(jobs))]
    tail, pct, above = _tail(job_times)
    n_jobs, n_passes = len(jobs), len(passes)
    return {
        "pass_s": (statistics.median(pass_times), "s",
                   f"median of {n_passes} passes of {n_jobs} jobs"),
        "job_s_p50": (statistics.median(job_times), "s",
                      f"median of {n_jobs} jobs, each its median of {n_passes} passes"),
        "job_s_tail": (tail, "s", f"p{pct:.1f} of {n_jobs} jobs, {above} above"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "this process"),
        "oracle_digits_min": (min(oracle) if oracle else 0, "digits",
                              f"min over {len(oracle)} oracle comparisons"),
        "failed_frac": (failed / n_jobs, "ratio", f"{failed} failed of {n_jobs} jobs"),
    }


def _per_layer(args, tracer, passes, bounds) -> tuple[dict, list[str]]:
    """name -> (value, unit, note) of the traced run, and unstable call counts."""
    layers = [spans.pass_layers(tracer.spans, a, b) for a, b in bounds]
    metrics, unstable = spans.layer_metrics(layers, tracer.missing)
    metrics["cli.output_bytes"] = (sum(r["bytes"] for r in passes[0]), "bytes")
    span_counts = [b - a for a, b in bounds]
    metrics["trace.overhead_s"] = (statistics.median(span_counts) * _span_cost(tracer), "s")
    for name in tracer.missing:
        print(f"layer {name}: target missing, its metrics are absent")
    tracer.dump(os.path.join(args.workdir, "spans.jsonl"))
    note = f"{len(passes)} traced passes, wall seconds"
    return {name: (value, unit, note) for name, (value, unit) in metrics.items()}, unstable


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="run one traced pass and store this seed's references")
    args = ap.parse_args(argv)
    args.workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}")
    (cli, jobs, expected), setups = _timed_setups(args.workload, args.seed, args.workdir)
    tracer = spans.Tracer() if (args.trace or args.record) else None
    passes, bounds = _run_passes(cli, jobs, args.seconds, tracer, one_pass=args.record)

    job_refs = _references(expected, args.workload, args.seed)
    if args.record:  # the pass being recorded supplies its own digits_used
        job_refs = {job: {"digits_used": d} for job, d in _span_digits(tracer).items()}
    verdicts = _check_passes(jobs, passes, job_refs)
    if args.record:
        return _record(args, expected, job_refs, passes[0], verdicts)
    failed = sum(1 for fails, _, _ in verdicts.values() if fails)
    wrong = any(w for _, w, _ in verdicts.values())
    oracle = [d for fails, _, digits in verdicts.values() if not fails for d in digits]

    if args.trace:
        report, unstable = _per_layer(args, tracer, passes, bounds)
        if unstable:
            wrong = True
            print("call counts differ between passes: " + "; ".join(unstable))
    else:
        report = _end_to_end(jobs, passes, setups, oracle, failed)

    prov = _provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for job_id, (fails, is_wrong, _) in verdicts.items():
        if fails:
            kind = "wrong" if is_wrong else "known defect"
            print(f"failed ({kind}) job={job_id}: {'; '.join(fails)[:300]}")
    for name, (value, unit, note) in report.items():
        print(f"metric {name} = {value:.6g} {unit} ({note})")
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump({"provenance": prov,
                   "wall_pass_s": [sum(r["seconds"] for r in res) for res in passes],
                   "wall_job_s": {j.id: [res[i]["seconds"] for res in passes]
                                  for i, j in enumerate(jobs)},
                   "scale": {j.id: [res[i]["scale"] for res in passes]
                             for i, j in enumerate(jobs)},
                   "setup_s": setups,
                   "failures": {j: v[0] for j, v in verdicts.items() if v[0]},
                   "oracle_digits": oracle,
                   "metrics": {k: {"value": v, "unit": u, "note": n}
                               for k, (v, u, n) in report.items()}}, fh, indent=1)
    shown = {k: {"value": v, "unit": u} for k, (v, u, _) in report.items()
             if k != "failed_frac"}
    print(json.dumps({"correct": not wrong, "attempted": len(jobs), "failed": failed,
                      "metrics": shown}, sort_keys=True))
    return 0


def _span_digits(tracer) -> dict[str, int]:
    """Highest digits_used of the Gram systems each job built."""
    digits: dict[str, int] = {}
    for s in tracer.spans:
        if "digits_used" in s.attrs:
            job = s.job.split(":", 1)[1]
            digits[job] = max(digits.get(job, 0), s.attrs["digits_used"])
    return digits


def _record(args, expected, job_refs, results, verdicts) -> int:
    """Store digits_used and exit codes (seed-independent) and this seed's digests."""
    digits = {job: ref["digits_used"] for job, ref in job_refs.items()}
    old = expected.setdefault("digits_used", {}).setdefault(args.workload, {})
    clash = {j: (old[j], d) for j, d in digits.items() if j in old and old[j] != d}
    if clash:
        sys.exit(f"bench: digits_used differs from the recording for another seed: {clash}")
    old.update(digits)
    codes = expected.setdefault("exit_codes", {}).setdefault(args.workload, {})
    for r in results:
        if r["code"]:
            codes[r["id"]] = r["code"]
        elif r["code"] == 0:
            codes.pop(r["id"], None)
    digests = {}
    for r in results:
        fails = verdicts[r["id"]][0]
        if fails:
            print(f"not recorded: {r['id']}: {'; '.join(fails)[:200]}")
            continue
        parsed = {"stdout": json.loads(r["stdout"]) if r["stdout"] else {},
                  "files": {k: checks.parse(k, v) for k, v in r["files"].items()}}
        digests[r["id"]] = checks.value_digest(parsed)
    expected.setdefault("digests", {}).setdefault(args.workload, {})[str(args.seed)] = digests
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests and {len(digits)} digits_used for "
          f"{args.workload} seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
