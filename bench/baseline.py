"""Traced cross-check of the per-layer baselines quoted in ROADMAP.md (Open item 1).

    python3 bench/baseline.py [--out bench/baseline.json]

Runs the two unjittered reference cases once each under the tracer:
`gram distance` on squares N=32, (0,1), 500 digits (gram_matrix time and its
hermitian_cholesky calls, biorthogonal time), and laurent_coeffs on
example_iv mu=3 N=12 with Q=64, J=3 for n=1..3 (lk_eval calls per call).
Prints one JSON object and optionally writes it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

import run
import spans


def _sum(tracer, name: str) -> tuple[float, int]:
    hits = [s for s in tracer.spans if s.name == name]
    return sum(s.end - s.start for s in hits), len(hits)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    cli = run._import_program()
    import mpmath as mp
    from expspan import fixtures, products
    from expspan.core import Interval, PrecisionContext

    workdir = os.path.join(run.ROOT, ".bench_work", "baseline")
    os.makedirs(workdir, exist_ok=True)
    seq_file = os.path.join(workdir, "squares32.json")
    with open(seq_file, "w") as fh:
        json.dump({"kind": "generator", "name": "squares", "terms": 32}, fh)

    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gram", "distance", "--seq", seq_file, "--N", "32",
                             "--digits", "500"])
        gram_s, _ = _sum(tracer, "gram.gram_matrix")
        chol_s, chol_calls = _sum(tracer, "gram.hermitian_cholesky")
        bio_s, _ = _sum(tracer, "gram.biorthogonal")
        digits = [s.attrs["digits_used"] for s in tracer.spans if s.name == "gram.gram_matrix"]
        tracer.spans.clear()
        seq = fixtures.fixture("example_iv", 12, mu=3)
        with mp.workdps(120):
            lk = products.lk_function(seq, Interval(0, 1), PrecisionContext(digits=120,
                                                                           trunc_N=12))
            converged = [products.laurent_coeffs(lk, n, mp.mpf("0.1"), 3, 64).converged
                         for n in (1, 2, 3)]
        laurent_s, laurent_calls = _sum(tracer, "products.laurent_coeffs")
        _, lk_calls = _sum(tracer, "products.lk_eval")
    finally:
        tracer.uninstall()

    prov = run._provenance(argparse.Namespace(workload="baseline", seed=None, seconds=None,
                                              trace=1))
    record = {
        "provenance": prov,
        "squares_N32_digits500_gram_distance": {
            "exit_code": code, "digits_used": digits[0],
            "gram_matrix_s": gram_s, "hermitian_cholesky_calls": chol_calls,
            "hermitian_cholesky_s": chol_s, "biorthogonal_s": bio_s},
        "example_iv_mu3_N12_laurent_Q64_J3_n1to3": {
            "laurent_coeffs_s": laurent_s, "laurent_coeffs_calls": laurent_calls,
            "lk_eval_calls": lk_calls, "lk_eval_calls_per_laurent": lk_calls / laurent_calls,
            "converged": converged},
    }
    text = json.dumps(record, indent=1, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
