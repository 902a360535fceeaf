"""Call counts and printed invariants of the benchmark workloads, in process.

Each workload's seed-0 jobs (bench/workloads.py, read and not edited) run
once, at mpmath's default 15 digits as the CLI and bench/run.py run them;
every test reads that one run's per-job stdout and call counts.  A kernel
change that adds evaluations, multiplies, factorizations or fallbacks shows
here as a changed count.
"""

import contextlib
import functools
import io
import json
import os
import sys
from dataclasses import dataclass

import mpmath as mp
import pytest
from conftest import counted_calls, rebind
from mpmath.libmp import mpf_neg

from expspan.cli import main
from expspan.gram import _raw

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import workloads  # noqa: E402

COUNTED = (
    "gram.gram_matrix", "gram.hermitian_cholesky", "gram._factor", "gram._cmul",
    "gram.mpc_mul",
    "products.lk_eval", "products.laurent_coeffs", "products.lk_circle_minima",
    "products._lk_values", "products._fx_product", "products._fx_mul", "products._window",
    "products.mpc_exp", "products.taylor_coeffs",
    "lambda_analysis.analyze", "lambda_analysis.gap_check",
    "lambda_analysis.condensation_index", "carleson.apply_to_exponential",
    "fixtures.load_sequence", "core.validate_sequence",
)


@dataclass
class Run:
    code: int
    stdout: str
    calls: dict
    digits_used: list  # of every Gram the job's ladder accepted
    families: list  # every family `biorthogonal` returned


def _run_workload(workload: str, workdir: str) -> dict:
    """job id -> Run of each seed-0 job of `workload`, in job order."""
    runs, state, digits, families = {}, {}, [], []

    def recording(into, read):
        def wrap(func):
            @functools.wraps(func)
            def recorded(*args, **kwargs):
                out = func(*args, **kwargs)
                into.append(read(out))
                return out
            return recorded
        return wrap

    with pytest.MonkeyPatch.context() as patch, mp.workdps(15):
        calls = counted_calls(patch, *COUNTED)
        rebind(patch, "gram.gram_matrix", recording(digits, lambda g: g.digits_used))
        rebind(patch, "gram.biorthogonal", recording(families, lambda fam: fam))
        for job in workloads.build(workload, 0, workdir):
            before = dict(calls)
            digits.clear()
            families.clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if job.argv is not None:
                    code, text = main(job.argv), None
                else:
                    code, text = 0, json.dumps(job.call(state))
            runs[job.id] = Run(code, out.getvalue() if text is None else text,
                               {name: calls[name] - before[name] for name in calls},
                               list(digits), list(families))
    return runs


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """workload -> its seed-0 runs, each workload run once for the module."""
    done = {}

    def get(workload):
        if workload not in done:
            done[workload] = _run_workload(workload, str(tmp_path_factory.mktemp(workload)))
        return done[workload]
    return get


def conjugate(r):
    """The conjugate of a raw value, exact."""
    return (r[0], mpf_neg(r[1])) if len(r) == 2 else r


def total(jobs: dict, name: str) -> int:
    return sum(r.calls[name] for r in jobs.values())


def max_digits_used(jobs: dict) -> int:
    return max(d for r in jobs.values() for d in r.digits_used)


def assert_all_exit_0(jobs: dict) -> None:
    assert {job: r.code for job, r in jobs.items() if r.code != 0} == {}


def test_contour_evaluation_counts(runs):
    # lk-contour at seed 0: the windowed product is evaluated by the 26
    # lk_eval calls (gnk_eval and lk eval), one batch per circle-minima call
    # and one per Laurent quadrature, and every quadrature converges; a
    # kernel change that adds evaluations shows here
    lk = runs("lk-contour")
    assert_all_exit_0(lk)
    assert total(lk, "lk_eval") == 26
    # the 8 gnk jobs evaluate G once per point for all three k (24 batches
    # when each k took its own)
    gnk = {job: r for job, r in lk.items() if job.startswith("gnk-")}
    assert len(gnk) == 8
    assert (total(gnk, "lk_eval"), total(gnk, "_lk_values")) == (24, 8)
    assert total(lk, "laurent_coeffs") == 4
    assert total(lk, "lk_circle_minima") == 1
    laurent = {job: r for job, r in lk.items() if job.startswith("laurent-")}
    assert len(laurent) == 4
    assert all(json.loads(r.stdout)["converged"] is True for r in laurent.values())
    # each quadrature evaluates G at its 2Q = 128 points in one batch
    assert {job: (r.calls["_lk_values"], r.calls["_fx_product"])
            for job, r in laurent.items()} == dict.fromkeys(laurent, (1, 128))


def test_windowed_product_multiplies(runs):
    # the lk-contour seed-0 `lk lowerbound` job (mu = 3, N = 12, four circles
    # of 96 points on (0, 1)): one _lk_values batch for all circles, every
    # point on the fixed-point path with one exponential and no `_window`
    # (mpmath's phase and Viete's window take three transcendental calls a
    # point), and 31 truncated multiplies per point: 13 for the factor
    # product (one product of the shared bit set and a squaring and a
    # multiply per lower bit, 36 when each mu_n took its own squaring
    # chain), 16 for the window's K = 8 squarings and 8 factors 1 + E^(2^j),
    # and 2 folding C, the window and the product
    job = runs("lk-contour")["lk-lowerbound"]
    assert job.code == 0
    calls = job.calls
    assert calls["_lk_values"] == 1, calls
    assert calls["_fx_product"] == 4 * 96, calls
    assert calls["mpc_exp"] == 4 * 96, calls
    assert calls["_window"] == 0, calls
    assert calls["_fx_mul"] == 31 * calls["_fx_product"], calls


def test_gram_rung_skip(runs):
    # gram-ladder at seed 0: the precision ladder factors every Gram from its
    # displacement generators, and `gram build` reads M from those
    # generators; the one Cholesky factorization is biorthogonal's, of the
    # matrix it assembles (6 when the ladder assembled and factored each rung
    # it did not skip), whose backward sweeps stop at the diagonal and whose
    # kernels run on raw mpmath values without adding a call; the ladder
    # still accepts at 800 digits
    ladder = runs("gram-ladder")
    assert_all_exit_0(ladder)
    assert total(ladder, "hermitian_cholesky") == 1
    assert max_digits_used(ladder) == 800


@pytest.mark.parametrize("name, action, opts, assemblies", [
    ("squares", "build", ["--N", "20", "--digits", "200"], 0),
    ("squares", "biorthogonal", ["--N", "16", "--digits", "120"], 1),
    ("example_iv", "build", ["--N", "8", "--digits", "120"], 0),
    ("example_iv", "biorthogonal", ["--N", "8", "--digits", "120"], 1),
    ("squares", "distance", ["--N", "20", "--half-line"], 0),
], ids=["squares-build", "squares-biorthogonal", "example_iv-build",
        "example_iv-biorthogonal", "squares-distance-half-line"])
def test_gram_assembly_counts(monkeypatch, tmp_path, name, action, opts, assemblies):
    # the Gram assemblies each subcommand makes: `gram build` reads M from the
    # ladder's generators and assembles nothing, on squares(20) and on
    # example_iv (mu = 2) alike, and `gram biorthogonal` assembles once, to
    # invert the matrix it factors itself (its lower triangle and diagonal by
    # sweeps, the rest by conjugation) and check the inverse against it
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"kind": "generator", "name": name, "terms": 20}))
    calls = counted_calls(monkeypatch, "gram._assemble")
    with mp.workdps(15):
        code = main(["gram", action, "--seq", str(path), *opts])
    assert code == 0
    assert calls == {"_assemble": assemblies}


def test_biorthogonal_hermitian_by_construction(runs):
    # the gram-ladder seed-0 `gram biorthogonal` job (jittered squares,
    # N = 16, accepted at 480 digits): each column's backward sweep stops at
    # the diagonal and the entries above it are conjugates, so every
    # strict-upper entry of the family's C is bit for bit the conjugate of
    # its mirror (the printed 30 digits could not tell a swept entry, which
    # differs near 10^-470 relative), and the identity residual of C M,
    # still taken over all d^2 entries, stays below 10^(-digits_used/2)
    job = runs("gram-ladder")["gram-biorthogonal-N16"]
    assert job.code == 0
    (fam,) = job.families
    C = fam.coeffs
    for i in range(C.rows):
        for j in range(i + 1, C.rows):
            assert _raw(C[i, j]) == conjugate(_raw(C[j, i])), (i, j)
    obj = json.loads(job.stdout)
    assert obj["dim"] == C.rows == 16
    resid = mp.mpf(obj["identity_residual"])
    assert resid < mp.mpf(10) ** (-obj["digits_used"] / 2), resid


def test_gauss_products(runs):
    # the three gram-ladder seed-0 jobs (480 and 800 digits) and the four
    # confluent-moment ones: a complex product takes three integer products
    # (`_cmul`) and calls mpc_mul only where a part is zero or an operand's
    # parts lie more than 64 bits apart, 704 of 7980 products and 1813 of
    # 9906, so an added product or a new mpc_mul exit shows here
    ladder = runs("gram-ladder")
    assert_all_exit_0(ladder)
    assert (total(ladder, "_cmul"), total(ladder, "mpc_mul")) == (7980, 704)
    confluent = runs("confluent-moment")
    assert_all_exit_0(confluent)
    assert (total(confluent, "_cmul"), total(confluent, "mpc_mul")) == (9906, 1813)


def test_confluent_first_rung(runs):
    # confluent-moment at seed 0: its 4 Grams (two mu = 3 at 300 digits, the
    # moment system at 400 and the half-line distance) are all factored from
    # their displacement generators, so nothing calls hermitian_cholesky;
    # each of its jobs calls gram._factor once, so every Gram is accepted at
    # its first rung
    confluent = runs("confluent-moment")
    assert_all_exit_0(confluent)
    assert total(confluent, "hermitian_cholesky") == 0
    assert total(confluent, "gram_matrix") == 4
    assert max_digits_used(confluent) == 400
    assert {job: r.calls["_factor"] for job, r in confluent.items()} == \
        dict.fromkeys(confluent, 1)


def test_report_sweep_sharing(runs):
    # report-sweep at seed 0: each Carleson application builds its derivative
    # table and its exponentials once for all grid points and every k of one
    # frequency (26 applications for the 34 (n, k) pairs, which took one
    # each; 440 when each point rebuilt the table), every analyze job builds
    # one prefix table and calls gap_check on it by name, so all 38 gap
    # checks count, and each of the 3 Carleson operators builds only the
    # plain product's Maclaurin coefficients (6 calls when it also built the
    # majorant's, which only class_membership reads).  No job skips its
    # work: 73 sequence loads (36 validate jobs, 36 analyze jobs and the
    # carleson residual), 36 validations, and 21 condensation indices (the
    # 20 mu = 1 analyze jobs that pass the gap check, and the mu = 1 full
    # report); at 60 digits the 4 analyze jobs that exit 6 at 15 pass it too
    sweep = runs("report-sweep")
    assert total(sweep, "apply_to_exponential") == 26
    assert total(sweep, "analyze") == 38
    assert total(sweep, "gap_check") == 38
    assert total(sweep, "taylor_coeffs") == 3
    assert total(sweep, "load_sequence") == 73
    assert total(sweep, "validate_sequence") == 36
    assert total(sweep, "condensation_index") == 21
