"""Seeded inputs and the job list of each benchmark workload.

Every workload is a fixed list of jobs.  A job is either one in-process CLI
invocation (``expspan.cli.main(argv)``) or, where the CLI has no
subcommand, one library call.  The seed draws only input values: jitter of
the frequencies, moment data, series coefficients, evaluation points and
the ``gram mixed`` partition seed.  Sizes, precisions and the job list
never depend on it, so every seed does the same amount of work.

Jittered frequencies are lambda_n = n^2 + delta_n with complex delta_n whose
real and imaginary parts lie in [-0.2, 0.2].  Each part is a multiple of
2^-20 written as its exact decimal expansion, so the program reads the same
number at every working precision; modulus order, the sector and the
conditioning of the squares therefore hold for every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Callable

# mpmath is imported inside the functions that use it: run.py imports mpmath and
# the program afresh for each timed set-up, and every call must use the latest.

_JITTER_BITS = 20
_JITTER_MAX = int(0.2 * 2 ** _JITTER_BITS)

# built-in fixtures swept by report-sweep: name -> paired (two entries per term)
FIXTURES = {
    "power": False, "squares": False, "example_i": False, "example_ii": True,
    "example_iii": True, "example_iv": False, "example_v": False,
    "example_vi": False, "carleson_counterexample": True,
}
SWEEP_TERMS = (6, 9, 10, 12)

@dataclass
class Job:
    """One timed unit of work.

    argv   CLI arguments for expspan.cli.main, or None for a library call
    call   library call (state -> output dict) when argv is None; state is
           a dict shared by the jobs of one pass
    files  paths the job writes besides stdout (a directory is read whole)
    check  extra checker hooks by name, see checks.py
    """

    id: str
    argv: list[str] | None = None
    call: Callable[[dict], dict] | None = None
    files: list[str] = field(default_factory=list)
    check: dict = field(default_factory=dict)


def _dyadic(units: int) -> str:
    """Exact decimal expansion of units * 2^-20."""
    return format(Decimal(units) / Decimal(2 ** _JITTER_BITS), "f")


def jittered_squares(rng: random.Random, N: int, mu: int, label: str) -> dict:
    entries = []
    for n in range(1, N + 1):
        re = n * n * 2 ** _JITTER_BITS + rng.randint(-_JITTER_MAX, _JITTER_MAX)
        im = rng.randint(-_JITTER_MAX, _JITTER_MAX)
        entries.append([_dyadic(re), _dyadic(im), mu])
    return {"kind": "explicit", "entries": entries, "provenance": label}


def spec_lambdas(spec: dict) -> list:
    """Exact frequencies of an explicit spec (exact at any precision >= 53 bits)."""
    import mpmath as mp

    def exact(text):
        q = Fraction(text)  # denominator is a power of two: the division is exact
        return mp.mpf(q.numerator) / q.denominator
    return [mp.mpc(exact(re), exact(im)) for re, im, _ in spec["entries"]]


def _point(rng: random.Random, lo: float, hi: float) -> str:
    """A seeded decimal with six places in [lo, hi]."""
    return f"{rng.uniform(lo, hi):.6f}"


def _complex_arg(rng: random.Random, lo: float, hi: float) -> str:
    """Pass as --z=VALUE: argparse takes a bare leading '-' for an option."""
    re, im = _point(rng, lo, hi), _point(rng, lo, hi)
    return f"{re}{'' if im.startswith('-') else '+'}{im}i"


class _Inputs:
    """Writes generated input files into the work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, obj) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
        return p


def _gram_ladder(rng, io: _Inputs) -> list[Job]:
    # condition ~ e^(2 Re lambda_N): N=20 needs ~700 digits and N=16 ~450, so
    # 200 climbs 200 -> 400 -> 800 and 120 climbs 120 -> 240 -> 480
    spec = jittered_squares(rng, 20, 1, "jittered-squares-20")
    f = io.write("squares20.json", spec)
    return [
        Job("gram-distance-N20", ["gram", "distance", "--seq", f, "--N", "20",
                                  "--digits", "200"]),
        Job("gram-build-N20", ["gram", "build", "--seq", f, "--N", "20",
                               "--digits", "200"],
            check={"gram_build_oracle": spec}),
        Job("gram-biorthogonal-N16", ["gram", "biorthogonal", "--seq", f, "--N", "16",
                                      "--digits", "120"]),
    ]


def _decaying(rng, spec: dict) -> list:
    """Rows [n, 0, re, im] of c_n e^(-2 Re lambda_n), seeded |c_n| in [1/2, 3/2]."""
    import mpmath as mp
    rows = []
    with mp.workdps(50):
        for n, lam in enumerate(spec_lambdas(spec), start=1):
            c = mp.mpf(rng.uniform(0.5, 1.5)) * mp.expjpi(mp.mpf(rng.uniform(-1, 1)))
            d = c * mp.exp(-2 * mp.re(lam))
            rows.append([n, 0, mp.nstr(mp.re(d), 40), mp.nstr(mp.im(d), 40)])
    return rows


def _confluent_moment(rng, io: _Inputs) -> list[Job]:
    # every Gram here is accepted at its first rung
    spec3 = jittered_squares(rng, 8, 3, "jittered-squares-8-mu3")
    f3 = io.write("squares8_mu3.json", spec3)
    spec1 = jittered_squares(rng, 20, 1, "jittered-squares-20")
    f1 = io.write("squares20.json", spec1)
    data = io.write("moments20.json", _decaying(rng, spec1))
    part_seed = str(rng.randrange(10 ** 6))
    return [
        Job("gram-distance-mu3-N8", ["gram", "distance", "--seq", f3, "--N", "8",
                                     "--digits", "300"]),
        Job("gram-mixed-mu3-N8", ["gram", "mixed", "--seq", f3, "--N", "8",
                                  "--digits", "300", "--partitions", "1",
                                  "--seed", part_seed]),
        Job("moment-solve-N14", ["moment", "solve", "--seq", f1, "--N", "14",
                                 "--digits", "400", "--interval", "0,1",
                                 "--data", data],
            check={"moment_residual": True}),
        Job("gram-distance-halfline-N20", ["gram", "distance", "--half-line",
                                           "--seq", f1, "--N", "20"],
            check={"halfline_oracle": spec1}),
    ]


_LK_N, _LK_MU, _LK_DIGITS, _LK_EPS = 12, 3, 120, "0.1"
_LK_CIRCLES = 4
_LAURENT_J, _LAURENT_Q = 3, 64
# at n = 1 the node-doubling change of the jittered input straddles the fixed
# 1e-30 convergence gate (3e-27 and 2e-30 on seeds 4 and 14 of 0..19): a known
# defect that counts in `failed` on those seeds (checks.py)
_LAURENT_POLES = range(1, 5)


def _lk_setup(f: str):
    """Sequence and windowed product as the CLI builds them (lk subcommand)."""
    from expspan import fixtures, products
    from expspan.core import Interval, PrecisionContext
    ctx = PrecisionContext(digits=_LK_DIGITS, trunc_N=_LK_N)
    return products.lk_function(fixtures.load_sequence(f), Interval(0, 1), ctx)


def _pair(z) -> list[str]:
    import mpmath as mp
    return [mp.nstr(mp.re(z), 30), mp.nstr(mp.im(z), 30)]


def _laurent_job(f: str, n: int) -> Callable[[dict], dict]:
    def run(state: dict) -> dict:
        import mpmath as mp
        from expspan import products
        with mp.workdps(_LK_DIGITS):
            lk = _lk_setup(f)
            lc = products.laurent_coeffs(lk, n, mp.mpf(_LK_EPS), _LAURENT_J, _LAURENT_Q)
            state[("laurent", n)] = lc
            return {"n": lc.n, "values": [_pair(v) for v in lc.values],
                    "radius": mp.nstr(lc.radius, 30), "converged": lc.converged,
                    "max_rel_change": mp.nstr(lc.max_rel_change, 8)}
    return run


def _gnk_job(f: str, n: int, scale: str, angle: str) -> Callable[[dict], dict]:
    def run(state: dict) -> dict:
        import mpmath as mp
        from expspan import products
        with mp.workdps(_LK_DIGITS):
            lk = _lk_setup(f)
            lc = state[("laurent", n)]
            z = 1j * lk.seq.lam(n) + mp.mpf(scale) * lc.radius * mp.expjpi(mp.mpf(angle))
            vals = [products.gnk_eval(lk, lc, n, k, z) for k in range(lk.seq.mu(n))]
            return {"n": n, "z": _pair(z), "values": [_pair(v) for v in vals]}
    return run


def _lk_contour(rng, io: _Inputs) -> list[Job]:
    spec = jittered_squares(rng, _LK_N, _LK_MU, "jittered-squares-12-mu3")
    f = io.write("squares12_mu3.json", spec)
    common = ["--seq", f, "--N", str(_LK_N), "--digits", str(_LK_DIGITS)]
    jobs = [Job("lk-lowerbound", ["lk", "lowerbound", *common, "--interval", "0,1",
                                  "--eps", _LK_EPS, "--circles", str(_LK_CIRCLES)])]
    for n in _LAURENT_POLES:
        jobs.append(Job(f"laurent-n{n}", call=_laurent_job(f, n),
                        check={"laurent": spec}))
    for n in _LAURENT_POLES:
        for where, scale in (("inside", "0.5"), ("outside", "2")):
            angle = _point(rng, -1, 1)
            jobs.append(Job(f"gnk-n{n}-{where}", call=_gnk_job(f, n, scale, angle)))
    for i in range(2):
        jobs.append(Job(f"lk-eval-{i}", ["lk", "eval", *common, "--interval", "0,1",
                                         "--z=" + _complex_arg(rng, -3, 3)]))
    for kind in ("F", "G", "F_even", "L_even"):
        jobs.append(Job(f"product-eval-{kind}", ["product", "eval", *common,
                                                 "--kind", kind,
                                                 "--z=" + _complex_arg(rng, -20, 20)]))
    return jobs


def _report_sweep(rng, io: _Inputs) -> list[Job]:
    jobs = []
    for name, paired in FIXTURES.items():
        for terms in SWEEP_TERMS:
            f = io.write(f"fixture_{name}_{terms}.json",
                         {"kind": "generator", "name": name, "terms": terms})
            size = 2 * terms if paired else terms
            jobs.append(Job(f"validate-{name}-{terms}", ["validate", f]))
            csv_path = io.path(f"analyze_{name}_{terms}.csv")
            jobs.append(Job(f"analyze-{name}-{terms}",
                            ["analyze", f, "--N", str(size), "--csv", csv_path],
                            files=[csv_path], check={"condition_a": name}))
    for mu in (1, 2):
        spec = jittered_squares(rng, 8, mu, f"jittered-squares-8-mu{mu}")
        cfg = io.write(f"report_mu{mu}.json",
                       {"kind": "full-report", "seq": spec, "N": 8, "digits": 200,
                        "interval": "0,1"})
        out = io.path(f"bundle_mu{mu}")
        jobs.append(Job(f"run-full-report-mu{mu}", ["run", cfg, "--out", out],
                        files=[out], check={"annihilation_floor": 200}))
    spec = jittered_squares(rng, 10, 1, "jittered-squares-10")
    f = io.write("squares10.json", spec)
    # a series in the half-plane sector Re z < 1
    s = io.write("series10.json", {"seq": spec, "coeffs": _decaying(rng, spec),
                                   "sector": {"eta": "0.1", "beta": "1"}})
    jobs += [
        Job("series-eval", ["series", "eval", "--series", s,
                            "--z=" + _complex_arg(rng, -1, 0)]),
        Job("series-abscissa", ["series", "abscissa", "--series", s]),
        Job("series-bound", ["series", "bound", "--series", s, "--beta", "1"]),
        Job("carleson-residual", ["carleson", "residual", "--seq", f, "--N", "10",
                                  "--series", s], check={"annihilation_floor": 120}),
    ]
    return jobs


WORKLOADS = {
    "gram-ladder": _gram_ladder,
    "confluent-moment": _confluent_moment,
    "lk-contour": _lk_contour,
    "report-sweep": _report_sweep,
}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Generate the inputs of one workload into workdir and return its jobs."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng, _Inputs(workdir))
