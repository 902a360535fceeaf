"""Result checker: recorded references, residual floors and independent oracles.

A job fails when it raises, exits with another code than 0, or fails any
check below.  Most failures are wrong results.  Two are known defects of the
reference commit, which count as failed but not as wrong: an exit code
recorded for the job in expected.json (run.py), and a Laurent quadrature
that reports converged false.

- digits_used: equal to the value recorded at the reference commit.
- identity_residual below 10^(-digits_used/2); moment residual_max below
  10^(-digits_used/3); every Laurent quadrature reports converged.
- Printed numbers equal the recorded ones, compared as parsed decimal values
  (a SHA-256 over the canonical form) for seeds that have a recording.
  Residual fields are excluded there: they are checked against their floors.
- Oracles, each computed here from the generated inputs without calling the
  program: the half-line Cauchy/Blaschke distance, the incomplete-gamma
  closed form of Gram entries, mu!/G^(mu) for the leading Laurent
  coefficient, and exact rational partial sums of condition A.

Oracle agreement is counted in significant digits: x agrees with ref on d
digits when |x - ref| <= 5 * 10^-d |ref|.  It is capped one below the printed
digits, so a correctly rounded print scores exactly the cap, and a result
that agrees on fewer than REQUIRED_DIGITS fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from workloads import spec_lambdas

# mpmath is imported inside the functions that use it: run.py imports mpmath and
# the program afresh for each timed set-up, and every call must use the latest.

PRINTED_DIGITS = 30
ORACLE_CAP = PRINTED_DIGITS - 1
REQUIRED_DIGITS = 14
ANNIHILATION_KEYS = frozenset({"sup_residual", "sup_annihilation_residual"})
RESIDUAL_KEYS = ANNIHILATION_KEYS | {"identity_residual", "residual_max",
                                     "max_rel_change"}


# -- outputs ---------------------------------------------------------------------

def read_files(paths: list[str]) -> dict[str, str]:
    """Text of every file a job wrote; a directory contributes all its files."""
    out = {}
    for p in paths:
        names = ([os.path.join(p, n) for n in sorted(os.listdir(p))]
                 if os.path.isdir(p) else [p] if os.path.exists(p) else [])
        for name in names:
            with open(name) as fh:
                out[os.path.relpath(name, os.path.dirname(p))] = fh.read()
    return out


def parse(name: str, text: str):
    if name.endswith(".csv"):
        return list(csv.reader(io.StringIO(text)))
    return json.loads(text)


def _canon(obj):
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items() if k not in RESIDUAL_KEYS}
    if isinstance(obj, list):
        return [_canon(v) for v in obj]
    if isinstance(obj, str):
        try:
            return str(Decimal(obj).normalize())
        except InvalidOperation:
            return obj
    return obj


def value_digest(parsed: dict) -> str:
    """SHA-256 of the parsed values: equal numbers hash alike however printed."""
    text = json.dumps(_canon(parsed), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- oracles ---------------------------------------------------------------------

def agree_digits(x, ref) -> int:
    """Significant digits on which x agrees with ref, capped at ORACLE_CAP."""
    import mpmath as mp
    if x == ref:
        return ORACLE_CAP
    rel = abs(x - ref) / abs(ref)
    return max(0, min(ORACLE_CAP, int(mp.floor(mp.log10(5 / rel)))))


def _printed(pair_or_str):
    import mpmath as mp
    if isinstance(pair_or_str, list):
        return mp.mpc(mp.mpf(pair_or_str[0]), mp.mpf(pair_or_str[1]))
    return mp.mpf(pair_or_str)


def gram_build_oracle(spec: dict, obj: dict) -> list[int]:
    """<e_a, e_b> on (0,1) = (-a)^-(p+1) gamma(p+1, -a), a = lam_a + conj(lam_b)."""
    import mpmath as mp
    lam = spec_lambdas(spec)
    idx = obj["indices"]
    out = []
    with mp.workdps(2 * PRINTED_DIGITS):
        for i, (na, ka) in enumerate(idx):
            for j, (nb, kb) in enumerate(idx[:i + 1]):
                a = lam[na - 1] + mp.conj(lam[nb - 1])
                p = ka + kb
                ref = (-a) ** -(p + 1) * mp.gammainc(p + 1, 0, -a)
                out.append(agree_digits(_printed(obj["matrix"][i][j]), ref))
    return out


def halfline_oracle(spec: dict, obj: dict) -> list[int]:
    """D_n = (2 Re lam_n)^(-1/2) prod_{k!=n} |lam_n - lam_k| / |lam_n + conj(lam_k)|."""
    import mpmath as mp
    lam = spec_lambdas(spec)
    out = []
    with mp.workdps(2 * PRINTED_DIGITS):
        for row in obj["distances"]:
            n = row["n"]
            ref = 1 / mp.sqrt(2 * mp.re(lam[n - 1]))
            for k, lk in enumerate(lam[:len(obj["distances"])], start=1):
                if k != n:
                    ref *= abs(lam[n - 1] - lk) / abs(lam[n - 1] + mp.conj(lk))
            out.append(agree_digits(_printed(row["distance"]), ref))
    return out


_COS_K = 8  # cosine factors of the windowed product: the PrecisionContext default


def laurent_oracle(spec: dict, obj: dict) -> list[int]:
    """Leading coefficient mu!/G^(mu)(i lam_n) of 1/G by mp.diff at raised precision.

    G(z) = e^(-i sigma z) prod_m (1 + z^2/lam_m^2)^mu_m prod_k cos(tau 2^-k z)
    on (0, 1), written out here independently of the program.
    """
    import mpmath as mp
    lam = spec_lambdas(spec)
    mus = [e[2] for e in spec["entries"]]
    n, mu = obj["n"], mus[obj["n"] - 1]
    with mp.workdps(8 * PRINTED_DIGITS):
        sigma = tau = mp.mpf(1) / 2

        def G(z):
            val = mp.exp(-1j * sigma * z)
            for lm, m in zip(lam, mus):
                val *= (1 + z * z / (lm * lm)) ** m
            for k in range(1, _COS_K + 1):
                val *= mp.cos(tau * mp.mpf(2) ** -k * z)
            return val

        ref = mp.factorial(mu) / mp.diff(G, 1j * lam[n - 1], mu)
        return [agree_digits(_printed(obj["values"][mu - 1]), ref)]


# fixture -> multiplicity of its lambda_n = n^2 entries (condition-A oracle)
_SQUARE_FIXTURES = {"power": 1, "squares": 1, "example_i": 1, "example_iv": 2}


def condition_a_oracle(name: str, obj: dict) -> list[int]:
    """Partials of sum mu/|lambda_n| for the squares: exactly mu * sum 1/n^2."""
    import mpmath as mp
    mu = _SQUARE_FIXTURES.get(name)
    if mu is None:
        return []
    out, acc = [], Fraction(0)
    with mp.workdps(2 * PRINTED_DIGITS):
        for n, printed in enumerate(obj["condition_a"]["partials"], start=1):
            acc += Fraction(mu, n * n)
            out.append(agree_digits(mp.mpf(printed),
                                    mp.mpf(acc.numerator) / acc.denominator))
    return out


# -- the checker -----------------------------------------------------------------

def check(job, stdout: str, files: dict[str, str],
          expected: dict) -> tuple[list[str], list[str], list[int]]:
    """Wrong results, known defects and oracle digits of one job that exited 0.

    expected holds this job's recorded "digits_used" and "digest" (either
    may be absent).
    """
    try:
        obj = json.loads(stdout) if stdout else {}  # `run` writes files only
        parsed = {"stdout": obj, "files": {k: parse(k, v) for k, v in files.items()}}
    except (json.JSONDecodeError, csv.Error) as exc:
        return [f"unparseable output: {exc}"], [], []
    try:
        return _check(job, obj, parsed, expected)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"unexpected output shape: {type(exc).__name__}: {exc}"], [], []


def _check(job, obj: dict, parsed: dict,
           expected: dict) -> tuple[list[str], list[str], list[int]]:
    import mpmath as mp
    fails: list[str] = []
    known: list[str] = []
    outputs = [(name, o) for name, o in [("stdout", obj), *parsed["files"].items()]
               if isinstance(o, dict)]
    want_digits = expected.get("digits_used")
    for name, o in outputs:
        if "digits_used" not in o:
            continue
        if want_digits is not None and o["digits_used"] != want_digits:
            fails.append(f"{name}: digits_used {o['digits_used']} != recorded {want_digits}")
        if "identity_residual" in o:
            floor = mp.mpf(10) ** (-mp.mpf(o["digits_used"]) / 2)
            if not mp.mpf(o["identity_residual"]) < floor:
                fails.append(f"{name}: identity_residual {o['identity_residual']} "
                             f"not below 1e-{o['digits_used'] / 2:g}")
    if "moment_residual" in job.check:
        if want_digits is None:
            fails.append("no recorded digits_used for the moment residual floor")
        elif not mp.mpf(obj["residual_max"]) < mp.mpf(10) ** (-mp.mpf(want_digits) / 3):
            fails.append(f"residual_max {obj['residual_max']} not below "
                         f"1e-{want_digits / 3:g}")
    if "laurent" in job.check and obj.get("converged") is not True:
        known.append("laurent quadrature did not converge")
    if "annihilation_floor" in job.check:
        floor = mp.mpf(10) ** (-job.check["annihilation_floor"] // 2)
        for name, o in outputs:
            for key in ANNIHILATION_KEYS & o.keys():
                if not mp.mpf(o[key]) < floor:
                    fails.append(f"{name}: {key} {o[key]} not below {mp.nstr(floor, 3)}")
    if expected.get("digest") not in (None, value_digest(parsed)):
        fails.append("printed values differ from the recorded reference")
    digits: list[int] = []
    if "gram_build_oracle" in job.check:
        digits += gram_build_oracle(job.check["gram_build_oracle"], obj)
    if "halfline_oracle" in job.check:
        digits += halfline_oracle(job.check["halfline_oracle"], obj)
    if "laurent" in job.check:
        digits += laurent_oracle(job.check["laurent"], obj)
    if "condition_a" in job.check:
        digits += condition_a_oracle(job.check["condition_a"], obj)
    if digits and min(digits) < REQUIRED_DIGITS:
        fails.append(f"agrees with its oracle on only {min(digits)} digits")
    return fails, known, digits
