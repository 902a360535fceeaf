"""Built-in frequency sequences and the JSON sequence-file format.

Named generators make "infinite" sequences usable: a generator plus a term
count materialises a finite prefix.  For paired constructions (two
frequencies per formula index) the term count is the number of formula
indices, so ``fixture("example_iii", 12)`` yields 24 entries.

Entries with near-coincident frequencies (gaps like e^(-n^2) or e^(-n^4))
are materialised at elevated precision so the gap survives in the stored
values regardless of the caller's working precision.

Sequence spec files are JSON:

    {"kind": "explicit", "entries": [[re, im, mu], ...]}
    {"kind": "generator", "name": "example_v", "params": {...}, "terms": 8}

re/im may be numbers or decimal strings; strings keep every digit, whatever
the caller's precision.  A generator takes only the params it declares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
from mpmath.libmp import mpf_add, mpf_exp, mpf_shift, mpf_sub, round_nearest

from .core import MultiplicitySequence, read_count, read_number
from .errors import ConfigError

# extra decimal digits kept when materialising generator entries
_GEN_GUARD = 30


def _pair_entries(n_terms: int, gap_log: Callable[[int], mp.mpf]) -> list:
    """lambda_{2n-1} = n^2 and lambda_{2n} = n^2 + exp(gap_log(n)), mu = 1.

    gap_log(n) is the (negative) natural log of the near-duplicate offset;
    precision is raised per entry so the offset is not absorbed.  Each sum is
    the one that base + mp.exp(gap_log(n)) rounds at that precision, bit for
    bit; `_offset_sum` mostly takes it from a short exponential.
    """
    out = []
    for n in range(1, n_terms + 1):
        need = int(-gap_log(n) / mp.log(10)) + _GEN_GUARD
        with mp.workdps(max(mp.mp.dps, need)):
            base = mp.mpf(n) ** 2
            out.append((mp.mpc(base), 1))
            gap = gap_log(n)
            total = _offset_sum(base, gap)
            out.append((mp.mpc(base + mp.exp(gap) if total is None else total), 1))
    return out


def _offset_sum(base: mp.mpf, g: mp.mpf) -> mp.mpf | None:
    """base + e^g as base + mp.exp(g) rounds it at the working precision p,
    from e^g at w = 128, 256, ... bits while w < p - 8; None when no such w
    decides it.

    Ziv's rounding test (ACM TOMS 17, 1991): x = e^g at w bits, rounded to
    nearest from mpmath's guard bits, lies within about half an ulp of e^g,
    and mp.exp(g) at p >= w + 9 bits within 1/512 of an ulp at w.  So both lie
    in [x - h, x + h] with h = |x| 2^(1-w), at least an ulp of x; x - h and
    x + h are exact, and each sum with base is rounded once.  Rounding is
    monotonic, so when base + (x - h) and base + (x + h) round to one value
    at p, base + mp.exp(g) rounds to it too.  Only about 30 digits of a tiny
    offset survive the sum, so at n = 12 of carleson_counterexample a 128-bit
    e^g decides a sum of some 30,000 bits, where mp.exp(g) would take all of
    them.  A small n, whose offset keeps bits beyond w, takes mp.exp(g).
    """
    prec, rnd = mp.mp._prec_rounding
    base, g = base._mpf_, g._mpf_
    w = 128
    while w < prec - 8:
        x = mpf_exp(g, w, round_nearest)
        h = mpf_shift(x, 1 - w)
        low = mpf_add(base, mpf_sub(x, h), prec, rnd)
        if low == mpf_add(base, mpf_add(x, h), prec, rnd):
            return mp.make_mpf(low)
        w *= 2
    return None


def _gen_power(n_terms: int, exponent, mu: int) -> list:
    return [(mp.mpc(mp.mpf(n) ** exponent), mu) for n in range(1, n_terms + 1)]


def _gen_example_i(n_terms: int) -> list:
    # separated positive reals with a convergent reciprocal sum
    return _gen_power(n_terms, mp.mpf(2), 1)


def _gen_example_ii(n_terms: int) -> list:
    return _pair_entries(n_terms, lambda n: -mp.mpf(n))


def _gen_example_iii(n_terms: int) -> list:
    return _pair_entries(n_terms, lambda n: -mp.mpf(n) ** 2)


def _gen_example_iv(n_terms: int, mu: int) -> list:
    return [(mp.mpc(mp.mpf(n) ** 2), mu) for n in range(1, n_terms + 1)]


def _gen_example_v(n_terms: int, base: int, mu_base: int) -> list:
    return [(mp.mpc(mp.mpf(base) ** n), mu_base ** n) for n in range(1, n_terms + 1)]


def _gen_example_vi(n_terms: int) -> list:
    return [(mp.mpc(mp.mpf(n) ** 2 * mp.mpf(10) ** n), 10 ** n)
            for n in range(1, n_terms + 1)]


def _gen_counterexample(n_terms: int) -> list:
    return _pair_entries(n_terms, lambda n: -mp.mpf(n) ** 4)


@dataclass(frozen=True)
class FixtureInfo:
    name: str
    description: str
    paired: bool = False


def _real(value, name: str):
    return read_number(str(value), name, real=True)


# name -> (generator, info, {param: (reader, default)}); a multiplicity param has
# no lower bound here, so that `validate` can load and report mu <= 0
_GENERATORS: dict[str, tuple[Callable, FixtureInfo, dict]] = {
    "power": (_gen_power, FixtureInfo(
        "power", "lambda_n = n^exponent with constant mu (params: exponent, mu)"),
        {"exponent": (_real, 2), "mu": (read_count, 1)}),
    "squares": (_gen_example_i, FixtureInfo(
        "squares", "lambda_n = n^2, mu = 1 (alias of example_i)"), {}),
    "example_i": (_gen_example_i, FixtureInfo(
        "example_i", "separated reals lambda_n = n^2, mu = 1"), {}),
    "example_ii": (_gen_example_ii, FixtureInfo(
        "example_ii", "pairs n^2 and n^2 + e^(-n), mu = 1", paired=True), {}),
    "example_iii": (_gen_example_iii, FixtureInfo(
        "example_iii", "pairs n^2 and n^2 + e^(-n^2), mu = 1", paired=True), {}),
    "example_iv": (_gen_example_iv, FixtureInfo(
        "example_iv", "lambda_n = n^2 with constant mu (params: mu, default 2)"),
        {"mu": (read_count, 2)}),
    "example_v": (_gen_example_v, FixtureInfo(
        "example_v", "lambda_n = 3^n, mu_n = 2^n (params: base, mu_base)"),
        {"base": (read_count, 3), "mu_base": (read_count, 2)}),
    "example_vi": (_gen_example_vi, FixtureInfo(
        "example_vi", "lambda_n = n^2 10^n, mu_n = 10^n"), {}),
    "carleson_counterexample": (_gen_counterexample, FixtureInfo(
        "carleson_counterexample", "pairs n^2 and n^2 + e^(-n^4), mu = 1", paired=True), {}),
}


def list_fixtures() -> list[FixtureInfo]:
    return [info for _, info, _ in _GENERATORS.values()]


def fixture(name: str, n_terms: int, **params) -> MultiplicitySequence:
    """Materialise a named generator; n_terms counts formula indices.  Each
    param the generator declares is read as a count or a real number, and a
    param it does not declare is a ConfigError."""
    if name not in _GENERATORS:
        raise ConfigError(f"unknown fixture {name!r}; known: {sorted(_GENERATORS)}")
    n_terms = read_count(n_terms, "n_terms", least=1)
    gen, _, declared = _GENERATORS[name]
    for key in params:
        if key not in declared:
            raise ConfigError(f"generator {name!r} has no param {key!r}; "
                              f"known: {', '.join(declared) or 'none'}")
    kw = {key: read(params.get(key, default), f"generator param {key!r}")
          for key, (read, default) in declared.items()}
    return MultiplicitySequence(entries=tuple(gen(n_terms, **kw)),
                                provenance=f"{name}({n_terms})")


def _exact_mpc(re: str, im: str) -> mp.mpc:
    """re + i im at one digit per character plus _GEN_GUARD, so no written digit is lost."""
    with mp.workdps(max(mp.mp.dps, max(len(re), len(im)) + _GEN_GUARD)):
        return mp.mpc(mp.mpmathify(re), mp.mpmathify(im))


def sequence_from_spec(spec: dict, default_terms: int | None = None) -> MultiplicitySequence:
    """Build a sequence from a parsed JSON spec object."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("sequence spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "explicit":
        entries = spec.get("entries")
        if not isinstance(entries, list) or not entries:
            raise ConfigError("explicit spec needs a non-empty 'entries' list")
        try:
            rows = [(_exact_mpc(str(e[0]), str(e[1])), read_count(e[2], "multiplicity"))
                    for e in entries]
        except (IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad entry in sequence spec: {exc}") from exc
        for i, (lam, _) in enumerate(rows, 1):
            if not mp.isfinite(lam):
                raise ConfigError(f"sequence entry {i} must be finite, got "
                                  f"{entries[i - 1][0]!r}, {entries[i - 1][1]!r}")
        return MultiplicitySequence.from_pairs(rows,
                                               provenance=spec.get("provenance", "explicit"))
    if kind == "generator":
        name = spec.get("name")
        terms = spec.get("terms", default_terms)
        params = spec.get("params", {})
        if name is None or terms is None:
            raise ConfigError("generator spec needs 'name' and 'terms'")
        if not isinstance(params, dict):
            raise ConfigError(f"generator 'params' must be an object, got {params!r}")
        return fixture(str(name), read_count(terms, "generator 'terms'", least=1), **params)
    raise ConfigError(f"unknown sequence spec kind {kind!r}")


def read_json(path: str, what: str):
    """Parsed JSON of an input file; `what` names the file in the ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON, or bytes that are not text
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_sequence(path: str, default_terms: int | None = None) -> MultiplicitySequence:
    return sequence_from_spec(read_json(path, "sequence file"), default_terms=default_terms)
