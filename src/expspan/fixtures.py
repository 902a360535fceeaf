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
the caller's precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

from .core import MultiplicitySequence, read_count, read_number
from .errors import ConfigError

# extra decimal digits kept when materialising generator entries
_GEN_GUARD = 30


def _pair_entries(n_terms: int, gap_log: Callable[[int], mp.mpf]) -> list:
    """lambda_{2n-1} = n^2 and lambda_{2n} = n^2 + exp(gap_log(n)), mu = 1.

    gap_log(n) is the (negative) natural log of the near-duplicate offset;
    precision is raised per entry so the offset is not absorbed.
    """
    out = []
    for n in range(1, n_terms + 1):
        need = int(-gap_log(n) / mp.log(10)) + _GEN_GUARD
        with mp.workdps(max(mp.mp.dps, need)):
            base = mp.mpf(n) ** 2
            out.append((mp.mpc(base), 1))
            out.append((mp.mpc(base + mp.exp(gap_log(n))), 1))
    return out


def _count_param(params: dict, key: str, default: int) -> int:
    return read_count(params.get(key, default), f"generator param {key!r}")


def _gen_power(n_terms: int, params: dict) -> list:
    p = read_number(str(params.get("exponent", 2)), "generator param 'exponent'", real=True)
    mu = _count_param(params, "mu", 1)
    return [(mp.mpc(mp.mpf(n) ** p), mu) for n in range(1, n_terms + 1)]


def _gen_example_i(n_terms: int, params: dict) -> list:
    # separated positive reals with a convergent reciprocal sum
    return _gen_power(n_terms, {"exponent": 2, "mu": 1})


def _gen_example_ii(n_terms: int, params: dict) -> list:
    return _pair_entries(n_terms, lambda n: -mp.mpf(n))


def _gen_example_iii(n_terms: int, params: dict) -> list:
    return _pair_entries(n_terms, lambda n: -mp.mpf(n) ** 2)


def _gen_example_iv(n_terms: int, params: dict) -> list:
    mu = _count_param(params, "mu", 2)
    return [(mp.mpc(mp.mpf(n) ** 2), mu) for n in range(1, n_terms + 1)]


def _gen_example_v(n_terms: int, params: dict) -> list:
    base = _count_param(params, "base", 3)
    mu_base = _count_param(params, "mu_base", 2)
    return [(mp.mpc(mp.mpf(base) ** n), mu_base ** n) for n in range(1, n_terms + 1)]


def _gen_example_vi(n_terms: int, params: dict) -> list:
    return [(mp.mpc(mp.mpf(n) ** 2 * mp.mpf(10) ** n), 10 ** n)
            for n in range(1, n_terms + 1)]


def _gen_counterexample(n_terms: int, params: dict) -> list:
    return _pair_entries(n_terms, lambda n: -mp.mpf(n) ** 4)


@dataclass(frozen=True)
class FixtureInfo:
    name: str
    description: str
    paired: bool = False


_GENERATORS: dict[str, tuple[Callable, FixtureInfo]] = {
    "power": (_gen_power, FixtureInfo(
        "power", "lambda_n = n^exponent with constant mu (params: exponent, mu)")),
    "squares": (_gen_example_i, FixtureInfo(
        "squares", "lambda_n = n^2, mu = 1 (alias of example_i)")),
    "example_i": (_gen_example_i, FixtureInfo(
        "example_i", "separated reals lambda_n = n^2, mu = 1")),
    "example_ii": (_gen_example_ii, FixtureInfo(
        "example_ii", "pairs n^2 and n^2 + e^(-n), mu = 1", paired=True)),
    "example_iii": (_gen_example_iii, FixtureInfo(
        "example_iii", "pairs n^2 and n^2 + e^(-n^2), mu = 1", paired=True)),
    "example_iv": (_gen_example_iv, FixtureInfo(
        "example_iv", "lambda_n = n^2 with constant mu (params: mu, default 2)")),
    "example_v": (_gen_example_v, FixtureInfo(
        "example_v", "lambda_n = 3^n, mu_n = 2^n (params: base, mu_base)")),
    "example_vi": (_gen_example_vi, FixtureInfo(
        "example_vi", "lambda_n = n^2 10^n, mu_n = 10^n")),
    "carleson_counterexample": (_gen_counterexample, FixtureInfo(
        "carleson_counterexample", "pairs n^2 and n^2 + e^(-n^4), mu = 1", paired=True)),
}


def list_fixtures() -> list[FixtureInfo]:
    return [info for _, info in _GENERATORS.values()]


def fixture(name: str, n_terms: int, **params) -> MultiplicitySequence:
    """Materialise a named generator; n_terms counts formula indices."""
    if name not in _GENERATORS:
        raise ConfigError(f"unknown fixture {name!r}; known: {sorted(_GENERATORS)}")
    if n_terms < 1:
        raise ConfigError("n_terms must be >= 1")
    gen, _ = _GENERATORS[name]
    return MultiplicitySequence(entries=tuple(gen(n_terms, params)),
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
        return fixture(str(name), read_count(terms, "generator 'terms'"), **params)
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
