"""Taylor-Dirichlet series as data: evaluation with an honest tail bound,
abscissa estimation from coefficient decay, and the coefficient-bound check
that mirrors analyticity in the claimed sector.

A series is sum_n (sum_k c_{n,k} z^k) e^(lambda_n z).  The star
coefficients C_n = max_k |c_{n,k}| drive both the abscissa estimate and
the geometric tail envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp

from .core import FlatIndex, MultiplicitySequence, Sector, read_count, read_number
from .errors import ConfigError, DomainError
from .fixtures import read_json, sequence_from_spec


@dataclass(frozen=True)
class TaylorDirichletSeries:
    seq: MultiplicitySequence
    coeffs: dict[FlatIndex, mp.mpc] = field(default_factory=dict)
    claimed_sector: Sector = field(default_factory=lambda: Sector(mp.mpf(0), mp.mpf(0)))

    def __post_init__(self):
        for idx in self.coeffs:
            if not (1 <= idx.n <= self.seq.size and 0 <= idx.k < self.seq.mu(idx.n)):
                raise ConfigError(f"coefficient index {idx} outside multiplicity bounds")

    def coeff(self, n: int, k: int) -> mp.mpc:
        return self.coeffs.get(FlatIndex(n, k), mp.mpc(0))

    def star_coefficient(self, n: int) -> mp.mpf:
        """C_n = max_k |c_{n,k}|."""
        return max((abs(self.coeff(n, k)) for k in range(self.seq.mu(n))),
                   default=mp.mpf(0))

    def frequencies_used(self) -> list[int]:
        return sorted({idx.n for idx, c in self.coeffs.items() if c != 0})


@dataclass(frozen=True)
class EvalResult:
    value: mp.mpc
    tail_bound: mp.mpf
    terms_used: int


def td_eval(s: TaylorDirichletSeries, z, N: int) -> EvalResult:
    """Partial sum over n <= N plus a geometric tail bound.

    The bound fits the coefficient envelope m = max C_n e^((beta-eps) Re
    lambda_n), sums the envelope terms over the known frequencies beyond N,
    and closes with a geometric extrapolation; eps = (beta - Re z)/4.  The
    envelope reads every entry, so the whole sequence passes `check_prefix`.
    Evaluation outside the claimed sector is refused with the violated
    inequality.
    """
    s.seq.check_prefix(N)
    s.seq.check_prefix(s.seq.size)
    z = mp.mpc(z)
    bad = s.claimed_sector.violation(z)
    if bad is not None:
        raise DomainError(f"z outside claimed sector: {bad}")
    value = mp.mpc(0)
    terms = 0
    for n in range(1, N + 1):
        poly = mp.mpc(0)
        for k in range(s.seq.mu(n)):
            c = s.coeff(n, k)
            if c != 0:
                poly += c * z ** k
                terms += 1
        if poly != 0:
            value += poly * mp.exp(s.seq.lam(n) * z)
    beta = s.claimed_sector.beta
    eps = (beta - mp.re(z)) / 4
    m_hat = bound_check(s, beta, eps).m_hat
    grow = max(mp.mpf(1), abs(z))
    envelope = []
    for n in range(N + 1, s.seq.size + 1):
        mu = s.seq.mu(n)
        envelope.append(m_hat * mu * grow ** mu
                        * mp.exp((mp.re(z) - beta + 2 * eps) * mp.re(s.seq.lam(n))))
    tail = sum(envelope, mp.mpf(0))
    if len(envelope) >= 2 and envelope[-2] > 0:
        q = envelope[-1] / envelope[-2]
        if q < 1:
            tail += envelope[-1] * q / (1 - q)
    return EvalResult(value=value, tail_bound=mp.mpf(tail), terms_used=terms)


@dataclass(frozen=True)
class AbscissaReport:
    """Fitted limsup of log C_n / Re lambda_n and the sector apex it implies."""

    a: mp.mpf
    implied_beta: mp.mpf
    ratios: tuple


def tail_abscissa(mags: list, seq: MultiplicitySequence) -> tuple[mp.mpf, list]:
    """(a, ratios): ratio_n = log m_n / Re lambda_n for mags[n-1] = m_n, -inf where
    m_n = 0; a is the max of the finite ratios over the tail half, -inf if none."""
    ratios = [mp.log(m) / mp.re(seq.lam(n)) if m > 0 else mp.mpf("-inf")
              for n, m in enumerate(mags, 1)]
    tail = [r for r in ratios[len(mags) // 2:] if mp.isfinite(r)]
    return (max(tail) if tail else mp.mpf("-inf")), ratios


def star_abscissa(s: TaylorDirichletSeries, N: int) -> AbscissaReport:
    """Estimate the growth abscissa as the max tail-half ratio.

    Frequencies with zero star coefficient are skipped (log 0 would poison
    the max).  The implied maximal sector apex is -a.
    """
    s.seq.check_prefix(N)
    if N < 6:
        raise ConfigError("need N >= 6")
    a, ratios = tail_abscissa([s.star_coefficient(n) for n in range(1, N + 1)], s.seq)
    return AbscissaReport(a=a, implied_beta=-a, ratios=tuple(ratios))


@dataclass(frozen=True)
class BoundReport:
    m_hat: mp.mpf
    argmax: FlatIndex | None
    verdict: str  # "bounded" | "blow-up"


def bound_check(s: TaylorDirichletSeries, beta, eps, N: int | None = None) -> BoundReport:
    """Fitted constant max |c_{n,k}| e^((beta-eps) Re lambda_n) over the
    coefficients with n <= N (default: all).  The prefix read, N or else the
    one the coefficients cover, passes `check_prefix` as in `td_eval`.

    Bounded verdict when the max is attained in the first half of 1..N
    (default: the sequence); a max attained at the end signals exponent blow-up.
    """
    coeffs = sorted((idx, c) for idx, c in s.coeffs.items() if N is None or idx.n <= N)
    read = N if N is not None else max((idx.n for idx, _ in coeffs), default=None)
    if read is not None:
        s.seq.check_prefix(read)
    eps = mp.mpf(eps)
    if not eps > 0:
        raise ConfigError("eps must be positive")
    beta = mp.mpf(beta)
    m_hat = mp.mpf(0)
    argmax = None
    for idx, c in coeffs:
        val = abs(c) * mp.exp((beta - eps) * mp.re(s.seq.lam(idx.n)))
        if val > m_hat:
            m_hat = val
            argmax = idx
    if argmax is None:
        return BoundReport(m_hat=mp.mpf(0), argmax=None, verdict="bounded")
    half = (s.seq.size if N is None else N) // 2
    verdict = "bounded" if argmax.n <= max(1, half) else "blow-up"
    return BoundReport(m_hat=m_hat, argmax=argmax, verdict=verdict)


# -- JSON format ---------------------------------------------------------------

def series_to_obj(s: TaylorDirichletSeries, dps: int = 30) -> dict:
    rows = [[idx.n, idx.k, mp.nstr(mp.re(c), dps), mp.nstr(mp.im(c), dps)]
            for idx, c in sorted(s.coeffs.items())]
    seq_rows = [[mp.nstr(mp.re(lam), dps), mp.nstr(mp.im(lam), dps), mu]
                for lam, mu in s.seq.entries]
    return {"seq": {"kind": "explicit", "entries": seq_rows,
                    "provenance": s.seq.provenance},
            "coeffs": rows,
            "sector": {"eta": mp.nstr(s.claimed_sector.eta, dps),
                       "beta": mp.nstr(s.claimed_sector.beta, dps)}}


def coeff_rows(rows) -> dict[FlatIndex, mp.mpc]:
    """Coefficients from the [n, k, re, im] rows of series and moments files.
    n >= 1 and k >= 0 are counts (`read_count`); a repeated (n, k) or a
    coefficient that is not finite is a ConfigError."""
    out = {}
    for n, k, re, im in rows:
        n, k = read_count(n, "row index n", least=1), read_count(k, "row power k", least=0)
        if (n, k) in out:
            raise ConfigError(f"coefficient ({n}, {k}) is given twice")
        c = mp.mpc(mp.mpmathify(str(re)), mp.mpmathify(str(im)))
        if not mp.isfinite(c):
            raise ConfigError(f"coefficient ({n}, {k}) must be finite, got {re!r}, {im!r}")
        out[FlatIndex(n, k)] = c
    return out


def series_from_obj(obj: dict) -> TaylorDirichletSeries:
    try:
        seq = sequence_from_spec(obj["seq"])
        sector = Sector(*(read_number(str(obj["sector"][key]), f"sector {key!r}", real=True)
                          for key in ("eta", "beta")))
        coeffs = coeff_rows(obj["coeffs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad series object: {exc}") from exc
    return TaylorDirichletSeries(seq=seq, coeffs=coeffs, claimed_sector=sector)


def load_series(path: str) -> TaylorDirichletSeries:
    return series_from_obj(read_json(path, "series file"))
