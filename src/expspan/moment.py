"""Moment problem <f, e_{n,k}> = d_{n,k} at finite truncation.

The growth gate checks the fitted exponent of the data against the
interval's right endpoint.  The solve is one Gram linear system: the
series-of-duals construction and the Bessel/Riesz-Fischer route collapse
to the same finite solve, so the latter is exposed purely as diagnostics.
That solve is `gram.recover_coefficients`, the coefficients <f, r_a> from
one solve with the Cholesky factorization; only the Bessel diagnostic
builds the full biorthogonal family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp

from .core import FlatIndex, Interval, MultiplicitySequence, PrecisionContext, Sector
from .errors import ConfigError, DomainError, ExpspanError
from .fixtures import read_json
from .gram import GramSystem, biorthogonal, gram_matrix, recover_coefficients
from .series import TaylorDirichletSeries, bound_check, coeff_rows, tail_abscissa

# ratio below which the fitted exponent is reported as effectively -inf
_VERY_NEGATIVE = mp.mpf(-10)


@dataclass(frozen=True)
class MomentData:
    """Prescribed inner products d_{n,k}; missing indices are zero."""

    values: dict[FlatIndex, mp.mpc] = field(default_factory=dict)

    def value(self, n: int, k: int) -> mp.mpc:
        return self.values.get(FlatIndex(n, k), mp.mpc(0))

    def group_max(self, n: int, mu: int) -> mp.mpf:
        """A_n = max_k |d_{n,k}|."""
        return max((abs(self.value(n, k)) for k in range(mu)), default=mp.mpf(0))


@dataclass(frozen=True)
class GrowthReport:
    a: mp.mpf
    ratios: tuple
    slack: mp.mpf
    beta: mp.mpf
    passed: bool
    effectively_minus_inf: bool


def growth_check(d: MomentData, seq: MultiplicitySequence, N: int,
                 interval: Interval) -> GrowthReport:
    """Fitted a = max tail-half of log A_n / Re lambda_n, gated against beta.

    Passes when a < beta - slack, with slack 5% of the interval length.
    Data decaying faster than e^(-10 Re lambda_n) throughout is reported as
    a = -inf.
    """
    seq.check_prefix(N)
    if N < 4:
        raise ConfigError("need data at at least 4 frequencies")
    slack = mp.mpf("0.05") * interval.length
    a, ratios = tail_abscissa([d.group_max(n, seq.mu(n)) for n in range(1, N + 1)], seq)
    very_neg = (all(r < _VERY_NEGATIVE for r in ratios if mp.isfinite(r))
                or not mp.isfinite(a))
    return GrowthReport(a=a, ratios=tuple(ratios), slack=slack,
                        beta=interval.beta,
                        passed=bool(a < interval.beta - slack),
                        effectively_minus_inf=very_neg)


class GrowthGateError(DomainError):
    """Moment data grows too fast for the interval; pass force=True to override."""


@dataclass(frozen=True)
class MomentSolution:
    series: TaylorDirichletSeries
    gram: GramSystem
    gate: GrowthReport
    residual_max: mp.mpf
    forced: bool
    coefficient_bound: object  # BoundReport of the solution coefficients


def solve(d: MomentData, seq: MultiplicitySequence, N: int, interval: Interval,
          ctx: PrecisionContext, force: bool = False) -> MomentSolution:
    """Unique truncated-span solution of the moment equations.

    Solves conj(M) u = d, that is u_a = <U, r_a> by `recover_coefficients`,
    so that <U, e_a> = d_a exactly in exact arithmetic;
    the achieved residual is verified against 10^(-digits/3).  The solution
    coefficients are also run through the coefficient-bound check, which
    must look bounded whenever the growth gate passed.  A data row that
    addresses no element of the system is refused before any work.
    """
    seq.check_indices(d.values, "moment")
    gate = growth_check(d, seq, N, interval)
    if not gate.passed and not force:
        raise GrowthGateError(
            f"fitted growth a={mp.nstr(gate.a, 8)} not below "
            f"beta - slack = {mp.nstr(gate.beta - gate.slack, 8)}; "
            "pass force=True to solve anyway")
    g = gram_matrix(seq, N, interval, ctx)
    idx = list(g.indices)
    with mp.workdps(g.digits_used):
        rhs = mp.matrix([d.value(ix.n, ix.k) for ix in idx])
        u = recover_coefficients(g, rhs)
        resid = mp.mpf(0)
        for a in range(len(idx)):
            acc = mp.mpc(0)
            for b in range(len(idx)):
                acc += g.matrix[b, a] * u[b]
            resid = max(resid, abs(acc - rhs[a]))
        floor = mp.mpf(10) ** (-g.digits_used // 3)
        if not resid < floor:
            raise ExpspanError(
                f"moment residual {mp.nstr(resid, 5)} breaches floor {mp.nstr(floor, 5)}")
    eta = seq.max_arg(N)
    sector = Sector(eta, interval.beta)
    sol = TaylorDirichletSeries(seq=seq,
                                coeffs={ix: u[i] for i, ix in enumerate(idx)},
                                claimed_sector=sector)
    cb = bound_check(sol, interval.beta, (interval.beta - gate.a) / 6
                     if mp.isfinite(gate.a) and gate.a < interval.beta
                     else mp.mpf("0.25"))
    return MomentSolution(series=sol, gram=g, gate=gate, residual_max=resid,
                          forced=not gate.passed, coefficient_bound=cb)


@dataclass(frozen=True)
class BesselReport:
    """Absolute row sums of the scaled dual family's Gram.

    Entry (a, b) is <U_a, U_b> with U_{n,k} = lambda_n d_{n,k} r_{n,k};
    finite, decaying row sums are the finite-scale Bessel evidence.
    """

    indices: tuple[FlatIndex, ...]
    row_sums: tuple
    total: mp.mpf
    row_sums_decay: bool


def bessel_diagnostic(d: MomentData, seq: MultiplicitySequence, N: int,
                      interval: Interval, ctx: PrecisionContext) -> BesselReport:
    seq.check_indices(d.values, "moment")
    if N >= 4:  # the growth gate needs a few frequencies to fit anything
        gate = growth_check(d, seq, N, interval)
        if not gate.passed:
            raise GrowthGateError("growth gate fails; Bessel diagnostics are meaningless")
    g = gram_matrix(seq, N, interval, ctx)
    fam = biorthogonal(g)
    idx = list(g.indices)
    with mp.workdps(g.digits_used):
        scale = [seq.lam(ix.n) * d.value(ix.n, ix.k) for ix in idx]
        rows = []
        total = mp.mpf(0)
        for a in range(len(idx)):
            s = mp.mpf(0)
            for b in range(len(idx)):
                s += abs(scale[a] * mp.conj(scale[b]) * fam.coeffs[a, b])
            rows.append(s)
            total += s
    # per-frequency row sums (k = 0 representative); the envelope only
    # controls the tail, so decay is judged on the tail half
    per_n = [rows[i] for i, ix in enumerate(idx) if ix.k == 0]
    tail = per_n[len(per_n) // 2 - 1:]
    decay = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    return BesselReport(indices=tuple(idx), row_sums=tuple(rows), total=total,
                        row_sums_decay=decay)


# -- JSON format (mirrors the series coefficient rows) -------------------------

def moments_from_obj(obj) -> MomentData:
    rows = obj.get("values") if isinstance(obj, dict) else obj
    if not isinstance(rows, list):
        raise ConfigError("moment data must be a list of [n, k, re, im] rows")
    try:
        return MomentData(values=coeff_rows(rows))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad moment row: {exc}") from exc


def load_moments(path: str) -> MomentData:
    return moments_from_obj(read_json(path, "moments file"))
