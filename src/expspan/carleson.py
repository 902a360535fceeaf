"""The infinite-order constant-coefficient operator built from the truncated
plain product, acting through its Maclaurin coefficients.

At truncation the product is a polynomial, so the operator has finite
order and annihilates the truncated exponential system exactly (up to
roundoff); raising the truncation probes the infinite-order behaviour.
Also houses the positive-coefficient majorant series used for the class
membership check and the grouping counterexample experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from .core import Interval, MultiplicitySequence, PrecisionContext
from .errors import ConfigError, DomainError, PrecisionError
from .products import ProductKind, taylor_coeffs
from .series import TaylorDirichletSeries

# guard digits for coefficient-space evaluation (Horner cancellation)
_GUARD = 40


@dataclass(frozen=True)
class CarlesonOperator:
    """Maclaurin coefficients of the truncated plain product.

    fcoeffs: coefficients of the plain product (a polynomial of degree
    `degree` = total multiplicity of the prefix; entries beyond are zero).
    """

    seq: MultiplicitySequence
    N: int
    fcoeffs: tuple
    degree: int


def carleson_operator(seq: MultiplicitySequence, N: int,
                      ctx: PrecisionContext) -> CarlesonOperator:
    degree = seq.total_multiplicity(N)
    f = taylor_coeffs(ProductKind.F_PLAIN, seq, N, degree, ctx)
    return CarlesonOperator(seq=seq, N=N, fcoeffs=tuple(f), degree=degree)


def exp_monomial_derivative(lam, k: int, m: int, x) -> mp.mpc:
    """m-th derivative of t^k e^(lam t) at x, by the Leibniz rule."""
    lam = mp.mpc(lam)
    x = mp.mpc(x)
    total = mp.mpc(0)
    for j in range(min(k, m) + 1):
        total += math.comb(m, j) * math.perm(k, j) * x ** (k - j) * lam ** (m - j)
    return total * mp.exp(lam * x)


def apply_to_exponential(op: CarlesonOperator, lam, ks: Sequence[int], xs,
                         ctx: PrecisionContext) -> list[list[mp.mpc]]:
    """Apply the operator to t^k e^(lam t) for each k of ks at each point of
    xs via the Leibniz expansion: one row of values per k.

    Equals e^(lam x) sum_j (k!/(k-j)!) x^(k-j) F_poly^(j)(lam)/j!; for k=0
    this is the eigen-relation F(lam) e^(lam x), and for a truncated
    frequency with k < mu_n the value vanishes to the precision floor.  The
    table F_poly^(j)(lam)/j! and the exponentials e^(lam x) are built once
    for every k and point, the table only up to j = degree: past it the
    derivatives of the polynomial are exact zeros.
    """
    with mp.workdps(ctx.digits + _GUARD):
        # mp.mpc(z) would round even an mpc z to the ambient precision
        lam = lam if isinstance(lam, mp.mpc) else mp.mpc(lam)
        ds = []
        for j in range(min(max(ks, default=0), op.degree) + 1):
            # F^(j)(lam)/j! by Horner on the shifted coefficient list
            dj = mp.mpc(0)
            for m in reversed(range(j, op.degree + 1)):
                dj = dj * lam + op.fcoeffs[m] * math.comb(m, j)
            ds.append(dj)
        xs = [mp.mpc(x) for x in xs]
        exps = [mp.exp(lam * x) for x in xs]
        out = []
        for k in ks:
            row = []
            for x, ex in zip(xs, exps):
                total = mp.mpc(0)
                for j, dj in enumerate(ds[:k + 1]):
                    total += math.perm(k, j) * x ** (k - j) * dj
                row.append(total * ex)
            out.append(row)
    return out


@dataclass(frozen=True)
class ResidualReport:
    sup_residual: mp.mpf
    scale: mp.mpf
    grid: tuple


def residual_on_span(op: CarlesonOperator, s: TaylorDirichletSeries,
                     grid, ctx: PrecisionContext) -> ResidualReport:
    """sup over the grid of |F(D) s| for a series supported on the prefix.

    Frequencies outside the operator's truncation are not annihilated and
    are refused.
    """
    used = s.frequencies_used()
    if any(n > op.N for n in used):
        raise DomainError(
            f"series uses frequencies {[n for n in used if n > op.N]} beyond the "
            f"operator truncation N={op.N}; they are not annihilated")
    scale = max((abs(c) for c in s.coeffs.values()), default=mp.mpf(1))
    pts = tuple(mp.mpf(x) for x in grid)
    # one application per frequency, for all of its k
    groups = {}
    for idx, c in s.coeffs.items():
        if c != 0:
            groups.setdefault(idx.n, []).append(idx)
    vals = {}
    for n, idxs in groups.items():
        vals.update(zip(idxs, apply_to_exponential(op, s.seq.lam(n), [ix.k for ix in idxs],
                                                   pts, ctx)))
    # each point adds the coefficients in the order of s.coeffs
    accs = [mp.mpc(0)] * len(pts)
    for idx, c in s.coeffs.items():
        if c != 0:
            accs = [acc + c * v for acc, v in zip(accs, vals[idx])]
    worst = max((abs(acc) for acc in accs), default=mp.mpf(0))
    return ResidualReport(sup_residual=worst, scale=scale, grid=pts)


@dataclass(frozen=True)
class ClassMembershipReport:
    """Partial sums of sum_m G_m |s^(m)(x)| at each grid point."""

    grid: tuple
    partial_sums: tuple  # one tuple of partial sums per grid point
    converging: bool


def class_membership(op: CarlesonOperator, s: TaylorDirichletSeries,
                     interval: Interval, delta, M: int,
                     ctx: PrecisionContext) -> ClassMembershipReport:
    """Convergence evidence for the majorant derivative series on
    [gamma+delta, beta-delta].

    The weights G_m are the all-positive Maclaurin coefficients of the
    absolute-value product over the operator's prefix, built after the
    argument checks.  The truncated majorant is a polynomial, so terms beyond
    the operator degree vanish; the verdict asks the increments past the
    degree to stay below 1e-30 * (series scale), i.e. the partial sums to have
    stabilised.
    """
    delta = mp.mpf(delta)
    if not delta > 0:
        raise ConfigError("delta must be positive")
    if M > 4 * op.degree:
        raise ConfigError(f"M={M} exceeds budget {4 * op.degree}")
    lo, hi = interval.gamma + delta, interval.beta - delta
    if not lo < hi:
        raise ConfigError("delta eats the whole interval")
    gcoeffs = taylor_coeffs(ProductKind.G_ABS, op.seq, op.N, op.degree, ctx)
    grid = [lo + (hi - lo) * i / 8 for i in range(9)]
    with mp.workdps(ctx.digits):
        all_partials = []
        converging = True
        for x in grid:
            acc = mp.mpf(0)
            partials = []
            for m in range(M + 1):
                gm = gcoeffs[m] if m < len(gcoeffs) else mp.mpf(0)
                term = mp.mpf(0)
                if gm != 0:
                    dv = mp.mpc(0)
                    for idx, c in s.coeffs.items():
                        if c != 0:
                            dv += c * exp_monomial_derivative(s.seq.lam(idx.n),
                                                              idx.k, m, x)
                    term = gm * abs(dv)
                acc += term
                partials.append(acc)
            all_partials.append(tuple(partials))
            scale = max(partials[-1], mp.mpf(1))
            late = [partials[m] for m in range(op.degree, M + 1)]
            if late and max(late) - min(late) > mp.mpf("1e-30") * scale:
                converging = False
    return ClassMembershipReport(grid=tuple(grid), partial_sums=tuple(all_partials),
                                 converging=converging)


# -- grouping counterexample ----------------------------------------------------

_COUNTEREXAMPLE_NMAX = 8


@dataclass(frozen=True)
class CounterexampleRow:
    n: int
    grouped_abs: tuple        # |group term| at each sample point
    grouped_bound: tuple      # e^(n^3 - n^4) e^|z| at each sample point
    ungrouped_abs: tuple      # |e^(n^3) e^(lambda_{2n-1} z)| at each sample point


@dataclass(frozen=True)
class CounterexampleReport:
    """Grouped vs ungrouped behaviour of the divergent-series experiment.

    The grouped terms e^(n^3)(e^(z n^2) - e^(z(n^2 + e^(-n^4)))) stay below
    e^(n^3 - n^4) e^|z| on Re z <= 0 and die super-exponentially, while the
    raw term magnitudes explode at any fixed x < 0.
    """

    samples: tuple
    rows: tuple
    partial_sums: tuple       # grouped partial sums f_m at each sample point
    grouped_decreasing: bool
    ungrouped_increasing: bool
    value_at_zero: mp.mpc


def counterexample(Nmax: int, ctx: PrecisionContext,
                   samples=None) -> CounterexampleReport:
    """Run the grouping experiment for the near-duplicate pair sequence.

    Group differences are computed through expm1 so no catastrophic
    cancellation occurs; still, magnitudes like e^(n^3) cap Nmax at 8.  At
    z = 0 every group term e^(n^3)(e^0 - e^0) is exactly 0, and so is the sum.
    """
    if Nmax < 2:
        raise ConfigError("Nmax must be >= 2")
    if Nmax > _COUNTEREXAMPLE_NMAX:
        raise PrecisionError(
            f"Nmax={Nmax} beyond the e^(n^3) budget (max {_COUNTEREXAMPLE_NMAX})")
    if samples is None:
        samples = (mp.mpc(-1), mp.mpc(-2, 1), mp.mpc(0, 2))
    samples = tuple(mp.mpc(z) for z in samples)
    for z in samples:
        if mp.re(z) > 0:
            raise DomainError(f"sample {z} has Re z > 0; experiment lives in Re z <= 0")
    rows = []
    sums = [mp.mpc(0)] * len(samples)
    partials = []
    with mp.workdps(ctx.digits):
        for n in range(1, Nmax + 1):
            n3 = mp.mpf(n) ** 3
            tiny = mp.exp(-mp.mpf(n) ** 4)
            g_abs, bounds, u_abs = [], [], []
            for i, z in enumerate(samples):
                # e^(n^3) e^(z n^2) (1 - e^(z tiny)) with expm1 for the bracket
                group = -mp.exp(n3 + z * n * n) * mp.expm1(z * tiny)
                sums[i] += group
                g_abs.append(abs(group))
                bounds.append(mp.exp(n3 - mp.mpf(n) ** 4 + abs(z)))
                u_abs.append(abs(mp.exp(n3 + z * n * n)))
            rows.append(CounterexampleRow(n=n, grouped_abs=tuple(g_abs),
                                          grouped_bound=tuple(bounds),
                                          ungrouped_abs=tuple(u_abs)))
            partials.append(tuple(sums))
    first = [r.grouped_abs[0] for r in rows]
    dec = all(first[i + 1] < first[i] for i in range(1, len(first) - 1))
    ung = [r.ungrouped_abs[0] for r in rows]
    inc = all(ung[i + 1] > ung[i] for i in range(len(ung) - 1))
    return CounterexampleReport(samples=samples, rows=tuple(rows),
                                partial_sums=tuple(partials),
                                grouped_decreasing=dec,
                                ungrouped_increasing=inc,
                                value_at_zero=mp.mpc(0))
