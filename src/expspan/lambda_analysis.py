"""Finite-truncation diagnostics for class membership of a frequency sequence.

Decides, at desk scale, whether a sequence plausibly satisfies the
convergence condition (A), the sector condition (B), the two geometric
counting conditions, the gap condition (the separation disks of the prefix
table, checked here to be disjoint), and whether the condensation index
vanishes.  Asymptotic statements are untestable on a prefix, so every
verdict is a trend heuristic that carries the raw ratio evidence it was
derived from.

The pairwise loops (the distance table of `core.prefix_table`, the log sums
of `integrated_counting` and `integrated_about`, the disk test of
`gap_check`, and the removed-factor sweep of `products.derivative_factors`)
run on mpmath's raw values (`mpmath.libmp`): each makes the libmp call that
the mpf and mpc operators made, in the same order and with the same
precision and rounding, so every value keeps its bits.  An int multiplicity
times a log is mpf_mul_int, mp.log of a positive mpf is mpf_log, and a
comparison reads the same answer from mpf_le or mpf_lt as from the operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp
from mpmath.libmp import fzero, mpf_add, mpf_div, mpf_le, mpf_log, mpf_lt, mpf_mul_int

from .core import MultiplicitySequence, PrefixTable, SeparationDisks, prefix_table
from .errors import ConfigError, SequenceError
from . import products

# Trend rule: a ratio sequence is "consistent with o(.)" when its last third
# is non-increasing (fitted slope <= 0) and either sits below half the
# first-third median or keeps contracting (last/first of the tail <= 0.8).
# A plateau at a positive level fails both prongs.
_TREND_MEDIAN_FACTOR = mp.mpf("0.5")
_TREND_CONTRACTION = mp.mpf("0.8")

# extra digits over the caller's precision for the condensation index
_CONDENSATION_GUARD = 20


@dataclass(frozen=True)
class TrendVerdict:
    """Decision plus the evidence it came from."""

    passed: bool
    ratios: tuple
    slope: mp.mpf
    first_third_median: mp.mpf
    last_third_max: mp.mpf
    contraction: mp.mpf

    def __bool__(self) -> bool:
        return self.passed


def trend_verdict(ratios: list) -> TrendVerdict:
    rs = [mp.mpf(r) for r in ratios]
    if len(rs) < 3:
        raise ConfigError("need at least 3 ratios for a trend verdict")
    third = max(1, len(rs) // 3)
    first = sorted(rs[:third])
    last = rs[-third:]
    median = first[len(first) // 2]
    n = len(last)
    xbar = mp.mpf(n - 1) / 2
    ybar = sum(last) / n
    denom = sum((i - xbar) ** 2 for i in range(n))
    slope = (sum((i - xbar) * (y - ybar) for i, y in enumerate(last)) / denom
             if denom > 0 else mp.mpf(0))
    contraction = last[-1] / last[0] if last[0] != 0 else mp.mpf(0)
    below = max(last) <= _TREND_MEDIAN_FACTOR * median
    contracting = contraction <= _TREND_CONTRACTION
    return TrendVerdict(passed=bool(slope <= 0 and (below or contracting)),
                        ratios=tuple(rs), slope=slope,
                        first_third_median=median,
                        last_third_max=max(last), contraction=contraction)


# -- counting functions -------------------------------------------------------

# Every diagnostic below reads the prefix's moduli and distances from one
# `core.prefix_table`; `analyze` builds it once for all of them.

def counting(tab: PrefixTable, t) -> int:
    """n(t): total multiplicity of frequencies with |lambda_n| <= t."""
    t = mp.mpf(t)
    if not t > 0:
        raise ConfigError("t must be positive")
    t = t._mpf_
    return sum(mu for (_, mu), mod in zip(tab.seq.entries, tab.moduli)
               if mpf_le(mod._mpf_, t))


def _mu_log(mu: int, x, prec: int, rnd: str):
    """mu * mp.log(x) for a positive raw x, as the mpf operators round it."""
    return mpf_mul_int(mpf_log(x, prec, rnd), mu, prec, rnd)


def integrated_counting(tab: PrefixTable, r) -> mp.mpf:
    """N(r): integral of n(t)/t from 0 to r, in closed form.

    The counting function is a step function vanishing near 0 (all
    frequencies are nonzero), so the integral collapses to
    sum_{|lambda_n| <= r} mu_n log(r / |lambda_n|).
    """
    r = mp.mpf(r)
    if not r > 0:
        raise ConfigError("r must be positive")
    prec, rnd = mp.mp._prec_rounding
    r = r._mpf_
    total = fzero
    for (_, mu), m in zip(tab.seq.entries, tab.moduli):
        m = m._mpf_
        if mpf_le(m, r):
            total = mpf_add(total, _mu_log(mu, mpf_div(r, m, prec, rnd), prec, rnd),
                            prec, rnd)
    return mp.make_mpf(total)


def integrated_about(tab: PrefixTable, n: int) -> mp.mpf:
    """N(|lambda_n|, lambda_n): closed form over the truncated prefix.

    Equals sum over 0 < |lambda_n - lambda_k| <= |lambda_n| of
    mu_k log|lambda_n / (lambda_n - lambda_k)| plus mu_n log|lambda_n|.
    """
    if not 1 <= n <= tab.N:
        raise ConfigError(f"n={n} outside prefix 1..{tab.N}")
    prec, rnd = mp.mp._prec_rounding
    r = tab.moduli[n - 1]._mpf_
    total = _mu_log(tab.seq.mu(n), r, prec, rnd)
    for k, ((_, mu), d) in enumerate(zip(tab.seq.entries, tab.dist[n - 1]), 1):
        d = d._mpf_
        if k != n and d != fzero and mpf_le(d, r):
            total = mpf_add(total, _mu_log(mu, mpf_div(r, d, prec, rnd), prec, rnd),
                            prec, rnd)
    return mp.make_mpf(total)



# -- condition A --------------------------------------------------------------

@dataclass(frozen=True)
class PartialSumReport:
    partials: tuple
    increment_ratio: mp.mpf
    verdict: str  # "converging" or "diverging"


def condition_a_partials(tab: PrefixTable) -> PartialSumReport:
    """Partial sums of sum mu_n/|lambda_n| with a tail-ratio heuristic.

    Converging verdict when the last-quarter increments decay geometrically
    (mean successive ratio < 0.99).
    """
    if tab.N < 2:
        raise ConfigError("need N >= 2")
    increments = [mp.mpf(tab.seq.mu(n)) / mod for n, mod in enumerate(tab.moduli, 1)]
    partials = []
    acc = mp.mpf(0)
    for d in increments:
        acc += d
        partials.append(acc)
    quarter = max(2, tab.N // 4)
    tail = increments[-quarter:]
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1) if tail[i] != 0]
    mean_ratio = sum(ratios) / len(ratios) if ratios else mp.mpf(1)
    verdict = "converging" if mean_ratio < mp.mpf("0.99") else "diverging"
    return PartialSumReport(partials=tuple(partials),
                            increment_ratio=mean_ratio, verdict=verdict)


# -- geometric conditions -----------------------------------------------------

def geometric_conditions(tab: PrefixTable) -> tuple[TrendVerdict, TrendVerdict]:
    """Trend verdicts for N(r)/r at r = |lambda_j| and N(|lambda_n|, lambda_n)/|lambda_n|."""
    if tab.N < 6:
        raise ConfigError("need N >= 6 for a meaningful trend")
    ratios_i = [integrated_counting(tab, m) / m for m in tab.moduli]
    ratios_ii = [integrated_about(tab, n) / m for n, m in enumerate(tab.moduli, 1)]
    return trend_verdict(ratios_i), trend_verdict(ratios_ii)


def necessary_condition(tab: PrefixTable) -> TrendVerdict:
    """Trend of mu_n log|lambda_n| / |lambda_n| (necessary for interpolation)."""
    return trend_verdict([tab.seq.mu(n) * mp.log(mod) / mod
                          for n, mod in enumerate(tab.moduli, 1)])


def density_trend(tab: PrefixTable) -> TrendVerdict:
    """Trend of the raw counting ratio n(t)/t at t = |lambda_j| (density zero)."""
    return trend_verdict([mp.mpf(counting(tab, m)) / m for m in tab.moduli])


# -- gap condition and separation disks ---------------------------------------

def gap_check(tab: PrefixTable, eps) -> SeparationDisks:
    """The prefix's separation disks, once the large disks are checked to be
    pairwise disjoint; an overlap is a SequenceError."""
    disks = tab.separation_disks(eps)
    prec, rnd = mp.mp._prec_rounding
    large = [x._mpf_ for x in disks.radii_large]
    for a, row in enumerate(tab.dist):
        for b in range(a + 1, tab.N):
            if mpf_lt(row[b]._mpf_, mpf_add(large[a], large[b], prec, rnd)):
                raise SequenceError("separation disks overlap despite the fitted "
                                    "constant; the fit is inconsistent")
    return disks


def separation_search(tab: PrefixTable) -> mp.mpf | None:
    """Largest delta in (0, 1/10) with |lambda_n - lambda_k| <= delta |lambda_k|
    only for n = k, scanned on a 40-point geometric grid.  None if even the
    smallest grid point fails.

    Each grid point tests gap_k > delta |lambda_k| on the table's nearest gaps
    gap_k = min_{n != k} |lambda_n - lambda_k| (`PrefixTable.gaps`), which holds
    exactly when every pair does.
    """
    pairs = list(zip(tab.gaps, tab.moduli))
    delta = mp.mpf("0.09")
    for _ in range(40):
        if all(gap > delta * mod for gap, mod in pairs):
            return delta
        delta *= mp.mpf("0.8")
    return None


# -- condensation index -------------------------------------------------------

@dataclass(frozen=True)
class CondensationReport:
    chat: mp.mpf
    ratios: tuple  # -log|F'(lambda_n)| / |lambda_n| over the whole prefix


def condensation_index(tab: PrefixTable) -> CondensationReport:
    """Estimate of the condensation index from the truncated even product.

    chat = max over the tail half of the prefix of -log|F'(lambda_n)|/|lambda_n|
    where F is the even product with simple zeros.  Defined only for
    sequences with all multiplicities equal to one and no duplicate frequency
    (`PrefixTable.gaps`).

    Works at the caller's precision plus _CONDENSATION_GUARD digits, however
    close two frequencies are: `products.derivative_factors` forms each factor
    from sums and differences of the stored frequencies, which are correctly
    rounded, so a near-duplicate pair cancels nothing.  The product then has a
    relative error of a few N ulps and the log is well conditioned.
    """
    seq, N = tab.seq, tab.N
    if N < 6:
        raise ConfigError("need N >= 6")
    if any(seq.mu(n) != 1 for n in range(1, N + 1)):
        raise SequenceError("condensation index requires simple frequencies (mu = 1)")
    tab.gaps  # a duplicate frequency raises here
    lams = [seq.lam(n) for n in range(1, N + 1)]
    with mp.workdps(mp.mp.dps + _CONDENSATION_GUARD):
        dvals = products.derivative_factors(seq, N, kind=products.ProductKind.F_EVEN)
        ratios = [-mp.log(abs(dval)) / abs(lam) for dval, lam in zip(dvals, lams)]
    tail = ratios[N // 2:]
    return CondensationReport(chat=max(tail), ratios=tuple(ratios))


# -- aggregate report ---------------------------------------------------------

@dataclass(frozen=True)
class ClassReport:
    """Everything the analyzer can say about a truncated sequence."""

    provenance: str
    N: int
    cond_a: PartialSumReport
    eta_hat: mp.mpf
    cond_b_passed: bool
    geom_i: TrendVerdict
    geom_ii: TrendVerdict
    necessary: TrendVerdict
    density: TrendVerdict
    separation_delta: mp.mpf | None
    gap: SeparationDisks
    condensation: CondensationReport | None = field(default=None)

    @property
    def all_passed(self) -> bool:
        checks = [self.cond_a.verdict == "converging", self.cond_b_passed,
                  self.geom_i.passed, self.geom_ii.passed, self.necessary.passed]
        return all(checks)


def analyze(seq: MultiplicitySequence, N: int, eps) -> ClassReport:
    tab = prefix_table(seq, N)
    cond_a = condition_a_partials(tab)
    eta_hat = seq.max_arg(N)
    geom_i, geom_ii = geometric_conditions(tab)
    nec = necessary_condition(tab)
    dens = density_trend(tab)
    gap = gap_check(tab, eps)
    delta = separation_search(tab)
    cond = None
    if all(seq.mu(n) == 1 for n in range(1, N + 1)) and N >= 6:
        cond = condensation_index(tab)
    return ClassReport(provenance=seq.provenance, N=N, cond_a=cond_a,
                       eta_hat=eta_hat, cond_b_passed=bool(eta_hat < mp.pi / 2),
                       geom_i=geom_i, geom_ii=geom_ii, necessary=nec,
                       density=dens, separation_delta=delta, gap=gap,
                       condensation=cond)
