"""Finite-truncation diagnostics for class membership of a frequency sequence.

Decides, at desk scale, whether a sequence plausibly satisfies the
convergence condition (A), the sector condition (B), the two geometric
counting conditions, the gap condition (the disks of `core.separation_disks`,
checked here to be disjoint), and whether the condensation index vanishes.  Asymptotic statements are
untestable on a prefix, so every verdict is a trend heuristic that carries
the raw ratio evidence it was derived from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp

from .core import MultiplicitySequence, SeparationDisks, separation_disks
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

def counting(seq: MultiplicitySequence, N: int, t) -> int:
    """n(t): total multiplicity of frequencies with |lambda_n| <= t."""
    seq.check_prefix(N)
    t = mp.mpf(t)
    if not t > 0:
        raise ConfigError("t must be positive")
    return sum(seq.mu(n) for n in range(1, N + 1) if abs(seq.lam(n)) <= t)


def counting_about(seq: MultiplicitySequence, N: int, z0, t) -> int:
    """n(t, z0): total multiplicity within distance t of z0."""
    seq.check_prefix(N)
    t = mp.mpf(t)
    z0 = mp.mpc(z0)
    return sum(seq.mu(n) for n in range(1, N + 1) if abs(seq.lam(n) - z0) <= t)


def integrated_counting(seq: MultiplicitySequence, N: int, r) -> mp.mpf:
    """N(r): integral of n(t)/t from 0 to r, in closed form.

    The counting function is a step function vanishing near 0 (all
    frequencies are nonzero), so the integral collapses to
    sum_{|lambda_n| <= r} mu_n log(r / |lambda_n|).
    """
    seq.check_prefix(N)
    r = mp.mpf(r)
    if not r > 0:
        raise ConfigError("r must be positive")
    total = mp.mpf(0)
    for n in range(1, N + 1):
        m = abs(seq.lam(n))
        if m <= r:
            total += seq.mu(n) * mp.log(r / m)
    return total


def integrated_about(seq: MultiplicitySequence, N: int, n: int) -> mp.mpf:
    """N(|lambda_n|, lambda_n): closed form over the truncated prefix.

    Equals sum over 0 < |lambda_n - lambda_k| <= |lambda_n| of
    mu_k log|lambda_n / (lambda_n - lambda_k)| plus mu_n log|lambda_n|.
    """
    seq.check_prefix(N)
    if not 1 <= n <= N:
        raise ConfigError(f"n={n} outside prefix 1..{N}")
    lam = seq.lam(n)
    r = abs(lam)
    total = seq.mu(n) * mp.log(r)
    for k in range(1, N + 1):
        if k == n:
            continue
        d = abs(lam - seq.lam(k))
        if 0 < d <= r:
            total += seq.mu(k) * mp.log(r / d)
    return total


# -- condition A --------------------------------------------------------------

@dataclass(frozen=True)
class PartialSumReport:
    partials: tuple
    increment_ratio: mp.mpf
    verdict: str  # "converging" or "diverging"


def condition_a_partials(seq: MultiplicitySequence, N: int) -> PartialSumReport:
    """Partial sums of sum mu_n/|lambda_n| with a tail-ratio heuristic.

    Converging verdict when the last-quarter increments decay geometrically
    (mean successive ratio < 0.99).
    """
    seq.check_prefix(N)
    if N < 2:
        raise ConfigError("need N >= 2")
    increments = [mp.mpf(seq.mu(n)) / abs(seq.lam(n)) for n in range(1, N + 1)]
    partials = []
    acc = mp.mpf(0)
    for d in increments:
        acc += d
        partials.append(acc)
    quarter = max(2, N // 4)
    tail = increments[-quarter:]
    ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1) if tail[i] != 0]
    mean_ratio = sum(ratios) / len(ratios) if ratios else mp.mpf(1)
    verdict = "converging" if mean_ratio < mp.mpf("0.99") else "diverging"
    return PartialSumReport(partials=tuple(partials),
                            increment_ratio=mean_ratio, verdict=verdict)


# -- geometric conditions -----------------------------------------------------

def geometric_conditions(seq: MultiplicitySequence, N: int) -> tuple[TrendVerdict, TrendVerdict]:
    """Trend verdicts for N(r)/r at r = |lambda_j| and N(|lambda_n|, lambda_n)/|lambda_n|."""
    seq.check_prefix(N)
    if N < 6:
        raise ConfigError("need N >= 6 for a meaningful trend")
    ratios_i = [integrated_counting(seq, N, abs(seq.lam(j))) / abs(seq.lam(j))
                for j in range(1, N + 1)]
    ratios_ii = [integrated_about(seq, N, n) / abs(seq.lam(n))
                 for n in range(1, N + 1)]
    return trend_verdict(ratios_i), trend_verdict(ratios_ii)


def necessary_condition(seq: MultiplicitySequence, N: int) -> TrendVerdict:
    """Trend of mu_n log|lambda_n| / |lambda_n| (necessary for interpolation)."""
    seq.check_prefix(N)
    ratios = [seq.mu(n) * mp.log(abs(seq.lam(n))) / abs(seq.lam(n))
              for n in range(1, N + 1)]
    return trend_verdict(ratios)


def density_trend(seq: MultiplicitySequence, N: int) -> TrendVerdict:
    """Trend of the raw counting ratio n(t)/t at t = |lambda_j| (density zero)."""
    seq.check_prefix(N)
    ratios = [mp.mpf(counting(seq, N, abs(seq.lam(j)))) / abs(seq.lam(j))
              for j in range(1, N + 1)]
    return trend_verdict(ratios)


# -- gap condition and separation disks ---------------------------------------

def gap_check(seq: MultiplicitySequence, N: int, eps) -> SeparationDisks:
    """The prefix's separation disks, once the large disks are checked to be
    pairwise disjoint; an overlap is a SequenceError."""
    disks = separation_disks(seq, N, eps)
    large = disks.radii_large
    for a in range(N):
        for b in range(a + 1, N):
            if abs(seq.lam(a + 1) - seq.lam(b + 1)) < large[a] + large[b]:
                raise SequenceError("separation disks overlap despite the fitted "
                                    "constant; the fit is inconsistent")
    return disks


def separation_search(seq: MultiplicitySequence, gaps) -> mp.mpf | None:
    """Largest delta in (0, 1/10) with |lambda_n - lambda_k| <= delta |lambda_k|
    only for n = k, scanned on a 40-point geometric grid.  None if even the
    smallest grid point fails.

    gaps are the prefix's nearest gaps, gap_k = min_{n != k} |lambda_n -
    lambda_k| as `core.nearest_gaps` scans them.  Each grid point tests
    gap_k > delta |lambda_k|, which holds exactly when every pair does.
    """
    pairs = [(gap, abs(seq.lam(k))) for k, gap in enumerate(gaps, 1)]
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


def condensation_index(seq: MultiplicitySequence, N: int) -> CondensationReport:
    """Estimate of the condensation index from the truncated even product.

    chat = max over the tail half of the prefix of -log|F'(lambda_n)|/|lambda_n|
    where F is the even product with simple zeros.  Defined only for
    sequences with all multiplicities equal to one.

    Works at the caller's precision plus _CONDENSATION_GUARD digits, however
    close two frequencies are: `products.derivative_factor` forms each factor
    from sums and differences of the stored frequencies, which are correctly
    rounded, so a near-duplicate pair cancels nothing.  The product then has a
    relative error of a few N ulps and the log is well conditioned.
    """
    seq.check_prefix(N)
    if N < 6:
        raise ConfigError("need N >= 6")
    if any(seq.mu(n) != 1 for n in range(1, N + 1)):
        raise SequenceError("condensation index requires simple frequencies (mu = 1)")
    lams = [seq.lam(n) for n in range(1, N + 1)]
    for n, lam in enumerate(lams, 1):
        if lams.count(lam) > 1:
            raise SequenceError(f"zero gap at n={n}: duplicate frequency")
    ratios = []
    with mp.workdps(mp.mp.dps + _CONDENSATION_GUARD):
        for n in range(1, N + 1):
            dval = products.derivative_factor(seq, N, n, kind=products.ProductKind.F_EVEN)
            ratios.append(-mp.log(abs(dval)) / abs(seq.lam(n)))
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
    seq.check_prefix(N)
    cond_a = condition_a_partials(seq, N)
    eta_hat = seq.max_arg(N)
    geom_i, geom_ii = geometric_conditions(seq, N)
    nec = necessary_condition(seq, N)
    dens = density_trend(seq, N)
    gap = gap_check(seq, N, eps)
    delta = separation_search(seq, gap.gaps)
    cond = None
    if all(seq.mu(n) == 1 for n in range(1, N + 1)) and N >= 6:
        cond = condensation_index(seq, N)
    return ClassReport(provenance=seq.provenance, N=N, cond_a=cond_a,
                       eta_hat=eta_hat, cond_b_passed=bool(eta_hat < mp.pi / 2),
                       geom_i=geom_i, geom_ii=geom_ii, necessary=nec,
                       density=dens, separation_delta=delta, gap=gap,
                       condensation=cond)
