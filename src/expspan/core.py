"""Domain types shared by every other module.

A multiplicity sequence is an ordered list of pairs (lambda_n, mu_n) with
nonzero, pairwise-distinct frequencies lambda_n sorted by non-decreasing
modulus (ties broken by argument in (-pi, pi]).  The attached exponential
system is {x^k e^(lambda_n x) : k < mu_n}; a flat index (n, k) addresses
one element.  Everything downstream (products, Gram matrices, series,
operators) is parameterised by a truncation prefix of the sequence and a
PrecisionContext.  The nearest-gap scan and the separation disks built
from it are here too, shared by the gap check and the contour quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import mpmath as mp

from .errors import ConfigError, PrecisionError, SequenceError


class FlatIndex(NamedTuple):
    """Address of one system element: frequency index n (1-based), power k."""

    n: int
    k: int


@dataclass(frozen=True)
class MultiplicitySequence:
    """Ordered frequencies with multiplicities; single source of truth.

    entries[i] = (lambda, mu) with lambda an mpmath complex scalar and mu a
    positive integer.  Values are stored at whatever precision they were
    created with; mpf/mpc storage is independent of the current working
    precision, so tiny gaps survive later low-precision arithmetic.
    """

    entries: tuple[tuple[mp.mpc, int], ...]
    provenance: str = ""

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, int]],
                   provenance: str = "") -> "MultiplicitySequence":
        """Build from (lambda, mu) pairs; an mpc lambda is kept unrounded."""
        out = []
        for lam, mu in pairs:
            # mp.mpc(z) would round even an mpc z to the ambient precision
            lam = lam if isinstance(lam, mp.mpc) else mp.mpc(lam)
            out.append((lam, int(mu)))
        return cls(entries=tuple(out), provenance=provenance)

    @property
    def size(self) -> int:
        return len(self.entries)

    def lam(self, n: int) -> mp.mpc:
        """Frequency lambda_n, 1-based."""
        return self.entries[n - 1][0]

    def mu(self, n: int) -> int:
        """Multiplicity mu_n, 1-based."""
        return self.entries[n - 1][1]

    def check_prefix(self, N: int) -> None:
        if not 1 <= N <= self.size:
            raise SequenceError(
                f"prefix length N={N} out of range 1..{self.size} for sequence "
                f"{self.provenance or '<anonymous>'}")

    def total_multiplicity(self, N: int) -> int:
        self.check_prefix(N)
        return sum(mu for _, mu in self.entries[:N])

    def max_arg(self, N: int) -> mp.mpf:
        """Largest |arg lambda_n| over the prefix (condition-B estimate)."""
        self.check_prefix(N)
        return max(abs(mp.arg(lam)) for lam, _ in self.entries[:N])


@dataclass(frozen=True)
class Violation:
    """One broken sequence invariant, addressed by entry index (1-based)."""

    index: int
    rule: str
    detail: str


def _arg_key(lam) -> mp.mpf:
    # arg in (-pi, pi]; mp.arg returns (-pi, pi] except -pi for the negative axis
    a = mp.arg(lam)
    if a == -mp.pi:
        a = mp.pi
    return a


def _stored_dps(seq: MultiplicitySequence) -> int:
    """Decimal precision needed to honour the entries' own mantissas.

    Near-coincident frequencies (gaps like e^(-n^4)) are stored with long
    mantissas; comparing their moduli at a lower working precision would
    collapse them.
    """
    bits = mp.mp.prec
    for lam, _ in seq.entries:
        z = lam if isinstance(lam, mp.mpc) else mp.mpc(lam)
        for part in (z.real, z.imag):
            bits = max(bits, part._mpf_[3])
    return int(bits / 3.32) + 20


def validate_sequence(seq: MultiplicitySequence) -> list[Violation]:
    """Check every sequence invariant; violations are data, not failures.

    Reports all broken rules: nonzero frequencies, positive multiplicities,
    pairwise distinctness, non-decreasing moduli, and the argument tie-break
    for equal moduli.
    """
    out: list[Violation] = []
    ent = seq.entries
    if not ent:
        return [Violation(0, "non-empty", "sequence has no entries")]
    for i, (lam, mu) in enumerate(ent, start=1):
        if lam == 0:
            out.append(Violation(i, "nonzero", "lambda must be nonzero"))
        if mu < 1:
            out.append(Violation(i, "multiplicity", f"mu={mu} must be >= 1"))
    seen: dict = {}
    for i, (lam, _) in enumerate(ent, start=1):
        if lam in seen:
            out.append(Violation(i, "distinct",
                                 f"lambda_{i} duplicates lambda_{seen[lam]}"))
        else:
            seen[lam] = i
    with mp.workdps(_stored_dps(seq)):
        for i in range(1, len(ent)):
            a, b = ent[i - 1][0], ent[i][0]
            if abs(a) > abs(b):
                out.append(Violation(i + 1, "modulus-order",
                                     f"|lambda_{i}|={mp.nstr(abs(a), 8)} > "
                                     f"|lambda_{i + 1}|={mp.nstr(abs(b), 8)}"))
            elif abs(a) == abs(b) and not (_arg_key(a) < _arg_key(b)):
                out.append(Violation(i + 1, "arg-order",
                                     "equal moduli must be ordered by increasing arg in (-pi, pi]"))
    return out


def flatten(seq: MultiplicitySequence, N: int) -> list[FlatIndex]:
    """Deterministic element order [(1,0)..(1,mu_1-1),(2,0)..] for a prefix.

    Every matrix and coefficient vector in the toolkit uses this order.
    """
    seq.check_prefix(N)
    return [FlatIndex(n, k) for n in range(1, N + 1) for k in range(seq.mu(n))]


def flat_position(seq: MultiplicitySequence, N: int) -> dict[FlatIndex, int]:
    """Inverse of flatten: index -> row/column position."""
    return {idx: i for i, idx in enumerate(flatten(seq, N))}


@dataclass(frozen=True)
class Interval:
    """Bounded interval (gamma, beta); midpoint sigma and half-length tau
    are always derived, never stored."""

    gamma: mp.mpf
    beta: mp.mpf

    def __post_init__(self):
        object.__setattr__(self, "gamma", mp.mpf(self.gamma))
        object.__setattr__(self, "beta", mp.mpf(self.beta))
        if not (mp.isfinite(self.gamma) and mp.isfinite(self.beta)):
            raise ConfigError("interval endpoints must be finite")
        if not self.gamma < self.beta:
            raise ConfigError(f"need gamma < beta, got ({self.gamma}, {self.beta})")

    @property
    def sigma(self) -> mp.mpf:
        return (self.beta + self.gamma) / 2

    @property
    def tau(self) -> mp.mpf:
        return (self.beta - self.gamma) / 2

    @property
    def length(self) -> mp.mpf:
        return self.beta - self.gamma


@dataclass(frozen=True)
class Sector:
    """Open sector left of apex beta with half-aperture controlled by eta.

    Membership: Re z < beta and |Im z| * tan(eta) <= beta - Re z.  For
    eta = 0 this is exactly the half-plane Re z < beta.
    """

    eta: mp.mpf
    beta: mp.mpf

    def __post_init__(self):
        object.__setattr__(self, "eta", mp.mpf(self.eta))
        object.__setattr__(self, "beta", mp.mpf(self.beta))
        if not (0 <= self.eta < mp.pi / 2):
            raise ConfigError("eta must lie in [0, pi/2)")

    def violation(self, z) -> str | None:
        """None if z is inside, else the violated inequality as text."""
        z = mp.mpc(z)
        if not mp.re(z) < self.beta:
            return f"Re z = {mp.nstr(mp.re(z), 8)} must be < beta = {mp.nstr(self.beta, 8)}"
        if self.eta > 0:
            lhs = abs(mp.im(z)) * mp.tan(self.eta)
            rhs = self.beta - mp.re(z)
            if not lhs <= rhs:
                return (f"|Im z| * tan(eta) = {mp.nstr(lhs, 8)} must be <= "
                        f"beta - Re z = {mp.nstr(rhs, 8)}")
        return None


def sector_contains(s: Sector, z) -> bool:
    return s.violation(z) is None


DIGITS_FLOOR = 50


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision and truncation order threaded through all numerics.

    digits   working decimal precision (>= 50)
    trunc_N  number of frequencies kept in truncated products
    """

    digits: int = 120
    trunc_N: int = 8

    def __post_init__(self):
        if self.digits < DIGITS_FLOOR:
            raise ConfigError(f"digits={self.digits} below floor {DIGITS_FLOOR}")
        if self.trunc_N < 1:
            raise ConfigError("trunc_N must be >= 1")


def nearest_gaps(seq: MultiplicitySequence, N: int) -> list[mp.mpf]:
    """min_{k != n} |lambda_n - lambda_k| for n = 1..N; a zero gap is a SequenceError,
    and N = 1, having no gap, a ConfigError."""
    seq.check_prefix(N)
    if N < 2:
        raise ConfigError(f"need N >= 2 frequencies to take a gap, got N={N}")
    gaps = []
    for n in range(1, N + 1):
        lam = seq.lam(n)
        gap = min(abs(lam - seq.lam(k)) for k in range(1, N + 1) if k != n)
        if gap == 0:
            raise SequenceError(f"zero gap at n={n}: duplicate frequency")
        gaps.append(gap)
    return gaps


@dataclass(frozen=True)
class SeparationDisks:
    """The separation condition's disks about each lambda_n (or i lambda_n).

    fitted_m = min_n gap_n exp(eps |lambda_n| / mu_n) is the largest m with
    gap_n >= m exp(-eps |lambda_n| / mu_n) on the prefix (the true constant is
    existential).  Index n-1 holds the radius m/2 exp(-eps |lambda_n| / mu_n)
    in radii_large and a third of it in radii_small, the Caratheodory disk.
    """

    eps: mp.mpf
    gaps: tuple
    fitted_m: mp.mpf
    radii_large: tuple
    radii_small: tuple


def separation_disks(seq: MultiplicitySequence, N: int, eps) -> SeparationDisks:
    """The prefix's separation disks, from one nearest-gap scan.  eps <= 0 is a
    ConfigError; an exponent eps |lambda_n| / mu_n of at least 10^dps, of whose
    exponential no digit would be right, a PrecisionError."""
    seq.check_prefix(N)
    eps = mp.mpf(eps)
    if not eps > 0:
        raise ConfigError("eps must be positive")
    rates = [eps * abs(seq.lam(n)) / seq.mu(n) for n in range(1, N + 1)]
    dps = mp.mp.dps
    limit = mp.mpf(10) ** dps
    for n, x in enumerate(rates, 1):
        if x >= limit:
            raise PrecisionError(
                f"eps*|lambda_{n}|/mu_{n} must be below 10^{dps} to be resolved at "
                f"{dps} digits, got {mp.nstr(x, 5)}")
    gaps = nearest_gaps(seq, N)
    m = min(gap * mp.exp(x) for gap, x in zip(gaps, rates))
    decay = [mp.exp(-x) for x in rates]
    return SeparationDisks(eps=eps, gaps=tuple(gaps), fitted_m=m,
                           radii_large=tuple(m / 2 * d for d in decay),
                           radii_small=tuple(m / 6 * d for d in decay))
