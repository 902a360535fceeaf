"""Domain types shared by every other module.

A multiplicity sequence is an ordered list of pairs (lambda_n, mu_n) with
nonzero, pairwise-distinct frequencies lambda_n sorted by non-decreasing
modulus (ties broken by argument in (-pi, pi]).  The attached exponential
system is {x^k e^(lambda_n x) : k < mu_n}; a flat index (n, k) addresses
one element.  Everything downstream (products, Gram matrices, series,
operators) is parameterised by a truncation prefix of the sequence and a
PrecisionContext.  The prefix table of moduli and pairwise distances, and
the nearest gaps and separation disks read from it, are here too, shared by
the sequence diagnostics and the contour quadrature.  So are `read_number`,
which reads every number option, config number and series sector, and
`read_count`, which reads and bounds every count: the integer options, a
config's counts, a sequence file's term count, multiplicities and generator
params, a series or moments row's index and power, and EXPSPAN_MAX_DIM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import mpmath as mp
from mpmath.libmp import fzero, mpc_abs, mpc_sub

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

    @cached_property
    def _first_bad_entry(self) -> "Violation | None":
        """The first entry with lambda_n = 0 or mu_n < 1: no prefix through it
        spans an exponential system."""
        return next((v for i, (lam, mu) in enumerate(self.entries, 1)
                     for v in _entry_violations(i, lam, mu)), None)

    def _check_length(self, N: int) -> None:
        if not 1 <= N <= self.size:
            raise SequenceError(
                f"prefix length N={N} out of range 1..{self.size} for sequence "
                f"{self.provenance or '<anonymous>'}")

    def check_prefix(self, N: int) -> None:
        """The gate of every computing path: 1 <= N <= size, and no entry of the
        prefix breaks a per-entry invariant of `validate_sequence`."""
        self._check_length(N)
        bad = self._first_bad_entry
        if bad is not None and bad.index <= N:
            raise SequenceError(f"entry n={bad.index} of sequence "
                                f"{self.provenance or '<anonymous>'}: {bad.detail}")

    def check_indices(self, indices: Iterable[FlatIndex], word: str) -> None:
        """Refuse the first (n, k) outside 1 <= n <= size, 0 <= k < mu_n; `word`
        names the rows.  An n past a prefix but within the sequence is allowed."""
        for idx in indices:
            if not (1 <= idx.n <= self.size and 0 <= idx.k < self.mu(idx.n)):
                raise ConfigError(f"{word} index {idx} outside multiplicity bounds")

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


def _entry_violations(i: int, lam, mu: int):
    if lam == 0:
        yield Violation(i, "nonzero", "lambda must be nonzero")
    if mu < 1:
        yield Violation(i, "multiplicity", f"mu={mu} must be >= 1")


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


def validate_sequence(seq: MultiplicitySequence, N: int | None = None) -> list[Violation]:
    """Check every sequence invariant over the first N entries (default: all);
    violations are data, not failures, but an N out of range raises SequenceError.

    Reports all broken rules: nonzero frequencies, positive multiplicities,
    pairwise distinctness, non-decreasing moduli, and the argument tie-break
    for equal moduli.
    """
    if N is not None:
        seq._check_length(N)
    out: list[Violation] = []
    ent = seq.entries[:N]
    if not ent:
        return [Violation(0, "non-empty", "sequence has no entries")]
    for i, (lam, mu) in enumerate(ent, start=1):
        out.extend(_entry_violations(i, lam, mu))
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


def read_number(text: str, name: str, real: bool = False):
    """Every real or complex number of an option, a config or an input file,
    read at the working precision with a trailing 'i' as the imaginary unit.
    Text that does not parse, a complex value where a real one is needed, nan
    and inf are a ConfigError.  A modulus of 10^dps or more is a
    PrecisionError: the parsed value is then off by more than 1, so no digit
    of a phase is right, and mpmath's cos/exp would first reduce it with about
    log10|x| digits of pi or ln 2."""
    text = text.strip()
    try:
        x = mp.mpmathify(text[:-1] + "j" if text.endswith("i") else text)
    except (ValueError, TypeError, AttributeError):
        x = None
    if x is None or (real and not isinstance(x, mp.mpf)):
        raise ConfigError(f"{name} must be a {'real ' if real else ''}number, got {text!r}")
    if not mp.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {text!r}")
    if abs(x) >= mp.mpf(10) ** (dps := mp.mp.dps):
        raise PrecisionError(f"{name} must have modulus below 10^{dps} to be resolved "
                             f"at {dps} digits, got {mp.nstr(abs(x), 5)}")
    return x


def read_count(value, name: str, least: int | None = None) -> int:
    """Every integer count of an option, a config, an input file or the
    environment: an int or a string of digits.  A float or a bool, which int()
    would truncate or read as 0 or 1, and a count below `least` are a
    ConfigError."""
    try:
        count = None if isinstance(value, (bool, float)) else int(value)
    except (TypeError, ValueError):
        count = None
    if count is None:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and count < least:
        raise ConfigError(f"{name} must be >= {least}, got {count}")
    return count


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


@dataclass(frozen=True)
class PrefixTable:
    """The moduli |lambda_n| and the distances |lambda_a - lambda_b| of a prefix,
    at the working precision that built them; index n-1 holds lambda_n.

    dist is symmetric with a zero diagonal.  Each unordered pair is subtracted
    once: a - b = -(b - a) under round-to-nearest and |.| is even, so the other
    order would read the same bits.
    """

    seq: MultiplicitySequence
    moduli: tuple
    dist: tuple

    @property
    def N(self) -> int:
        return len(self.moduli)

    @cached_property
    def gaps(self) -> tuple:
        """min_{k != n} |lambda_n - lambda_k| for n = 1..N, scanned once per table
        and kept with it; a zero gap is a SequenceError, and N = 1, having no
        gap, a ConfigError, on every read."""
        if self.N < 2:
            raise ConfigError(f"need N >= 2 frequencies to take a gap, got N={self.N}")
        gaps = []
        for n, row in enumerate(self.dist, 1):
            gap = min(d for k, d in enumerate(row, 1) if k != n)
            if gap == 0:
                raise SequenceError(f"zero gap at n={n}: duplicate frequency")
            gaps.append(gap)
        return tuple(gaps)

    def separation_disks(self, eps) -> SeparationDisks:
        """The prefix's separation disks, from the nearest gaps.  eps <= 0 is a
        ConfigError; an exponent eps |lambda_n| / mu_n of at least 10^dps, of whose
        exponential no digit would be right, a PrecisionError."""
        eps = mp.mpf(eps)
        if not eps > 0:
            raise ConfigError("eps must be positive")
        rates = [eps * mod / self.seq.mu(n) for n, mod in enumerate(self.moduli, 1)]
        dps = mp.mp.dps
        limit = mp.mpf(10) ** dps
        for n, x in enumerate(rates, 1):
            if x >= limit:
                raise PrecisionError(
                    f"eps*|lambda_{n}|/mu_{n} must be below 10^{dps} to be resolved at "
                    f"{dps} digits, got {mp.nstr(x, 5)}")
        gaps = self.gaps
        m = min(gap * mp.exp(x) for gap, x in zip(gaps, rates))
        decay = [mp.exp(-x) for x in rates]
        return SeparationDisks(eps=eps, gaps=gaps, fitted_m=m,
                               radii_large=tuple(m / 2 * d for d in decay),
                               radii_small=tuple(m / 6 * d for d in decay))


def prefix_table(seq: MultiplicitySequence, N: int) -> PrefixTable:
    """The moduli and pairwise distances of the prefix, one subtraction per pair,
    each |a - b| the mpc_abs(mpc_sub(a, b)) that mpc arithmetic takes, on the
    frequencies' raw values."""
    seq.check_prefix(N)
    prec, rnd = mp.mp._prec_rounding
    lams = [seq.lam(n)._mpc_ for n in range(1, N + 1)]
    dist = [[fzero] * N for _ in range(N)]
    for a, lam in enumerate(lams):
        row = dist[a]
        for b in range(a + 1, N):
            row[b] = dist[b][a] = mpc_abs(mpc_sub(lam, lams[b], prec, rnd), prec, rnd)
    make = mp.make_mpf
    return PrefixTable(seq=seq, moduli=tuple(make(mpc_abs(lam, prec, rnd)) for lam in lams),
                       dist=tuple(tuple(map(make, row)) for row in dist))
