"""Exact inner products, Gram systems, distances, and biorthogonal families.

Inner products of exponential monomials on a bounded interval or on
(-inf, 0) have closed forms, so Gram matrices are assembled exactly at
working precision.  One Hermitian Cholesky factorization then serves every
downstream quantity, each solving through it for only the inverse entries it
reads: leave-one-out distances and dual norms (Schur complement via the
inverse diagonal alone, `dual_norms` and `distance`), coefficient recovery
(one solve against the moments), mixed-system completeness checks (one
column per dual element), and the biorthogonal coefficient matrix (the full
inverse Gram, with its identity residual, from `biorthogonal` only).

The Gram condition number grows like e^(2 beta Re lambda_N), so required
digits scale linearly with Re lambda_N; assembly auto-escalates precision
(doubling, capped at 4x) until the pivot floor is met.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from .core import (FlatIndex, Interval, MultiplicitySequence, PrecisionContext,
                   flatten)
from .errors import CapError, ConfigError, DomainError, PrecisionError

DEFAULT_MAX_DIM = 64


def _max_dim() -> int:
    text = os.environ.get("EXPSPAN_MAX_DIM", str(DEFAULT_MAX_DIM))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(f"EXPSPAN_MAX_DIM must be a positive integer, got {text!r}")
    return cap


@dataclass(frozen=True)
class DomainSpec:
    """Integration domain: a bounded interval or the negative half-line."""

    kind: str  # "bounded" | "half_line_neg"
    interval: Interval | None = None

    @classmethod
    def bounded(cls, interval: Interval) -> "DomainSpec":
        return cls(kind="bounded", interval=interval)

    @classmethod
    def half_line(cls) -> "DomainSpec":
        return cls(kind="half_line_neg", interval=None)

    def __post_init__(self):
        if self.kind not in ("bounded", "half_line_neg"):
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if self.kind == "bounded" and self.interval is None:
            raise ConfigError("bounded domain needs an interval")


def monomial_exp_integral(p: int, a, dom: DomainSpec) -> mp.mpc:
    """Integral of t^p e^(a t) over the domain, in closed form.

    Bounded, a != 0: by-parts recurrence I(p) = [t^p e^(at)/a] - (p/a) I(p-1),
    switching to the termwise-integrated Maclaurin series of e^(at) when
    |a| (beta - gamma) < 1/2 (the recurrence cancels catastrophically there).
    Bounded, a = 0: (beta^(p+1) - gamma^(p+1)) / (p+1).
    Half-line: (-1)^p p! / a^(p+1), requiring Re a > 0.
    """
    if p < 0:
        raise ConfigError("p must be >= 0")
    a = mp.mpc(a)
    if dom.kind == "half_line_neg":
        if not mp.re(a) > 0:
            raise DomainError(f"half-line integral needs Re a > 0, got {mp.nstr(a, 8)}")
        return mp.mpc(-1) ** p * mp.factorial(p) / a ** (p + 1)
    gamma, beta = dom.interval.gamma, dom.interval.beta
    if a == 0:
        return mp.mpc(beta ** (p + 1) - gamma ** (p + 1)) / (p + 1)
    if abs(a) * (beta - gamma) < mp.mpf("0.5"):
        return _series_integral(p, a, gamma, beta)
    eb, eg = mp.exp(a * beta), mp.exp(a * gamma)
    acc = (eb - eg) / a  # I(0)
    for q in range(1, p + 1):
        acc = (beta ** q * eb - gamma ** q * eg) / a - q * acc / a
    return acc


def _series_integral(p: int, a, gamma, beta) -> mp.mpc:
    # sum_m a^m/m! (beta^(p+m+1) - gamma^(p+m+1))/(p+m+1), entire in a
    eps = mp.mpf(10) ** (-mp.mp.dps - 5)
    total = mp.mpc(0)
    term_scale = max(abs(beta), abs(gamma), mp.mpf(1))
    coef = mp.mpc(1)
    m = 0
    while True:
        piece = coef * (beta ** (p + m + 1) - gamma ** (p + m + 1)) / (p + m + 1)
        total += piece
        if abs(coef) * term_scale ** (p + m + 1) < eps * max(abs(total), eps):
            break
        m += 1
        coef *= a / m
        if m > 10000:
            raise PrecisionError("series branch of the monomial integral did not converge")
    return total


def inner_product(seq: MultiplicitySequence, a: FlatIndex, b: FlatIndex,
                  dom: DomainSpec) -> mp.mpc:
    """L2 inner product <e_a, e_b>, conjugating the second argument."""
    lam = seq.lam(a.n) + mp.conj(seq.lam(b.n))
    return monomial_exp_integral(a.k + b.k, lam, dom)


def hermitian_cholesky(M: mp.matrix) -> mp.matrix:
    """Lower-triangular L with L L^H = M; raises PrecisionError when a pivot
    is not strictly positive (matrix numerically not positive definite)."""
    n = M.rows
    L = mp.matrix(n, n)
    for i in range(n):
        for j in range(i + 1):
            s = mp.mpc(0)
            for k in range(j):
                s += L[i, k] * mp.conj(L[j, k])
            if i == j:
                d = mp.re(M[i, i] - s)
                if not d > 0:
                    raise PrecisionError(f"non-positive pivot at row {i}")
                L[i, j] = mp.sqrt(d)
            else:
                L[i, j] = (M[i, j] - s) / L[j, j]
    return L


def _chol_solve(L: mp.matrix, rhs: mp.matrix, lo: int = 0) -> mp.matrix:
    """Rows lo..n-1 of (L L^H)^-1 rhs; the rows above lo are left zero.

    The forward sweep starts at the first nonzero row of rhs (row 0 for an
    all-zero rhs), skipping only exact zero terms.  Subtracting those complex
    zeros would round rhs[i] to a complex number, as mp.mpc does, so s is
    seeded that way: the bits and types are those of the full sweeps.
    """
    n = L.rows
    start = next((i for i in range(n) if rhs[i]), 0)
    y = mp.matrix(n, 1)
    for i in range(start, n):
        s = mp.mpc(rhs[i]) if start else rhs[i]
        for k in range(start, i):
            s -= L[i, k] * y[k]
        y[i] = s / L[i, i]
    x = mp.matrix(n, 1)
    for i in reversed(range(lo, n)):
        s = y[i]
        for k in range(i + 1, n):
            s -= mp.conj(L[k, i]) * x[k]
        x[i] = s / L[i, i]
    return x


@dataclass(frozen=True)
class GramSystem:
    """Hermitian positive-definite Gram matrix with its factorization."""

    seq: MultiplicitySequence
    indices: tuple[FlatIndex, ...]
    matrix: mp.matrix
    chol: mp.matrix
    digits_used: int
    cond_estimate: mp.mpf

    @property
    def dim(self) -> int:
        return len(self.indices)

    def solve(self, rhs: mp.matrix) -> mp.matrix:
        with mp.workdps(self.digits_used):
            return _chol_solve(self.chol, rhs)


def _assemble(seq: MultiplicitySequence, idx: Sequence[FlatIndex],
              dom: DomainSpec) -> mp.matrix:
    d = len(idx)
    M = mp.matrix(d, d)
    for i in range(d):
        for j in range(i + 1):
            v = inner_product(seq, idx[i], idx[j], dom)
            M[i, j] = v
            M[j, i] = mp.conj(v)
    return M


def gram_matrix(seq: MultiplicitySequence, N: int, dom: DomainSpec,
                ctx: PrecisionContext) -> GramSystem:
    """Assemble and factor the Gram matrix of the truncated system.

    Escalates working digits (doubling, up to 4x the requested precision)
    until the Cholesky pivots clear the relative floor 10^(-digits/2);
    exhaustion is an explicit failure naming the achieved condition estimate.
    """
    idx = flatten(seq, N)
    if dom.kind == "half_line_neg":
        bad = [n for n in range(1, N + 1) if not mp.re(seq.lam(n)) > 0]
        if bad:
            raise DomainError(f"half-line domain needs Re lambda_n > 0; violated at n={bad}")
    if len(idx) > _max_dim():
        raise CapError(f"Gram dimension {len(idx)} exceeds cap {_max_dim()} "
                       "(set EXPSPAN_MAX_DIM to raise)")
    digits = ctx.digits
    last_cond = mp.mpf("inf")
    while True:
        with mp.workdps(digits):
            M = _assemble(seq, idx, dom)
            try:
                L = hermitian_cholesky(M)
            except PrecisionError:
                L = None
            if L is not None:
                pivots = [mp.re(L[i, i]) for i in range(len(idx))]
                ratio = min(pivots) / max(pivots)
                last_cond = (max(pivots) / min(pivots)) ** 2
                if ratio ** 2 >= mp.mpf(10) ** (-digits / 2):
                    return GramSystem(seq=seq, indices=tuple(idx), matrix=M, chol=L,
                                      digits_used=digits, cond_estimate=last_cond)
        if digits >= 4 * ctx.digits:
            raise PrecisionError(
                f"Gram factorization needs more than {digits} digits "
                f"(condition estimate {mp.nstr(last_cond, 5)}); "
                "raise ctx.digits")
        digits = min(2 * digits, 4 * ctx.digits)


def distance(g: GramSystem, idx: FlatIndex) -> mp.mpf:
    """Distance from e_idx to the span of the other truncated elements.

    Computed as the Schur complement of the factored Gram: the inverse
    diagonal entry satisfies D^2 = 1 / (M^-1)_{ii}, and only that entry is
    solved for.
    """
    try:
        i = g.indices.index(idx)
    except ValueError:
        raise ConfigError(f"index {idx} not in system") from None
    with mp.workdps(g.digits_used):
        d2 = 1 / mp.re(_chol_solve(g.chol, mp.eye(g.dim).column(i), i)[i])
        if not d2 > 0:
            raise PrecisionError("Schur complement is not positive; precision exhausted")
        return mp.sqrt(d2)


@dataclass(frozen=True)
class BiorthogonalFamily:
    """Rows of coeffs expand each dual element over the system:
    r_a = sum_b coeffs[a,b] e_b, with <r_a, e_b> = delta_ab."""

    indices: tuple[FlatIndex, ...]
    coeffs: mp.matrix
    norms: tuple
    distances: tuple
    identity_residual: mp.mpf


def dual_norms(g: GramSystem) -> tuple[tuple, tuple]:
    """Dual norms ||r_a|| = sqrt(Re (M^-1)_aa) and distances 1/||r_a||, from
    the inverse diagonal alone; bit for bit those of `biorthogonal`."""
    with mp.workdps(g.digits_used):
        norms = tuple(mp.sqrt(mp.re(_chol_solve(g.chol, mp.eye(g.dim).column(j), j)[j]))
                      for j in range(g.dim))
        return norms, tuple(1 / nv for nv in norms)


def biorthogonal(g: GramSystem) -> BiorthogonalFamily:
    """Invert the Gram through its factorization, checked by the residual of
    C M against the identity; the inverse diagonal gives the dual norms and
    hence the distances (norm * distance = 1).  For these alone,
    `dual_norms` skips the full inverse and the residual."""
    d = g.dim
    with mp.workdps(g.digits_used):
        C = mp.matrix(d, d)
        for j in range(d):
            col = _chol_solve(g.chol, mp.eye(d).column(j))
            for i in range(d):
                C[i, j] = col[i]
        resid = mp.mpf(0)
        R = C * g.matrix
        for i in range(d):
            for j in range(d):
                target = 1 if i == j else 0
                resid = max(resid, abs(R[i, j] - target))
        norms = tuple(mp.sqrt(mp.re(C[i, i])) for i in range(d))
        dists = tuple(1 / nv for nv in norms)
    return BiorthogonalFamily(indices=g.indices, coeffs=C, norms=norms,
                              distances=dists, identity_residual=resid)


def recover_coefficients(g: GramSystem, moments: Sequence) -> list[mp.mpc]:
    """Series coefficients from moments: c_a = <f, r_a> = sum_j conj(C[a,j]) m_j,
    that is conj(M^-1 conj(m)), from one solve with the factorization."""
    if len(moments) != g.dim:
        raise ConfigError(f"expected {g.dim} moments, got {len(moments)}")
    with mp.workdps(g.digits_used):
        u = g.solve(mp.matrix([mp.conj(v) for v in moments]))
        return [mp.conj(u[a]) for a in range(g.dim)]


@dataclass(frozen=True)
class MixedReport:
    n1: tuple[FlatIndex, ...]
    n2: tuple[FlatIndex, ...]
    min_singular: mp.mpf
    max_singular: mp.mpf


def mixed_completeness(g: GramSystem,
                       partition: tuple[Sequence[FlatIndex], Sequence[FlatIndex]]) -> MixedReport:
    """Min singular value of the Gram of {e_a : a in N1} union {r_b : b in N2}.

    A strictly positive value is the finite-dimensional reflection of
    hereditary completeness.  The partition must split the full truncated
    index set.  The dual block <r_a, r_b> = C[a,b] comes from one solve per
    b in N2, swept back only to the first N2 row.
    """
    n1, n2 = (tuple(partition[0]), tuple(partition[1]))
    if set(n1) | set(n2) != set(g.indices) or set(n1) & set(n2):
        raise ConfigError("partition must split the full index set disjointly")
    pos = {ix: i for i, ix in enumerate(g.indices)}
    with mp.workdps(g.digits_used):
        lo = min((pos[b] for b in n2), default=0)
        cols = {b: _chol_solve(g.chol, mp.eye(g.dim).column(pos[b]), lo) for b in n2}
        k = len(n1)
        # <r_a, e_b> = <e_a, r_b> = delta_ab vanishes between the disjoint blocks
        H = mp.matrix(k + len(n2), k + len(n2))
        for i, a in enumerate(n1):
            for j, b in enumerate(n1):
                H[i, j] = g.matrix[pos[a], pos[b]]
        for i, a in enumerate(n2):
            for j, b in enumerate(n2):
                H[k + i, k + j] = cols[b][pos[a]]
        eigs = mp.eigh(H, eigvals_only=True)
        smin, smax = min(eigs), max(eigs)
    return MixedReport(n1=n1, n2=n2, min_singular=smin, max_singular=smax)
