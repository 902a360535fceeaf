"""Exact inner products, Gram systems, dual norms, and biorthogonal families.

Inner products of exponential monomials on a bounded interval (gamma, beta)
or on (-inf, 0) have closed forms, so Gram matrices are exact at working
precision.  The precision ladder needs only the Cholesky factor M = L L^H,
and `_factor` computes it one of two ways:

- When every mu_n = 1, the Gram is Cauchy-like: Lambda M + M Lambda^H =
  u u^H - v v^H with u_a = e^(lambda_a beta) and v_a = e^(lambda_a gamma)
  (u = 1 and v = 0 on the half-line).  The generalized Schur algorithm
  (Gohberg, Kailath and Olshevsky, 1995; Kailath and Sayed, 1995) gives L
  from these 2d exponentials in O(d^2) work, with no assembly.  On a bounded
  interval it applies when 2 min Re lambda_n (beta - gamma) >= 1/2, where no
  entry takes the series branch of `monomial_exp_integrals`.
- Otherwise the Gram is assembled and factored by `hermitian_cholesky`.
  Assembly takes one pair of endpoint exponentials per frequency pair: the
  mu_n x mu_m block of lambda_n, lambda_m shares the exponent lambda_n +
  conj(lambda_m), so one table of integrals I(0..mu_n+mu_m-2) fills it.

`GramSystem.matrix` is the assembled M, built on first read at the accepted
digits (or kept from the ladder when it assembled one).  One factorization
then serves every downstream quantity through the forward columns
y_j = L^-1 e_j, since (M^-1)_ab = <y_b, y_a>: the dual norms ||r_j|| = ||y_j||
and distances 1/||r_j|| (`dual_norms`), and the dual block of a mixed system
(`mixed_completeness`).  The backward sweep runs only for the full inverse
Gram with its identity residual (`biorthogonal`, which factors the assembled
M itself when the ladder's factor came from the generators) and for
coefficient recovery (one solve against the moments).

The Gram condition number grows like e^(2 beta Re lambda_N), so required
digits scale linearly with Re lambda_N; the ladder auto-escalates precision
(rungs d, 2d, 4d; a rung whose floor the last ratio misses by more than 10
digits is skipped) until the pivot floor is met.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Sequence

import mpmath as mp

from .core import (FlatIndex, Interval, MultiplicitySequence, PrecisionContext,
                   flatten, read_count)
from .errors import CapError, ConfigError, DomainError, PrecisionError

DEFAULT_MAX_DIM = 64

_RUNG_GUARD_DIGITS = 10  # a skipped rung's floor is missed by more than this


def _max_dim() -> int:
    return read_count(os.environ.get("EXPSPAN_MAX_DIM", DEFAULT_MAX_DIM),
                      "EXPSPAN_MAX_DIM", least=1)


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


def monomial_exp_integrals(pmax: int, a, dom: DomainSpec) -> list:
    """Integrals I(p) of t^p e^(a t) over the domain for p = 0..pmax, in
    closed form.

    Bounded, a != 0: by-parts recurrence I(p) = [t^p e^(at)/a] - (p/a) I(p-1)
    from one pair of endpoint exponentials, so I(p) has the same bits in every
    table that holds it; when |a| (beta - gamma) < 1/2 (the recurrence cancels
    catastrophically there) each I(p) is the termwise-integrated Maclaurin
    series of e^(at).
    Bounded, a = 0: (beta^(p+1) - gamma^(p+1)) / (p+1).
    Half-line: (-1)^p p! / a^(p+1), requiring Re a > 0.
    """
    if pmax < 0:
        raise ConfigError("p must be >= 0")
    a = mp.mpc(a)
    ps = range(pmax + 1)
    if dom.kind == "half_line_neg":
        if not mp.re(a) > 0:
            raise DomainError(f"half-line integral needs Re a > 0, got {mp.nstr(a, 8)}")
        return [mp.mpc(-1) ** p * mp.factorial(p) / a ** (p + 1) for p in ps]
    gamma, beta = dom.interval.gamma, dom.interval.beta
    if a == 0:
        return [mp.mpc(beta ** (p + 1) - gamma ** (p + 1)) / (p + 1) for p in ps]
    if abs(a) * (beta - gamma) < mp.mpf("0.5"):
        return [_series_integral(p, a, gamma, beta) for p in ps]
    eb, eg = mp.exp(a * beta), mp.exp(a * gamma)
    table = [(eb - eg) / a]
    for q in range(1, pmax + 1):
        table.append((beta ** q * eb - gamma ** q * eg) / a - q * table[-1] / a)
    return table


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


def _forward(L: mp.matrix, rhs: mp.matrix) -> mp.matrix:
    """L^-1 rhs.

    The sweep starts at the first nonzero row of rhs (row 0 for an all-zero
    rhs), skipping only exact zero terms.  Subtracting those complex zeros
    would round rhs[i] to a complex number, as mp.mpc does, so s is seeded
    that way: the bits and types are those of the full sweep.
    """
    n = L.rows
    start = next((i for i in range(n) if rhs[i]), 0)
    y = mp.matrix(n, 1)
    for i in range(start, n):
        s = mp.mpc(rhs[i]) if start else rhs[i]
        for k in range(start, i):
            s -= L[i, k] * y[k]
        y[i] = s / L[i, i]
    return y


def _backward(L: mp.matrix, y: mp.matrix) -> mp.matrix:
    """L^-H y."""
    n = L.rows
    x = mp.matrix(n, 1)
    for i in reversed(range(n)):
        s = y[i]
        for k in range(i + 1, n):
            s -= mp.conj(L[k, i]) * x[k]
        x[i] = s / L[i, i]
    return x


@dataclass(frozen=True)
class GramSystem:
    """Hermitian positive-definite Gram matrix, by its Cholesky factor.

    `assembled` is the matrix the ladder assembled and factored at
    digits_used, or None when `chol` came from the displacement generators.
    """

    seq: MultiplicitySequence
    indices: tuple[FlatIndex, ...]
    domain: DomainSpec
    chol: mp.matrix
    digits_used: int
    cond_estimate: mp.mpf
    assembled: mp.matrix | None = None

    @property
    def dim(self) -> int:
        return len(self.indices)

    @cached_property
    def matrix(self) -> mp.matrix:
        """The Gram matrix, assembled at digits_used on first read."""
        if self.assembled is not None:
            return self.assembled
        with mp.workdps(self.digits_used):
            return _assemble(self.seq, self.indices, self.domain)


def _assemble(seq: MultiplicitySequence, idx: Sequence[FlatIndex],
              dom: DomainSpec) -> mp.matrix:
    """The Gram matrix <e_(n,k), e_(m,l)> block by block.  The block of the
    frequencies n >= m holds the integrals of t^(k+l) e^((lambda_n + conj
    lambda_m) t), read from one `monomial_exp_integrals` table; the block of
    m, n is its conjugate transpose."""
    d = len(idx)
    M = mp.matrix(d, d)
    runs = [list(run) for _, run in groupby(range(d), key=lambda i: idx[i].n)]
    for r, rows in enumerate(runs):
        for cols in runs[:r + 1]:
            a = seq.lam(idx[rows[0]].n) + mp.conj(seq.lam(idx[cols[0]].n))
            table = monomial_exp_integrals(idx[rows[-1]].k + idx[cols[-1]].k, a, dom)
            for i in rows:
                for j in cols:
                    if j > i:
                        break
                    v = table[idx[i].k + idx[j].k]
                    M[i, j] = v
                    M[j, i] = mp.conj(v)
    return M


def _schur_cholesky(lams: Sequence, u: list, v: list) -> mp.matrix:
    """Lower-triangular L with L L^H = M for the Cauchy-like M_ij =
    (u_i conj u_j - v_i conj v_j) / (lambda_i + conj lambda_j), by the
    generalized Schur algorithm on the generators u, v (updated in place).
    Step k takes the pivot column r_i of the Schur complement, sets
    L[i, k] = r_i / sqrt(r_k) and updates u_i -= (r_i / r_k) u_k, and v_i the
    same way.  A pivot that is not strictly positive raises PrecisionError,
    as in `hermitian_cholesky`."""
    d = len(lams)
    L = mp.matrix(d, d)
    for k in range(d):
        uk, vk, lk = mp.conj(u[k]), mp.conj(v[k]), mp.conj(lams[k])
        pivot = mp.re((u[k] * uk - v[k] * vk) / (lams[k] + lk))
        if not pivot > 0:
            raise PrecisionError(f"non-positive pivot at row {k}")
        root = mp.sqrt(pivot)
        L[k, k] = root
        for i in range(k + 1, d):
            r = (u[i] * uk - v[i] * vk) / (lams[i] + lk)
            L[i, k] = r / root
            c = r / pivot
            u[i] -= c * u[k]
            v[i] -= c * v[k]
    return L


def _factor(seq: MultiplicitySequence, idx: Sequence[FlatIndex],
            dom: DomainSpec) -> tuple[mp.matrix, mp.matrix | None]:
    """The Cholesky factor of the Gram matrix at the working precision, and
    the matrix when it was assembled for it: None from the generators, which
    serve when every mu_n = 1 and, on a bounded interval, 2 min Re lambda_n
    (beta - gamma) >= 1/2, so that no entry would take the series branch of
    `monomial_exp_integrals`."""
    lams = [seq.lam(ix.n) for ix in idx]
    if not any(ix.k for ix in idx):
        if dom.kind == "half_line_neg":
            d = len(lams)
            return _schur_cholesky(lams, [mp.mpc(1)] * d, [mp.mpc(0)] * d), None
        gamma, beta = dom.interval.gamma, dom.interval.beta
        if 2 * min(mp.re(lam) for lam in lams) * (beta - gamma) >= mp.mpf("0.5"):
            return _schur_cholesky(lams, [mp.exp(lam * beta) for lam in lams],
                                   [mp.exp(lam * gamma) for lam in lams]), None
    M = _assemble(seq, idx, dom)
    return hermitian_cholesky(M), M


def gram_matrix(seq: MultiplicitySequence, N: int, dom: DomainSpec,
                ctx: PrecisionContext) -> GramSystem:
    """Factor the Gram matrix of the truncated system (`_factor`).

    Escalates working digits over the rungs d, 2d, 4d of the requested
    precision d until the Cholesky pivots clear the relative floor
    10^(-digits/2); a rung whose floor the last ratio misses by more than 10
    digits is skipped, and the 4d rung is never skipped.  The accepted rung
    is factored afresh at its own digits.  Exhaustion is an explicit failure
    naming the achieved condition estimate.
    """
    idx = flatten(seq, N)
    if dom.kind == "half_line_neg":
        bad = [n for n in range(1, N + 1) if not mp.re(seq.lam(n)) > 0]
        if bad:
            raise DomainError(f"half-line domain needs Re lambda_n > 0; violated at n={bad}")
    if len(idx) > (cap := _max_dim()):
        raise CapError(f"Gram dimension {len(idx)} exceeds cap {cap} "
                       "(set EXPSPAN_MAX_DIM to raise)")
    digits = ctx.digits
    last_cond = mp.mpf("inf")
    while True:
        with mp.workdps(digits):
            try:
                L, M = _factor(seq, idx, dom)
            except PrecisionError:
                L = None
            if L is not None:
                pivots = [mp.re(L[i, i]) for i in range(len(idx))]
                ratio = min(pivots) / max(pivots)
                last_cond = (max(pivots) / min(pivots)) ** 2
                if ratio ** 2 >= mp.mpf(10) ** (-digits / 2):
                    return GramSystem(seq=seq, indices=tuple(idx), domain=dom, chol=L,
                                      digits_used=digits, cond_estimate=last_cond,
                                      assembled=M)
        if digits >= 4 * ctx.digits:
            raise PrecisionError(
                f"Gram factorization needs more than {digits} digits "
                f"(condition estimate {mp.nstr(last_cond, 5)}); "
                "raise ctx.digits")
        digits = min(2 * digits, 4 * ctx.digits)
        # the pivots of a graded Gram are accurate far below the floor, so the
        # middle rung 2d, if the last ratio misses its floor by more than the
        # guard band, would be rejected too; the cap is always factored
        if (L is not None and digits < 4 * ctx.digits
                and ratio ** 2 < mp.mpf(10) ** (-digits / 2 - _RUNG_GUARD_DIGITS)):
            digits = 4 * ctx.digits


@dataclass(frozen=True)
class BiorthogonalFamily:
    """Rows of coeffs expand each dual element over the system:
    r_a = sum_b coeffs[a,b] e_b, with <r_a, e_b> = delta_ab."""

    indices: tuple[FlatIndex, ...]
    coeffs: mp.matrix
    norms: tuple
    distances: tuple
    identity_residual: mp.mpf


def _norm(y) -> mp.mpf:
    # real by construction: the squares are summed exactly and rounded once
    return mp.sqrt(mp.fsum(y, absolute=True, squared=True))


def dual_norms(g: GramSystem) -> tuple[tuple, tuple]:
    """Dual norms ||r_j|| = sqrt((M^-1)_jj) = ||L^-1 e_j|| and distances
    1/||r_j|| (the Schur complement), from the forward sweeps of the ladder's
    factor alone; bit for bit those of `biorthogonal` when the ladder
    assembled M."""
    with mp.workdps(g.digits_used):
        norms = tuple(_norm(_forward(g.chol, mp.eye(g.dim).column(j)))
                      for j in range(g.dim))
        return norms, tuple(1 / nv for nv in norms)


def biorthogonal(g: GramSystem) -> BiorthogonalFamily:
    """Invert the Gram through a factorization L L^H = M, column j of C = M^-1
    being L^-H y_j with y_j = L^-1 e_j, checked by the residual of C M against
    the identity.  L is the ladder's factor of the assembled M, or, when the
    ladder factored from the generators, `hermitian_cholesky` of `g.matrix`.
    With the ladder's factor, the dual norms ||y_j|| and the distances
    1/||y_j|| are those of `dual_norms`, which skips the backward sweeps and
    the residual."""
    d = g.dim
    with mp.workdps(g.digits_used):
        # the one consumer that does not use the ladder's factor: C from the
        # generators' factor moves the rounding noise in Im C_ii (about 1e-476;
        # exactly 0 for the true inverse) that recorded benchmark digests pin.
        # ROADMAP.md item 1, C Hermitian with a real diagonal by construction,
        # removes this exception.
        L = g.chol if g.assembled is not None else hermitian_cholesky(g.matrix)
        C = mp.matrix(d, d)
        norms = []
        for j in range(d):
            y = _forward(L, mp.eye(d).column(j))
            norms.append(_norm(y))
            col = _backward(L, y)
            for i in range(d):
                C[i, j] = col[i]
        resid = mp.mpf(0)
        R = C * g.matrix
        for i in range(d):
            for j in range(d):
                target = 1 if i == j else 0
                resid = max(resid, abs(R[i, j] - target))
        dists = tuple(1 / nv for nv in norms)
    return BiorthogonalFamily(indices=g.indices, coeffs=C, norms=tuple(norms),
                              distances=dists, identity_residual=resid)


def recover_coefficients(g: GramSystem, moments: Sequence) -> list[mp.mpc]:
    """Series coefficients from moments: c_a = <f, r_a> = sum_j conj(C[a,j]) m_j,
    that is conj(M^-1 conj(m)), from one solve with the factorization."""
    if len(moments) != g.dim:
        raise ConfigError(f"expected {g.dim} moments, got {len(moments)}")
    with mp.workdps(g.digits_used):
        rhs = mp.matrix([mp.conj(v) for v in moments])
        u = _backward(g.chol, _forward(g.chol, rhs))
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
    index set.  By biorthogonality that Gram is block-diagonal, so its
    extreme eigenvalues are those of the Gram block M[N1, N1] and of the dual
    block C[a, b] = <r_a, r_b> = <y_b, y_a> over N2, from one forward sweep
    y_b = L^-1 e_b per b in N2.
    """
    n1, n2 = (tuple(partition[0]), tuple(partition[1]))
    if len(n1) + len(n2) != g.dim or set(n1) | set(n2) != set(g.indices):
        raise ConfigError("partition must split the full index set disjointly")
    pos = {ix: i for i, ix in enumerate(g.indices)}
    with mp.workdps(g.digits_used):
        gram = mp.matrix(len(n1), len(n1))
        for i, a in enumerate(n1):
            for j, b in enumerate(n1):
                gram[i, j] = g.matrix[pos[a], pos[b]]
        ys = [_forward(g.chol, mp.eye(g.dim).column(pos[b])) for b in n2]
        dual = mp.matrix(len(n2), len(n2))
        for i, y in enumerate(ys):
            for j in range(i + 1):
                dual[j, i] = mp.fdot(y, ys[j], conjugate=True)
                dual[i, j] = mp.conj(dual[j, i])
        eigs = [e for block in (gram, dual) if block.rows
                for e in mp.eigh(block, eigvals_only=True)]
        smin, smax = min(eigs), max(eigs)
    return MixedReport(n1=n1, n2=n2, min_singular=smin, max_singular=smax)
