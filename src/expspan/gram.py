"""Exact inner products, Gram systems, dual norms, and biorthogonal families.

Inner products of exponential monomials e_a = t^k e^(lambda_n t) on a bounded
interval (gamma, beta) or on (-inf, 0) have closed forms, so Gram matrices are
exact at working precision.  A domain is an `Interval`, or None for (-inf, 0).
The precision ladder needs only the Cholesky factor M = L L^H, and `_factor`
computes it one way for every Gram.  Since
(t^k e^(lambda t))' = lambda t^k e^(lambda t) + k t^(k-1) e^(lambda t), the
Gram has displacement structure A M + M A^H = u u^H - v v^H, with A lower
bidiagonal (lambda_n on its diagonal, k below it inside each frequency's
block) and u, v the values of e_a at the right and left ends.  Written with
x = u - v, taken through expm1 so that short intervals do not cancel, the
right side is x x^H + x v^H + v x^H; on the half-line the generators are
(x, 0) with x_a = [k = 0], and the same recursion factors them.
The generalized Schur algorithm (Gohberg, Kailath and Olshevsky, Math. Comp.
64, 1995; Kailath and Sayed, SIAM Rev. 37, 1995) gives L from these
generators in O(d^2) work, with no assembly: each pivot column is one
bidiagonal solve.  Where lambda_n + conj lambda_m vanishes, or the right side
of a frequency pair would cancel, the displacement does not determine its
entries; those are pinned in closed form and updated as Cholesky would.

`GramSystem.matrix` is M at the accepted digits, built on first read by the
same displacement recurrence from the accepted rung's generators, with no
exponential.  One factorization then serves every downstream quantity
through the forward columns y_j = L^-1 e_j, since (M^-1)_ab = <y_b, y_a>: the
dual norms ||r_j|| = ||y_j|| and distances 1/||r_j|| (`dual_norms`), and the
dual block of a mixed system (`mixed_completeness`).  The backward sweep runs
only for the full inverse Gram with its identity residual (`biorthogonal`,
which assembles M itself and factors it by `hermitian_cholesky`) and for
coefficient recovery (one solve against the moments).  For the inverse,
each column's backward sweep runs to the diagonal only, and C_ij = conj C_ji
above it, so C is Hermitian off its diagonal by construction.  Every kernel
runs on mpmath's raw values (`mpmath.libmp`) with the roundings of the mpf
and mpc arithmetic it replaced, in the same order.  A complex product takes
three integer products (Gauss) where mpc_mul takes four, and an exact dot
product (the identity residual's d^2 entries, a norm, the dual block) is
summed as one integer; each part is rounded once, as mpc_mul and mpf_sum
round it, and where they would round otherwise (a zero part or parts far
apart, mpf_add's perturbation shortcut, mpf_sum dropping a term) the
mpmath routine runs itself.  Both factorizations emit the factor in the
one raw form that the sweeps read (`Factor`: the rows of L below its
diagonal and its diagonal, a column being conjugated as it is read), and the
assembled M is raw rows; an mp.matrix is built only for the public outputs,
`GramSystem.matrix` and the biorthogonal coefficients.  Assembly
takes one pair of endpoint exponentials per frequency pair: the mu_n x mu_m
block of lambda_n, lambda_m shares the exponent lambda_n + conj(lambda_m), so
one table of integrals I(0..mu_n+mu_m-2) fills it.

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
from typing import NamedTuple, Sequence

import mpmath as mp
from mpmath.libmp import (fone, from_man_exp, fzero, mpc_add, mpc_add_mpf, mpc_conjugate,
                          mpc_div, mpc_div_mpf, mpc_mpf_div, mpc_mul, mpc_mul_int, mpc_mul_mpf,
                          mpc_pos, mpc_sub, mpc_sub_mpf, mpf_add, mpf_div,
                          mpf_gt, mpf_hypot, mpf_mul, mpf_mul_int, mpf_neg, mpf_pos,
                          mpf_rdiv_int, mpf_sqrt, mpf_sub, mpf_sum)

from .core import (FlatIndex, Interval, MultiplicitySequence, PrecisionContext,
                   flatten, read_count)
from .errors import CapError, ConfigError, DomainError, PrecisionError

DEFAULT_MAX_DIM = 64

_RUNG_GUARD_DIGITS = 10  # a skipped rung's floor is missed by more than this
_GENERATOR_GUARD_DIGITS = 20  # the generators' exponentials carry these extra digits
_CANCELLATION = 4  # a frequency pair whose displacement cancels more is pinned


def _max_dim() -> int:
    return read_count(os.environ.get("EXPSPAN_MAX_DIM", DEFAULT_MAX_DIM),
                      "EXPSPAN_MAX_DIM", least=1)


def monomial_exp_integrals(pmax: int, a, dom: Interval | None) -> list:
    """Integrals I(p) of t^p e^(a t) over the domain for p = 0..pmax, in
    closed form; the domain is an `Interval`, or None for (-inf, 0).

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
    if dom is None:
        if not mp.re(a) > 0:
            raise DomainError(f"half-line integral needs Re a > 0, got {mp.nstr(a, 8)}")
        return [mp.mpc(-1) ** p * mp.factorial(p) / a ** (p + 1) for p in ps]
    gamma, beta = dom.gamma, dom.beta
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


# -- kernels on mpmath's raw values --
# A raw value is an mpf's _mpf_ (a 4-tuple) or an mpc's _mpc_ (a pair of
# them).  Each helper makes the libmp call that mpmath's operator makes for
# the same operand types, at the context's precision and rounding: mpc / mpf
# is mpc_div_mpf (mpc_div with a zero imaginary part would round twice), int *
# mpc is mpc_mul_int, and conj rounds nothing at the working precision; mpc *
# mpc (`_cmul`) and the dot products (`_dot`, `_norm`) compute mpc_mul's and
# mpf_sum's exact values in fewer integer products and round them as those
# calls do.  So every kernel below rounds as its mp-object form did, bit for
# bit, and keeps its result types.

_CZERO = (fzero, fzero)


def _raw(v):
    """The raw value of an mpf or mpc."""
    return v._mpc_ if isinstance(v, mp.mpc) else v._mpf_


def _obj(r):
    """The mpf or mpc of a raw value."""
    return mp.make_mpc(r) if len(r) == 2 else mp.make_mpf(r)


def _stored(r):
    """r as an mp.matrix keeps it: a matrix stores no zero, and reads one back
    as an mpf 0."""
    return fzero if r == _CZERO else r


def _matrix(rows) -> mp.matrix:
    """The mp.matrix of raw rows; it stores no zero, and reads one as an mpf 0."""
    A = mp.matrix(len(rows), len(rows[0]))
    for i, row in enumerate(rows):
        for j, r in enumerate(row):
            A[i, j] = _obj(r)
    return A


def _add(a, b, prec, rnd):
    if len(a) == 2:
        return mpc_add(a, b, prec, rnd) if len(b) == 2 else mpc_add_mpf(a, b, prec, rnd)
    return mpc_add_mpf(b, a, prec, rnd) if len(b) == 2 else mpf_add(a, b, prec, rnd)


def _sub(a, b, prec, rnd):
    if len(a) == 2:
        return mpc_sub(a, b, prec, rnd) if len(b) == 2 else mpc_sub_mpf(a, b, prec, rnd)
    return mpc_sub((a, fzero), b, prec, rnd) if len(b) == 2 else mpf_sub(a, b, prec, rnd)


def _mul(a, b, prec, rnd):
    """a b, a complex product by `_cmul`."""
    if len(a) == 2:
        return _cmul(a, b, prec, rnd) if len(b) == 2 else mpc_mul_mpf(a, b, prec, rnd)
    return mpc_mul_mpf(b, a, prec, rnd) if len(b) == 2 else mpf_mul(a, b, prec, rnd)


def _int(x, e: int) -> int:
    """The signed integer m with m 2^e equal to the raw mpf x (e at most its
    exponent where x is nonzero)."""
    sign, man, exp, _ = x
    return ((-man if sign else man) << (exp - e)) if man else 0


def _cmul(z, w, prec, rnd):
    """z w for raw complex z = a + bi, w = c + di, as mpc_mul rounds it, from
    three integer products at a common exponent (Gauss): ac - bd and
    (a + b)(c + d) - ac - bd are exact, and each is rounded once, as
    mpc_mul's mpf_sub(ac, bd) and mpf_add(ad, bc) round them.  mpc_mul runs
    instead where a part is zero, where the parts of an operand lie more than
    64 bits apart (the aligned integers would grow), and where its mpf_add
    may take the perturbation shortcut for an exact add: lowest bits more
    than 100 apart and tops more than prec + 4.  That is decided exactly for
    ac, bd, and to one bit for ad, bc, whose uncertain case takes mpc_mul."""
    (a, b), (c, d) = z, w
    sa, A, ea, na = a
    sb, B, eb, nb = b
    sc, C, ec, nc = c
    sd, D, ed, nd = d
    if not (A and B and C and D) or abs(ea - eb) > 64 or abs(ec - ed) > 64:
        return mpc_mul(z, w, prec, rnd)
    low = ea + ed - eb - ec  # lowest bit of ad less that of bc
    if abs(low) > 100:
        top = ea + na + ed + nd - eb - nb - ec - nc  # tops' difference, +-1
        if (top if low > 0 else -top) > prec + 3:
            return mpc_mul(z, w, prec, rnd)
    # the parts of each operand as integers at its least exponent, e and f
    if ea > eb:
        A, e = A << (ea - eb), eb
    else:
        B, e = B << (eb - ea), ea
    if ec > ed:
        C, f = C << (ec - ed), ed
    else:
        D, f = D << (ed - ec), ec
    if sa:
        A = -A
    if sb:
        B = -B
    if sc:
        C = -C
    if sd:
        D = -D
    ac, bd = A * C, B * D
    low = ea + ec - eb - ed
    if abs(low) > 100:
        top = ac.bit_length() - bd.bit_length()
        if (top if low > 0 else -top) > prec + 4:
            return mpc_mul(z, w, prec, rnd)
    return (from_man_exp(ac - bd, e + f, prec, rnd),
            from_man_exp((A + B) * (C + D) - ac - bd, e + f, prec, rnd))


def _mul_int(a, n: int, prec, rnd):
    return mpc_mul_int(a, n, prec, rnd) if len(a) == 2 else mpf_mul_int(a, n, prec, rnd)


def _div(a, b, prec, rnd):
    if len(a) == 2:
        return mpc_div(a, b, prec, rnd) if len(b) == 2 else mpc_div_mpf(a, b, prec, rnd)
    return mpc_mpf_div(a, b, prec, rnd) if len(b) == 2 else mpf_div(a, b, prec, rnd)


def _pos(a, prec, rnd):
    return mpc_pos(a, prec, rnd) if len(a) == 2 else mpf_pos(a, prec, rnd)


def _as_mpc(a, prec, rnd):
    """a as mp.mpc(a) makes it: both parts rounded, an mpf's imaginary part 0."""
    return mpc_pos(a, prec, rnd) if len(a) == 2 else (mpf_pos(a, prec, rnd), fzero)


def _conj(a, prec, rnd):
    return mpc_conjugate(a, prec, rnd) if len(a) == 2 else a


def _re(a):
    return a[0] if len(a) == 2 else a


class _Split(NamedTuple):
    """A raw vector (conjugated if asked) in exact integers: per entry (re, im,
    re + im, e), the entry being (re + i im) 2^e with e the least exponent
    of its nonzero parts; `low` is the least of those exponents, `span` how
    far the greatest lies above it, `cplx` whether an entry is complex, and
    `parts` each entry's raw (re, im), with fzero as the im of an mpf.  The
    kernels make no inf or nan, so every part is finite."""

    parts: list
    terms: list
    low: int
    span: int
    cplx: bool


def _split(vec, conjugate: bool = False) -> _Split:
    """The `_Split` of a raw vector, its entries conjugated if asked."""
    parts = [r if len(r) == 2 else (r, fzero) for r in vec]
    if conjugate:
        parts = [(a, mpf_neg(b)) for a, b in parts]
    exps = [p[2] for r in parts for p in r if p[1]]
    low = min(exps, default=0)
    span = max(exps, default=0) - low
    terms = []
    for x, y in parts:
        e = min((p[2] for p in (x, y) if p[1]), default=low)
        a, b = _int(x, e), _int(y, e)
        terms.append((a, b, a + b, e))
    return _Split(parts, terms, low, span, any(len(r) == 2 for r in vec))


def _dot(u: _Split, w: _Split):
    """sum u_k w_k over split vectors, as mp.fdot takes it: every product
    exact, the sum rounded once per part; an mpf where neither vector is
    complex.  Each term takes three integer products (Gauss, as in `_cmul`),
    and the sum is one Python integer rounded once, which is mpf_sum's value
    wherever mpf_sum drops no product: where the products' lowest bits span
    at most 2 prec, its max_extra_prec.  Elsewhere mpf_sum takes the parts'
    products in mp.fdot's order, with the zero ones of real parts it skips."""
    prec, rnd = mp.mp._prec_rounding
    if u.span + w.span > 2 * prec:
        real, imag = [], []
        for (a, b), (c, d) in zip(u.parts, w.parts):
            real += mpf_mul(a, c), mpf_neg(mpf_mul(b, d))
            imag += mpf_mul(a, d), mpf_mul(b, c)
        re = mpf_sum(real, prec, rnd)
        return (re, mpf_sum(imag, prec, rnd)) if u.cplx or w.cplx else re
    low = u.low + w.low
    re = im = 0
    for (a, b, s, e), (c, d, t, f) in zip(u.terms, w.terms):
        ac, bd = a * c, b * d
        re += (ac - bd) << (e + f - low)
        im += (s * t - ac - bd) << (e + f - low)
    re = from_man_exp(re, low, prec, rnd)
    return (re, from_man_exp(im, low, prec, rnd)) if u.cplx or w.cplx else re


class Factor(NamedTuple):
    """The Cholesky factor L of M = L L^H in raw values, as the sweeps read
    it: the rows of L below its diagonal and its diagonal (real).  Column i
    of L below the diagonal is rows[k][i], k > i, which the backward sweep
    conjugates as it reads it."""

    rows: list
    diag: list


def hermitian_cholesky(M: list) -> Factor:
    """The factor L L^H = M of the raw rows M; raises PrecisionError when a
    pivot is not strictly positive (matrix numerically not positive
    definite).  Row by row, each entry's sum of L_ik conj(L_jk) rounded term
    by term."""
    n = len(M)
    prec, rnd = mp.mp._prec_rounding
    L, Lc = Factor([], []), []  # Lc: the conjugates of the rows of L so far
    for i in range(n):
        row = []
        for j in range(i + 1):
            cj = Lc[j] if j < i else [_conj(r, prec, rnd) for r in row]
            s = _CZERO
            for a, b in zip(row, cj):
                s = _add(s, _mul(a, b, prec, rnd), prec, rnd)
            if i == j:
                d = _re(_sub(M[i][i], s, prec, rnd))
                if not mpf_gt(d, fzero):
                    raise PrecisionError(f"non-positive pivot at row {i}")
                L.diag.append(mpf_sqrt(d, prec, rnd))
            else:
                row.append(_stored(_div(_sub(M[i][j], s, prec, rnd), L.diag[j], prec, rnd)))
        L.rows.append(row)
        Lc.append(cj)  # the conjugated row i, taken at j = i
    return L


def _unit(n: int, j: int) -> list:
    """The raw column j of mp.eye(n)."""
    e = [fzero] * n
    e[j] = fone
    return e


def _forward(F: Factor, rhs: list) -> list:
    """L^-1 rhs for the factor F of L and raw rhs.

    The sweep starts at the first nonzero row of rhs (row 0 for an all-zero
    rhs), skipping only exact zero terms.  Subtracting those complex zeros
    would round rhs[i] to a complex number, as mp.mpc does, so s is seeded
    that way: the bits and types are those of the full sweep.
    """
    rows, diag = F
    prec, rnd = mp.mp._prec_rounding
    n = len(rhs)
    start = next((i for i in range(n) if rhs[i] != fzero), 0)
    y = [fzero] * n
    for i in range(start, n):
        s = _as_mpc(rhs[i], prec, rnd) if start else rhs[i]
        for a, b in zip(rows[i][start:], y[start:i]):
            s = _sub(s, _mul(a, b, prec, rnd), prec, rnd)
        y[i] = _stored(_div(s, diag[i], prec, rnd))
    return y


def _backward(F: Factor, y: list, stop: int = 0) -> list:
    """Rows stop..n-1 of L^-H y for the factor F of L and raw y; the rows
    above stop are left 0.  Row i of L^H is column i of L conjugated,
    conj(rows[k][i]) for k > i, which rounds nothing.  Row i reads only the
    rows below it, so they are those of the full sweep."""
    rows, diag = F
    prec, rnd = mp.mp._prec_rounding
    n = len(y)
    x = [fzero] * n
    for i in reversed(range(stop, n)):
        s = y[i]
        for row, b in zip(rows[i + 1:], x[i + 1:]):
            s = _sub(s, _mul(_conj(row[i], prec, rnd), b, prec, rnd), prec, rnd)
        x[i] = _stored(_div(s, diag[i], prec, rnd))
    return x


@dataclass(frozen=True)
class GramSystem:
    """Hermitian positive-definite Gram matrix, by its Cholesky factor.

    `generators` is what the accepted rung factored (`_factor`): the
    displacement generators (x, v) at 20 guard digits, which the ladder
    rounded to digits_used, and the pinned entries, which the displacement
    leaves undetermined.
    """

    seq: MultiplicitySequence
    indices: tuple[FlatIndex, ...]
    domain: Interval | None
    chol: Factor
    digits_used: int
    cond_estimate: mp.mpf
    generators: tuple[tuple, tuple, dict]

    @property
    def dim(self) -> int:
        return len(self.indices)

    @cached_property
    def matrix(self) -> mp.matrix:
        """The Gram matrix at digits_used, built on first read from the
        accepted rung's generators with no exponential: for a >= b,
        (lambda_a + conj lambda_b) M_ab = x_a conj(x_b + v_b) + v_a conj x_b
        - k_a M_(a-1,b) - k_b M_(a,b-1), and M_ba = conj M_ab, each term
        present where its index lies in the same frequency's block.  The
        diagonal is the real Re(...) / (2 Re lambda_a), so Im M_aa is an exact
        0.  The recurrence runs at the generators' 20 guard digits, which
        absorb its cancellation, and each entry is rounded once.  The pinned
        entries, and the confluent frequency pairs whose recurrence would
        cancel beyond that (`_series_entries`), are read in closed form."""
        x, v, pinned = self.generators
        idx, d = self.indices, self.dim
        lams = [_raw(self.seq.lam(ix.n)) for ix in idx]
        G = [[None] * d for _ in range(d)]
        with mp.workdps(self.digits_used + _GENERATOR_GUARD_DIGITS):
            prec, rnd = mp.mp._prec_rounding
            closed = {key: _raw(m) for key, m in
                      {**_series_entries(self.seq, idx, self.domain), **pinned}.items()}
            x, v = [_raw(a) for a in x], [_raw(b) for b in v]
            xc = [_conj(a, prec, rnd) for a in x]
            w = [_conj(_add(a, b, prec, rnd), prec, rnd) for a, b in zip(x, v)]
            lc = [_conj(lam, prec, rnd) for lam in lams]
            for a in range(d):
                for b in range(a + 1):
                    if (a, b) in closed:
                        m = closed[a, b]
                    else:
                        below = [_mul_int(G[i][j], k, prec, rnd) for k, i, j in
                                 ((idx[a].k, a - 1, b), (idx[b].k, a, b - 1)) if k]
                        m = _as_mpc(_displacement_entry(x[a], v[a], xc[b], w[b], lams[a],
                                                        lc[b], a == b, below), prec, rnd)
                    G[a][b], G[b][a] = m, _conj(m, prec, rnd)
        with mp.workdps(self.digits_used):
            prec, rnd = mp.mp._prec_rounding
            return _matrix([[_pos(m, prec, rnd) for m in row] for row in G])


def _runs(idx: Sequence[FlatIndex]) -> list[list[int]]:
    """The positions of each frequency's block, in order."""
    return [list(run) for _, run in groupby(range(len(idx)), key=lambda i: idx[i].n)]


def _closed_entries(seq: MultiplicitySequence, idx: Sequence[FlatIndex],
                    dom: Interval | None, pick=None) -> dict:
    """The Gram entries M_ij, i >= j, of every frequency pair n >= m that
    pick(rows, cols, lambda_n + conj lambda_m) selects (all when pick is
    None), rows and cols the pair's blocks.  The block holds the integrals
    of t^(k+l) e^((lambda_n + conj lambda_m) t), read from one
    `monomial_exp_integrals` table."""
    out = {}
    runs = _runs(idx)
    for r, rows in enumerate(runs):
        for cols in runs[:r + 1]:
            a = seq.lam(idx[rows[0]].n) + mp.conj(seq.lam(idx[cols[0]].n))
            if pick is not None and not pick(rows, cols, a):
                continue
            table = monomial_exp_integrals(idx[rows[-1]].k + idx[cols[-1]].k, a, dom)
            for i in rows:
                for j in cols:
                    if j > i:
                        break
                    out[i, j] = table[idx[i].k + idx[j].k]
    return out


def _assemble(seq: MultiplicitySequence, idx: Sequence[FlatIndex],
              dom: Interval | None) -> list[list]:
    """The raw rows of the Gram matrix <e_(n,k), e_(m,l)> from every entry in
    closed form (`_closed_entries`), the block of m < n being the conjugate
    transpose of that of n, m, and the diagonal the conjugate of its
    integral, as an mp.matrix kept them (`_stored`)."""
    prec, rnd = mp.mp._prec_rounding
    d = len(idx)
    M = [[fzero] * d for _ in range(d)]
    for (i, j), v in _closed_entries(seq, idx, dom).items():
        r = _raw(v)
        M[i][j], M[j][i] = _stored(r), _stored(_conj(r, prec, rnd))
    return M


def _series_entries(seq: MultiplicitySequence, idx: Sequence[FlatIndex],
                    dom: Interval | None) -> dict:
    """The entries of the confluent frequency pairs (mu_n + mu_m > 2) where
    |lambda_n + conj lambda_m| (beta - gamma) < 1/2: there the recurrence of
    `GramSystem.matrix` cancels, as the by-parts recurrence of
    `monomial_exp_integrals` does, which takes its series instead, with no
    exponential."""
    if dom is None:
        return {}
    width = dom.beta - dom.gamma
    return _closed_entries(seq, idx, dom, lambda rows, cols, a: (
        len(rows) + len(cols) > 2 and abs(a) * width < mp.mpf("0.5")))


def _generators(seq: MultiplicitySequence, idx: Sequence[FlatIndex],
                dom: Interval | None) -> tuple[tuple, tuple]:
    """The displacement generators (x, v) of the Gram, with u = x + v the
    values of e_a at the right end and v those at the left end: on (gamma,
    beta), x_a = e^(lambda gamma) (beta^k expm1(lambda (beta - gamma)) +
    beta^k - gamma^k) and v_a = gamma^k e^(lambda gamma), one exponential and
    one expm1 per frequency, at 20 guard digits (`_factor` rounds them to the
    working precision); on the half-line x_a = [k = 0] and v = 0, which
    `_schur_cholesky` and `GramSystem.matrix` read as they read any v."""
    if dom is None:
        return tuple(mp.mpc(0 if ix.k else 1) for ix in idx), (mp.mpc(0),) * len(idx)
    gamma, beta = dom.gamma, dom.beta
    x, v = [], []
    with mp.extradps(_GENERATOR_GUARD_DIGITS):
        for n, run in groupby(idx, key=lambda ix: ix.n):
            lam = seq.lam(n)
            eg, em1 = mp.exp(lam * gamma), mp.expm1(lam * (beta - gamma))
            for ix in run:
                x.append(eg * (beta ** ix.k * em1 + (beta ** ix.k - gamma ** ix.k)))
                v.append(gamma ** ix.k * eg)
    return tuple(x), tuple(v)


def _pinned(seq: MultiplicitySequence, idx: Sequence[FlatIndex], dom: Interval | None,
            x: Sequence, v: Sequence) -> dict:
    """The entries that the displacement does not determine accurately, in
    closed form (`_closed_entries`).  A frequency pair n >= m is pinned where
    lambda_n + conj lambda_m = 0, or where the right side of its k = 0 entry,
    x_n conj(x_m + v_m) + v_n conj x_m, is smaller than the sum of its terms'
    moduli, |x_n| (|x_m| + |v_m|) + |v_n| |x_m|, by more than a factor
    `_CANCELLATION`.  The test is unchanged when x_n, v_n are scaled
    together, so each frequency's pair is scaled to modulus at most 1 by a
    power of two and tested in Python's complex floats, whose 53 bits put
    the right side's rounding error far below that factor.  On the
    half-line the right side is 1 and nothing is pinned."""
    if dom is None:
        return {}
    heads = [run[0] for run in _runs(idx)]
    scaled = {}
    for n in heads:
        scale = mp.ldexp(1, -max(mp.mag(x[n]), mp.mag(v[n])))
        scaled[n] = complex(x[n] * scale), complex(v[n] * scale)
    cancel = set()
    for i, n in enumerate(heads):
        xn, vn = scaled[n]
        for m in heads[:i + 1]:
            xm, vm = scaled[m]
            rhs = xn * (xm + vm).conjugate() + vn * xm.conjugate()
            if _CANCELLATION * abs(rhs) < abs(xn) * (abs(xm) + abs(vm)) + abs(vn) * abs(xm):
                cancel.add((n, m))
    return _closed_entries(seq, idx, dom, lambda rows, cols, a: (
        a == 0 or (rows[0], cols[0]) in cancel))


def _displacement_entry(xa, va, xcb, wb, lam_a, lcb, diagonal: bool, below):
    """The solution m of (lambda_a + conj lambda_b) m = x_a conj(x_b + v_b)
    + v_a conj x_b - (the terms of below, subtracted in turn), from xcb =
    conj x_b, wb = conj(x_b + v_b) and lcb = conj lambda_b, all raw.  On the
    diagonal m is the real Re(...) / (2 Re lambda_a): the imaginary part of
    the right side is rounding noise."""
    prec, rnd = mp.mp._prec_rounding
    r = _add(_mul(xa, wb, prec, rnd), _mul(va, xcb, prec, rnd), prec, rnd)
    for t in below:
        r = _sub(r, t, prec, rnd)
    if diagonal:
        return mpf_div(_re(r), mpf_mul_int(_re(lam_a), 2, prec, rnd), prec, rnd)
    return _div(r, _add(lam_a, lcb, prec, rnd), prec, rnd)


def _schur_cholesky(lams: Sequence, s: Sequence[int], x: list, v: list,
                    pinned: dict) -> Factor:
    """The factor L L^H = M of the Gram M with A M + M A^H =
    x x^H + x v^H + v x^H, A lower bidiagonal with lambda_i on its diagonal
    and s_i = k_i below it, by the generalized Schur algorithm on the
    generators x, v (v = 0 on the half-line: its products add exact zeros,
    which round nothing).

    Step k takes the pivot column m_i of the Schur complement, i >= k, from
    (lambda_i + conj lambda_k) m_i = x_i conj(x_k + v_k) + v_i conj x_k -
    s_i m_(i-1), where s_i is taken for i > k only, or, for a pinned entry,
    from the pinned value, which each step updates as Cholesky would.  It
    sets L[i, k] = m_i / sqrt(Re m_k), column k of the factor, and x_i -=
    m_i x_k / Re m_k, and v_i the same way; a pinned entry (i, j) below the
    pivot column takes L[i, k] conj L[j, k] off.  A pivot that is not
    strictly positive raises PrecisionError, as in `hermitian_cholesky`."""
    d = len(lams)
    prec, rnd = mp.mp._prec_rounding
    lams = [_raw(lam) for lam in lams]
    x = [_raw(a) for a in x]
    v = [_raw(b) for b in v]
    pinned = {key: _raw(m) for key, m in pinned.items()}
    L = Factor([[] for _ in range(d)], [])
    for k in range(d):
        lk = _conj(lams[k], prec, rnd)
        xk = _conj(x[k], prec, rnd)
        xvk = _conj(_add(x[k], v[k], prec, rnd), prec, rnd)
        m = [None] * d
        for i in range(k, d):
            if (i, k) in pinned:
                m[i] = pinned.pop((i, k))
                continue
            below = (_mul_int(m[i - 1], s[i], prec, rnd),) if s[i] and i > k else ()
            m[i] = _displacement_entry(x[i], v[i], xk, xvk, lams[i], lk, i == k, below)
        pivot = _re(m[k])
        if not mpf_gt(pivot, fzero):
            raise PrecisionError(f"non-positive pivot at row {k}")
        root = mpf_sqrt(pivot, prec, rnd)
        rinv = mpf_rdiv_int(1, root, prec, rnd)
        L.diag.append(root)
        cx = _div(x[k], pivot, prec, rnd)
        cv = _div(v[k], pivot, prec, rnd)
        for i in range(k + 1, d):
            L.rows[i].append(_stored(_mul(m[i], rinv, prec, rnd)))
            x[i] = _sub(x[i], _mul(m[i], cx, prec, rnd), prec, rnd)
            v[i] = _sub(v[i], _mul(m[i], cv, prec, rnd), prec, rnd)
        for (i, j) in pinned:  # j > k: the pinned entries of column k are taken
            lj = _conj(L.rows[j][k], prec, rnd)
            pinned[i, j] = _sub(pinned[i, j], _mul(L.rows[i][k], lj, prec, rnd), prec, rnd)
    return L


def _factor(seq: MultiplicitySequence, idx: Sequence[FlatIndex], dom: Interval | None
            ) -> tuple[Factor, tuple[tuple, tuple, dict]]:
    """The Cholesky factor of the Gram matrix at the working precision, by
    `_schur_cholesky` on the displacement generators rounded to it, for every
    Gram: mu_n >= 1, a bounded interval of any length or the half-line.  With
    it come the generators at their guard digits and the pinned entries, for
    `GramSystem.matrix`."""
    lams = [seq.lam(ix.n) for ix in idx]
    x, v = _generators(seq, idx, dom)
    pinned = _pinned(seq, idx, dom, x, v)
    L = _schur_cholesky(lams, [ix.k for ix in idx], [+a for a in x], [+b for b in v],
                        pinned)
    return L, (x, v, pinned)


def gram_matrix(seq: MultiplicitySequence, N: int, dom: Interval | None,
                ctx: PrecisionContext) -> GramSystem:
    """Factor the Gram matrix of the truncated system (`_factor`) on the
    domain, an `Interval` or None for (-inf, 0).

    Escalates working digits over the rungs d, 2d, 4d of the requested
    precision d until the Cholesky pivots clear the relative floor
    10^(-digits/2); a rung whose floor the last ratio misses by more than 10
    digits is skipped, and the 4d rung is never skipped.  The accepted rung
    is factored afresh at its own digits.  Exhaustion is an explicit failure
    naming the achieved condition estimate.
    """
    idx = flatten(seq, N)
    if dom is None:
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
                L, gens = _factor(seq, idx, dom)
            except PrecisionError:
                L = None
            if L is not None:
                pivots = [mp.make_mpf(r) for r in L.diag]
                ratio = min(pivots) / max(pivots)
                last_cond = (max(pivots) / min(pivots)) ** 2
                if ratio ** 2 >= mp.mpf(10) ** (-digits / 2):
                    return GramSystem(seq=seq, indices=tuple(idx), domain=dom, chol=L,
                                      digits_used=digits, cond_estimate=last_cond,
                                      generators=gens)
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


def _norm(y) -> tuple:
    """||y|| of a raw vector, raw, as mp.sqrt(mp.fsum(y, absolute=True,
    squared=True)) takes it: the squares of the parts summed as one integer
    and rounded once, which is mpf_sum's value wherever it drops no square
    (their lowest bits span at most 2 prec, as in `_dot`); elsewhere the
    real part of `_dot`'s sum of y_k conj y_k, which falls back there too."""
    prec, rnd = mp.mp._prec_rounding
    u = _split(y)
    if u.span > prec:
        return mpf_sqrt(_re(_dot(u, _split(y, conjugate=True))), prec, rnd)
    s = sum((a * a + b * b) << 2 * (e - u.low) for a, b, _, e in u.terms)
    return mpf_sqrt(from_man_exp(s, 2 * u.low, prec, rnd), prec, rnd)


def dual_norms(g: GramSystem) -> tuple[tuple, tuple]:
    """Dual norms ||r_j|| = sqrt((M^-1)_jj) = ||L^-1 e_j|| and distances
    1/||r_j|| (the Schur complement), from the forward sweeps of the ladder's
    factor alone, on raw values with the roundings of mp-object arithmetic.
    `biorthogonal` adds each column's backward sweep, run to the diagonal
    only, with C Hermitian off its diagonal by construction, on its own
    factor of the assembled matrix, so the two agree to the working
    precision, not bit for bit."""
    with mp.workdps(g.digits_used):
        norms = tuple(mp.make_mpf(_norm(_forward(g.chol, _unit(g.dim, j))))
                      for j in range(g.dim))
        return norms, tuple(1 / nv for nv in norms)


def _identity_residual(C: list, M: list) -> tuple:
    """max |(C M)_ij - delta_ij| over all d^2 entries of raw C and M, raw:
    each entry of C M an exact dot product rounded once (`_dot`), as C * M
    takes it, a real entry r read as (r, 0) (mpf_hypot(r, 0) is mpf_abs(r)).
    Each row of C and column of M is split into integers once."""
    prec, rnd = mp.mp._prec_rounding
    cols = [_split(col) for col in zip(*M)]
    resid = fzero
    for i, row in enumerate(map(_split, C)):
        for j, col in enumerate(cols):
            r = _dot(row, col)
            r = r if len(r) == 2 else (r, fzero)
            e = mpf_hypot(*mpc_sub_mpf(r, fone if i == j else fzero, prec, rnd), prec, rnd)
            if mpf_gt(e, resid):
                resid = e
    return resid


def biorthogonal(g: GramSystem) -> BiorthogonalFamily:
    """Invert the Gram through a factorization L L^H = M, column j of C = M^-1
    being L^-H y_j with y_j = L^-1 e_j, checked by the residual of C M against
    the identity over all d^2 entries.  M is assembled at digits_used and L
    is its `hermitian_cholesky`.  Column j's backward sweep runs to row j
    only: the sweeps give C's lower triangle and diagonal, and C_ij = conj
    C_ji above it, so C is Hermitian off its diagonal by construction, at a
    third of the backward work.  The kernels run on raw values with the
    roundings of mp-object arithmetic.  The dual norms ||y_j|| and the
    distances 1/||y_j|| agree with those of `dual_norms`, which reads the
    ladder's factor and skips the backward sweeps and the residual, to the
    working precision."""
    d = g.dim
    with mp.workdps(g.digits_used):
        prec, rnd = mp.mp._prec_rounding
        # the one consumer that neither uses the ladder's factor nor reads
        # `g.matrix`: either moves the rounding noise in Im C_ii (about
        # 1e-476; exactly 0 for the true inverse) that recorded benchmark
        # digests pin, and the sweeps keep it, bit for bit.  ROADMAP.md
        # items 1 and 2 (a per-job re-record of those digests, then C from
        # the inverse's own displacement generators, with a real diagonal)
        # remove this exception.
        M = _assemble(g.seq, g.indices, g.domain)
        F = hermitian_cholesky(M)
        C = [[None] * d for _ in range(d)]
        norms = []
        for j in range(d):
            y = _forward(F, _unit(d, j))
            norms.append(mp.make_mpf(_norm(y)))
            x = _backward(F, y, stop=j)
            C[j][j] = x[j]
            for i in range(j + 1, d):
                C[i][j], C[j][i] = x[i], _conj(x[i], prec, rnd)
        resid = mp.make_mpf(_identity_residual(C, M))
        dists = tuple(1 / nv for nv in norms)
    return BiorthogonalFamily(indices=g.indices, coeffs=_matrix(C), norms=tuple(norms),
                              distances=dists, identity_residual=resid)


def recover_coefficients(g: GramSystem, moments: Sequence) -> list[mp.mpc]:
    """Series coefficients from moments: c_a = <f, r_a> = sum_j conj(C[a,j]) m_j,
    that is conj(M^-1 conj(m)), from one solve with the factorization."""
    if len(moments) != g.dim:
        raise ConfigError(f"expected {g.dim} moments, got {len(moments)}")
    with mp.workdps(g.digits_used):
        F = g.chol
        u = _backward(F, _forward(F, [_stored(_raw(mp.conj(v))) for v in moments]))
        return [mp.conj(_obj(r)) for r in u]


@dataclass(frozen=True)
class MixedReport:
    n2: tuple[FlatIndex, ...]
    min_singular: mp.mpf


def mixed_completeness(g: GramSystem,
                       partition: tuple[Sequence[FlatIndex], Sequence[FlatIndex]]) -> MixedReport:
    """Min singular value of the Gram of {e_a : a in N1} union {r_b : b in N2}.

    A strictly positive value is the finite-dimensional reflection of
    hereditary completeness.  The partition must split the full truncated
    index set.  By biorthogonality that Gram is block-diagonal, so its
    eigenvalues are those of the Gram block M[N1, N1] and of the dual
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
        ys = [_forward(g.chol, _unit(g.dim, pos[b])) for b in n2]
        yc = [_split(y, conjugate=True) for y in ys]
        dual = mp.matrix(len(n2), len(n2))
        for i, y in enumerate(map(_split, ys)):
            for j in range(i + 1):
                dual[j, i] = _obj(_dot(y, yc[j]))
                dual[i, j] = mp.conj(dual[j, i])
        smin = min(e for block in (gram, dual) if block.rows
                   for e in mp.eigh(block, eigvals_only=True))
    return MixedReport(n2=n2, min_singular=smin)
