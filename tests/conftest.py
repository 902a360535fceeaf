import math
import random
from types import SimpleNamespace

import mpmath as mp
import pytest
from mpmath.libmp import fzero

from expspan import (CapError, ConfigError, DomainError, FlatIndex, Interval, MultiplicitySequence,
                     PrecisionContext, PrecisionError, ProductKind, SequenceError,
                     fixture, flatten, gram, list_fixtures)


@pytest.fixture(autouse=True)
def _default_dps():
    """Tests run at a fixed base precision; ops that need more raise it."""
    with mp.workdps(60):
        yield


@pytest.fixture
def squares8():
    return fixture("squares", 8)


@pytest.fixture
def squares12():
    return fixture("squares", 12)


@pytest.fixture
def unit_interval():
    return Interval(0, 1)


@pytest.fixture
def ctx200():
    return PrecisionContext(digits=200, trunc_N=6)


def rand_complex(rng, scale=1.0):
    return mp.mpc(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def jittered_mu3(N, seed):
    """lambda_n = n^2 + delta_n, delta_n complex with parts exact multiples of 2^-20."""
    rng = random.Random(seed)
    return MultiplicitySequence.from_pairs(
        [(n * n + mp.mpc(rng.randint(-209715, 209715), rng.randint(-209715, 209715))
          / 2 ** 20, 3) for n in range(1, N + 1)], "jittered-mu3")


def halfline_inverse(seq, N):
    """The inverse C = M^-1 of the Gram M_ab = 1/(lambda_a + conj lambda_b) of
    e^(lambda_n t), n = 1..N, in L^2(-inf, 0), every mu = 1, in closed form:
    M is a Cauchy matrix, and with p_a = 2 Re lambda_a prod_(k != a)
    (conj lambda_a + lambda_k) / (conj lambda_a - conj lambda_k),
    C_ab = p_a conj(p_b) / (conj lambda_a + lambda_b).  The distance of
    e^(lambda_a t) to the span of the others is 1/sqrt(C_aa) = (2 Re
    lambda_a)^(-1/2) prod_(k != a) |lambda_a - lambda_k| / |lambda_a + conj
    lambda_k|.  A namespace of p, C (a list of rows) and the distances, at the
    working precision."""
    lams = [seq.lam(n) for n in range(1, N + 1)]
    p = []
    for a, la in enumerate(lams):
        pa = 2 * mp.re(la)
        for k, lk in enumerate(lams):
            if k != a:
                pa *= (mp.conj(la) + lk) / (mp.conj(la) - mp.conj(lk))
        p.append(pa)
    C = [[p[a] * mp.conj(p[b]) / (mp.conj(lams[a]) + lams[b]) for b in range(N)]
         for a in range(N)]
    return SimpleNamespace(p=p, C=C, distances=[1 / mp.sqrt(mp.re(C[a][a])) for a in range(N)])


def escalated_derivative_factor(seq, N, n, kind, dps):
    """derivative_factor in the cancelling 1 - lambda_n/lambda_j (F_PLAIN) or
    1 - lambda_n^2/lambda_j^2 (F_EVEN) form, at log10(|lambda_n|/gap) + dps + 30
    digits so that dps digits survive the cancellation; simple frequencies only."""
    lam = seq.lam(n)
    gap = min(abs(lam - seq.lam(k)) for k in range(1, N + 1) if k != n)
    even = kind is ProductKind.F_EVEN
    with mp.workdps(int(mp.log10(abs(lam) / gap)) + dps + 30):
        acc = (-2 if even else -1) / lam
        for j in range(1, N + 1):
            if j != n:
                lj = seq.lam(j)
                acc *= 1 - lam * lam / (lj * lj) if even else 1 - lam / lj
        return acc


# every built-in fixture at the term counts that the report sweep uses
FIXTURE_NAMES = [f.name for f in list_fixtures()]
FIXTURE_TERMS = (6, 9, 10, 12)


def counting_about(seq, N, z0, t) -> int:
    """n(t, z0): total multiplicity within distance t of z0."""
    seq.check_prefix(N)
    t = mp.mpf(t)
    z0 = mp.mpc(z0)
    return sum(seq.mu(n) for n in range(1, N + 1) if abs(seq.lam(n) - z0) <= t)


def as_matrix(A) -> mp.matrix:
    """The mp.matrix of a raw Cholesky factor (`gram.Factor`, whose L is 0
    above its diagonal) or of raw rows (`gram._assemble`), each raw value
    made the mpf or mpc it is."""
    if isinstance(A, gram.Factor):
        n = len(A.diag)
        A = [row + [d] + [fzero] * (n - i - 1) for i, (row, d) in enumerate(zip(A.rows, A.diag))]
    M = mp.matrix(len(A), len(A[0]))
    for i, row in enumerate(A):
        for j, r in enumerate(row):
            M[i, j] = mp.make_mpc(r) if len(r) == 2 else mp.make_mpf(r)
    return M


def bits(x):
    """Exact representation of an mpf, or of a list of them (None stays None)."""
    if x is None:
        return None
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    return x._mpf_


def decaying_coeffs(seq):
    """c_{n,k} = e^(-2 Re lambda_n) (n + (-1)^n i)/(k+1) at k = 0 and k = mu_n - 1,
    none at every n = 2 mod 3, so that some star coefficients are zero."""
    out = {}
    for n in range(1, seq.size + 1):
        if n % 3 != 2:
            for k in {0, seq.mu(n) - 1}:
                out[FlatIndex(n, k)] = (mp.exp(-2 * mp.re(seq.lam(n)))
                                        * mp.mpc(n, (-1) ** n) / (k + 1))
    return out


# -- one-loop references for the shared nearest-gap, abscissa and envelope code --
# Each is the loop that the library ran before it kept one copy of each
# computation, so the tests can check the shared code bit for bit.

def reference_fitted_separation_constant(seq, N, eps):
    """min_n gap_n * exp(eps |lambda_n| / mu_n), one pair loop per n."""
    seq.check_prefix(N)
    eps = mp.mpf(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    best = None
    for n in range(1, N + 1):
        lam = seq.lam(n)
        gap = min(abs(lam - seq.lam(k)) for k in range(1, N + 1) if k != n)
        if gap == 0:
            raise SequenceError(f"duplicate frequency at n={n}: gap is zero")
        val = gap * mp.exp(eps * abs(lam) / seq.mu(n))
        best = val if best is None else min(best, val)
    return best


def reference_nearest_gaps(seq, N):
    """The gap check's own loop: min over k != n of |lambda_n - lambda_k|."""
    gaps = []
    for n in range(1, N + 1):
        g = min(abs(seq.lam(n) - seq.lam(k)) for k in range(1, N + 1) if k != n)
        if g == 0:
            raise SequenceError(f"zero gap at n={n}: duplicate frequency")
        gaps.append(g)
    return gaps


def reference_gap_check(seq, N, eps):
    """(gaps, fitted_m, radii_large, radii_small) of the gap check, or its SequenceError."""
    seq.check_prefix(N)
    eps = mp.mpf(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    gaps = reference_nearest_gaps(seq, N)
    m = reference_fitted_separation_constant(seq, N, eps)
    large = []
    small = []
    for n in range(1, N + 1):
        decay = mp.exp(-eps * abs(seq.lam(n)) / seq.mu(n))
        large.append(m / 2 * decay)
        small.append(m / 6 * decay)
    disjoint = True
    for a in range(N):
        for b in range(a + 1, N):
            if abs(seq.lam(a + 1) - seq.lam(b + 1)) < large[a] + large[b]:
                disjoint = False
    if not disjoint:
        raise SequenceError("separation disks overlap despite the fitted constant; "
                            "the fit is inconsistent")
    return gaps, m, large, small


def reference_separation_search(seq, N):
    """The 40-point delta scan over every ordered pair at every grid point."""
    seq.check_prefix(N)
    delta = mp.mpf("0.09")
    for _ in range(40):
        ok = True
        for k in range(1, N + 1):
            bound = delta * abs(seq.lam(k))
            for n in range(1, N + 1):
                if n != k and abs(seq.lam(n) - seq.lam(k)) <= bound:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return delta
        delta *= mp.mpf("0.8")
    return None


def reference_coefficient_constant(s, beta, eps, upto):
    """max_n C_n e^((beta-eps) Re lambda_n) over the star coefficients C_n."""
    m_hat = mp.mpf(0)
    for n in range(1, upto + 1):
        cn = s.star_coefficient(n)
        if cn > 0:
            m_hat = max(m_hat, cn * mp.exp((beta - eps) * mp.re(s.seq.lam(n))))
    return m_hat


def reference_star_abscissa(s, N):
    """(a, ratios): max over the tail half of the finite log C_n / Re lambda_n."""
    ratios = []
    for n in range(1, N + 1):
        cn = s.star_coefficient(n)
        if cn > 0:
            ratios.append(mp.log(cn) / mp.re(s.seq.lam(n)))
        else:
            ratios.append(mp.mpf("-inf"))
    tail = [r for r in ratios[N // 2:] if mp.isfinite(r)]
    a = max(tail) if tail else mp.mpf("-inf")
    return a, ratios


def reference_growth_fit(d, seq, N):
    """(a, ratios, effectively_minus_inf) of the moment growth gate."""
    ratios = []
    for n in range(1, N + 1):
        an = d.group_max(n, seq.mu(n))
        ratios.append(mp.log(an) / mp.re(seq.lam(n)) if an > 0 else mp.mpf("-inf"))
    tail = [r for r in ratios[N // 2:] if mp.isfinite(r)]
    a = max(tail) if tail else mp.mpf("-inf")
    very_neg = all(r < mp.mpf(-10) for r in ratios if mp.isfinite(r)) or not tail
    return a, ratios, very_neg


# -- the Carleson operator's evaluation before it used exact integer binomials --
# Verbatim copies (bar the names) of the rational-gamma versions, which also
# rounded lambda to the ambient precision; the tests compare bit for bit where
# that rounding is exact.

_GUARD = 40  # carleson._GUARD


def reference_exp_monomial_derivative(lam, k: int, m: int, x) -> mp.mpc:
    """m-th derivative of t^k e^(lam t) at x, by the Leibniz rule."""
    lam = mp.mpc(lam)
    x = mp.mpc(x)
    total = mp.mpc(0)
    for j in range(min(k, m) + 1):
        total += (mp.binomial(m, j) * mp.ff(k, j) * x ** (k - j)
                  * lam ** (m - j))
    return total * mp.exp(lam * x)


def reference_apply_to_exponential(op, lam, k: int, x, ctx) -> mp.mpc:
    """Apply the operator to t^k e^(lam t) at x via the Leibniz expansion."""
    lam = mp.mpc(lam)
    with mp.workdps(ctx.digits + _GUARD):
        x = mp.mpc(x)
        total = mp.mpc(0)
        for j in range(k + 1):
            # F^(j)(lam)/j! by Horner on the shifted coefficient list
            dj = mp.mpc(0)
            for m in reversed(range(j, op.degree + 1)):
                dj = dj * lam + op.fcoeffs[m] * mp.binomial(m, j)
            total += mp.ff(k, j) * x ** (k - j) * dj
        val = total * mp.exp(lam * x)
    return val


# -- the Gram precision ladder before it skipped rungs --
# A verbatim copy (bar the name and the module prefixes) of `gram_matrix`
# when it factored every rung of d, 2d, 4d in turn, so the tests can check the
# skipping ladder bit for bit.  It calls gram._factor through the module, so a
# monkeypatched counter sees its factorizations too.

def walked_gram_matrix(seq, N, dom, ctx):
    """Factor the Gram matrix, escalating working digits
    (doubling, up to 4x the requested precision) until the Cholesky pivots
    clear the relative floor 10^(-digits/2)."""
    idx = flatten(seq, N)
    if dom.kind == "half_line_neg":
        bad = [n for n in range(1, N + 1) if not mp.re(seq.lam(n)) > 0]
        if bad:
            raise DomainError(f"half-line domain needs Re lambda_n > 0; violated at n={bad}")
    if len(idx) > gram._max_dim():
        raise CapError(f"Gram dimension {len(idx)} exceeds cap {gram._max_dim()} "
                       "(set EXPSPAN_MAX_DIM to raise)")
    digits = ctx.digits
    last_cond = mp.mpf("inf")
    while True:
        with mp.workdps(digits):
            try:
                L, gens = gram._factor(seq, idx, dom)
            except PrecisionError:
                L = None
            if L is not None:
                pivots = [mp.make_mpf(r) for r in L.diag]
                ratio = min(pivots) / max(pivots)
                last_cond = (max(pivots) / min(pivots)) ** 2
                if ratio ** 2 >= mp.mpf(10) ** (-digits / 2):
                    return gram.GramSystem(seq=seq, indices=tuple(idx), domain=dom, chol=L,
                                           digits_used=digits, cond_estimate=last_cond,
                                           generators=gens)
        if digits >= 4 * ctx.digits:
            raise PrecisionError(
                f"Gram factorization needs more than {digits} digits "
                f"(condition estimate {mp.nstr(last_cond, 5)}); "
                "raise ctx.digits")
        digits = min(2 * digits, 4 * ctx.digits)


# -- the Gram kernels on mp objects, before they ran on raw values --
# Verbatim copies (bar the names, the module prefixes, and the loops of
# `GramSystem.matrix` and of the identity residual taken out of their
# functions) of `_assemble`, `hermitian_cholesky`, `_forward`, `_backward`,
# `_norm`, `_displacement_entry`, `_schur_cholesky`, the matrix recurrence
# and the residual loop, so the tests can check the raw-value kernels bit
# for bit.  The readers of a raw factor or raw rows take `as_matrix` of it.

def parent_assemble(seq, idx, dom) -> mp.matrix:
    """The Gram matrix <e_(n,k), e_(m,l)> from every entry in closed form
    (`_closed_entries`), the block of m < n being the conjugate transpose of
    that of n, m."""
    d = len(idx)
    M = mp.matrix(d, d)
    for (i, j), v in gram._closed_entries(seq, idx, dom).items():
        M[i, j] = v
        M[j, i] = mp.conj(v)
    return M


def parent_hermitian_cholesky(M: mp.matrix) -> mp.matrix:
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


def parent_forward(L: mp.matrix, rhs: mp.matrix) -> mp.matrix:
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


def parent_backward(L: mp.matrix, y: mp.matrix) -> mp.matrix:
    """L^-H y."""
    n = L.rows
    x = mp.matrix(n, 1)
    for i in reversed(range(n)):
        s = y[i]
        for k in range(i + 1, n):
            s -= mp.conj(L[k, i]) * x[k]
        x[i] = s / L[i, i]
    return x


def parent_norm(y) -> mp.mpf:
    # real by construction: the squares are summed exactly and rounded once
    return mp.sqrt(mp.fsum(y, absolute=True, squared=True))


def parent_displacement_entry(xa, va, xcb, wb, lam_a, lcb, diagonal: bool, below):
    """The solution m of (lambda_a + conj lambda_b) m = x_a conj(x_b + v_b)
    + v_a conj x_b - (the terms of below, subtracted in turn), from xcb =
    conj x_b, wb = conj(x_b + v_b) and lcb = conj lambda_b (va None stands
    for 0).  On the diagonal m is the real Re(...) / (2 Re lambda_a): the
    imaginary part of the right side is rounding noise."""
    r = xa * wb
    if va is not None:
        r += va * xcb
    for t in below:
        r -= t
    return mp.re(r) / (2 * mp.re(lam_a)) if diagonal else r / (lam_a + lcb)


def parent_schur_cholesky(lams, s, x: list, v, pinned: dict) -> mp.matrix:
    """Lower-triangular L with L L^H = M for the Gram M with A M + M A^H =
    x x^H + x v^H + v x^H, by the generalized Schur algorithm on the
    generators x, v (updated in place; v None stands for 0)."""
    d = len(lams)
    L = mp.matrix(d, d)
    pinned = dict(pinned)
    for k in range(d):
        lk = mp.conj(lams[k])
        xk = mp.conj(x[k])
        xvk = xk if v is None else mp.conj(x[k] + v[k])
        m = [None] * d
        for i in range(k, d):
            if (i, k) in pinned:
                m[i] = pinned.pop((i, k))
                continue
            m[i] = parent_displacement_entry(x[i], None if v is None else v[i], xk, xvk,
                                             lams[i], lk, i == k,
                                             (s[i] * m[i - 1],) if s[i] and i > k else ())
        pivot = mp.re(m[k])
        if not pivot > 0:
            raise PrecisionError(f"non-positive pivot at row {k}")
        root = mp.sqrt(pivot)
        rinv = 1 / root
        L[k, k] = root
        cx = x[k] / pivot
        cv = None if v is None else v[k] / pivot
        for i in range(k + 1, d):
            L[i, k] = m[i] * rinv
            x[i] -= m[i] * cx
            if v is not None:
                v[i] -= m[i] * cv
        for (i, j) in pinned:
            pinned[i, j] -= L[i, k] * mp.conj(L[j, k])
    return L


def parent_factor(g):
    """The ladder's factor of g, by `parent_schur_cholesky` on the accepted
    rung's generators rounded to digits_used, as `gram._factor` takes it."""
    x, v, pinned = g.generators
    with mp.workdps(g.digits_used):
        return parent_schur_cholesky([g.seq.lam(ix.n) for ix in g.indices],
                                     [ix.k for ix in g.indices], [+a for a in x],
                                     None if g.domain.kind == "half_line_neg"
                                     else [+b for b in v], pinned)


def parent_matrix(g) -> mp.matrix:
    """`GramSystem.matrix` of g by the mp-object recurrence."""
    x, v, pinned = g.generators
    idx, d = g.indices, g.dim
    lams = [g.seq.lam(ix.n) for ix in idx]
    G = [[None] * d for _ in range(d)]
    with mp.workdps(g.digits_used + gram._GENERATOR_GUARD_DIGITS):
        closed = {**gram._series_entries(g.seq, idx, g.domain), **pinned}
        xc = [mp.conj(a) for a in x]
        w = [mp.conj(a + b) for a, b in zip(x, v)]
        lc = [mp.conj(lam) for lam in lams]
        for a in range(d):
            for b in range(a + 1):
                if (a, b) in closed:
                    m = closed[a, b]
                else:
                    below = [k * G[i][j] for k, i, j in
                             ((idx[a].k, a - 1, b), (idx[b].k, a, b - 1)) if k]
                    m = mp.mpc(parent_displacement_entry(x[a], v[a], xc[b], w[b], lams[a],
                                                         lc[b], a == b, below))
                G[a][b], G[b][a] = m, mp.conj(m)
    M = mp.matrix(d, d)
    with mp.workdps(g.digits_used):
        for a in range(d):
            for b in range(d):
                M[a, b] = +G[a][b]
    return M


def parent_identity_residual(C: mp.matrix, M: mp.matrix) -> mp.mpf:
    """max |(C M)_ij - delta_ij| over all entries, at the working precision."""
    d = C.rows
    resid = mp.mpf(0)
    R = C * M
    for i in range(d):
        for j in range(d):
            target = 1 if i == j else 0
            resid = max(resid, abs(R[i, j] - target))
    return resid


def parent_dual_block(g, n2) -> mp.matrix:
    """The dual block <y_b, y_a> over n2 of `mixed_completeness`."""
    pos = {ix: i for i, ix in enumerate(g.indices)}
    with mp.workdps(g.digits_used):
        L = as_matrix(g.chol)
        ys = [parent_forward(L, mp.eye(g.dim).column(pos[b])) for b in n2]
        dual = mp.matrix(len(n2), len(n2))
        for i, y in enumerate(ys):
            for j in range(i + 1):
                dual[j, i] = mp.fdot(y, ys[j], conjugate=True)
                dual[i, j] = mp.conj(dual[j, i])
    return dual


def parent_recover_coefficients(g, moments) -> list:
    """conj(M^-1 conj(m)) from one solve with the ladder's factor."""
    with mp.workdps(g.digits_used):
        rhs = mp.matrix([mp.conj(v) for v in moments])
        L = as_matrix(g.chol)
        u = parent_backward(L, parent_forward(L, rhs))
        return [mp.conj(u[a]) for a in range(g.dim)]


# -- the precision ladder and the biorthogonal family on the assembled Gram --
# Verbatim copies (bar the names, the module prefixes, the dimension cap, the
# assembly and the factorization) of `gram_matrix` and `biorthogonal` when a
# Gram that the displacement generators did not serve (mu > 1, or a short
# bounded interval) was assembled and factored by `hermitian_cholesky` at
# every rung, and `biorthogonal` inverted that assembled matrix with the
# ladder's factor of it.  Here every Gram takes that branch, so the tests can
# check the generator ladder's digits_used and the family bit for bit against
# it.  Both run on the mp-object kernels above.

def assembled_gram_matrix(seq, N, dom, ctx):
    """The Gram ladder on the assembled matrix: a namespace with the fields
    of the system, the assembled matrix in `assembled`."""
    idx = flatten(seq, N)
    if dom.kind == "half_line_neg":
        bad = [n for n in range(1, N + 1) if not mp.re(seq.lam(n)) > 0]
        if bad:
            raise DomainError(f"half-line domain needs Re lambda_n > 0; violated at n={bad}")
    digits = ctx.digits
    last_cond = mp.mpf("inf")
    while True:
        with mp.workdps(digits):
            try:
                M = parent_assemble(seq, idx, dom)
                L = parent_hermitian_cholesky(M)
            except PrecisionError:
                L = None
            if L is not None:
                pivots = [mp.re(L[i, i]) for i in range(len(idx))]
                ratio = min(pivots) / max(pivots)
                last_cond = (max(pivots) / min(pivots)) ** 2
                if ratio ** 2 >= mp.mpf(10) ** (-digits / 2):
                    return SimpleNamespace(seq=seq, indices=tuple(idx), domain=dom, chol=L,
                                           digits_used=digits, cond_estimate=last_cond,
                                           assembled=M, dim=len(idx))
        if digits >= 4 * ctx.digits:
            raise PrecisionError(
                f"Gram factorization needs more than {digits} digits "
                f"(condition estimate {mp.nstr(last_cond, 5)}); "
                "raise ctx.digits")
        digits = min(2 * digits, 4 * ctx.digits)
        if (L is not None and digits < 4 * ctx.digits
                and ratio ** 2 < mp.mpf(10) ** (-digits / 2 - gram._RUNG_GUARD_DIGITS)):
            digits = 4 * ctx.digits


def parent_biorthogonal(g):
    """Invert the Gram through a factorization L L^H = M, column j of C = M^-1
    being L^-H y_j with y_j = L^-1 e_j, checked by the residual of C M against
    the identity.  M is the assembled matrix and L the ladder's factor of it
    (`assembled_gram_matrix`)."""
    d = g.dim
    with mp.workdps(g.digits_used):
        M, L = g.assembled, g.chol
        C = mp.matrix(d, d)
        norms = []
        for j in range(d):
            y = parent_forward(L, mp.eye(d).column(j))
            norms.append(parent_norm(y))
            col = parent_backward(L, y)
            for i in range(d):
                C[i, j] = col[i]
        resid = parent_identity_residual(C, M)
        dists = tuple(1 / nv for nv in norms)
    return gram.BiorthogonalFamily(indices=g.indices, coeffs=C, norms=tuple(norms),
                                   distances=dists, identity_residual=resid)


# -- the analyzer's and the Carleson operator's loops before they shared tables --
# Verbatim copies (bar the names) of the per-point, per-n and per-pair loops
# that recomputed each derivative table, removed factor, modulus and distance,
# so the tests can check the shared sweeps bit for bit.  The gap check's pair
# test is the loop at the end of `reference_gap_check`.

def per_point_apply_to_exponential(op, lam, k: int, x, ctx) -> mp.mpc:
    """Apply the operator to t^k e^(lam t) at x via the Leibniz expansion."""
    with mp.workdps(ctx.digits + _GUARD):
        # mp.mpc(z) would round even an mpc z to the ambient precision
        lam = lam if isinstance(lam, mp.mpc) else mp.mpc(lam)
        x = mp.mpc(x)
        total = mp.mpc(0)
        for j in range(k + 1):
            # F^(j)(lam)/j! by Horner on the shifted coefficient list
            dj = mp.mpc(0)
            for m in reversed(range(j, op.degree + 1)):
                dj = dj * lam + op.fcoeffs[m] * math.comb(m, j)
            total += math.perm(k, j) * x ** (k - j) * dj
        val = total * mp.exp(lam * x)
    return val


def per_n_derivative_factor(seq, N, n, kind=ProductKind.F_PLAIN) -> mp.mpc:
    """Removed-factor value of F^(mu_n)(lambda_n) / mu_n! for the truncated product."""
    seq.check_prefix(N)
    if not 1 <= n <= N:
        raise ConfigError(f"n={n} outside prefix 1..{N}")
    if kind not in (ProductKind.F_PLAIN, ProductKind.F_EVEN):
        raise ConfigError("removed-factor derivative defined for F_PLAIN and F_EVEN")
    lam, mu = seq.lam(n), seq.mu(n)
    even = kind is ProductKind.F_EVEN
    acc = ((-2 if even else -1) / lam) ** mu
    for j in range(1, N + 1):
        if j != n:
            lj = seq.lam(j)
            factor = (lj - lam) * (lj + lam) / (lj * lj) if even else (lj - lam) / lj
            acc *= factor ** seq.mu(j)
    return acc


def reference_counting(seq, N, t) -> int:
    """n(t): total multiplicity of frequencies with |lambda_n| <= t."""
    seq.check_prefix(N)
    t = mp.mpf(t)
    if not t > 0:
        raise ConfigError("t must be positive")
    return sum(seq.mu(n) for n in range(1, N + 1) if abs(seq.lam(n)) <= t)


def reference_integrated_counting(seq, N, r) -> mp.mpf:
    """N(r) = sum_{|lambda_n| <= r} mu_n log(r / |lambda_n|)."""
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


def reference_integrated_about(seq, N, n) -> mp.mpf:
    """N(|lambda_n|, lambda_n) over the truncated prefix."""
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


def reference_trend_ratios(seq, N):
    """The ratio lists of geometric conditions (i) and (ii) and of the density trend."""
    ratios_i = [reference_integrated_counting(seq, N, abs(seq.lam(j))) / abs(seq.lam(j))
                for j in range(1, N + 1)]
    ratios_ii = [reference_integrated_about(seq, N, n) / abs(seq.lam(n))
                 for n in range(1, N + 1)]
    density = [mp.mpf(reference_counting(seq, N, abs(seq.lam(j)))) / abs(seq.lam(j))
               for j in range(1, N + 1)]
    return ratios_i, ratios_ii, density
