import math
import random
from types import SimpleNamespace

import mpmath as mp
import pytest

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


def halfline_distance(seq, N, n):
    """D_n = (2 Re lambda_n)^(-1/2) prod_(k != n) |lambda_n - lambda_k| / |lambda_n +
    conj lambda_k|: the distance of e^(lambda_n t) to the span of the others in
    L^2(-inf, 0), the closed form of the rank-1 (Cauchy) Gram, where every mu = 1."""
    lam = seq.lam(n)
    d = 1 / mp.sqrt(2 * mp.re(lam))
    for k in range(1, N + 1):
        if k != n:
            d *= abs(lam - seq.lam(k)) / abs(lam + mp.conj(seq.lam(k)))
    return d


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
                pivots = [mp.re(L[i, i]) for i in range(len(idx))]
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


# -- the precision ladder and the biorthogonal family on the assembled Gram --
# Verbatim copies (bar the names, the module prefixes, the dimension cap and
# the factorization) of `gram_matrix` and `biorthogonal` when a Gram that the
# displacement generators did not serve (mu > 1, or a short bounded interval)
# was assembled and factored by `hermitian_cholesky` at every rung, and
# `biorthogonal` inverted that assembled matrix with the ladder's factor of
# it.  Here every Gram takes that branch, so the tests can check the
# generator ladder's digits_used and the family bit for bit against it.

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
                M = gram._assemble(seq, idx, dom)
                L = gram.hermitian_cholesky(M)
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
            y = gram._forward(L, mp.eye(d).column(j))
            norms.append(gram._norm(y))
            col = gram._backward(L, y)
            for i in range(d):
                C[i, j] = col[i]
        resid = mp.mpf(0)
        R = C * M
        for i in range(d):
            for j in range(d):
                target = 1 if i == j else 0
                resid = max(resid, abs(R[i, j] - target))
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
