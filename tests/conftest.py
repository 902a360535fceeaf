import random

import mpmath as mp
import pytest

from expspan import (FlatIndex, Interval, MultiplicitySequence, PrecisionContext,
                     ProductKind, SequenceError, fixture, list_fixtures)


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
