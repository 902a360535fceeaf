"""Entire and meromorphic functions built from a frequency sequence.

Truncated canonical products (four kinds), removed-factor derivatives,
exact Maclaurin coefficients, the windowed even product with cosine
damping (zeros at i*lambda_n), Laurent coefficients of its reciprocal on
small circles, the interpolation functions built from them, and a
Blaschke-type quotient analytic right of Re z = -4.

All truncated products are polynomials (times bounded factors), so growth
statements become fitted-constant trend checks rather than type bounds.

The windowed product's factor product prod (lambda_n^2 + z^2)^mu_n is taken
in integer fixed point: exact sums; the powers by the bits of the mu_n, the
product of the factors whose mu_n has bit b formed once per distinct set of
factors and the whole squared and multiplied from the top bit down, so that
every mu_n shares one chain of squarings (simultaneous powering: mu = 3, N = 12
takes 13 multiplies per point where a chain per factor takes 36); each sum and
multiply truncated to _GUARD = 64 bits plus log2(sum mu_n) bits beyond the
working precision, and one rounding per point, so it is within mp.eps =
2^(1-prec) in modulus of the exact product of the rounded squares and z^2, and
its cost grows with log max mu_n.  z^2 itself is exact, from z's integers, so
Re(lambda_n^2 + z^2) keeps x^2 at z = x + i lambda_n however small x is; the
per-factor loop forms each lambda_n^2 + z^2 with one rounding per part
(`_plus_square`).  A point whose exponents lie more than twice the kept bits
apart takes mpmath's per-factor loop instead, with no shift of that size, and
so does every point when sum mu_n >= 2^_GUARD, where squaring would cost more
than mpmath's exp(mu log) powers, which that loop and `eval_product` take with
log2 mu_n guard bits from mu_n >= 2^8 on.  `eval_product`, `derivative_factors`
and the other products keep their per-factor mpmath loops.

The phase and window e^(-i sigma z) prod_{k=1..K} cos(tau z / 2^k) are taken in
the same fixed point from one exponential E = e^(-i tau z / 2^K), as
e^(-i gamma z) E prod_{j=1..K} (1 + E^(2^j)) / 2 (sigma - tau = gamma): K
squarings and K multiplies, no division, exactly 1 at z = 0, and the 1 of
1 + E^(2^j) dropped where it lies below the kept bits.  The exponential's
argument is exact, so the window keeps its digits however large tau z is.  C,
the window and the factor product are folded with one rounding per point: at
mu = 3, N = 12 on (0, beta) a point costs one exponential at the kept bits and
13 + 2K + 2 = 31 integer multiplies, where mpmath's phase and Viete's window
took three transcendental calls.  A point whose E has its two parts more than
_GUARD/2 + log2(sum mu_n) bits apart (z = x + i lambda_n with x tiny), whose
factor product takes the per-factor loop, or that is not finite, takes that
loop with mpmath's phase and Viete's window (`_window`), whose arguments
-i sigma z and tau z are exact too, so that loop keeps their digits however
large tau z is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import (fzero, mpc_exp, mpf_add, mpf_mul, mpf_neg, mpf_pos,
                          mpf_shift, mpf_sub, round_nearest)

from .core import Interval, MultiplicitySequence, PrecisionContext, prefix_table
from .errors import ConfigError, DomainError, PrecisionError

# halvings K of the windowed even product's cosine window
_COS_K = 8
# guard bits kept beyond the working precision by _lk_values' factor product
_GUARD = 64
# multiplicities below 2^_POW_BITS keep mpmath's own power (`_power`)
_POW_BITS = 8


class ProductKind(enum.Enum):
    """Factor shapes: which set the truncated product vanishes on.

    F_PLAIN  prod (1 - z/lambda_n)^mu_n      zeros on the sequence
    G_ABS    prod (1 + z/|lambda_n|)^mu_n    zeros on -|lambda_n|
    F_EVEN   prod (1 - z^2/lambda_n^2)^mu_n  zeros on +-lambda_n
    L_EVEN   prod (1 + z^2/lambda_n^2)^mu_n  zeros on +-i lambda_n
    """

    F_PLAIN = "F"
    G_ABS = "G"
    F_EVEN = "F_even"
    L_EVEN = "L_even"


def _factor_base(kind: ProductKind, lam, z, zz):
    """One factor at z; zz = z*z, computed once per point by the caller."""
    if kind is ProductKind.F_PLAIN:
        return 1 - z / lam
    if kind is ProductKind.G_ABS:
        return 1 + z / abs(lam)
    if kind is ProductKind.F_EVEN:
        return 1 - zz / (lam * lam)
    return 1 + zz / (lam * lam)


def _power(base, mu: int):
    """base ** mu, for the caller's next operation to round: from mu >=
    2^_POW_BITS on it is taken with log2 mu more bits, so that the error of
    mpmath's exp(mu log) power, about mu 2^-(prec+10) relative, stays below an
    ulp of the working precision."""
    if mu.bit_length() <= _POW_BITS:
        return base ** mu
    with mp.workprec(mp.mp.prec + mu.bit_length()):
        return base ** mu


def eval_product(kind: ProductKind, seq: MultiplicitySequence, N: int, z) -> mp.mpc:
    """Finite product over the prefix, factors in modulus-increasing order.

    Hitting a zero of the truncated product short-circuits to exact 0.
    """
    seq.check_prefix(N)
    z = mp.mpc(z)
    zz = z * z
    acc = mp.mpc(1)
    for n in range(1, N + 1):
        base = _factor_base(kind, seq.lam(n), z, zz)
        if base == 0:
            return mp.mpc(0)
        acc *= _power(base, seq.mu(n))
    return acc


def derivative_factors(seq: MultiplicitySequence, N: int,
                       kind: ProductKind = ProductKind.F_PLAIN) -> list[mp.mpc]:
    """Removed-factor values F^(mu_n)(lambda_n) / mu_n! of the truncated product,
    n = 1..N, from one pairwise sweep.

    F_PLAIN: (-1/lambda_n)^mu_n * prod_{j != n} ((lambda_j - lambda_n)/lambda_j)^mu_j
    F_EVEN:  (-2/lambda_n)^mu_n *
             prod_{j != n} ((lambda_j - lambda_n)(lambda_j + lambda_n)/lambda_j^2)^mu_j

    Each factor is 1 - lambda_n/lambda_j (or 1 - lambda_n^2/lambda_j^2)
    rewritten so that nothing cancels: the difference of two stored
    frequencies is correctly rounded at any precision, so a near-duplicate
    pair costs no digits and every factor, and the product, carries a
    relative error of a few ulps per factor at the working precision.  No
    numerical differentiation is involved; for a valid sequence no value is
    zero because every remaining factor is nonzero.

    Each unordered pair's numerator is computed once and the other order
    takes its negation, which is exact: a - b = -(b - a) and a + b = b + a
    bit for bit under round-to-nearest.  The denominators lambda_j (or
    lambda_j^2) are computed once each.
    """
    seq.check_prefix(N)
    if kind not in (ProductKind.F_PLAIN, ProductKind.F_EVEN):
        raise ConfigError("removed-factor derivative defined for F_PLAIN and F_EVEN")
    even = kind is ProductKind.F_EVEN
    lams = [seq.lam(n) for n in range(1, N + 1)]
    dens = [lam * lam for lam in lams] if even else lams
    # num[n][j]: numerator of lambda_j's factor in the value at lambda_n
    num = [[None] * N for _ in range(N)]
    for n in range(N):
        for j in range(n + 1, N):
            diff = lams[j] - lams[n]
            num[n][j] = diff * (lams[j] + lams[n]) if even else diff
            num[j][n] = -num[n][j]
    out = []
    for n, lam in enumerate(lams):
        acc = ((-2 if even else -1) / lam) ** seq.mu(n + 1)
        for j, den in enumerate(dens):
            if j != n:
                acc *= (num[n][j] / den) ** seq.mu(j + 1)
        out.append(acc)
    return out


def derivative_factor(seq: MultiplicitySequence, N: int, n: int,
                      kind: ProductKind = ProductKind.F_PLAIN) -> mp.mpc:
    """The n-th of `derivative_factors`.  Nothing in the program calls it, but
    bench/spans.py traces this name and bench/test_bench.py asserts that the
    tracer finds every name it wraps, so it cannot leave before a benchmark
    change (ROADMAP.md items 6 and 11)."""
    seq.check_prefix(N)
    if not 1 <= n <= N:
        raise ConfigError(f"n={n} outside prefix 1..{N}")
    return derivative_factors(seq, N, kind)[n - 1]


def _factor_coeffs(kind: ProductKind, lam, mu: int) -> list[mp.mpc]:
    """Polynomial coefficients of one factor, ascending powers of z."""
    if kind is ProductKind.F_PLAIN:
        r, step = -1 / lam, 1
    elif kind is ProductKind.G_ABS:
        r, step = 1 / abs(lam), 1
    elif kind is ProductKind.F_EVEN:
        r, step = -1 / (lam * lam), 2
    else:
        r, step = 1 / (lam * lam), 2
    out = [mp.mpc(0)] * (mu * step + 1)
    for j in range(mu + 1):
        out[j * step] = mp.binomial(mu, j) * r ** j
    return out


def taylor_coeffs(kind: ProductKind, seq: MultiplicitySequence, N: int, M: int,
                  ctx: PrecisionContext | None = None) -> list[mp.mpc]:
    """First M+1 Maclaurin coefficients of the truncated product.

    The truncated product is a polynomial; coefficients beyond its degree
    are exactly zero.  For G_ABS every returned coefficient is positive.
    """
    seq.check_prefix(N)
    if M < 1:
        raise ConfigError("M must be >= 1")
    dps = (ctx.digits if ctx else mp.mp.dps) + 10
    with mp.workdps(dps):
        acc = [mp.mpc(1)]
        for n in range(1, N + 1):
            fac = _factor_coeffs(kind, seq.lam(n), seq.mu(n))
            new = [mp.mpc(0)] * min(len(acc) + len(fac) - 1, M + 1)
            for i, a in enumerate(acc):
                if i > M:
                    break
                for j, b in enumerate(fac):
                    if i + j > M:
                        break
                    new[i + j] += a * b
            acc = new
        acc += [mp.mpc(0)] * (M + 1 - len(acc))
    if kind is ProductKind.G_ABS:
        acc = [mp.re(c) for c in acc]
    return acc


@dataclass(frozen=True)
class LKFunction:
    """Windowed even product G(z) = e^(-i sigma z) L(z) prod_{k=1..K} cos(tau z / 2^k).

    L is the L_EVEN product over the prefix, so G vanishes exactly at
    +-i lambda_n for n <= trunc_N.  sigma and tau come from the target
    interval; the half-widths tau 2^-k sum to tau (1 - 2^-K) < tau.
    """

    seq: MultiplicitySequence
    interval: Interval
    K: int
    trunc_N: int

    def __post_init__(self):
        self.seq.check_prefix(self.trunc_N)  # no silent truncation downgrade


def lk_function(seq: MultiplicitySequence, interval: Interval,
                ctx: PrecisionContext) -> LKFunction:
    return LKFunction(seq=seq, interval=interval, K=_COS_K, trunc_N=ctx.trunc_N)


def _roots(count: int) -> list[mp.mpc]:
    """The count-th roots of unity e^(2 pi i q / count), q = 0..count-1."""
    return [mp.expjpi(mp.mpf(2 * q) / count) for q in range(count)]


def _times(rate, z) -> mp.mpc:
    """rate z for a raw real rate, exact: one unrounded mpf_mul per part of z."""
    x, y = z._mpc_
    return mp.make_mpc((mpf_mul(rate, x), mpf_mul(rate, y)))


def _centre_radius(interval: Interval, bits: int):
    """sigma = (gamma + beta)/2 and tau = (beta - gamma)/2 as raw mpf, each sum
    rounded to bits (exact where the endpoints lie within bits of each other)."""
    gamma, beta = interval.gamma._mpf_, interval.beta._mpf_
    return mpf_shift(mpf_add(gamma, beta, bits), -1), mpf_shift(mpf_sub(beta, gamma, bits), -1)


def _window(lk: LKFunction, z, tau):
    """prod_{k=1..K} cos(tau z / 2^k) = sin(tau z) / (2^K sin(tau z / 2^K)) by Viete,
    for the raw half-length tau (`_centre_radius`).

    tau z and tau z / 2^K are exact (`_times`), so the window keeps its digits
    however large tau z is, and the quotient holds where both sines vanish; at
    z = 0, the one exact 0/0, it is 1."""
    z = mp.mpc(z)
    t = _times(tau, z)
    if t == 0:
        return mp.mpf(1)
    return mp.sin(t) * mp.ldexp(1, -lk.K) / mp.sin(_times(mpf_shift(tau, -lk.K), z))


def _fx(xs, keep: int):
    """Integers [(a_j, b_j)] and one exponent e with xs[j] = (a_j + b_j i) 2^e
    exactly; None when two exponents of xs lie more than 2 keep bits apart."""
    parts = [(-m if s else m, x) for v in xs for s, m, x, _ in v._mpc_]
    exps = [x for m, x in parts if m] or [0]  # inf and nan read as 0
    e = min(exps)
    if max(exps) - e > 2 * keep:
        return None
    ints = [m and m << (x - e) for m, x in parts]
    return list(zip(ints[::2], ints[1::2])), e


def _fx1(v, keep: int):
    """The (a, b, e) form (a + b i) 2^e of one mpc v, or None, as in `_fx`."""
    form = _fx([v], keep)
    if form is None:
        return None
    [(a, b)], e = form
    return a, b, e


def _fx_mul(A: int, B: int, a: int, b: int, keep: int):
    """(A + B i)(a + b i) truncated to `keep` bits: (re, im, bits dropped)."""
    A, B = A * a - B * b, A * b + B * a
    drop = max(A.bit_length(), B.bit_length(), keep) - keep
    return A >> drop, B >> drop, drop


def _fx_times(u, v, keep: int):
    """The product of two (a, b, e) forms (a + b i) 2^e, truncated to keep bits."""
    (A, B, E), (a, b, e) = u, v
    A, B, drop = _fx_mul(A, B, a, b, keep)
    return A, B, E + e + drop


def _fx_round(u) -> mp.mpc:
    """An (a, b, e) form rounded to the working precision, once per part."""
    A, B, E = u
    return mp.mpc(mp.mpf((A, E)), mp.mpf((B, E)))


def _fx_square(z):
    """The `_fx` form of z^2, exact, from that of z (None stays None)."""
    if z is None:
        return None
    [(a, b)], e = z
    return [(a * a - b * b, 2 * a * b)], 2 * e


def _finite(*parts) -> bool:
    """No raw mpf of parts is inf or nan (their mantissa is 0, their exponent not)."""
    return all(v[1] or not v[2] for v in parts)


def _sum_rounded(terms, prec: int):
    """The sum of raw finite mpf values, rounded once to prec bits where the
    two largest lie within 2 prec + 64 bits of each other (they are added
    exactly, so their cancellation exposes the third), else within an ulp;
    no shift exceeds about that many bits."""
    terms = sorted((t for t in terms if t[1]), key=lambda t: t[2] + t[3], reverse=True)
    if not terms:
        return fzero
    head, *rest = terms
    if rest and head[2] + head[3] - rest[0][2] - rest[0][3] <= 2 * prec + 64:
        head = mpf_add(head, rest.pop(0))
    for t in rest:
        head = mpf_add(head, t, prec)
    return mpf_add(head, fzero, prec)


def _plus_square(sq, z) -> mp.mpc:
    """sq + z^2 with each part rounded once: Re sq + x^2 - y^2 and Im sq + 2xy
    for z = x + iy, the squares and products exact, so Re(lambda_n^2 + z^2)
    keeps x^2 at z = x + i lambda_n however small x is (`_sum_rounded`)."""
    (a, b), (x, y) = sq._mpc_, z._mpc_
    if not _finite(a, b, x, y):
        return sq + z * z
    prec = mp.mp.prec
    re = _sum_rounded([a, mpf_mul(x, x), mpf_neg(mpf_mul(y, y))], prec)
    im = _sum_rounded([b, mpf_shift(mpf_mul(x, y), 1)], prec)
    return mp.make_mpc((re, im))


def _mu_bits(mus):
    """The bit plan of prod_j f_j^mu_j: the distinct nonempty sets S_b = {j : bit
    b of mu_j is 1}, the index of S_b among them for each bit b from the top bit
    down (None where S_b is empty), and sum mu_j."""
    sets, steps = [], []
    for b in reversed(range(max(mus).bit_length())):
        s = tuple(j for j, mu in enumerate(mus) if mu >> b & 1)
        if s and s not in sets:
            sets.append(s)
        steps.append(sets.index(s) if s else None)
    return sets, steps, sum(mus)


def _fx_product(squares, plan, zz, keep: int):
    """prod_j (sq_j + zz)^mu_j as an (a, b, e) form, from `_fx` forms and the
    `_mu_bits` plan of the mu_j: exact sums truncated to `keep` bits; the product
    P_b of the factors whose mu_j has bit b, formed once per distinct set; then
    from the top bit down A = A^2 P_b, every multiply truncated to `keep` bits.
    None where a form is missing or zz and the squares lie more than 2 keep bits
    apart."""
    if squares is None or zz is None or abs(zz[1] - squares[1]) > 2 * keep:
        return None
    (sqs, e), ([(c, d)], f) = squares, zz
    sets, steps, total = plan
    s = max(e - f, 0)  # align to the lower exponent: shift the squares or zz
    c, d = c << max(f - e, 0), d << max(f - e, 0)
    factors = []  # (a, b, x): factor j is (a + b i) 2^(x + min(e, f))
    for a, b in sqs:
        a, b = (a << s) + c, (b << s) + d  # exact, then truncated to keep bits
        x = max(a.bit_length(), b.bit_length(), keep) - keep
        factors.append((a >> x, b >> x, x))
    prods = []
    for js in sets:
        acc = factors[js[0]]
        for j in js[1:]:
            acc = _fx_times(acc, factors[j], keep)
        prods.append(acc)
    acc = prods[steps[0]]  # the top bit of the largest mu_j is set
    for i in steps[1:]:
        acc = _fx_times(acc, acc, keep)
        if i is not None:
            acc = _fx_times(acc, prods[i], keep)
    A, B, E = acc
    return A, B, E + min(e, f) * total


def _fx_exp(rate, z, keep: int, span: int):
    """e^(-i rate z) for a real raw mpf rate, as an (a, b, e) form: mpmath's
    exponential at keep bits of the exact argument rate y - i rate x, z = x + iy.
    None where its two parts lie more than span bits apart, where truncation to
    keep bits would cost the smaller part its relative accuracy."""
    x, y = z._mpc_
    re, im = mpc_exp((mpf_mul(rate, y), mpf_neg(mpf_mul(rate, x))), keep)
    if re[1] and im[1] and abs(re[2] + re[3] - im[2] - im[3]) > span:
        return None
    return _fx1(mp.make_mpc((re, im)), keep)


def _fx_one_plus(u, keep: int):
    """1 + u for an (a, b, e) form u, exact, then truncated to keep bits.  The 1
    is dropped where it lies below u's kept bits, and u where it lies below the
    1's, so no shift exceeds about 2 keep bits however large or small u is."""
    a, b, e = u
    top = e + max(a.bit_length(), b.bit_length())
    if top > keep + 1:
        return u
    if top < -keep:
        return 1, 0, 0
    if e < 0:
        a += 1 << -e
    else:
        a, b, e = (a << e) + 1, b << e, 0
    x = max(a.bit_length(), b.bit_length(), keep) - keep
    return a >> x, b >> x, e + x


def _window_rates(lk: LKFunction, tau, keep: int):
    """`_fx_window`'s rates (tau 2^-K, gamma + tau 2^-K) as raw mpf, for the
    raw half-length tau (`_centre_radius` at keep bits), the sum rounded to
    keep bits."""
    gamma = lk.interval.gamma._mpf_
    rate = mpf_shift(tau, -lk.K)
    return rate, rate if gamma == fzero else mpf_add(gamma, rate, keep)


def _fx_window(rates, z, K: int, keep: int, span: int):
    """Phase and window e^(-i sigma z) prod_{k=1..K} cos(tau z / 2^k) as an (a, b,
    e) form, from E = e^(-i tau z / 2^K): since sigma - tau = gamma it is
    e^(-i gamma z) E prod_{j=1..K} (1 + E^(2^j)) / 2, with no division and no
    0/0 (E = 1 at z = 0 gives exactly 1).  rates = (tau 2^-K, gamma + tau 2^-K):
    one exponential where gamma = 0, else a second, e^(-i (gamma + tau 2^-K) z),
    in place of E as the first factor; then K squarings and K multiplies, each
    truncated to keep bits.  None where `_fx_exp` refuses an exponential."""
    rate, lead = rates
    E = _fx_exp(rate, z, keep, span)
    acc = E if lead is rate or E is None else _fx_exp(lead, z, keep, span)
    if acc is None:
        return None
    for _ in range(K):
        E = _fx_times(E, E, keep)
        acc = _fx_times(acc, _fx_one_plus(E, keep), keep)
    A, B, e = acc
    return A, B, e - K


def _lk_values(lk: LKFunction, zs) -> list[mp.mpc]:
    """Windowed product at each point of zs, with L = C prod (lambda_n^2 + z^2)^mu_n;
    the squares, C = 1/prod (lambda_n^2)^mu_n (at the kept bits), the zeros
    +-i lambda_n (negated and rounded parts of lambda_n, no multiplication), the
    phase and window rates and the bit plan of the mu_n are built once per
    batch, and z^2 is exact at each point.

    A point costs one exponential at the kept bits (two where gamma != 0), the
    factor product's multiplies (`_fx_product`: 13 at mu = 3, N = 12), the
    window's K squarings and K multiplies (`_fx_window`), two multiplies by C
    and the window, and one rounding: all in integers truncated to _GUARD guard
    bits and log2(sum mu_n) more, which cover the truncations, so mu = 3, N = 12
    on (0, beta) takes one exponential and 31 integer multiplies per point.
    From sum mu_n >= 2^_GUARD on, where the factor product's exponents lie too
    far apart (z^2 tiny or huge beside the squares, or one part tiny beside the
    other), where an exponential's two parts lie more than _GUARD/2 + log2(sum
    mu_n) bits apart (z = x + i lambda_n with x tiny), and at a non-finite z,
    the point takes the per-factor loop with mpmath's phase and Viete's
    `_window` of exact arguments, so no addend below the kept bits forces a
    huge shift; at a non-finite z that window is nan, and so is G."""
    seq, N = lk.seq, lk.trunc_N
    squares = [(seq.lam(n) ** 2, seq.mu(n)) for n in range(1, N + 1)]
    prec = mp.mp.prec
    plan = _mu_bits([mu for _, mu in squares])
    total = plan[2].bit_length()
    keep = prec + _GUARD + total
    with mp.workprec(keep):
        const = mp.mpc(1 / mp.fprod(_power(sq, mu) for sq, mu in squares))
    # z == zero compares the normalised mpf tuples, and no zero is nan;
    # i (a + b i) = -b + a i and -i (a + b i) = b - a i, each part rounded
    zeros = set()
    for n in range(1, N + 1):
        a, b = seq.lam(n)._mpc_
        zeros.add((mpf_neg(b, prec, round_nearest), mpf_pos(a, prec, round_nearest)))
        zeros.add((mpf_pos(b, prec, round_nearest), mpf_neg(a, prec, round_nearest)))
    sigma, tau = _centre_radius(lk.interval, keep)
    rates = _window_rates(lk, tau, keep)
    span = keep - prec - _GUARD // 2  # an exponential's small part keeps prec + 32 bits
    scale = _fx1(const, keep)
    fixed = _fx([sq for sq, _ in squares], keep) if total <= _GUARD and scale else None
    out = []
    for z in zs:
        z = mp.mpc(z)
        if z._mpc_ in zeros:
            out.append(mp.mpc(0))
            continue
        poly = window = None
        if _finite(*z._mpc_):
            poly = _fx_product(fixed, plan, _fx_square(_fx([z], keep)), keep)
        if poly is not None:
            window = _fx_window(rates, z, lk.K, keep, span)
        if window is not None:
            out.append(_fx_round(_fx_times(_fx_times(scale, window, keep), poly, keep)))
            continue
        x, y = z._mpc_
        minus_iz = mp.make_mpc((y, mpf_neg(x)))  # exact
        val = const * mp.exp(_times(sigma, minus_iz)) * _window(lk, z, tau)
        for sq, mu in squares:
            val *= _power(_plus_square(sq, z), mu)
        out.append(val)
    return out


def lk_eval(lk: LKFunction, z) -> mp.mpc:
    """Evaluate the windowed product; exact zero at z = i lambda_n."""
    return _lk_values(lk, [z])[0]


def _check_pole(lk: LKFunction, n: int) -> None:
    if not 1 <= n <= lk.trunc_N:
        raise ConfigError(f"n={n} outside the product's zeros 1..trunc_N={lk.trunc_N}")


def _circle_radii(lk: LKFunction, eps, ns: list[int]) -> list[mp.mpf]:
    """The radii r_n of the separation circles about i lambda_n, n in ns, each
    checked against the working precision: a node i lambda_n + r_n w keeps half
    the working digits of its offset from the pole only while r_n >= |lambda_n|
    10^(-dps/2), and below about |lambda_n| 10^-dps it rounds onto the pole."""
    radii = prefix_table(lk.seq, lk.trunc_N).separation_disks(eps).radii_small
    out = []
    for n in ns:
        r = radii[n - 1]
        need = int(mp.ceil(2 * mp.log10(abs(lk.seq.lam(n)) / r)))
        if need > mp.mp.dps:
            raise PrecisionError(f"separation circle n={n} has radius r_n={mp.nstr(r, 6)}, "
                                 f"too small for {mp.mp.dps} working digits: its nodes "
                                 f"need at least {need}")
        out.append(r)
    return out


@dataclass(frozen=True)
class CircleMinimum:
    """min |G| over the circle about i lambda_n, with the compensated constant
    min|G| * exp(-(beta - eps) Re lambda_n)."""

    n: int
    radius: mp.mpf
    min_abs: mp.mpf
    fitted_const: mp.mpf


def lk_circle_minima(lk: LKFunction, eps, ns: list[int],
                     samples: int = 96) -> list[CircleMinimum]:
    """Sampled minima of |G| on the separation circles about i lambda_n.

    The compensated constants are the finite-scale shadow of the circle
    lower bound; their infimum over n is the fitted constant.  Every circle's
    samples are evaluated in one batch, each with the bits it has alone.  A
    circle too small for the working precision is refused (`_circle_radii`)
    before any is evaluated.
    """
    eps = mp.mpf(eps)
    for n in ns:
        _check_pole(lk, n)
    radii = _circle_radii(lk, eps, ns)
    beta = lk.interval.beta
    roots = _roots(samples)
    values = _lk_values(lk, [1j * lk.seq.lam(n) + r * w
                             for n, r in zip(ns, radii) for w in roots])
    out = []
    for i, (n, r) in enumerate(zip(ns, radii)):
        mn = min(abs(g) for g in values[i * samples:(i + 1) * samples])
        decay = mp.exp(-(beta - eps) * mp.re(lk.seq.lam(n)))
        out.append(CircleMinimum(n=n, radius=r, min_abs=mn, fitted_const=mn * decay))
    return out


@dataclass(frozen=True)
class LaurentCoeffs:
    """Principal-part coefficients of 1/G about the pole i lambda_n.

    values[j-1] is the coefficient of (z - i lambda_n)^-j, j = 1..J.
    converged reports the node-doubling check; a False value means the
    quadrature moved by more than 1e-30 and must not be trusted silently.
    """

    n: int
    values: tuple[mp.mpc, ...]
    eps: mp.mpf
    radius: mp.mpf
    quad_Q: int
    converged: bool
    max_rel_change: mp.mpf


def _contour_moments(lk: LKFunction, center, radius, J: int,
                     Q: int) -> tuple[list[mp.mpc], list[mp.mpc]]:
    """Trapezoid moments at Q and at 2Q nodes, from one evaluation of G on
    the 2Q fine nodes; the Q coarse nodes are the even-indexed fine ones.

    Nodes and weights e^(2 pi i q j / 2Q) = roots[q j mod 2Q] come from one
    table of 2Q roots; fine root 2q rounds the same rational angle as coarse
    root q, so the coarse sums equal a separate Q-node rule bit for bit.  Each
    node takes one reciprocal 1/G, which all J moments multiply."""
    # trapezoid on the circle: spectrally accurate for periodic analytic data
    fine_Q = 2 * Q
    roots = _roots(fine_Q)
    inverses = [1 / g for g in _lk_values(lk, [center + radius * w for w in roots])]
    coarse, fine = [], []
    for j in range(1, J + 1):
        terms = [roots[q * j % fine_Q] * h for q, h in enumerate(inverses)]
        for out, step, count in ((coarse, 2, Q), (fine, 1, fine_Q)):
            out.append(radius ** j * sum(terms[::step], mp.mpc(0)) / count)
    return coarse, fine


def laurent_coeffs(lk: LKFunction, n: int, eps, J: int, quad_Q: int) -> LaurentCoeffs:
    """Contour quadrature for the principal part of 1/G at i lambda_n.

    Runs the trapezoid rule at quad_Q and 2*quad_Q nodes; the relative
    movement between the two, |coarse - fine| / |fine| for each moment, is
    reported and gates `converged` at 1e-30.  The quad_Q coarse nodes are every
    other fine node, so G is evaluated at 2*quad_Q points in all.  A circle too
    small for the working precision is refused (`_circle_radii`).
    """
    _check_pole(lk, n)
    mu = lk.seq.mu(n)
    if not 1 <= J <= mu:
        raise ConfigError(f"J={J} must be in 1..mu_n={mu}")
    eps = mp.mpf(eps)
    [r] = _circle_radii(lk, eps, [n])
    center = 1j * lk.seq.lam(n)
    coarse, fine = _contour_moments(lk, center, r, J, quad_Q)
    # |coarse - fine| / |fine|, with no floor under |fine|: 0 where the two
    # agree, infinite where only the fine moment is 0
    worst = max(mp.mpf(0) if a == b else abs(a - b) / abs(b) if b else mp.inf
                for a, b in zip(coarse, fine))
    return LaurentCoeffs(n=n, values=tuple(fine), eps=eps, radius=r,
                         quad_Q=quad_Q, converged=bool(worst < mp.mpf("1e-30")),
                         max_rel_change=worst)


def gnk_eval(lk: LKFunction, laurent: LaurentCoeffs, n: int, k: int, z) -> mp.mpc:
    """Interpolation function G_{n,k}(z) = (G(z)/k!) sum_l A_{k+l} (z - i lambda_n)^-l.

    One formula at every z != i lambda_n, inside the separation disk as well
    as outside it: the sum reads A_{k+1..mu_n}, so it needs the full principal
    part (J = mu_n).  The zero of G of order mu_n at i lambda_n cancels the
    pole of the sum there, so the singularity is removable; at z = i lambda_n
    itself the value is the interpolation condition, 1 for k = 0, else 0.
    """
    if n != laurent.n:
        raise ConfigError("laurent coefficients belong to a different n")
    mu = lk.seq.mu(n)
    if not 0 <= k < mu:
        raise ConfigError(f"k={k} must be < mu_n={mu}")
    z = mp.mpc(z)
    w = z - 1j * lk.seq.lam(n)
    A = laurent.values
    if len(A) < mu:
        raise DomainError("G_{n,k} needs the full principal part "
                          f"(have J={len(A)}, need mu_n={mu})")
    if w == 0:
        return mp.mpc(1) if k == 0 else mp.mpc(0)
    g = lk_eval(lk, z)
    s = mp.mpc(0)
    for l in range(1, mu - k + 1):
        s += A[k + l - 1] / w ** l
    return g * s / mp.factorial(k)


def blaschke_eval(seq: MultiplicitySequence, N: int, z) -> mp.mpc:
    """Quotient (4+z)^-2 prod ((1 - z/lambda_n)/(1 + z/(conj(lambda_n)+4)))^mu_n.

    Analytic for Re z > -4; evaluation is refused at or left of the pole
    line.  Vanishes exactly at the truncated frequencies.
    """
    seq.check_prefix(N)
    z = mp.mpc(z)
    if not mp.re(z) > -4:
        raise DomainError(f"Re z = {mp.nstr(mp.re(z), 8)} must be > -4")
    acc = (4 + z) ** -2
    for n in range(1, N + 1):
        lam, mu = seq.lam(n), seq.mu(n)
        num = 1 - z / lam
        if num == 0:
            return mp.mpc(0)
        acc *= (num / (1 + z / (mp.conj(lam) + 4))) ** mu
    return acc
