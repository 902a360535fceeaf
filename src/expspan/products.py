"""Entire and meromorphic functions built from a frequency sequence.

Truncated canonical products (four kinds), removed-factor derivatives,
exact Maclaurin coefficients, the windowed even product with cosine
damping (zeros at i*lambda_n), Laurent coefficients of its reciprocal on
small circles, the interpolation functions built from them, and a
Blaschke-type quotient analytic right of Re z = -4.

All truncated products are polynomials (times bounded factors), so growth
statements become fitted-constant trend checks rather than type bounds.

The windowed product's factor product prod (lambda_n^2 + z^2)^mu_n is taken
in integer fixed point: exact sums, each power mu_n by squaring, each sum and
multiply truncated to _GUARD = 64 bits plus log2(sum mu_n) bits beyond the
working precision, and one rounding per point, so it is within mp.eps =
2^(1-prec) in modulus of the exact product of the rounded squares and z^2, and
its cost grows with log mu_n.  z^2 itself is exact, from z's integers, so
Re(lambda_n^2 + z^2) keeps x^2 at z = x + i lambda_n however small x is; the
per-factor loop forms each lambda_n^2 + z^2 with one rounding per part
(`_plus_square`).  A point whose exponents lie more than twice the kept bits
apart takes mpmath's per-factor loop instead, with no shift of that size, and
so does every point when sum mu_n >= 2^_GUARD, where squaring would cost more
than mpmath's exp(mu log) powers, which that loop and `eval_product` take with
log2 mu_n guard bits from mu_n >= 2^8 on.  `eval_product`, `derivative_factors`
and the other products keep their per-factor mpmath loops.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_neg, mpf_shift

from .core import Interval, MultiplicitySequence, PrecisionContext, prefix_table
from .errors import ConfigError, DomainError

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
    """The n-th of `derivative_factors`; bench/spans.py traces this name."""
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


def _window(lk: LKFunction, z):
    """prod_{k=1..K} cos(tau z / 2^k) = sin(tau z) / (2^K sin(tau z / 2^K)) by Viete.

    The sines take exact power-of-two scalings of one rounded tau z, so the
    quotient holds where both vanish; at z = 0, the one exact 0/0, it is 1."""
    t, scale = lk.interval.tau * z, mp.ldexp(1, -lk.K)
    return mp.sin(t) * scale / mp.sin(t * scale) if t != 0 else mp.mpf(1)


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


def _fx_mul(A: int, B: int, a: int, b: int, keep: int):
    """(A + B i)(a + b i) truncated to `keep` bits: (re, im, bits dropped)."""
    A, B = A * a - B * b, A * b + B * a
    drop = max(A.bit_length(), B.bit_length(), keep) - keep
    return A >> drop, B >> drop, drop


def _fx_square(z):
    """The `_fx` form of z^2, exact, from that of z (None stays None)."""
    if z is None:
        return None
    [(a, b)], e = z
    return [(a * a - b * b, 2 * a * b)], 2 * e


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
    if not all(v[1] or not v[2] for v in (a, b, x, y)):  # inf or nan
        return sq + z * z
    prec = mp.mp.prec
    re = _sum_rounded([a, mpf_mul(x, x), mpf_neg(mpf_mul(y, y))], prec)
    im = _sum_rounded([b, mpf_shift(mpf_mul(x, y), 1)], prec)
    return mp.make_mpc((re, im))


def _fx_product(squares, mus, zz, keep: int):
    """prod_j (sq_j + zz)^mu_j from `_fx` forms: exact sums truncated to `keep`
    bits, each power by squaring with every multiply truncated to `keep` bits,
    one rounding to the working precision.  None where a form is missing or zz
    and the squares lie more than 2 keep bits apart."""
    if squares is None or zz is None or abs(zz[1] - squares[1]) > 2 * keep:
        return None
    (sqs, e), ([(c, d)], f) = squares, zz
    s = max(e - f, 0)  # align to the lower exponent: shift the squares or zz
    c, d = c << max(f - e, 0), d << max(f - e, 0)
    A, B, E = 1, 0, min(e, f) * sum(mus)
    for (a, b), mu in zip(sqs, mus):
        a, b = (a << s) + c, (b << s) + d  # exact, then truncated to keep bits
        x = max(a.bit_length(), b.bit_length(), keep) - keep
        a, b = a >> x, b >> x  # (a + b i) 2^x = factor^(2^j)
        while mu:
            if mu & 1:
                A, B, drop = _fx_mul(A, B, a, b, keep)
                E += x + drop
            mu >>= 1
            if mu:
                a, b, drop = _fx_mul(a, b, a, b, keep)
                x = 2 * x + drop
    return mp.mpc(mp.mpf((A, E)), mp.mpf((B, E)))


def _lk_values(lk: LKFunction, zs) -> list[mp.mpc]:
    """Windowed product at each point of zs, with L = C prod (lambda_n^2 + z^2)^mu_n;
    the squares, C = prod lambda_n^(-2 mu_n), zeros and phase are built once,
    and z^2 is exact at each point.

    The factor product is `_fx_product`'s, one rounding per point with _GUARD
    guard bits and log2(sum mu_n) more, which cover the truncations of the
    powers by squaring.  From sum mu_n >= 2^_GUARD on, and where its exponents
    lie too far apart (z^2 tiny or huge beside the squares, or one part tiny
    beside the other), the point takes the per-factor loop, so no addend below
    the kept bits forces a huge shift.  A non-finite z reads as finite there,
    but its window is nan and so is G."""
    seq, N = lk.seq, lk.trunc_N
    squares = [(seq.lam(n) ** 2, seq.mu(n)) for n in range(1, N + 1)]
    const = mp.fprod(sq ** -mu for sq, mu in squares)
    # z == zero compares the normalised mpf tuples, and no zero is nan
    zeros = {(c * seq.lam(n))._mpc_ for n in range(1, N + 1) for c in (1j, -1j)}
    phase = -1j * lk.interval.sigma
    mus = [mu for _, mu in squares]
    total = sum(mus).bit_length()
    keep = mp.mp.prec + _GUARD + total
    fixed = _fx([sq for sq, _ in squares], keep) if total <= _GUARD else None
    out = []
    for z in zs:
        z = mp.mpc(z)
        if z._mpc_ in zeros:
            out.append(mp.mpc(0))
            continue
        val = const * mp.exp(phase * z) * _window(lk, z)
        poly = _fx_product(fixed, mus, _fx_square(_fx([z], keep)), keep)
        if poly is None:
            for sq, mu in squares:
                val *= _power(_plus_square(sq, z), mu)
        out.append(val if poly is None else val * poly)
    return out


def lk_eval(lk: LKFunction, z) -> mp.mpc:
    """Evaluate the windowed product; exact zero at z = i lambda_n."""
    return _lk_values(lk, [z])[0]


def _check_pole(lk: LKFunction, n: int) -> None:
    if not 1 <= n <= lk.trunc_N:
        raise ConfigError(f"n={n} outside the product's zeros 1..trunc_N={lk.trunc_N}")


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
    lower bound; their infimum over n is the fitted constant.
    """
    eps = mp.mpf(eps)
    radii = prefix_table(lk.seq, lk.trunc_N).separation_disks(eps).radii_small
    beta = lk.interval.beta
    roots = _roots(samples)
    out = []
    for n in ns:
        _check_pole(lk, n)
        lam, r = lk.seq.lam(n), radii[n - 1]
        mn = min(abs(g) for g in _lk_values(lk, [1j * lam + r * w for w in roots]))
        out.append(CircleMinimum(n=n, radius=r, min_abs=mn,
                                 fitted_const=mn * mp.exp(-(beta - eps) * mp.re(lam))))
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
    root q, so the coarse sums equal a separate Q-node rule bit for bit."""
    # trapezoid on the circle: spectrally accurate for periodic analytic data
    fine_Q = 2 * Q
    roots = _roots(fine_Q)
    gvals = _lk_values(lk, [center + radius * w for w in roots])
    coarse, fine = [], []
    for j in range(1, J + 1):
        terms = [roots[q * j % fine_Q] / g for q, g in enumerate(gvals)]
        for out, step, count in ((coarse, 2, Q), (fine, 1, fine_Q)):
            out.append(radius ** j * sum(terms[::step], mp.mpc(0)) / count)
    return coarse, fine


def laurent_coeffs(lk: LKFunction, n: int, eps, J: int, quad_Q: int) -> LaurentCoeffs:
    """Contour quadrature for the principal part of 1/G at i lambda_n.

    Runs the trapezoid rule at quad_Q and 2*quad_Q nodes; the relative
    movement between the two is reported and gates `converged` at 1e-30.  The
    quad_Q coarse nodes are every other fine node, so G is evaluated at
    2*quad_Q points in all.
    """
    _check_pole(lk, n)
    mu = lk.seq.mu(n)
    if not 1 <= J <= mu:
        raise ConfigError(f"J={J} must be in 1..mu_n={mu}")
    eps = mp.mpf(eps)
    r = prefix_table(lk.seq, lk.trunc_N).separation_disks(eps).radii_small[n - 1]
    center = 1j * lk.seq.lam(n)
    coarse, fine = _contour_moments(lk, center, r, J, quad_Q)
    worst = mp.mpf(0)
    for a, b in zip(coarse, fine):
        scale = max(abs(b), mp.mpf(1e-300))
        worst = max(worst, abs(a - b) / scale)
    return LaurentCoeffs(n=n, values=tuple(fine), eps=eps, radius=r,
                         quad_Q=quad_Q, converged=bool(worst < mp.mpf("1e-30")),
                         max_rel_change=worst)


def gnk_eval(lk: LKFunction, laurent: LaurentCoeffs, n: int, k: int, z) -> mp.mpc:
    """Interpolation function G_{n,k}(z) = (G(z)/k!) sum_l A_{k+l} (z - i lambda_n)^-l.

    Outside the separation disk the defining sum is used directly.  Inside,
    the pole of 1/G makes that form singular, so the regular-part rewrite is
    used instead.  Both need the full principal part (J = mu_n): the sum reads
    A_{k+1..mu_n}.
    """
    if n != laurent.n:
        raise ConfigError("laurent coefficients belong to a different n")
    mu = lk.seq.mu(n)
    if not 0 <= k < mu:
        raise ConfigError(f"k={k} must be < mu_n={mu}")
    z = mp.mpc(z)
    center = 1j * lk.seq.lam(n)
    w = z - center
    A = laurent.values
    if len(A) < mu:
        raise DomainError("G_{n,k} needs the full principal part "
                          f"(have J={len(A)}, need mu_n={mu})")
    if abs(w) >= laurent.radius:
        g = lk_eval(lk, z)
        s = mp.mpc(0)
        for l in range(1, mu - k + 1):
            s += A[k + l - 1] / w ** l
        return g * s / mp.factorial(k)
    if w == 0:
        return mp.mpc(1) if k == 0 else mp.mpc(0)
    g = lk_eval(lk, z)
    principal = sum(A[j - 1] / w ** j for j in range(1, mu + 1))
    regular = 1 / g - principal
    # (z-c)^k/k! - G (z-c)^k p_n(z)/k! - (G/k!) sum_{j<=k} A_j (z-c)^(k-j)
    val = w ** k / mp.factorial(k)
    val -= g * w ** k * regular / mp.factorial(k)
    val -= g / mp.factorial(k) * sum(A[j - 1] * w ** (k - j) for j in range(1, k + 1))
    return val


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
