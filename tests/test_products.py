import random
import time

import mpmath as mp
import pytest
from conftest import (FIXTURE_NAMES, FIXTURE_TERMS, bits, escalated_derivative_factor,
                      jittered_mu3, per_n_derivative_factor,
                      reference_fitted_separation_constant)

from expspan import products
from expspan.cli import main
from expspan.core import prefix_table
from expspan import (ConfigError, DomainError, Interval, MultiplicitySequence,
                     PrecisionContext, PrecisionError, ProductKind, blaschke_eval,
                     derivative_factors, eval_product, fixture, gnk_eval,
                     laurent_coeffs, lk_circle_minima, lk_eval, lk_function,
                     taylor_coeffs)


def central_diff(f, c, order, h):
    """Plain central finite differences, orders 0..2."""
    if order == 0:
        return f(c)
    if order == 1:
        return (f(c + h) - f(c - h)) / (2 * h)
    return (f(c + h) - 2 * f(c) + f(c - h)) / (h * h)


class TestEvalProduct:
    def test_all_kinds_one_at_origin(self, squares8):
        for kind in ProductKind:
            assert eval_product(kind, squares8, 8, 0) == 1

    def test_exact_zero_at_frequency(self, squares8):
        assert eval_product(ProductKind.F_PLAIN, squares8, 8, squares8.lam(1)) == 0
        assert eval_product(ProductKind.F_EVEN, squares8, 8, -squares8.lam(2)) == 0
        assert eval_product(ProductKind.L_EVEN, squares8, 8, 1j * squares8.lam(3)) == 0

    def test_hand_product(self, squares8):
        got = eval_product(ProductKind.F_PLAIN, squares8, 2, 2)
        assert abs(got - mp.mpf(-0.5)) < mp.mpf("1e-55")

    def test_multiplicities_enter_as_powers(self):
        seq = fixture("example_v", 2)  # (3, mu=2), (9, mu=4)
        got = eval_product(ProductKind.G_ABS, seq, 2, 1)
        want = (mp.mpf(4) / 3) ** 2 * (mp.mpf(10) / 9) ** 4
        assert abs(got - want) < mp.mpf("1e-55")


# lambda^2 = 1, 16, 81 with mu = 1, 10^100, 3: every factor of z = 1 + 2i but
# lambda = 9's is exact, so the error is the powers' and the products'
HUGE_MU = MultiplicitySequence.from_pairs([(1, 1), (4, 10 ** 100), (9, 3)], "huge-mu")


@pytest.mark.parametrize("dps", [15, 50])
class TestHugeMultiplicity:
    """A power mu_n = 10^100, far past where mpmath's exp(mu log) power keeps
    its digits, is within a few ulps of a 400-digit reference, in
    `eval_product` and in the per-factor loop of the windowed product."""

    @pytest.mark.parametrize("kind", list(ProductKind), ids=lambda k: k.name)
    def test_eval_product(self, dps, kind):
        with mp.workdps(dps):
            got = eval_product(kind, HUGE_MU, 3, mp.mpc(1, 2))
            eps = +mp.eps
        with mp.workdps(400):
            want = eval_product(kind, HUGE_MU, 3, mp.mpc(1, 2))
            assert abs(got - want) / abs(want) <= 4 * eps

    def test_windowed_product(self, dps):
        # sum mu_n >= 2^64: every point takes the per-factor loop
        lk = lk_function(HUGE_MU, Interval(0, 1), PrecisionContext(digits=50, trunc_N=3))
        with mp.workdps(dps):
            got = lk_eval(lk, mp.mpc(1, 2))
            eps = +mp.eps
        with mp.workdps(400):
            want = lk_eval(lk, mp.mpc(1, 2))
            assert abs(got - want) / abs(want) <= 4 * eps


class TestDerivativeFactor:
    def test_two_point_hand_value(self):
        seq = MultiplicitySequence.from_pairs([(1, 1), (2, 1)])
        got = derivative_factors(seq, 2)[0]
        assert abs(got - mp.mpf("-0.5")) < mp.mpf("1e-55")

    def test_single_entry(self):
        seq = MultiplicitySequence.from_pairs([(mp.mpc(2, 1), 1)])
        got = derivative_factors(seq, 1)[0]
        assert abs(got + 1 / mp.mpc(2, 1)) < mp.mpf("1e-55")

    def test_never_vanishes(self, squares8):
        for n in range(1, 9):
            assert abs(derivative_factors(squares8, 8)[n - 1]) > 0
            assert abs(derivative_factors(squares8, 8, ProductKind.F_EVEN)[n - 1]) > 0

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("kind", [ProductKind.F_PLAIN, ProductKind.F_EVEN])
    def test_near_duplicates_keep_working_precision(self, kind, dps):
        # gaps e^(-n^4): the 1 - lambda_n/lambda_j form cancels up to 111
        # digits, and rounds to an exact 0 for n = 5..8 at 15 digits
        seq = fixture("carleson_counterexample", 4)
        with mp.workdps(dps):
            for n in range(1, 9):
                got = derivative_factors(seq, 8, kind)[n - 1]
                want = escalated_derivative_factor(seq, 8, n, kind, dps)
                assert got != 0
                assert abs(got - want) <= mp.mpf(10) ** (3 - dps) * abs(want)

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("terms", FIXTURE_TERMS)
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_sweep_matches_per_n_bit_for_bit(self, name, terms, dps):
        # each pair's numerator is formed once and negated for the other order
        with mp.workdps(dps):
            seq = fixture(name, terms)
            for kind in (ProductKind.F_PLAIN, ProductKind.F_EVEN):
                got = derivative_factors(seq, seq.size, kind)
                want = [per_n_derivative_factor(seq, seq.size, n, kind)
                        for n in range(1, seq.size + 1)]
                assert bits([v.real for v in got]) == bits([v.real for v in want])
                assert bits([v.imag for v in got]) == bits([v.imag for v in want])

    def test_sweep_matches_per_n_on_complex_frequencies(self):
        seq = jittered_mu3(8, 2)
        for kind in (ProductKind.F_PLAIN, ProductKind.F_EVEN):
            got = derivative_factors(seq, 8, kind)
            for n in range(1, 9):
                want = per_n_derivative_factor(seq, 8, n, kind)
                assert bits([got[n - 1].real, got[n - 1].imag]) == bits([want.real, want.imag])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_numerical_derivative(self, seed):
        # oracle: mu_n-th central difference of the product itself, run at
        # half the working digits
        rng = random.Random(seed)
        mus = [rng.choice([1, 2]) for _ in range(4)]
        lams = [mp.mpf(n) * mp.mpf("1.5") + rng.random() for n in range(1, 5)]
        seq = MultiplicitySequence.from_pairs(list(zip(lams, mus)))
        n = rng.randrange(1, 5)
        mu = seq.mu(n)
        with mp.workdps(mp.mp.dps // 2):
            h = mp.mpf(10) ** (-mp.mp.dps // 4)
            f = lambda z: eval_product(ProductKind.F_PLAIN, seq, 4, z)
            num = central_diff(f, seq.lam(n), mu, h) / mp.factorial(mu)
        got = derivative_factors(seq, 4)[n - 1]
        assert abs(got - num) < mp.mpf(10) ** (-mp.mp.dps // 4)


class TestTaylorCoeffs:
    def test_constant_term_is_one(self, squares8):
        for kind in ProductKind:
            assert abs(taylor_coeffs(kind, squares8, 6, 4)[0] - 1) < mp.mpf("1e-55")

    def test_linear_coefficient_is_minus_sum(self):
        seq = fixture("example_v", 3)
        c = taylor_coeffs(ProductKind.F_PLAIN, seq, 3, 2)
        want = -sum(mp.mpf(seq.mu(n)) / seq.lam(n) for n in range(1, 4))
        assert abs(c[1] - want) < mp.mpf("1e-50")

    def test_abs_kind_all_positive(self):
        seq = fixture("example_v", 3)
        c = taylor_coeffs(ProductKind.G_ABS, seq, 3, 14)
        deg = seq.total_multiplicity(3)
        assert all(v > 0 for v in c[:deg + 1])
        assert all(v == 0 for v in c[deg + 1:])

    def test_polynomial_matches_product(self, squares8):
        rng = random.Random(3)
        deg = squares8.total_multiplicity(6)
        for kind in (ProductKind.F_PLAIN, ProductKind.L_EVEN):
            mult = 2 if kind is ProductKind.L_EVEN else 1
            c = taylor_coeffs(kind, squares8, 6, mult * deg)
            for _ in range(10):
                z = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * abs(squares8.lam(6)) / 2
                poly = mp.polyval(list(reversed(c)), z)
                direct = eval_product(kind, squares8, 6, z)
                scale = max(1, abs(direct))
                assert abs(poly - direct) / scale < mp.mpf(10) ** (-mp.mp.dps // 2)


def cosine_window(lk, z):
    """The window as the explicit product of K cosines cos(tau z / 2^k)."""
    return mp.fprod(mp.cos(lk.interval.tau * mp.mpf(2) ** -k * z)
                    for k in range(1, lk.K + 1))


@pytest.mark.parametrize("dps", [15, 120])
@pytest.mark.parametrize("interval", [(0, 1), (-1, 2)], ids=["tau-half", "tau-3/2"])
class TestVieteWindow:
    """Viete's sin(tau z) / (2^K sin(tau z / 2^K)) against the explicit cosine
    product at 2 dps + 20 digits."""

    @staticmethod
    def window(lk, z):
        """`_window` with tau from the interval at the working precision."""
        return products._window(lk, z, products._centre_radius(lk.interval, mp.mp.prec)[1])

    @classmethod
    def rel_error(cls, lk, z, dps):
        got = cls.window(lk, z)
        with mp.workdps(2 * dps + 20):
            want = cosine_window(lk, z)
        return abs(got - want) / abs(want)

    @pytest.fixture
    def lk(self, squares8, interval):
        return lk_function(squares8, Interval(*interval),
                           PrecisionContext(digits=120, trunc_N=6))

    def test_one_at_origin(self, lk, dps):
        with mp.workdps(dps):
            assert lk.K == 8
            assert self.window(lk, 0) == 1
            assert self.window(lk, mp.mpc(0)) == 1

    def test_contour_nodes(self, lk, dps):
        # rounding tau z moves the window by up to |tau z| ulps where |Im z|
        # is large, in either form
        with mp.workdps(dps):
            for n in (1, 4):
                for w in products._roots(16):
                    z = 1j * lk.seq.lam(n) + mp.mpf("0.3") * w
                    bound = 4 * mp.eps * (1 + abs(lk.interval.tau * z))
                    assert self.rel_error(lk, z, dps) < bound

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_where_both_sines_vanish(self, lk, dps, m):
        # tau z = 2^K pi m is 0/0 in the closed form; the window there is +-1
        # and flat, so 4 ulps hold without a product fallback
        with mp.workdps(dps):
            x = mp.ldexp(mp.pi * m, lk.K) / lk.interval.tau
            for off in ("0", "1e-8", "-1e-8", "-1e-5"):
                for im in ("0", "1e-20"):
                    z = mp.mpc(x + mp.mpf(off), mp.mpf(im))
                    assert self.rel_error(lk, z, dps) < 4 * mp.eps, (off, im)


@pytest.mark.parametrize("dps", [15, 60, 120])
@pytest.mark.parametrize("interval", [(0, 1), (-1, 2)], ids=["tau-half", "tau-3/2"])
class TestFixedWindow:
    """The fixed-point phase and window e^(-i gamma z) E prod_j (1 + E^(2^j)) / 2,
    E = e^(-i tau z / 2^K), rounded once, against e^(-i sigma z) times the
    explicit cosine product at 2 dps + 20 digits: within mp.eps in modulus,
    however large tau z, since the exponential's argument is exact."""

    @staticmethod
    def fixed(lk, z, span=None):
        prec = mp.mp.prec
        keep = prec + products._GUARD
        # span = 2 keep never refuses: the refusal guards the parts, not the modulus
        tau = products._centre_radius(lk.interval, keep)[1]
        u = products._fx_window(products._window_rates(lk, tau, keep), mp.mpc(z), lk.K, keep,
                                2 * keep if span is None else span)
        return u if u is None else products._fx_round(u)

    def rel_error(self, lk, z, dps):
        got = self.fixed(lk, z)
        with mp.workdps(2 * dps + 20):
            want = mp.exp(-1j * lk.interval.sigma * z) * cosine_window(lk, z)
        return abs(got - want) / abs(want)

    @pytest.fixture
    def lk(self, squares8, interval):
        return lk_function(squares8, Interval(*interval),
                           PrecisionContext(digits=120, trunc_N=6))

    def test_one_at_origin(self, lk, dps):
        with mp.workdps(dps):
            assert self.fixed(lk, 0) == 1
            assert self.fixed(lk, 0, span=0) == 1

    def test_contour_nodes(self, lk, dps):
        with mp.workdps(dps):
            for n in (1, 4, 8):
                for w in products._roots(16):
                    z = 1j * lk.seq.lam(n) + mp.mpf("0.3") * w
                    assert self.rel_error(lk, z, dps) < mp.eps, z
                    assert self.rel_error(lk, -z, dps) < mp.eps, -z

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_where_both_sines_vanish(self, lk, dps, m):
        # tau z = 2^K pi m, Viete's 0/0; E is about +-1 there, its imaginary part
        # tiny, so `_lk_values` refuses the closest points and takes `_window`
        with mp.workdps(dps):
            x = mp.ldexp(mp.pi * m, lk.K) / lk.interval.tau
            for off in ("0", "1e-8", "-1e-8", "-1e-5"):
                for im in ("0", "1e-20"):
                    z = mp.mpc(x + mp.mpf(off), mp.mpf(im))
                    assert self.rel_error(lk, z, dps) < mp.eps, (off, im)


def full_precision_squares(N, seed):
    """Real lambda_n = n^2 + delta_n, delta_n in [-0.2, 0.2] with every bit of
    the working precision, so that (3/2) lambda_n is not exact there; mu_n = 1."""
    rng = random.Random(seed)
    prec = mp.mp.prec
    return MultiplicitySequence.from_pairs(
        [(n * n + (mp.ldexp(rng.getrandbits(prec), -prec) - mp.mpf("0.5")) * mp.mpf("0.4"), 1)
         for n in range(1, N + 1)], "full-precision-squares")


@pytest.mark.parametrize("dps", [15, 60, 120])
@pytest.mark.parametrize("interval", [(0, 1), (-1, 2)], ids=["tau-half", "tau-3/2"])
class TestLoopWindow:
    """Points that take the per-factor loop, near a zero (z = x + i lambda_n,
    x tiny, where E's parts lie too far apart) and where sum mu_n >= 2^64: the
    phase e^(-i sigma z) and Viete's window take exact arguments, so the value
    is within one mp.eps per factor of the explicit product at 2 dps + 20
    digits, with the same rounded squares, however large tau z is (at most
    9.5 eps for 12 factors).  Where sigma z and tau z were rounded, the
    near-zero points on (-1, 2) read up to 60 eps at 15 digits and 20 at 60."""

    @staticmethod
    def worst_error(monkeypatch, lk, zs, dps):
        """The largest relative error over zs, in mp.eps per factor."""
        calls = []
        window = products._window
        monkeypatch.setattr(products, "_window",
                            lambda *args: calls.append(args) or window(*args))
        with mp.workdps(dps):
            zs = [mp.mpc(z) for z in zs]
            got = products._lk_values(lk, zs)
            squares = [(lk.seq.lam(n) ** 2, lk.seq.mu(n)) for n in range(1, lk.trunc_N + 1)]
            eps = +mp.eps
        assert len(calls) == len(zs)  # every point took the loop
        errors = []
        with mp.workdps(2 * dps + 20):
            for z, g in zip(zs, got):
                want = mp.exp(-1j * lk.interval.sigma * z) * cosine_window(lk, z)
                for sq, mu in squares:
                    want *= products._power(sq + z * z, mu) / products._power(sq, mu)
                errors.append(abs(g - want) / abs(want) / eps)
        return max(errors) / lk.trunc_N

    def test_near_a_zero(self, monkeypatch, dps, interval):
        with mp.workdps(dps):
            seq = full_precision_squares(12, dps)
            zs = [mp.mpf(x) + s * 1j * seq.lam(n) for n in (1, 5, 12)
                  for x in ("1e-20", "-1e-30") for s in (1, -1)]
        lk = lk_function(seq, Interval(*interval), PrecisionContext(digits=max(dps, 50),
                                                                    trunc_N=12))
        assert self.worst_error(monkeypatch, lk, zs, dps) < 1

    def test_huge_multiplicity(self, monkeypatch, dps, interval):
        # exact dyadic points, so that lambda_n^2 + z^2 is exact and its power
        # of 10^100 well conditioned
        lk = lk_function(HUGE_MU, Interval(*interval), PrecisionContext(digits=50, trunc_N=3))
        zs = [mp.mpc(a, b) / 8 for a in (-200, 7, 160) for b in (-90, 13, 240)]
        assert self.worst_error(monkeypatch, lk, zs, dps) < 1


class TestLKEval:
    @pytest.fixture
    def lk(self, squares8, unit_interval):
        ctx = PrecisionContext(digits=60, trunc_N=6)
        return lk_function(squares8, unit_interval, ctx)

    def test_value_one_at_origin(self, lk):
        assert lk_eval(lk, 0) == 1

    def test_exact_zero_on_rotated_frequencies(self, lk):
        for n in range(1, 7):
            assert lk_eval(lk, 1j * lk.seq.lam(n)) == 0

    def test_real_axis_symmetry(self, lk):
        # even product and cosines are even; only the phase factor breaks
        # symmetry, so |G(-x)| = |G(x)| on the real axis
        for x in ("0.7", "2.3", "11.5"):
            x = mp.mpf(x)
            assert abs(abs(lk_eval(lk, x)) - abs(lk_eval(lk, -x))) < mp.mpf("1e-50")

    def test_cosine_window_mean_square_decays(self, lk):
        # finite-scale shadow of the damping mechanism: the mean square of
        # the cosine window over [X, 2X] keeps dropping as X doubles
        means = []
        for X in (4, 8, 16, 32, 64):
            s = mp.fsum(cosine_window(lk, X + (X * q) / 64) ** 2
                        for q in range(64)) / 64
            means.append(s)
        assert all(means[i + 1] < means[i] for i in range(len(means) - 1))

    @pytest.mark.parametrize("dps", [15, 50])
    def test_exact_zero_at_rounded_pole(self, dps):
        # lambda kept at 80 digits: z = +-i lambda rounded to the working
        # precision is a zero of G, and a point a few ulps away is not
        with mp.workdps(80):
            seq = MultiplicitySequence.from_pairs(
                [(mp.mpc(n * n, 0) + mp.mpc(1, -2) / 3, 2) for n in range(1, 5)])
        with mp.workdps(dps):
            lk = lk_function(seq, Interval(0, 1), PrecisionContext(digits=60, trunc_N=4))
            for n in range(1, 5):
                for c in (1j, -1j):
                    z = c * seq.lam(n)
                    assert lk_eval(lk, z) == 0
                    assert lk_eval(lk, z * (1 + 4 * mp.eps)) != 0

    def test_circle_minima_positive(self, lk):
        minima = lk_circle_minima(lk, "0.1", [1, 2, 3, 4], samples=48)
        assert all(m.min_abs > 0 for m in minima)
        assert all(m.fitted_const > 0 for m in minima)

    @pytest.mark.parametrize("n", [0, 7])
    def test_pole_outside_the_prefix_refused(self, lk, n):
        # n = 0 would read lambda_N through seq.lam(0); lambda_7 is no zero of G
        for call in (lambda: lk_circle_minima(lk, "0.1", [1, n], samples=8),
                     lambda: laurent_coeffs(lk, n, "0.1", 1, 8)):
            with pytest.raises(ConfigError, match=f"n={n} outside the product's zeros "
                                                  "1..trunc_N=6"):
                call()


class TestLaurent:
    @pytest.fixture
    def setup(self):
        seq = MultiplicitySequence.from_pairs(
            [(1, 2), (mp.mpf("2.5"), 1), (mp.mpf("4.5"), 2)], "mixed-mu")
        ctx = PrecisionContext(digits=120, trunc_N=3)
        lk = lk_function(seq, Interval(0, 1), ctx)
        return seq, lk

    def test_node_doubling_converges(self, setup):
        seq, lk = setup
        with mp.workdps(120):
            for n in (1, 2, 3):
                lc = laurent_coeffs(lk, n, "0.1", seq.mu(n), 64)
                assert lc.converged, f"n={n} moved {lc.max_rel_change}"
                assert lc.max_rel_change < mp.mpf("1e-30")

    def test_simple_pole_residue(self, setup):
        # A_1 at a simple zero must equal 1/G'(i lambda_n)
        seq, lk = setup
        with mp.workdps(120):
            lc = laurent_coeffs(lk, 2, "0.1", 1, 64)
            c = 1j * seq.lam(2)
            h = mp.mpf(10) ** -40
            gp = (lk_eval(lk, c + h) - lk_eval(lk, c - h)) / (2 * h)
            assert abs(lc.values[0] * gp - 1) < mp.mpf("1e-35")

    def test_analytic_integrand_integrates_to_zero(self, setup):
        # quadrature sanity: replacing 1/G by G kills every moment
        seq, lk = setup
        with mp.workdps(120):
            r = laurent_coeffs(lk, 1, "0.1", 1, 64).radius
            c = 1j * seq.lam(1)
            Q = 64
            s = mp.mpc(0)
            for q in range(Q):
                z = c + r * mp.exp(2j * mp.pi * q / Q)
                s += lk_eval(lk, z) * mp.exp(2j * mp.pi * q / Q)
            assert abs(r * s / Q) < mp.mpf("1e-80")

    def test_bound_constants_within_spread(self):
        # |A_{n,1}| e^((beta-eps) Re lambda_n) stays within one order of
        # magnitude across the first frequencies for a tame fixture
        seq = fixture("power", 8, exponent=1.5)
        ctx = PrecisionContext(digits=80, trunc_N=8)
        lk = lk_function(seq, Interval(0, 1), ctx)
        with mp.workdps(80):
            consts = []
            for n in range(1, 5):
                lc = laurent_coeffs(lk, n, "0.1", 1, 64)
                consts.append(abs(lc.values[0])
                              * mp.exp((mp.mpf(1) - mp.mpf("0.1")) * mp.re(seq.lam(n))))
        assert max(consts) / min(consts) < 15


def reference_lk_eval(lk, z):
    """The windowed product one point at a time, zeros and phase rebuilt per
    call, with 1 + z^2/lambda_n^2 per factor and the K cosines written out."""
    z = mp.mpc(z)
    for n in range(1, lk.trunc_N + 1):
        if z == 1j * lk.seq.lam(n) or z == -1j * lk.seq.lam(n):
            return mp.mpc(0)
    val = mp.exp(-1j * lk.interval.sigma * z)
    acc = mp.mpc(1)
    for n in range(1, lk.trunc_N + 1):
        lam = lk.seq.lam(n)
        base = 1 + z * z / (lam * lam)
        if base == 0:
            return mp.mpc(0)
        acc *= base ** lk.seq.mu(n)
    val *= acc
    for k in range(1, lk.K + 1):
        val *= mp.cos(lk.interval.tau * mp.mpf(2) ** -k * z)
    return val


def reference_laurent(lk, n, eps, J, Q, digits=None):
    """Two separate trapezoid rules, at Q and at 2Q nodes, each calling
    reference_lk_eval with e^(2 pi i q j / Q) weights.  The radius is taken
    at the working precision; the rules run at `digits` (default: the same)."""
    eps = mp.mpf(eps)
    r = (reference_fitted_separation_constant(lk.seq, lk.trunc_N, eps) / 6
         * mp.exp(-eps * abs(lk.seq.lam(n)) / lk.seq.mu(n)))
    center = 1j * lk.seq.lam(n)

    def moments(Q):
        g = [reference_lk_eval(lk, center + r * mp.exp(2j * mp.pi * q / Q))
             for q in range(Q)]
        out = []
        for j in range(1, J + 1):
            s = mp.mpc(0)
            for q, gq in enumerate(g):
                s += mp.exp(2j * mp.pi * q * j / Q) / gq
            out.append(r ** j * s / Q)
        return out

    with mp.workdps(digits or mp.mp.dps):
        coarse, fine = moments(Q), moments(2 * Q)
        worst = max(abs(a - b) / abs(b) for a, b in zip(coarse, fine))
    return tuple(fine), worst, bool(worst < mp.mpf("1e-30"))


def max_rel_error(got, want):
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


class TestLaurentGate:
    """`max_rel_change` is |coarse - fine| / |fine| with no floor under |fine|."""

    def test_tiny_coefficient_keeps_its_change(self):
        # |A_1| = 1.27e-429 here: a 1e-300 floor read the change as 1.87e-208
        seq = fixture("squares", 30)
        lk = lk_function(seq, Interval(0, 1), PrecisionContext(digits=120, trunc_N=30))
        with mp.workdps(120):
            coarse, fine = products._contour_moments(
                lk, 1j * seq.lam(30), products._circle_radii(lk, mp.mpf("0.1"), [30])[0],
                1, 2)
            lc = laurent_coeffs(lk, 30, "0.1", 1, 2)
            assert abs(lc.values[0]) < mp.mpf("1e-400")
            assert lc.max_rel_change == abs(coarse[0] - fine[0]) / abs(fine[0])
            assert mp.mpf("1e-80") < lc.max_rel_change < mp.mpf("1e-78")
            assert lc.converged

    @pytest.mark.parametrize("coarse, fine, want", [
        ([1, 2], [1, 2], 0), ([1, 0], [1, 0], 0), ([1, 1], [2, 1], mp.mpf(1) / 2),
        ([1, mp.mpf("1e-400")], [1, 0], mp.inf)], ids=["equal", "equal-zero", "half", "zero"])
    def test_edge_cases(self, monkeypatch, coarse, fine, want):
        # 0 where the two rules agree, even at 0; infinite where only fine is 0
        monkeypatch.setattr(products, "_contour_moments", lambda *args: (
            [mp.mpc(v) for v in coarse], [mp.mpc(v) for v in fine]))
        lk = lk_function(fixture("squares", 4), Interval(0, 1),
                         PrecisionContext(digits=60, trunc_N=4))
        lc = laurent_coeffs(lk, 1, "0.1", 1, 4)
        assert lc.max_rel_change == want
        assert lc.converged is (want == 0)


class TestCirclePrecision:
    """A separation circle whose radius r_n is below |lambda_n| 10^(-dps/2) is
    refused with PrecisionError (exit 3) by both of its callers, which name n,
    r_n and the digits its nodes need; squares(40) at n = 25 needs 61."""

    @pytest.fixture
    def lk(self):
        return lk_function(fixture("squares", 40), Interval(0, 1),
                           PrecisionContext(digits=60, trunc_N=40))

    @pytest.mark.parametrize("n, need", [(25, 61), (30, 85), (40, 146)])
    def test_both_sides_of_the_bound(self, lk, n, need):
        calls = (lambda: lk_circle_minima(lk, "0.1", [1, n], samples=8),
                 lambda: laurent_coeffs(lk, n, "0.1", 1, 2))
        for call in calls:
            with mp.workdps(need - 1):
                with pytest.raises(PrecisionError, match=rf"separation circle n={n} has "
                                   rf"radius r_n=\S+, too small for {need - 1} working "
                                   rf"digits: its nodes need at least {need}$"):
                    call()
            with mp.workdps(need):
                call()

    def test_first_refused_circle_is_named(self, lk):
        with mp.workdps(60):
            with pytest.raises(PrecisionError, match="n=25 "):
                lk_circle_minima(lk, "0.1", list(range(1, 41)), samples=8)
            assert lk_circle_minima(lk, "0.1", list(range(1, 25)), samples=8)

    def test_cli_exit_3(self, capsys, tmp_path):
        # 60 digits printed min_abs 0.0 for n = 37..40, whose nodes round onto i lambda_n
        path = tmp_path / "squares40.json"
        path.write_text('{"kind": "generator", "name": "squares", "terms": 40}')
        argv = ["lk", "lowerbound", "--seq", str(path), "--N", "40", "--interval", "0,1",
                "--circles", "40"]
        assert main([*argv, "--digits", "60"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: separation circle n=25 has radius r_n=")
        assert main([*argv[:-1], "24", "--digits", "60"]) == 0


@pytest.mark.parametrize("dps", [15, 120])
class TestBatchedPath:
    """The batch evaluator and the shared fine nodes are as accurate as
    per-point evaluation and two separate quadrature rules, measured against
    those at 2 dps + 20 digits; lk_eval is the batch of one."""

    @staticmethod
    def make_lk(seed=0):
        seq = jittered_mu3(6, seed)
        return seq, lk_function(seq, Interval(0, 1),
                                PrecisionContext(digits=120, trunc_N=6))

    def test_batch_as_accurate_as_pointwise(self, dps):
        with mp.workdps(dps):
            seq, lk = self.make_lk()
            rng = random.Random(dps)
            zs = [mp.mpc(rng.uniform(-3, 3), rng.uniform(-40, 40)) for _ in range(12)]
            zeros = [1j * seq.lam(n) for n in (1, 4)] + [-1j * seq.lam(n) for n in (2, 6)]
            got = products._lk_values(lk, zs + zeros)
            assert got == [lk_eval(lk, z) for z in zs + zeros]
            assert got[-4:] == [0, 0, 0, 0]
            pointwise = [reference_lk_eval(lk, z) for z in zs]
            with mp.workdps(2 * dps + 20):
                want = [reference_lk_eval(lk, z) for z in zs]
            assert max_rel_error(got, want) <= max_rel_error(pointwise, want)

    @pytest.mark.parametrize("n", [1, 3])
    def test_laurent_as_accurate_as_two_separate_rules(self, dps, n):
        with mp.workdps(dps):
            seq, lk = self.make_lk(seed=n)
            lc = laurent_coeffs(lk, n, "0.1", 3, 16)
            values, _, converged = reference_laurent(lk, n, "0.1", 3, 16)
            want, _, _ = reference_laurent(lk, n, "0.1", 3, 16, 2 * dps + 20)
            # the node and weight roundings of the two forms are different draws
            # from one error budget, so neither is below the other on every case;
            # both stay within 64 ulps of the 2 dps + 20 rule (at most 16 measured)
            assert max_rel_error(values, want) < 64 * mp.eps
            assert max_rel_error(lc.values, want) < 64 * mp.eps
        assert lc.converged is converged

    def test_laurent_evaluates_g_at_2q_points(self, dps, monkeypatch):
        seen = []
        batch = products._lk_values

        def counting(lk, zs):
            zs = list(zs)
            seen.append(len(zs))
            return batch(lk, zs)

        monkeypatch.setattr(products, "_lk_values", counting)
        with mp.workdps(dps):
            _, lk = self.make_lk()
            laurent_coeffs(lk, 2, "0.1", 3, 16)
        assert sum(seen) == 32

    def test_circle_minima_one_batch(self, dps, monkeypatch):
        # one evaluation for all circles, each minimum the bits of its circle alone
        with mp.workdps(dps):
            _, lk = self.make_lk()
            alone = [lk_circle_minima(lk, "0.1", [n], samples=16)[0] for n in range(1, 7)]
            seen = []
            batch = products._lk_values

            def counting(lk, zs):
                zs = list(zs)
                seen.append(len(zs))
                return batch(lk, zs)

            monkeypatch.setattr(products, "_lk_values", counting)
            minima = lk_circle_minima(lk, "0.1", list(range(1, 7)), samples=16)
        assert seen == [96]
        assert minima == alone
        assert [bits(m.min_abs) for m in minima] == [bits(m.min_abs) for m in alone]

    @pytest.mark.parametrize("kind", [ProductKind.F_EVEN, ProductKind.L_EVEN])
    def test_even_products_match_per_factor(self, dps, kind):
        with mp.workdps(dps):
            seq, _ = self.make_lk()
            rng = random.Random(7)
            zs = [mp.mpc(rng.uniform(-30, 30), rng.uniform(-30, 30)) for _ in range(8)]
            zs += [seq.lam(2), 1j * seq.lam(3)]
            for z in zs:
                want = mp.mpc(1)
                for n in range(1, 7):
                    lam = seq.lam(n)
                    q = z * z / (lam * lam)
                    base = 1 - q if kind is ProductKind.F_EVEN else 1 + q
                    if base == 0:
                        want = mp.mpc(0)
                        break
                    want *= base ** seq.mu(n)
                assert eval_product(kind, seq, 6, z) == want


def mixed_mu(N, seed):
    """lambda_n = n^2 + delta_n as in jittered_mu3, with mu_n drawn from {1, 2, 3}."""
    rng = random.Random(seed)
    return MultiplicitySequence.from_pairs(
        [(n * n + mp.mpc(rng.randint(-209715, 209715), rng.randint(-209715, 209715))
          / 2 ** 20, rng.choice((1, 2, 3))) for n in range(1, N + 1)], "mixed-mu")


def with_mus(mus, seed=0):
    """jittered_mu3's frequencies with the multiplicities mus."""
    seq = jittered_mu3(len(mus), seed)
    return MultiplicitySequence.from_pairs(
        [(seq.lam(n), mu) for n, mu in enumerate(mus, 1)], "jittered-mus")


# mu patterns of twelve factors: the _fx_mul calls per point of one power by
# squaring per factor (the count sum_j popcount(mu_j) + bitlen(mu_j) - 1) and of
# the shared bits
MU_PATTERNS = {"mu3": ([3] * 12, 36, 13), "mu1": ([1] * 12, 12, 11),
               "mu2": ([2] * 12, 24, 12), "cycling": ([1, 2, 3] * 4, 24, 16),
               "pow2": ([2 ** (j % 5) for j in range(12)], 33, 15)}


def squaring_muls(mus):
    return sum(bin(mu).count("1") + mu.bit_length() - 1 for mu in mus)


class TestExactSquare:
    """z^2 enters the windowed product exactly: at z = x + i lambda_n with x
    tiny, Re(lambda_n^2 + z^2) is x^2, which a rounded z^2 loses, and so Re L
    is within a few eps of its value at 600 digits (a rounded z^2 left half of
    it at x = 1e-40)."""

    @pytest.mark.parametrize("dps", [15, 50])
    @pytest.mark.parametrize("x", ["1e-40", "1e-3", "1e-200", "1e-20", "1e-10"])
    @pytest.mark.parametrize("y", [1, 4, 9])
    def test_real_part_keeps_x_squared(self, dps, x, y, squares8, unit_interval):
        with mp.workdps(dps):
            lk = lk_function(squares8, unit_interval, PrecisionContext(digits=50, trunc_N=6))
            z = mp.mpc(x, y)
            got = lk_eval(lk, z)
            eps = +mp.eps  # mp.eps is evaluated where it is read
        with mp.workdps(600):
            want = lk_eval(lk_function(squares8, unit_interval,
                                       PrecisionContext(digits=600, trunc_N=6)), z)
            assert abs(mp.re(got) - mp.re(want)) <= 8 * eps * abs(mp.re(want))
            assert abs(got - want) <= 8 * eps * abs(want)

    @pytest.mark.parametrize("dps", [15, 50])
    def test_sum_rounded_once(self, dps):
        # Re sq + x^2 - y^2 in any order of sizes, against the exact sum
        rng = random.Random(dps)
        with mp.workdps(dps):
            for _ in range(200):
                y = mp.mpf(rng.uniform(-3, 3))
                x = mp.mpf(rng.uniform(-1, 1)) * mp.mpf(2) ** -rng.randint(0, 4 * mp.mp.prec)
                sq = y * y + (mp.mpf(rng.uniform(-1, 1)) * mp.mpf(2) ** -rng.randint(0, 200)
                              if rng.random() < 0.5 else 0)
                got = products._plus_square(mp.mpc(sq, 1), mp.mpc(x, y))
                eps = +mp.eps
                with mp.workprec(8 * mp.mp.prec + 100):
                    want = sq + x * x - y * y
                assert abs(mp.re(got) - want) <= eps * abs(want)


class TestFixedPointProduct:
    """The factor product prod (lambda_n^2 + z^2)^mu_n of the windowed product is
    rounded once per point: within mp.eps in modulus of the exact product of the
    same rounded lambda_n^2 and z^2, at every precision."""

    @pytest.mark.parametrize("dps", [15, 60, 120])
    @pytest.mark.parametrize("make", [lambda: jittered_mu3(12, 0), lambda: jittered_mu3(12, 1),
                                      lambda: mixed_mu(12, 2), lambda: fixture("example_vi", 12),
                                      lambda: with_mus(MU_PATTERNS["pow2"][0], 3),
                                      lambda: with_mus(MU_PATTERNS["mu1"][0], 4)],
                             ids=["mu3-0", "mu3-1", "mixed", "mu-10^n", "mu-2^(n%5)", "mu1"])
    def test_within_eps_of_exact(self, dps, make):
        with mp.workdps(dps):
            seq = make()
            radii = prefix_table(seq, 12).separation_disks(mp.mpf("0.1")).radii_small
            roots = [mp.expjpi(mp.mpf(q) / 8) for q in range(16)]
            zs = [1j * seq.lam(n) + radii[n - 1] * w for n in range(1, 13) for w in roots]
            rng = random.Random(dps)
            zs += [mp.mpc(rng.uniform(-5, 5), rng.uniform(-200, 200)) for _ in range(24)]
            squares = [seq.lam(n) ** 2 for n in range(1, 13)]
            mus = [seq.mu(n) for n in range(1, 13)]
            keep = mp.mp.prec + products._GUARD + sum(mus).bit_length()
            fixed = products._fx(squares, keep)
            plan = products._mu_bits(mus)
            for z in zs:
                zz = z * z
                got = products._fx_product(fixed, plan, products._fx([zz], keep), keep)
                assert got is not None, z
                got = products._fx_round(got)
                eps = +mp.eps  # mp.eps is evaluated where it is read
                with mp.workdps(4 * dps + 50):
                    want = mp.fprod((sq + zz) ** mu for sq, mu in zip(squares, mus))
                    assert abs(got - want) <= eps * abs(want), z

    @pytest.fixture
    def mul_calls(self, monkeypatch):
        calls = []
        mul = products._fx_mul

        def counted(*args):
            calls.append(args)
            return mul(*args)

        monkeypatch.setattr(products, "_fx_mul", counted)
        return calls

    @staticmethod
    def count_muls(mus, calls):
        """_fx_mul calls of one point's factor product with multiplicities mus."""
        with mp.workdps(30):
            seq = with_mus(mus)
            keep = mp.mp.prec + products._GUARD + sum(mus).bit_length()
            fixed = products._fx([seq.lam(n) ** 2 for n in range(1, len(mus) + 1)], keep)
            zz = products._fx([mp.mpc("0.75", "2.5") ** 2], keep)
            calls.clear()
            assert products._fx_product(fixed, products._mu_bits(mus), zz, keep) is not None
        return len(calls)

    @pytest.mark.parametrize("pattern", list(MU_PATTERNS))
    def test_shared_squarings(self, pattern, mul_calls):
        # every power of a bit set is formed once: mu = 3 takes 13 multiplies
        # per point where a power per factor takes 36
        mus, per_factor, want = MU_PATTERNS[pattern]
        assert squaring_muls(mus) == per_factor
        assert self.count_muls(mus, mul_calls) == want

    def test_never_more_than_per_factor(self, mul_calls):
        rng = random.Random(5)
        for _ in range(40):
            mus = [rng.randint(1, 2 ** rng.randint(1, 10)) for _ in range(rng.randint(1, 12))]
            assert self.count_muls(mus, mul_calls) < squaring_muls(mus), mus

    def test_non_finite_point_is_nan(self, squares8, unit_interval):
        lk = lk_function(squares8, unit_interval, PrecisionContext(digits=60, trunc_N=6))
        for z in (mp.inf, mp.mpc(1, mp.inf), mp.mpc(mp.ninf, mp.inf), mp.nan):
            assert mp.isnan(lk_eval(lk, z))


@pytest.mark.parametrize("dps", [15, 60])
@pytest.mark.parametrize("make", [lambda: (fixture("squares", 8), (0, 1)),
                                  lambda: (fixture("squares", 8), (-1, 2)),
                                  lambda: (HUGE_MU, (0, 1))],
                         ids=["fixed", "fixed-gamma", "per-factor"])
def test_non_finite_point_is_nan_on_every_path(dps, make):
    # the fixed path for gamma = 0 and gamma != 0, and the per-factor loop that
    # every point of sum mu_n >= 2^64 takes; inside a batch of finite points too
    seq, interval = make()
    lk = lk_function(seq, Interval(*interval), PrecisionContext(digits=60, trunc_N=3))
    bad = [mp.inf, mp.ninf, mp.mpc(1, mp.inf), mp.mpc(mp.inf, 1), mp.mpc(mp.ninf, mp.inf),
           mp.nan, mp.mpc(mp.nan, 1), mp.mpc(0, mp.nan)]
    with mp.workdps(dps):
        values = products._lk_values(lk, [mp.mpc(1, 2), *bad, mp.mpc("0.5", 1)])
        assert all(mp.isfinite(v) and v != 0 for v in (values[0], values[-1]))
        assert all(mp.isnan(v) for v in values[1:-1])


# stdout of `lk eval --seq <squares, 8 terms> --N 6 --interval 0,1` as the per-factor
# product printed it: a point tiny beside lambda_n^2, or with one part of z^2 tiny
# beside the other, still takes that loop, with no shift by billions of bits.  At
# x + i and x + 4i, x = 1e-1000000000, Re(lambda_n^2 + z^2) = x^2 is kept, so
# value_re is x^2 times the mantissa that 300 digits give at x = 1e-40.  At
# +-1e30i and 1e6+1e6i the window's E^(2^j) lie about 10^27 and 10^6 bits from 1,
# which is dropped, not shifted to; 1e-30 takes the loop (E's parts too far apart)
_LK_EVAL_STDOUT = '{{\n  "schema_version": 1,\n  "value_im": "{}",\n  "value_re": "{}",\n' \
                  '  "z": [\n    "{}",\n    "{}"\n  ]\n}}\n'
_EXTREME_POINTS = {
    "1e-1000000000": ("-5.0e-1000000001", "1.0", "1.0e-1000000000", "0.0"),
    "1e-1000000000+1i": ("3.16205861137510109011430348586e-1000000000",
                         "2.88079171122307006737030141922e-2000000000",
                         "1.0e-1000000000", "1.0"),
    "1e-1000000000+4i": ("-7.27592999431577473926107430218e-999999999",
                         "-9.10356402510153546937457527808e-1999999999",
                         "1.0e-1000000000", "4.0"),
    "0": ("0.0", "1.0", "0.0", "0.0"),
    "-4i": ("0.0", "0.0", "0.0", "-4.0"),
    "2i": ("0.0", "-6.66228943505397769494859520061", "0.0", "2.0"),
    "1e30i": ("0.0", "1.01980712526614071818332072559e+433446250493284538925247808093",
              "0.0", "1.0e+30"),
    "-1e30i": ("0.0", "2.53183703088348831583713875588e-848231409967288725881110824",
               "0.0", "-1.0e+30"),
    "1e6+1e6i": ("9.18762291444870768136789143704e+433505",
                 "-1.37795305943397837275893725235e+433506", "1000000.0", "1000000.0"),
    "1e-30": ("-5.0e-31", "1.0", "1.0e-30", "0.0"),
}


# stdout of `lk eval --seq <name, 8 terms> --interval 0,1 --z=1+2i` as the per-factor
# product printed it; mu_n = 2^n and 10^n, so sum mu_n is 510 and about 1.1e8
_LARGE_MU_VALUES = {
    "example_v": ("1.15327992251348339109474293665", "1.16820764580585635188360738317"),
    "example_vi": ("-0.553191763259391841078569665929", "2.22282900249391740059953631754"),
}


@pytest.mark.parametrize("name", sorted(_LARGE_MU_VALUES))
def test_lk_large_multiplicities(capsys, tmp_path, name):
    # each power mu_n costs about log2 mu_n multiplies, not mu_n
    path = tmp_path / f"{name}.json"
    path.write_text(f'{{"kind": "generator", "name": "{name}", "terms": 8}}')
    start = time.perf_counter()
    code = main(["lk", "eval", "--seq", str(path), "--interval", "0,1", "--z=1+2i"])
    assert time.perf_counter() - start < 2
    assert code == 0
    assert capsys.readouterr().out == _LK_EVAL_STDOUT.format(*_LARGE_MU_VALUES[name],
                                                             "1.0", "2.0")
    start = time.perf_counter()
    assert main(["lk", "lowerbound", "--seq", str(path), "--interval", "0,1"]) == 0
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("z", sorted(_EXTREME_POINTS))
def test_lk_eval_extreme_points(capsys, tmp_path, z):
    path = tmp_path / "squares8.json"
    path.write_text('{"kind": "generator", "name": "squares", "terms": 8}')
    start = time.perf_counter()
    code = main(["lk", "eval", "--seq", str(path), "--N", "6", "--interval", "0,1",
                 f"--z={z}"])
    assert time.perf_counter() - start < 2
    assert code == 0
    assert capsys.readouterr().out == _LK_EVAL_STDOUT.format(*_EXTREME_POINTS[z])


def direct_gnk(lk, A, n, k, z):
    """(G(z)/k!) sum_{l=1..mu_n-k} A_{k+l} w^-l, w = z - i lambda_n != 0, written out."""
    w = z - 1j * lk.seq.lam(n)
    s = mp.mpc(0)
    for l in range(1, lk.seq.mu(n) - k + 1):
        s += A[k + l - 1] / w ** l
    return lk_eval(lk, z) * s / mp.factorial(k)


def gnk_points(dps, ratios):
    """(lk, laurent, n, k, z) at working precision dps on the mixed-mu sequence:
    every n and k, z = i lambda_n + ratio r e^(i theta) for each |w|/r in ratios
    and two angles theta, with the Laurent coefficients taken at dps."""
    seq = MultiplicitySequence.from_pairs(
        [(1, 2), (mp.mpf("2.5"), 1), (mp.mpf("4.5"), 2)], "mixed-mu")
    lk = lk_function(seq, Interval(0, 1), PrecisionContext(digits=120, trunc_N=3))
    out = []
    with mp.workdps(dps):
        for n in (1, 2, 3):
            laurent = laurent_coeffs(lk, n, "0.1", seq.mu(n), 64)
            for ratio in ratios:
                for theta in ("0.3", "2.2"):
                    w = mp.mpf(ratio) * laurent.radius * mp.expj(mp.mpf(theta))
                    z = 1j * seq.lam(n) + w
                    out.extend((lk, laurent, n, k, z) for k in range(seq.mu(n)))
    return out


class TestGnk:
    @pytest.fixture
    def setup(self):
        seq = MultiplicitySequence.from_pairs(
            [(1, 2), (mp.mpf("2.5"), 1), (mp.mpf("4.5"), 2)], "mixed-mu")
        ctx = PrecisionContext(digits=120, trunc_N=3)
        lk = lk_function(seq, Interval(0, 1), ctx)
        laurents = {n: laurent_coeffs(lk, n, "0.1", seq.mu(n), 64)
                    for n in (1, 2, 3)}
        return seq, lk, laurents

    def test_interpolation_identity_matrix(self, setup):
        # derivative l at i lambda_m of G_{n,k} is delta_{(m,l),(n,k)},
        # checked by central differences at step 1e-20
        seq, lk, laurents = setup
        idx = [(n, k) for n in (1, 2, 3) for k in range(seq.mu(n))]
        with mp.workdps(120):
            h = mp.mpf(10) ** -20
            worst = mp.mpf(0)
            for (n, k) in idx:
                f = lambda z: gnk_eval(lk, laurents[n], n, k, z)
                for (m, l) in idx:
                    got = central_diff(f, 1j * seq.lam(m), l, h)
                    want = 1 if (m, l) == (n, k) else 0
                    worst = max(worst, abs(got - want))
        assert worst < mp.mpf(10) ** -30

    def test_center_values(self, setup):
        seq, lk, laurents = setup
        assert gnk_eval(lk, laurents[1], 1, 0, 1j * seq.lam(1)) == 1
        assert gnk_eval(lk, laurents[1], 1, 1, 1j * seq.lam(1)) == 0

    def test_other_zeros_exact(self, setup):
        seq, lk, laurents = setup
        assert gnk_eval(lk, laurents[1], 1, 0, 1j * seq.lam(2)) == 0

    def test_simple_zero_closed_form(self, setup):
        # for mu_n = 1: G_{n,0}(z) = G(z) / ((z - i lambda_n) G'(i lambda_n))
        seq, lk, laurents = setup
        with mp.workdps(120):
            c = 1j * seq.lam(2)
            h = mp.mpf(10) ** -40
            gp = (lk_eval(lk, c + h) - lk_eval(lk, c - h)) / (2 * h)
            z = mp.mpc("0.3", "2.1")
            want = lk_eval(lk, z) / ((z - c) * gp)
            got = gnk_eval(lk, laurents[2], 2, 0, z)
            assert abs(got - want) < mp.mpf("1e-35")

    @pytest.mark.parametrize("dps", [15, 60, 120])
    def test_one_formula_inside_and_outside(self, dps):
        # the defining sum, bit for bit, inside the separation disk as well as
        # outside it: the pole of 1/G at i lambda_n is a removable singularity
        # of G_{n,k}, so no second form is needed near it
        with mp.workdps(dps):
            for lk, laurent, n, k, z in gnk_points(dps, ("0.5", "1e-3", "1e-20",
                                                          "1.5", "3")):
                got = gnk_eval(lk, laurent, n, k, z)
                want = direct_gnk(lk, laurent.values, n, k, z)
                assert bits(got.real) == bits(want.real), (n, k, z)
                assert bits(got.imag) == bits(want.imag), (n, k, z)

    @pytest.mark.parametrize("dps", [15, 60, 120])
    def test_inside_disk_accuracy(self, dps):
        # against the same sum with the same A at 3 dps + 40 digits: the sum
        # loses nothing to the pole it cancels
        with mp.workdps(dps):
            points = gnk_points(dps, ("0.5", "1e-3", "1e-20"))
            got = [gnk_eval(*p) for p in points]
            eps = +mp.eps  # fixed at dps, not re-read at the reference precision
        worst = mp.mpf(0)
        with mp.workdps(3 * dps + 40):
            for (lk, laurent, n, k, z), g in zip(points, got):
                want = direct_gnk(lk, laurent.values, n, k, z)
                worst = max(worst, abs(g - want) / abs(want))
        assert worst <= 8 * eps, mp.nstr(worst / eps, 5)

    def test_inside_disk_needs_full_principal_part(self, setup):
        seq, lk, laurents = setup
        partial = laurent_coeffs(lk, 1, "0.1", 1, 32)  # J < mu_1
        z = 1j * seq.lam(1) + partial.radius / 2
        with pytest.raises(DomainError):
            gnk_eval(lk, partial, 1, 0, z)

    def test_outside_disk_needs_full_principal_part(self):
        # the direct sum reads A_{k+1..mu_n}, so every k needs J = mu_n there too
        seq = fixture("example_iv", 8, mu=3)
        lk = lk_function(seq, Interval(0, 1), PrecisionContext(digits=120, trunc_N=8))
        partial = laurent_coeffs(lk, 2, "0.1", 2, 32)  # J = 2 < mu_2 = 3
        z = 1j * seq.lam(2) + 3 * partial.radius
        for k in range(3):
            with pytest.raises(DomainError, match=r"have J=2, need mu_n=3"):
                gnk_eval(lk, partial, 2, k, z)


class TestBlaschke:
    def test_zero_at_frequency(self, squares8):
        assert blaschke_eval(squares8, 8, squares8.lam(1)) == 0

    def test_origin_value(self, squares8):
        got = blaschke_eval(squares8, 8, 0)
        assert abs(got - mp.mpf(1) / 16) < mp.mpf("1e-55")

    def test_pole_region_refused(self, squares8):
        with pytest.raises(DomainError):
            blaschke_eval(squares8, 8, -4)
        with pytest.raises(DomainError):
            blaschke_eval(squares8, 8, mp.mpc(-5, 2))

    def test_decay_weight_bounded_on_grid(self, squares8):
        # sup |f(z)| (1 + Im(z)^2) over a right half-plane grid stays finite
        # and is reported as a fitted constant
        vals = []
        for re in ("-2", "0", "3", "10"):
            for im in ("-40", "-5", "0", "5", "40"):
                z = mp.mpc(re, im)
                vals.append(abs(blaschke_eval(squares8, 8, z)) * (1 + mp.im(z) ** 2))
        assert max(vals) < mp.mpf(10) ** 6
