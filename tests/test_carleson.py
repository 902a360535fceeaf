import random

import mpmath as mp
import pytest
from conftest import (FIXTURE_NAMES, FIXTURE_TERMS, bits, decaying_coeffs, jittered_mu3,
                      per_point_apply_to_exponential, reference_apply_to_exponential,
                      reference_exp_monomial_derivative)

from expspan import (DomainError, FlatIndex, Interval, PrecisionContext,
                     PrecisionError, ProductKind, Sector,
                     TaylorDirichletSeries, apply_to_exponential,
                     carleson_operator, class_membership, counterexample,
                     eval_product, exp_monomial_derivative, fixture,
                     residual_on_span, taylor_coeffs)


@pytest.fixture
def op6(squares12):
    ctx = PrecisionContext(digits=120, trunc_N=6)
    return carleson_operator(squares12, 6, ctx), ctx


@pytest.fixture
def op_mult():
    seq = fixture("example_v", 3)  # multiplicities 2, 4, 8
    ctx = PrecisionContext(digits=120, trunc_N=3)
    return seq, carleson_operator(seq, 3, ctx), ctx


class TestOperator:
    def test_degree_and_padding(self, op_mult):
        seq, op, ctx = op_mult
        assert op.degree == 14
        assert len(op.fcoeffs) == op.degree + 1
        gcoeffs = taylor_coeffs(ProductKind.G_ABS, seq, op.N, op.degree, ctx)
        assert all(g > 0 for g in gcoeffs)

    def test_annihilates_truncated_frequencies(self, op6, squares12):
        op, ctx = op6
        floor = mp.mpf(10) ** (-ctx.digits + 20)
        for n in range(1, 7):
            [[val]] = apply_to_exponential(op, squares12.lam(n), [0], [mp.mpf("0.7")], ctx)
            assert abs(val) < floor

    def test_annihilates_monomial_weights(self, op_mult):
        seq, op, ctx = op_mult
        floor = mp.mpf(10) ** (-ctx.digits + 20)
        for n in range(1, 4):
            for k in range(seq.mu(n)):
                [[val]] = apply_to_exponential(op, seq.lam(n), [k], [mp.mpf("0.3")], ctx)
                assert abs(val) < floor, (n, k)

    def test_eigenvalue_identity(self, op6, squares12):
        op, ctx = op6
        rng = random.Random(13)
        with mp.workdps(ctx.digits):
            for _ in range(10):
                lam = mp.mpc(rng.uniform(-8, 8), rng.uniform(-8, 8))
                x = mp.mpf(rng.uniform(0, 1))
                [[got]] = apply_to_exponential(op, lam, [0], [x], ctx)
                want = (eval_product(ProductKind.F_PLAIN, squares12, 6, lam)
                        * mp.exp(lam * x))
                assert abs(got - want) < mp.mpf(10) ** (-ctx.digits // 2)

    def test_off_spectrum_value_at_origin(self, op6, squares12):
        op, ctx = op6
        lam = mp.mpf("2.5")
        [[got]] = apply_to_exponential(op, lam, [0], [0], ctx)
        want = eval_product(ProductKind.F_PLAIN, squares12, 6, lam)
        assert abs(got - want) < mp.mpf("1e-60")


class TestDerivativeHelper:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_finite_differences(self, seed):
        rng = random.Random(seed)
        lam = mp.mpc(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        k = rng.choice([0, 1, 2])
        x = mp.mpf(rng.uniform(0.1, 0.9))
        f = lambda t: t ** k * mp.exp(lam * t)
        h = mp.mpf(10) ** -15
        for m in (1, 2):
            if m == 1:
                num = (f(x + h) - f(x - h)) / (2 * h)
            else:
                num = (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
            got = exp_monomial_derivative(lam, k, m, x)
            assert abs(got - num) < mp.mpf("1e-25")


class TestExactIntegers:
    """Exact integer binomials and falling factorials give the values of their
    mpmath gamma-function forms bit for bit."""

    @pytest.fixture(params=["squares", "example_iv", "jittered_mu3"])
    def seq(self, request):
        if request.param == "jittered_mu3":
            return jittered_mu3(5, 0)
        return fixture(request.param, 6)

    def test_apply_matches_reference(self, seq):
        ctx = PrecisionContext(digits=120, trunc_N=seq.size)
        with mp.workdps(160):
            op = carleson_operator(seq, seq.size, ctx)
            xs = (mp.mpf("0.3"), mp.mpf("-0.7"))
            for n in range(1, seq.size + 1):
                rows = apply_to_exponential(op, seq.lam(n), range(seq.mu(n)), xs, ctx)
                for k, row in enumerate(rows):
                    for x, got in zip(xs, row):
                        want = reference_apply_to_exponential(op, seq.lam(n), k, x, ctx)
                        assert bits([got.real, got.imag]) == bits([want.real, want.imag])

    def test_derivative_matches_reference(self, seq):
        degree = seq.total_multiplicity(seq.size)
        with mp.workdps(160):
            for n in range(1, seq.size + 1):
                for k in range(seq.mu(n)):
                    for m in range(degree + 1):
                        got = exp_monomial_derivative(seq.lam(n), k, m, mp.mpf("0.3"))
                        want = reference_exp_monomial_derivative(seq.lam(n), k, m,
                                                                 mp.mpf("0.3"))
                        assert bits([got.real, got.imag]) == bits([want.real, want.imag])

    def test_frequency_kept_at_working_precision(self):
        # example_ii(3) holds n^2 + e^(-n): rounding lambda to 15 digits would move
        # it off the zero of the product by about 1e-15
        seq = fixture("example_ii", 3)
        with mp.workdps(15):
            ctx = PrecisionContext(digits=120, trunc_N=6)
            op = carleson_operator(seq, 6, ctx)
            for n in range(1, 7):
                [[val]] = apply_to_exponential(op, seq.lam(n), [0], [mp.mpf("0.5")], ctx)
                assert abs(val) < mp.mpf("1e-100"), n


class TestSharedDerivativeTable:
    """One table F^(j)(lam)/j! and one exponential per point for every k of an
    application, the table cut at the degree, give every k and point the
    per-point value bit for bit."""

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("terms", FIXTURE_TERMS)
    @pytest.mark.parametrize("name", FIXTURE_NAMES + ["jittered_mu3"])
    def test_matches_per_point_bit_for_bit(self, name, terms, dps):
        with mp.workdps(dps):
            seq = jittered_mu3(terms, 0) if name == "jittered_mu3" else fixture(name, terms)
            # the longest prefix of at most 6 frequencies whose degree is at most 20
            N = max(n for n in range(1, min(seq.size, 6) + 1)
                    if seq.total_multiplicity(n) <= 20)
            ctx = PrecisionContext(digits=50, trunc_N=N)
            op = carleson_operator(seq, N, ctx)
            xs = (mp.mpf("0.3"), mp.mpf("-0.7"), mp.mpf(2) / 3)
            # the frequency past the prefix, where there is one, is off the spectrum
            for n in range(1, min(N + 1, seq.size) + 1):
                ks = sorted({0, seq.mu(n) - 1, op.degree + 1})
                rows = apply_to_exponential(op, seq.lam(n), ks, xs, ctx)
                assert [len(got) for got in rows] == [len(xs)] * len(ks)
                for k, got in zip(ks, rows):
                    for x, val in zip(xs, got):
                        want = per_point_apply_to_exponential(op, seq.lam(n), k, x, ctx)
                        assert bits([val.real, val.imag]) == bits([want.real, want.imag])

    def test_residual_matches_per_point_sums(self):
        seq = jittered_mu3(5, 1)
        ctx = PrecisionContext(digits=50, trunc_N=5)
        op = carleson_operator(seq, 5, ctx)
        s = TaylorDirichletSeries(seq=seq, coeffs=decaying_coeffs(seq),
                                  claimed_sector=Sector(0, 1))
        grid = [mp.mpf(i) / 7 for i in range(1, 7)]
        worst = mp.mpf(0)
        for x in grid:
            acc = mp.mpc(0)
            for idx, c in s.coeffs.items():
                if c != 0:
                    acc += c * per_point_apply_to_exponential(op, seq.lam(idx.n), idx.k,
                                                              x, ctx)
            worst = max(worst, abs(acc))
        assert bits(residual_on_span(op, s, grid, ctx).sup_residual) == bits(worst)


class TestResidualOnSpan:
    def test_single_element(self, op6, squares12, ctx200):
        op, ctx = op6
        s = TaylorDirichletSeries(seq=squares12,
                                  coeffs={FlatIndex(1, 0): mp.mpc(1)},
                                  claimed_sector=Sector(0, 1))
        grid = [mp.mpf(i) / 20 for i in range(1, 20)]
        rep = residual_on_span(op, s, grid, ctx)
        assert rep.sup_residual < mp.mpf(10) ** (-ctx.digits // 3)

    def test_random_combination(self, op6, squares12):
        op, ctx = op6
        rng = random.Random(3)
        coeffs = {FlatIndex(n, 0): mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for n in range(1, 7)}
        s = TaylorDirichletSeries(seq=squares12, coeffs=coeffs,
                                  claimed_sector=Sector(0, 1))
        rep = residual_on_span(op, s, [mp.mpf("0.25"), mp.mpf("0.75")], ctx)
        assert rep.sup_residual < rep.scale * mp.mpf(10) ** (-ctx.digits // 3)

    def test_unsupported_frequency_refused(self, op6, squares12):
        op, ctx = op6
        s = TaylorDirichletSeries(seq=squares12,
                                  coeffs={FlatIndex(8, 0): mp.mpc(1)},
                                  claimed_sector=Sector(0, 1))
        with pytest.raises(DomainError):
            residual_on_span(op, s, [mp.mpf("0.5")], ctx)


class TestClassMembership:
    def test_eigenfunction_sums_to_product_value(self, op6, squares12):
        op, ctx = op6
        s = TaylorDirichletSeries(seq=squares12,
                                  coeffs={FlatIndex(1, 0): mp.mpc(1)},
                                  claimed_sector=Sector(0, 1))
        rep = class_membership(op, s, Interval(0, 1), "0.05", 2 * op.degree, ctx)
        assert rep.converging
        x = rep.grid[0]
        want = (eval_product(ProductKind.G_ABS, squares12, 6, squares12.lam(1))
                * mp.exp(squares12.lam(1) * x))
        assert abs(rep.partial_sums[0][-1] - want) < mp.mpf("1e-50")

    def test_zero_series(self, op6, squares12):
        op, ctx = op6
        s = TaylorDirichletSeries(seq=squares12, coeffs={},
                                  claimed_sector=Sector(0, 1))
        rep = class_membership(op, s, Interval(0, 1), "0.1", op.degree, ctx)
        assert rep.converging
        assert all(p[-1] == 0 for p in rep.partial_sums)

    def test_majorant_coefficients_factorial_trend(self, op6):
        # type-zero shadow: m * G_m^(1/m) decreases once past the first terms
        op, ctx = op6
        gcoeffs = taylor_coeffs(ProductKind.G_ABS, op.seq, op.N, op.degree, ctx)
        rhos = [m * gcoeffs[m] ** (mp.mpf(1) / m)
                for m in range(2, op.degree + 1)]
        assert all(rhos[i + 1] < rhos[i] for i in range(len(rhos) - 1))

    def test_budget_enforced(self, op6, squares12):
        op, ctx = op6
        s = TaylorDirichletSeries(seq=squares12, coeffs={},
                                  claimed_sector=Sector(0, 1))
        with pytest.raises(ValueError):
            class_membership(op, s, Interval(0, 1), "0.1", 5 * op.degree, ctx)


class TestCounterexample:
    def test_grouped_terms_below_certificate(self, ctx200):
        rep = counterexample(6, ctx200)
        for row in rep.rows:
            for val, bound in zip(row.grouped_abs, row.grouped_bound):
                assert val <= bound

    def test_dichotomy_magnitudes(self, ctx200):
        rep = counterexample(5, ctx200)
        # z = -1 is the first sample
        n3 = rep.rows[2]
        assert n3.grouped_abs[0] < mp.mpf("1e-20")
        n5 = rep.rows[4]
        assert n5.ungrouped_abs[0] > mp.mpf("1e40")
        assert abs(n5.ungrouped_abs[0] - mp.exp(100)) < mp.mpf("1e30")

    def test_monotone_dichotomy(self, ctx200):
        rep = counterexample(6, ctx200)
        assert rep.grouped_decreasing
        assert rep.ungrouped_increasing

    def test_exact_zero_at_origin(self, ctx200):
        rep = counterexample(4, ctx200)
        assert rep.value_at_zero == 0

    def test_budget(self, ctx200):
        with pytest.raises(PrecisionError):
            counterexample(9, ctx200)

    def test_right_half_plane_samples_refused(self, ctx200):
        with pytest.raises(DomainError):
            counterexample(4, ctx200, samples=[mp.mpc(1, 0)])

    def test_sequence_certified_non_interpolating(self):
        # the experiment's frequency set fails geometric condition (II)
        from expspan.core import prefix_table
        from expspan.lambda_analysis import geometric_conditions
        seq = fixture("carleson_counterexample", 8)
        _, gii = geometric_conditions(prefix_table(seq, 16))
        assert not gii.passed
