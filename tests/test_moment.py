import random

import mpmath as mp
import pytest
from conftest import (FIXTURE_NAMES, FIXTURE_TERMS, bits, decaying_coeffs, jittered_mu3,
                      reference_growth_fit)

from expspan import (ConfigError, FlatIndex, GrowthGateError, Interval, MomentData,
                     PrecisionContext, fixture)
from expspan.gram import biorthogonal, gram_matrix
from expspan.moment import bessel_diagnostic, growth_check, moments_from_obj, solve


def exp_data(seq, rate):
    return MomentData(values={FlatIndex(n, k): mp.exp(rate * seq.lam(n))
                              for n in range(1, seq.size + 1)
                              for k in range(seq.mu(n))})


class TestGrowthCheck:
    def test_half_rate_passes(self, squares12, unit_interval):
        rep = growth_check(exp_data(squares12, mp.mpf("0.5")), squares12, 6,
                           unit_interval)
        assert rep.passed
        assert abs(rep.a - mp.mpf("0.5")) < mp.mpf("1e-40")

    def test_full_rate_fails(self, squares12, unit_interval):
        rep = growth_check(exp_data(squares12, 1), squares12, 6, unit_interval)
        assert not rep.passed
        assert abs(rep.a - 1) < mp.mpf("1e-40")

    def test_reciprocal_data_near_zero(self, squares12, unit_interval):
        d = MomentData(values={FlatIndex(n, 0): 1 / squares12.lam(n)
                               for n in range(1, 13)})
        rep = growth_check(d, squares12, 12, unit_interval)
        assert rep.passed
        assert mp.mpf("-0.1") < rep.a < 0

    def test_super_small_data_reported_minus_inf(self, squares12, unit_interval):
        d = MomentData(values={FlatIndex(n, 0): mp.exp(-20 * squares12.lam(n))
                               for n in range(1, 13)})
        rep = growth_check(d, squares12, 12, unit_interval)
        assert rep.passed and rep.effectively_minus_inf

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("name,terms",
                             [(name, terms) for name in FIXTURE_NAMES if name != "example_vi"
                              for terms in FIXTURE_TERMS]
                             + [("jittered-mu3", seed) for seed in (0, 1, 2)])
    def test_matches_reference_fit(self, name, terms, dps):
        # example_vi is left out: group maxima scan every k < mu_n = 10^n
        with mp.workdps(dps):
            seq = jittered_mu3(12, terms) if name == "jittered-mu3" else fixture(name, terms)
            interval = Interval(0, 1)
            for d in (MomentData(values=decaying_coeffs(seq)), MomentData()):
                rep = growth_check(d, seq, seq.size, interval)
                a, ratios, very_neg = reference_growth_fit(d, seq, seq.size)
                assert bits(rep.a) == bits(a) and bits(rep.ratios) == bits(ratios)
                assert rep.effectively_minus_inf == very_neg

    def test_needs_four_frequencies(self, squares12, unit_interval):
        with pytest.raises(ValueError):
            growth_check(exp_data(squares12, 0), squares12, 3, unit_interval)


class TestSolve:
    def test_delta_data_returns_dual_element(self, squares12, unit_interval, ctx200):
        # moments = delta at (3,0): the solution is exactly r_{3,0}
        d = MomentData(values={FlatIndex(3, 0): mp.mpc(1)})
        sol = solve(d, squares12, 6, unit_interval, ctx200)
        g = sol.gram
        fam = biorthogonal(g)
        row = list(g.indices).index(FlatIndex(3, 0))
        with mp.workdps(g.digits_used):
            worst = max(abs(sol.series.coeff(ix.n, ix.k) - fam.coeffs[row, j])
                        for j, ix in enumerate(g.indices))
        assert worst < mp.mpf("1e-45")

    def test_known_series_round_trip(self, squares12, unit_interval, ctx200):
        # d = exact moments of a known truncated series -> recover it exactly
        rng = random.Random(41)
        g = gram_matrix(squares12, 6, unit_interval, ctx200)
        with mp.workdps(g.digits_used):
            c0 = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(g.dim)]
            vals = {}
            for a, ix in enumerate(g.indices):
                vals[ix] = sum(c0[b] * g.matrix[b, a] for b in range(g.dim))
        sol = solve(MomentData(values=vals), squares12, 6, unit_interval,
                    ctx200, force=True)
        worst = max(abs(sol.series.coeff(ix.n, ix.k) - c0[b])
                    for b, ix in enumerate(g.indices))
        assert worst < mp.mpf("1e-40")

    def test_residuals_tiny_at_high_precision(self, squares12, unit_interval, ctx200):
        sol = solve(exp_data(squares12, mp.mpf("0.5")), squares12, 6,
                    unit_interval, ctx200)
        assert sol.residual_max < mp.mpf("1e-40")
        assert not sol.forced

    def test_gate_blocks_fast_data(self, squares12, unit_interval, ctx200):
        with pytest.raises(GrowthGateError):
            solve(exp_data(squares12, 1), squares12, 6, unit_interval, ctx200)

    def test_force_flag_annotates(self, squares12, unit_interval, ctx200):
        sol = solve(exp_data(squares12, 1), squares12, 6, unit_interval,
                    ctx200, force=True)
        assert sol.forced

    def test_solution_coefficients_look_bounded(self, squares12, unit_interval, ctx200):
        sol = solve(exp_data(squares12, mp.mpf("0.5")), squares12, 6,
                    unit_interval, ctx200)
        assert sol.coefficient_bound.verdict == "bounded"

    def test_determinism(self, squares12, unit_interval, ctx200):
        d = exp_data(squares12, mp.mpf("0.5"))
        s1 = solve(d, squares12, 6, unit_interval, ctx200)
        s2 = solve(d, squares12, 6, unit_interval, ctx200)
        for ix in s1.gram.indices:
            assert s1.series.coeff(ix.n, ix.k) == s2.series.coeff(ix.n, ix.k)

    def test_series_of_duals_formulation_identical(self, squares12, unit_interval, ctx200):
        # solving the linear system equals summing d_a over inverse-Gram rows
        d = exp_data(squares12, mp.mpf("0.5"))
        sol = solve(d, squares12, 6, unit_interval, ctx200)
        g = sol.gram
        fam = biorthogonal(g)
        with mp.workdps(g.digits_used):
            for j, jx in enumerate(g.indices):
                via_rows = sum(d.value(ix.n, ix.k) * fam.coeffs[a, j]
                               for a, ix in enumerate(g.indices))
                assert abs(via_rows - sol.series.coeff(jx.n, jx.k)) < mp.mpf("1e-40")


class TestBessel:
    def test_one_dimensional_entry(self, unit_interval):
        seq = fixture("squares", 4)
        ctx = PrecisionContext(digits=80, trunc_N=1)
        d = MomentData(values={FlatIndex(n, 0): mp.mpc(1, 1) for n in range(1, 5)})
        # truncating at N=1 keeps a single scaled dual element
        rep = bessel_diagnostic(d, seq, 1, unit_interval, ctx)
        g = gram_matrix(seq, 1, unit_interval, ctx)
        with mp.workdps(g.digits_used):
            norm_r2 = 1 / mp.re(g.matrix[0, 0])
            want = abs(seq.lam(1) * d.value(1, 0)) ** 2 * norm_r2
        assert len(rep.row_sums) == 1
        assert abs(rep.row_sums[0] - want) < mp.mpf("1e-50")

    def test_row_sums_decay_on_tail(self, squares12, unit_interval, ctx200):
        rep = bessel_diagnostic(exp_data(squares12, mp.mpf("0.5")), squares12,
                                6, unit_interval, ctx200)
        assert rep.row_sums_decay
        assert mp.isfinite(rep.total)

    def test_zero_data_rows_vanish(self, squares12, unit_interval, ctx200):
        d = MomentData(values={FlatIndex(n, 0): (mp.exp(mp.mpf("0.5") * squares12.lam(n))
                                                 if n <= 4 else mp.mpc(0))
                               for n in range(1, 7)})
        rep = bessel_diagnostic(d, squares12, 6, unit_interval, ctx200)
        assert rep.row_sums[-1] == 0 and rep.row_sums[-2] == 0

    def test_scaled_families_biorthogonal(self, squares12, unit_interval, ctx200):
        # <U_a, V_b> = delta for U = lambda d r and V = e / conj(lambda d)
        d = exp_data(squares12, mp.mpf("0.5"))
        g = gram_matrix(squares12, 6, unit_interval, ctx200)
        fam = biorthogonal(g)
        with mp.workdps(g.digits_used):
            worst = mp.mpf(0)
            for a, ax in enumerate(g.indices):
                sa = squares12.lam(ax.n) * d.value(ax.n, ax.k)
                for b, bx in enumerate(g.indices):
                    sb = squares12.lam(bx.n) * d.value(bx.n, bx.k)
                    # <U_a, V_b> = s_a <r_a, e_b> / s_b with <r_a, e_b> = (C M)_ab
                    rab = mp.mpc(0)
                    for j in range(g.dim):
                        rab += fam.coeffs[a, j] * g.matrix[j, b]
                    ip = sa * rab / sb
                    want = 1 if a == b else 0
                    worst = max(worst, abs(ip - want))
            assert worst < mp.mpf("1e-40")


class TestRowBounds:
    @pytest.mark.parametrize("call", [solve, bessel_diagnostic])
    @pytest.mark.parametrize("n, k", [(1, 1), (9, 0)])
    def test_row_outside_bounds_refused_before_any_work(self, squares8, unit_interval,
                                                        monkeypatch, call, n, k):
        # squares(8) has mu = 1: (1, 1) and (9, 0) address no element
        def refuse(*args):
            raise AssertionError("a Gram was built for data with a row out of bounds")
        monkeypatch.setattr("expspan.moment.gram_matrix", refuse)
        d = MomentData(values={FlatIndex(1, 0): mp.mpc(1), FlatIndex(n, k): mp.mpc(1)})
        with pytest.raises(ConfigError, match=rf"^moment index FlatIndex\(n={n}, k={k}\) "
                                              "outside multiplicity bounds$"):
            call(d, squares8, 4, unit_interval, PrecisionContext(digits=60, trunc_N=4))

    def test_row_past_prefix_allowed(self, squares8, unit_interval):
        # n = 6 > N = 4 is within the sequence; the solve reads only n <= N
        d = MomentData(values={FlatIndex(n, 0): mp.mpf(10) ** (-n * n) for n in range(1, 7)})
        sol = solve(d, squares8, 4, unit_interval, PrecisionContext(digits=60, trunc_N=4))
        assert sol.residual_max < mp.mpf(10) ** -15


class TestMomentsIO:
    def test_rows_parse(self):
        d = moments_from_obj({"values": [[1, 0, "2.5", "0"], [2, 0, 1, -1]]})
        assert d.value(1, 0) == mp.mpf("2.5")
        assert d.value(2, 0) == mp.mpc(1, -1)
        assert d.value(3, 0) == 0

    def test_bad_rows_rejected(self):
        from expspan import ConfigError
        with pytest.raises(ConfigError):
            moments_from_obj({"values": [[1, "x"]]})
