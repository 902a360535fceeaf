import random

import mpmath as mp
import pytest
from conftest import (FIXTURE_NAMES, FIXTURE_TERMS, bits, counting_about,
                      escalated_derivative_factor, per_n_derivative_factor, reference_counting,
                      reference_gap_check, reference_separation_search, reference_trend_ratios)

from expspan import MultiplicitySequence, SequenceError, core, fixture
from expspan.core import prefix_table
from expspan import lambda_analysis as la
from expspan import products


class TestConditionA:
    def test_inverse_squares_partials(self):
        seq = fixture("squares", 4)
        rep = la.condition_a_partials(prefix_table(seq, 4))
        expect = [1, mp.mpf(5) / 4, mp.mpf(5) / 4 + mp.mpf(1) / 9,
                  mp.mpf(5) / 4 + mp.mpf(1) / 9 + mp.mpf(1) / 16]
        for got, want in zip(rep.partials, expect):
            assert abs(got - want) < mp.mpf("1e-50")

    def test_ratio_sequence_partials_hand_sum(self):
        # mu/|lambda| = (2/3)^n: partial sums 2/3, 10/9, 38/27
        seq = fixture("example_v", 3)
        rep = la.condition_a_partials(prefix_table(seq, 3))
        for got, want in zip(rep.partials,
                             [mp.mpf(2) / 3, mp.mpf(10) / 9, mp.mpf(38) / 27]):
            assert abs(got - want) < mp.mpf("1e-50")
        assert rep.verdict == "converging"

    def test_harmonic_diverges(self):
        # the tail-ratio heuristic needs a long prefix to see 1/n flatten out
        seq = MultiplicitySequence.from_pairs([(n, 1) for n in range(1, 401)])
        assert la.condition_a_partials(prefix_table(seq, 400)).verdict == "diverging"

    def test_squares_converge(self):
        seq = fixture("squares", 24)
        assert la.condition_a_partials(prefix_table(seq, 24)).verdict == "converging"


class TestCounting:
    def test_ratio_sequence_steps(self):
        tab = prefix_table(fixture("example_v", 4), 4)
        assert la.counting(tab, 3) == 2
        assert la.counting(tab, 9) == 6
        assert la.counting(tab, mp.mpf("0.5")) == 0

    def test_step_jump_is_mu(self):
        seq = fixture("example_v", 4)
        tab = prefix_table(seq, 4)
        for n in range(1, 5):
            r = abs(seq.lam(n))
            below = la.counting(tab, r - mp.mpf("1e-9"))
            at = la.counting(tab, r)
            assert at - below == seq.mu(n)

    def test_counting_about(self):
        seq = fixture("squares", 6)
        assert counting_about(seq, 6, 4, 3) == 2  # 1 and 4 within 3 of 4
        assert counting_about(seq, 6, 4, 0) == 1  # the point itself


class TestIntegratedCounting:
    def test_empty_below_first_modulus(self, squares8):
        assert la.integrated_counting(prefix_table(squares8, 8), mp.mpf("0.5")) == 0

    def test_isolated_frequency_log_only(self):
        # nothing within |lambda_1| of lambda_1: the sum is empty and only
        # the log term survives
        seq = MultiplicitySequence.from_pairs([(5, 1), (100, 1), (1000, 1)])
        val = la.integrated_about(prefix_table(seq, 3), 1)
        assert abs(val - mp.log(5)) < mp.mpf("1e-50")

    def test_squares_n2_hand_value(self):
        seq = fixture("squares", 6)
        want = mp.log(mp.mpf(4) / 3) + mp.log(4)
        assert abs(la.integrated_about(prefix_table(seq, 6), 2) - want) < mp.mpf("1e-50")

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_quadrature_oracle(self, seed):
        # oracle: numerical integration of the step integrand n(t, z0)/t,
        # splitting the quadrature at the jump radii
        rng = random.Random(seed)
        N = rng.choice([5, 6, 7])
        seq = fixture("squares", N) if seed % 2 else fixture("example_ii", N)
        M = seq.size
        n = rng.randrange(1, M + 1)
        lam = seq.lam(n)
        r = abs(lam)
        radii = sorted({abs(seq.lam(k) - lam) for k in range(1, M + 1)} | {r})
        pts = [t for t in radii if 0 < t < r]

        def integrand(t):
            return counting_about(seq, M, lam, t) - seq.mu(n)

        oracle = mp.quad(lambda t: integrand(t) / t, [0] + pts + [r])
        oracle += seq.mu(n) * mp.log(r)
        got = la.integrated_about(prefix_table(seq, M), n)
        assert abs(got - oracle) < mp.mpf(10) ** (-mp.mp.dps // 2)


class TestGeometricConditions:
    def test_example_ii_both_pass(self):
        seq = fixture("example_ii", 16)
        gi, gii = la.geometric_conditions(prefix_table(seq, 32))
        assert gi.passed and gii.passed

    def test_example_iii_condition_ii_fails(self):
        seq = fixture("example_iii", 16)
        gi, gii = la.geometric_conditions(prefix_table(seq, 32))
        assert gi.passed
        assert not gii.passed
        # ratios plateau near 1 instead of decaying
        assert gii.last_third_max > mp.mpf("0.9")

    def test_ratio_sequence_both_pass(self):
        seq = fixture("example_v", 8)
        gi, gii = la.geometric_conditions(prefix_table(seq, 8))
        assert gi.passed and gii.passed

    def test_bounded_multiplicity_passes(self):
        # mu = O(1) over a separated base keeps the conditions
        seq = fixture("example_iv", 14, mu=3)
        gi, gii = la.geometric_conditions(prefix_table(seq, 14))
        assert gi.passed and gii.passed

    def test_necessary_condition_fixture_vi(self):
        ok = fixture("example_vi", 8)
        assert la.necessary_condition(prefix_table(ok, 8)).passed

    def test_density_zero_trend(self):
        assert la.density_trend(prefix_table(fixture("squares", 12), 12)).passed
        assert la.density_trend(prefix_table(fixture("example_v", 8), 8)).passed

    def test_short_prefix_rejected(self, squares8):
        with pytest.raises(ValueError):
            la.geometric_conditions(prefix_table(squares8, 5))


class TestGapCheck:
    def test_squares_have_polynomial_separation(self, squares8):
        rep = la.gap_check(prefix_table(squares8, 8), "0.1")
        assert rep.fitted_m > 0
        # nearest square is the previous one except at n = 1
        assert abs(rep.gaps[0] - 3) < mp.mpf("1e-40")
        for n in range(2, 9):
            assert abs(rep.gaps[n - 1] - (2 * n - 1)) < mp.mpf("1e-40")

    def test_radii_ratio_three_to_one(self, squares8):
        rep = la.gap_check(prefix_table(squares8, 8), "0.2")
        for big, small in zip(rep.radii_large, rep.radii_small):
            assert abs(big / small - 3) < mp.mpf("1e-45")

    def test_example_iii_constant_decays_with_prefix(self):
        seq = fixture("example_iii", 5)
        fits = [la.gap_check(prefix_table(seq, N), "0.1").fitted_m for N in (6, 8, 10)]
        assert fits[0] > fits[1] > fits[2]

    def test_zero_gap_rejected(self):
        seq = MultiplicitySequence.from_pairs([(1, 1), (1, 1)])
        with pytest.raises(SequenceError):
            la.gap_check(prefix_table(seq, 2), "0.1")

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("terms", FIXTURE_TERMS)
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_matches_reference_bit_for_bit(self, name, terms, dps):
        # example_iii and carleson_counterexample at 9 and 10 terms raise the
        # disk-overlap SequenceError on both sides
        with mp.workdps(dps):
            seq = fixture(name, terms)
            try:
                want = reference_gap_check(seq, seq.size, "0.1")
            except SequenceError as exc:
                with pytest.raises(SequenceError, match=str(exc)):
                    la.gap_check(prefix_table(seq, seq.size), "0.1")
                return
            rep = la.gap_check(prefix_table(seq, seq.size), "0.1")
        assert bits(rep.gaps) == bits(want[0])
        assert bits(rep.fitted_m) == bits(want[1])
        assert bits(rep.radii_large) == bits(want[2])
        assert bits(rep.radii_small) == bits(want[3])


class TestSeparationSearch:
    def test_ratio_sequence_has_wide_delta(self):
        tab = prefix_table(fixture("example_v", 8), 8)
        delta = la.separation_search(tab, tab.nearest_gaps())
        assert delta is not None and delta > mp.mpf("0.05")

    def test_near_duplicates_have_no_delta(self):
        tab = prefix_table(fixture("example_iii", 8), 16)
        assert la.separation_search(tab, tab.nearest_gaps()) is None

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("terms", FIXTURE_TERMS)
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_matches_the_pair_scan_bit_for_bit(self, name, terms, dps):
        with mp.workdps(dps):
            seq = fixture(name, terms)
            tab = prefix_table(seq, seq.size)
            got = la.separation_search(tab, tab.nearest_gaps())
            assert bits(got) == bits(reference_separation_search(seq, seq.size))

    def test_duplicate_frequency_raises(self):
        seq = MultiplicitySequence.from_pairs([(n * n, 1) for n in range(1, 7)] + [(36, 1)])
        with pytest.raises(SequenceError, match="zero gap at n=6: duplicate frequency"):
            la.analyze(seq, 7, "0.1")


class TestCondensation:
    def test_squares_small(self):
        rep = la.condensation_index(fixture("squares", 12), 12)
        assert rep.chat <= mp.mpf("0.1")

    def test_example_ii_small(self):
        rep = la.condensation_index(fixture("example_ii", 12), 24)
        assert rep.chat <= mp.mpf("0.2")

    def test_example_iii_large(self):
        rep = la.condensation_index(fixture("example_iii", 12), 24)
        assert rep.chat >= mp.mpf("0.5")

    def test_multiplicities_rejected(self):
        with pytest.raises(SequenceError):
            la.condensation_index(fixture("example_v", 6), 6)

    @pytest.mark.parametrize("dps", [15, 30, 60, 120])
    @pytest.mark.parametrize("name,terms", [("example_ii", 12), ("example_iii", 12),
                                            ("carleson_counterexample", 8)])
    def test_ratios_match_escalated_reference(self, name, terms, dps):
        seq = fixture(name, terms)
        N = 2 * terms
        with mp.workdps(dps):
            rep = la.condensation_index(seq, N)
            for n in range(1, N + 1):
                ref = escalated_derivative_factor(seq, N, n, products.ProductKind.F_EVEN,
                                                  dps)
                with mp.workdps(mp.mp.dps + 30):
                    want = -mp.log(abs(ref)) / abs(seq.lam(n))
                assert abs(rep.ratios[n - 1] - want) < mp.mpf(10) ** -dps

    @pytest.mark.parametrize("dps", [15, 60])
    def test_no_precision_escalation(self, dps, monkeypatch):
        # one sweep for all 16 removed factors, at no more than dps + 20 digits
        seen = []
        original = products.derivative_factors

        def recording(*args, **kwargs):
            seen.append(mp.mp.dps)
            return original(*args, **kwargs)

        monkeypatch.setattr(products, "derivative_factors", recording)
        with mp.workdps(dps):
            la.condensation_index(fixture("carleson_counterexample", 8), 16)
        assert len(seen) == 1
        assert max(seen) <= dps + 20

    def test_duplicate_frequency_rejected(self):
        seq = MultiplicitySequence.from_pairs([(n * n, 1) for n in range(1, 7)] + [(36, 1)])
        with pytest.raises(SequenceError, match="duplicate frequency"):
            la.condensation_index(seq, 7)

    def test_agrees_with_geometric_verdicts(self):
        # small index <-> geometric conditions pass, on the three fixtures
        for name, terms, N in (("squares", 12, 12), ("example_ii", 12, 24),
                               ("example_iii", 12, 24)):
            seq = fixture(name, terms)
            chat = la.condensation_index(seq, N).chat
            _, gii = la.geometric_conditions(prefix_table(seq, N))
            assert (chat < mp.mpf("0.3")) == gii.passed


class TestSharedTable:
    """One prefix table and one removed-factor sweep give the ratios, counts and
    condensation index of the per-n and per-pair loops bit for bit."""

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("terms", FIXTURE_TERMS)
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_matches_per_n_loops_bit_for_bit(self, name, terms, dps):
        with mp.workdps(dps):
            seq = fixture(name, terms)
            N = seq.size
            want_i, want_ii, want_density = reference_trend_ratios(seq, N)
            tab = prefix_table(seq, N)
            gi, gii = la.geometric_conditions(tab)
            density = la.density_trend(tab)
            assert bits(gi.ratios) == bits(want_i)
            assert bits(gii.ratios) == bits(want_ii)
            assert bits(density.ratios) == bits(want_density)
            for t in [abs(seq.lam(n)) for n in range(1, N + 1)] + [mp.mpf("2.5")]:
                assert la.counting(tab, t) == reference_counting(seq, N, t)
            # example_iii and carleson_counterexample at 9 and 10 terms raise the
            # disk-overlap SequenceError
            try:
                reference_gap_check(seq, N, "0.1")
            except SequenceError:
                return
            rep = la.analyze(seq, N, "0.1")
            assert bits(rep.geom_i.ratios) == bits(want_i)
            assert bits(rep.geom_ii.ratios) == bits(want_ii)
            assert bits(rep.density.ratios) == bits(want_density)
            if rep.condensation is not None:
                with mp.workdps(dps + 20):
                    want = [-mp.log(abs(per_n_derivative_factor(
                                seq, N, n, products.ProductKind.F_EVEN))) / abs(seq.lam(n))
                            for n in range(1, N + 1)]
                assert bits(rep.condensation.ratios) == bits(want)


class TestAnalyze:
    def test_squares_all_pass(self):
        rep = la.analyze(fixture("squares", 12), 12, "0.1")
        assert rep.all_passed
        assert rep.cond_b_passed and rep.eta_hat == 0
        assert rep.condensation is not None

    def test_multiplicity_fixture_skips_condensation(self):
        rep = la.analyze(fixture("example_v", 8), 8, "0.1")
        assert rep.all_passed
        assert rep.condensation is None

    def test_two_gap_scans(self, monkeypatch):
        # one distance table per analyze: the gap check scans it once, and
        # separation_search reads its gaps
        calls = []
        original = core.prefix_table

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(core, "prefix_table", counting)
        monkeypatch.setattr(la, "prefix_table", counting)
        la.analyze(fixture("example_ii", 6), 12, "0.1")
        assert calls == [12]
