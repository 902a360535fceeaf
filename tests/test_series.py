import random

import mpmath as mp
import pytest
from conftest import (FIXTURE_NAMES, FIXTURE_TERMS, bits, decaying_coeffs, jittered_mu3,
                      reference_coefficient_constant, reference_star_abscissa)

from expspan import series as series_mod
from expspan import (DomainError, FlatIndex, MultiplicitySequence,
                     PrecisionContext, Sector, SequenceError, TaylorDirichletSeries,
                     bound_check, fixture, star_abscissa, td_eval)
from expspan.gram import DomainSpec, gram_matrix, recover_coefficients
from expspan.series import series_from_obj, series_to_obj


def make_series(seq, coeff_fn, eta=0, beta=1):
    coeffs = {}
    for n in range(1, seq.size + 1):
        for k in range(seq.mu(n)):
            c = coeff_fn(n, k)
            if c is not None:
                coeffs[FlatIndex(n, k)] = mp.mpc(c)
    return TaylorDirichletSeries(seq=seq, coeffs=coeffs,
                                 claimed_sector=Sector(eta, beta))


class TestTdEval:
    def test_single_term_at_origin(self):
        seq = MultiplicitySequence.from_pairs([(1, 1)])
        s = make_series(seq, lambda n, k: 1)
        assert td_eval(s, 0, 1).value == 1

    def test_gaussian_like_sum_frozen_oracle(self, squares12):
        # oracle: mp.nsum of e^(-n^2) over all n, frozen at 33 digits
        s = make_series(squares12, lambda n, k: mp.exp(-squares12.lam(n)))
        got = td_eval(s, 0, 12).value
        oracle = mp.mpf("0.386318602413326076515625275578929")
        assert abs(got - oracle) < mp.mpf("1e-30")

    def test_boundary_point_refused(self, squares12):
        s = make_series(squares12, lambda n, k: mp.exp(-squares12.lam(n)))
        with pytest.raises(DomainError):
            td_eval(s, 1, 12)
        with pytest.raises(DomainError):
            td_eval(s, mp.mpc(2, 1), 12)

    def test_doubling_stays_within_tail_bound(self, squares12):
        s = make_series(squares12, lambda n, k: mp.exp(-squares12.lam(n)))
        for z in (mp.mpc(0), mp.mpc(-1, 2), mp.mpf("0.5")):
            r6 = td_eval(s, z, 6)
            r12 = td_eval(s, z, 12)
            assert abs(r12.value - r6.value) <= r6.tail_bound

    def test_tail_bound_reported_not_hidden(self, squares12):
        s = make_series(squares12, lambda n, k: mp.exp(-squares12.lam(n)))
        r = td_eval(s, mp.mpf("0.5"), 6)
        assert r.tail_bound > 0

    def test_tail_envelope_entries_are_gated(self):
        # lambda_4 = 0 lies past N = 2 and past the coefficients, but the tail
        # envelope reads every entry of the sequence
        seq = MultiplicitySequence.from_pairs([(1, 1), (4, 1), (9, 1), (0, 1)], "tail")
        s = TaylorDirichletSeries(seq=seq, coeffs={FlatIndex(1, 0): mp.mpc(1)},
                                  claimed_sector=Sector(mp.mpf(0), mp.mpf(1)))
        with pytest.raises(SequenceError, match="entry n=4 of sequence tail: lambda must"):
            td_eval(s, -1, 2)


class TestStarAbscissa:
    def test_exact_exponential_decay(self, squares12):
        s = make_series(squares12, lambda n, k: mp.exp(-squares12.lam(n)))
        rep = star_abscissa(s, 12)
        assert abs(rep.a + 1) < mp.mpf("1e-45")
        assert abs(rep.implied_beta - 1) < mp.mpf("1e-45")

    def test_constant_coefficients(self, squares12):
        s = make_series(squares12, lambda n, k: 1)
        rep = star_abscissa(s, 12)
        assert rep.a == 0 and rep.implied_beta == 0

    def test_subexponential_correction_converges_from_above(self, squares12):
        s = make_series(squares12,
                        lambda n, k: mp.exp(-2 * squares12.lam(n)
                                            + mp.sqrt(squares12.lam(n))))
        rep = star_abscissa(s, 12)
        assert mp.mpf("-2") < rep.a < mp.mpf("-1.85")
        shorter = star_abscissa(s, 8)
        assert rep.a < shorter.a  # tightens toward -2 as the prefix grows

    def test_scale_invariance(self, squares12):
        # a fixed scaling shifts each ratio by log|c|/Re lambda_n, which is the
        # exact finite-prefix error budget; it vanishes as the prefix grows
        scale = mp.mpc("7.25", "-3")
        s1 = make_series(squares12, lambda n, k: mp.exp(-squares12.lam(n)))
        s2 = make_series(squares12,
                         lambda n, k: scale * mp.exp(-squares12.lam(n)))
        r1, r2 = star_abscissa(s1, 12), star_abscissa(s2, 12)
        budget = mp.log(abs(scale)) / mp.re(squares12.lam(7))
        assert abs(r1.a - r2.a) <= budget + mp.mpf("1e-40")
        short1, short2 = star_abscissa(s1, 8), star_abscissa(s2, 8)
        assert abs(r1.a - r2.a) < abs(short1.a - short2.a)


# example_vi has mu_n = 10^n, and star coefficients scan every k < mu_n
SERIES_CASES = ([(name, terms) for name in FIXTURE_NAMES if name != "example_vi"
                 for terms in FIXTURE_TERMS]
                + [("jittered-mu3", seed) for seed in (0, 1, 2)])


def case_series(name, terms):
    seq = jittered_mu3(12, terms) if name == "jittered-mu3" else fixture(name, terms)
    return TaylorDirichletSeries(seq=seq, coeffs=decaying_coeffs(seq),
                                 claimed_sector=Sector(0, 1))


class TestSharedFits:
    """star_abscissa and td_eval against the loops they used to run themselves."""

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("name,terms", SERIES_CASES)
    def test_star_abscissa_matches_reference(self, name, terms, dps):
        with mp.workdps(dps):
            s = case_series(name, terms)
            rep = star_abscissa(s, s.seq.size)
            a, ratios = reference_star_abscissa(s, s.seq.size)
        assert bits(rep.a) == bits(a) and bits(rep.implied_beta) == bits(-a)
        assert bits(rep.ratios) == bits(ratios)

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("name,terms", SERIES_CASES)
    def test_td_eval_tail_bound_matches_reference(self, name, terms, dps, monkeypatch):
        def reference_envelope(s, beta, eps):
            return series_mod.BoundReport(
                m_hat=reference_coefficient_constant(s, beta, eps, s.seq.size),
                argmax=None, verdict="bounded")

        with mp.workdps(dps):
            s = case_series(name, terms)
            N = s.seq.size // 2
            zs = (mp.mpc(0), mp.mpc(-1, 2), mp.mpf("0.5"))
            got = [td_eval(s, z, N).tail_bound for z in zs]
            monkeypatch.setattr(series_mod, "bound_check", reference_envelope)
            want = [td_eval(s, z, N).tail_bound for z in zs]
        assert bits(got) == bits(want)


class TestBoundCheck:
    def test_decaying_coefficients_bounded(self, squares12):
        beta, eps = mp.mpf(1), mp.mpf("0.2")
        s = make_series(squares12,
                        lambda n, k: mp.exp((-beta + eps / 2) * squares12.lam(n)))
        rep = bound_check(s, beta, eps)
        assert rep.verdict == "bounded"
        assert rep.argmax.n <= 3

    def test_slow_decay_blows_up(self, squares12):
        beta, eps = mp.mpf(1), mp.mpf("0.1")
        s = make_series(squares12,
                        lambda n, k: mp.exp(-(beta - 2 * eps) * squares12.lam(n)))
        rep = bound_check(s, beta, eps)
        assert rep.verdict == "blow-up"
        assert rep.argmax.n == 12

    def test_zero_series(self, squares12):
        s = TaylorDirichletSeries(seq=squares12, coeffs={},
                                  claimed_sector=Sector(0, 1))
        rep = bound_check(s, 1, "0.1")
        assert rep.m_hat == 0 and rep.verdict == "bounded"

    def test_prefix_N(self, squares12):
        beta, eps = mp.mpf(1), mp.mpf("0.1")
        s = make_series(squares12,
                        lambda n, k: mp.exp(-(beta - 2 * eps) * squares12.lam(n)))
        assert bound_check(s, beta, eps, 12) == bound_check(s, beta, eps)
        rep = bound_check(s, beta, eps, 6)
        assert rep.argmax == FlatIndex(6, 0) and rep.verdict == "blow-up"
        assert rep.m_hat == abs(s.coeff(6, 0)) * mp.exp((beta - eps) * squares12.lam(6))
        with pytest.raises(SequenceError, match="prefix length N=13 out of range 1..12"):
            bound_check(s, beta, eps, 13)

    def test_covered_prefix_is_gated(self):
        # mu_3 = 0 carries no coefficient, but the coefficients at n = 4 cover it
        seq = MultiplicitySequence.from_pairs([(1, 1), (4, 1), (9, 0), (16, 1)], "gap")
        s = TaylorDirichletSeries(seq=seq, coeffs={FlatIndex(1, 0): mp.mpc(1),
                                                   FlatIndex(4, 0): mp.mpc("1e-9")})
        with pytest.raises(SequenceError, match="entry n=3 of sequence gap: mu=0"):
            bound_check(s, 1, "0.1")
        assert bound_check(s, 1, "0.1", 2).argmax == FlatIndex(1, 0)


class TestGramRoundTrip:
    def test_moment_recovery_matches_coefficients(self, squares12, unit_interval):
        # finite-scale coefficient formula: c_{n,k} = <f, r_{n,k}>
        ctx = PrecisionContext(digits=120, trunc_N=6)
        g = gram_matrix(squares12, 6, DomainSpec.bounded(unit_interval), ctx)
        rng = random.Random(31)
        with mp.workdps(g.digits_used):
            for _ in range(10):
                coeffs = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(g.dim)]
                moments = [sum(coeffs[b] * g.matrix[b, a] for b in range(g.dim))
                           for a in range(g.dim)]
                rec = recover_coefficients(g, moments)
                assert max(abs(x - y) for x, y in zip(rec, coeffs)) < mp.mpf("1e-30")

    def test_equal_moments_force_equal_coefficients(self, squares12, unit_interval):
        # Gram invertibility: distinct truncated series cannot share moments
        ctx = PrecisionContext(digits=120, trunc_N=6)
        g = gram_matrix(squares12, 6, DomainSpec.bounded(unit_interval), ctx)
        rng = random.Random(37)
        with mp.workdps(g.digits_used):
            c1 = [mp.mpc(rng.uniform(-1, 1)) for _ in range(g.dim)]
            c2 = list(c1)
            c2[3] += mp.mpf("1e-20")
            m1 = [sum(c1[b] * g.matrix[b, a] for b in range(g.dim)) for a in range(g.dim)]
            m2 = [sum(c2[b] * g.matrix[b, a] for b in range(g.dim)) for a in range(g.dim)]
            assert max(abs(x - y) for x, y in zip(m1, m2)) > 0


class TestSerialization:
    def test_json_round_trip(self):
        seq = fixture("example_v", 3)
        coeffs = {FlatIndex(1, 0): mp.mpc("0.5", "-2"), FlatIndex(3, 5): mp.mpc(3)}
        s = TaylorDirichletSeries(seq=seq, coeffs=coeffs,
                                  claimed_sector=Sector("0.3", 2))
        obj = series_to_obj(s, dps=40)
        back = series_from_obj(obj)
        assert back.seq.size == 3
        assert abs(back.coeff(1, 0) - mp.mpc("0.5", "-2")) < mp.mpf("1e-35")
        assert abs(back.claimed_sector.beta - 2) < mp.mpf("1e-35")

    def test_coefficients_respect_multiplicity_bounds(self):
        seq = fixture("squares", 3)
        with pytest.raises(ValueError):
            TaylorDirichletSeries(seq=seq, coeffs={FlatIndex(1, 1): mp.mpc(1)},
                                  claimed_sector=Sector(0, 1))
