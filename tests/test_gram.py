import itertools
import math
import random
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (fone, from_man_exp, fzero, mpc_mul, mpf_add, mpf_mul, mpf_neg, mpf_pos,
                          mpf_sqrt, mpf_sub)
from conftest import (as_matrix, assembled_gram_matrix, counted_calls, halfline_inverse,
                      jittered_mu3, parent_assemble, parent_backward, parent_biorthogonal,
                      parent_dot, parent_dual_block, parent_factor, parent_forward,
                      parent_hermitian_cholesky, parent_identity_residual, parent_matrix,
                      parent_norm, parent_recover_coefficients, rand_complex, walked_gram_matrix)

from expspan import (CapError, ConfigError, DomainError, FlatIndex, Interval,
                     MultiplicitySequence, PrecisionContext, PrecisionError,
                     fixture, flatten, gram)
from expspan.gram import (_backward, _forward, _obj, _raw, biorthogonal, dual_norms,
                          gram_matrix, hermitian_cholesky, mixed_completeness,
                          monomial_exp_integrals, recover_coefficients)


@pytest.fixture
def dom01():
    return Interval(0, 1)


class TestMonomialIntegral:
    def test_by_parts_unit_case(self, dom01):
        # integral of t e^t over (0,1) is exactly 1
        assert abs(monomial_exp_integrals(1, 1, dom01)[1] - 1) < mp.mpf("1e-55")

    def test_pure_exponential(self):
        dom = Interval(-1, 2)
        a = mp.mpc(2, 1)
        want = (mp.exp(2 * a) - mp.exp(-a)) / a
        assert abs(monomial_exp_integrals(0, a, dom)[0] - want) < mp.mpf("1e-50")

    def test_half_line_factorial_formula(self):
        dom = None
        assert abs(monomial_exp_integrals(2, 2, dom)[2] - mp.mpf(1) / 4) < mp.mpf("1e-55")

    def test_half_line_needs_positive_real_part(self):
        with pytest.raises(DomainError):
            monomial_exp_integrals(0, mp.mpc(-1, 3), None)

    def test_zero_exponent_polynomial(self, dom01):
        assert abs(monomial_exp_integrals(3, 0, dom01)[3] - mp.mpf(1) / 4) < mp.mpf("1e-55")

    def test_series_and_recurrence_branches_agree(self):
        # straddle the |a|(beta-gamma) = 1/2 switch
        dom = Interval(0, 1)
        for p in (0, 2, 5):
            lo = monomial_exp_integrals(p, mp.mpc("0.49", "0.05"), dom)[p]
            hi = monomial_exp_integrals(p, mp.mpc("0.51", "0.05"), dom)[p]
            quad_lo = mp.quad(lambda t: t ** p * mp.exp(mp.mpc("0.49", "0.05") * t), [0, 1])
            quad_hi = mp.quad(lambda t: t ** p * mp.exp(mp.mpc("0.51", "0.05") * t), [0, 1])
            assert abs(lo - quad_lo) < mp.mpf("1e-45")
            assert abs(hi - quad_hi) < mp.mpf("1e-45")

    @pytest.mark.parametrize("seed", range(6))
    def test_random_against_quadrature(self, seed, dom01):
        rng = random.Random(seed)
        p = rng.randrange(0, 7)
        a = mp.mpc(rng.uniform(-8, 8), rng.uniform(-8, 8))
        lo, hi = sorted((rng.uniform(-2, 2), rng.uniform(-2, 2)))
        if hi - lo < mp.mpf("0.1"):
            hi = lo + 1
        dom = Interval(lo, hi)
        got = monomial_exp_integrals(p, a, dom)[p]
        want = mp.quad(lambda t: t ** p * mp.exp(a * t), [lo, hi])
        assert abs(got - want) < mp.mpf(10) ** (-mp.mp.dps // 2)


def reference_inner_product(seq, a, b, dom):
    """L2 inner product <e_a, e_b>, conjugating the second argument: one
    integral of t^(k+l) e^((lambda_n + conj lambda_m) t)."""
    p = a.k + b.k
    return monomial_exp_integrals(p, seq.lam(a.n) + mp.conj(seq.lam(b.n)), dom)[p]


class TestInnerProduct:
    def test_norm_squared_single_exponential(self, squares8, dom01):
        got = reference_inner_product(squares8, FlatIndex(1, 0), FlatIndex(1, 0), dom01)
        want = (mp.exp(2) - 1) / 2
        assert abs(got - want) < mp.mpf("1e-55")

    def test_cross_term_symbolic(self, dom01):
        seq = MultiplicitySequence.from_pairs([(1, 1), (2, 1)])
        got = reference_inner_product(seq, FlatIndex(1, 0), FlatIndex(2, 0), dom01)
        want = (mp.exp(3) - 1) / 3
        assert abs(got - want) < mp.mpf("1e-55")

    def test_half_line_closed_form(self):
        seq = MultiplicitySequence.from_pairs([(1, 2), (3, 2)])
        dom = None
        for (a, b, k, l) in [(1, 2, 0, 1), (1, 1, 1, 1), (2, 2, 0, 0)]:
            got = reference_inner_product(seq, FlatIndex(a, k), FlatIndex(b, l), dom)
            lam = seq.lam(a) + mp.conj(seq.lam(b))
            want = mp.mpc(-1) ** (k + l) * mp.factorial(k + l) / lam ** (k + l + 1)
            assert abs(got - want) < mp.mpf("1e-55")

    def test_hermitian_symmetry_random(self, dom01):
        rng = random.Random(11)
        pairs = [(mp.mpc(rng.uniform(0.5, 4), rng.uniform(-2, 2)), rng.choice([1, 2]))
                 for _ in range(4)]
        pairs.sort(key=lambda t: abs(t[0]))
        seq = MultiplicitySequence.from_pairs(pairs)
        for _ in range(8):
            a = FlatIndex(rng.randrange(1, 5), 0)
            b = FlatIndex(rng.randrange(1, 5), rng.randrange(0, 1))
            lhs = reference_inner_product(seq, a, b, dom01)
            rhs = mp.conj(reference_inner_product(seq, b, a, dom01))
            assert lhs == rhs  # same closed form evaluated conjugate-symmetrically

    def test_near_cancelling_exponents_use_series(self, dom01):
        # lambda_a + conj(lambda_b) close to zero routes through the series
        seq = MultiplicitySequence.from_pairs(
            [(mp.mpc(1, 2), 1), (mp.mpc(-1, mp.mpf("2.0000001")), 1)])
        got = reference_inner_product(seq, FlatIndex(1, 0), FlatIndex(2, 0), dom01)
        a = seq.lam(1) + mp.conj(seq.lam(2))
        want = mp.quad(lambda t: mp.exp(a * t), [0, 1])
        assert abs(got - want) < mp.mpf("1e-45")


class TestGramMatrix:
    def test_singleton(self, squares8, dom01):
        ctx = PrecisionContext(digits=60, trunc_N=1)
        g = gram_matrix(squares8, 1, dom01, ctx)
        want = (mp.exp(2) - 1) / 2
        assert g.dim == 1
        assert abs(g.matrix[0, 0] - want) < mp.mpf("1e-50")

    def test_two_by_two_determinant_positive(self, dom01):
        seq = MultiplicitySequence.from_pairs([(1, 1), (2, 1)])
        ctx = PrecisionContext(digits=60, trunc_N=2)
        g = gram_matrix(seq, 2, dom01, ctx)
        e11 = (mp.exp(2) - 1) / 2
        e22 = (mp.exp(4) - 1) / 4
        e12 = (mp.exp(3) - 1) / 3
        det = mp.re(g.matrix[0, 0] * g.matrix[1, 1]) - abs(g.matrix[0, 1]) ** 2
        assert abs(g.matrix[0, 0] - e11) < mp.mpf("1e-50")
        assert det > 0
        assert abs(det - (e11 * e22 - e12 ** 2)) < mp.mpf("1e-45")

    def test_exactly_hermitian(self, dom01):
        rng = random.Random(5)
        pairs = sorted([(mp.mpc(rng.uniform(1, 5), rng.uniform(-1, 1)), 2)
                        for _ in range(3)], key=lambda t: abs(t[0]))
        seq = MultiplicitySequence.from_pairs(pairs)
        ctx = PrecisionContext(digits=60, trunc_N=3)
        g = gram_matrix(seq, 3, dom01, ctx)
        for i in range(g.dim):
            for j in range(g.dim):
                assert g.matrix[i, j] == mp.conj(g.matrix[j, i])

    def test_precision_escalates_for_wide_range(self, squares8, dom01):
        ctx = PrecisionContext(digits=50, trunc_N=8)
        g = gram_matrix(squares8, 8, dom01, ctx)
        assert g.digits_used > 50
        fam = biorthogonal(g)
        assert fam.identity_residual < mp.mpf("1e-30")

    def test_escalation_exhaustion_is_explicit(self, dom01):
        seq = fixture("squares", 12)
        ctx = PrecisionContext(digits=50, trunc_N=12)
        with pytest.raises(PrecisionError):
            gram_matrix(seq, 12, dom01, ctx)

    def test_dimension_cap(self, monkeypatch, dom01, squares8):
        monkeypatch.setenv("EXPSPAN_MAX_DIM", "4")
        ctx = PrecisionContext(digits=60, trunc_N=8)
        with pytest.raises(CapError):
            gram_matrix(squares8, 8, dom01, ctx)

    def test_half_line_requires_right_half_plane(self):
        seq = MultiplicitySequence.from_pairs([(mp.mpc(-1, 1), 1), (2, 1)])
        ctx = PrecisionContext(digits=60, trunc_N=2)
        with pytest.raises(DomainError):
            gram_matrix(seq, 2, None, ctx)


def reference_assemble(seq, idx, dom):
    """The Gram matrix entry by entry, one inner product each."""
    d = len(idx)
    M = mp.matrix(d, d)
    for i in range(d):
        for j in range(i + 1):
            v = reference_inner_product(seq, idx[i], idx[j], dom)
            M[i, j] = v
            M[j, i] = mp.conj(v)
    return M


def jittered(mus, seed):
    """The frequencies of jittered_mu3 with the multiplicities mus."""
    seq = jittered_mu3(len(mus), seed)
    return MultiplicitySequence.from_pairs(
        [(seq.lam(n), mu) for n, mu in enumerate(mus, 1)], "jittered")


# lambda_1 + conj(lambda_1), lambda_2 + conj(lambda_1) and lambda_2 + conj(lambda_2)
# take the series branch on (0,1) and (-1,2), lambda_3 + conj(lambda_3) = 0 the
# polynomial one, and the rest the recurrence
NEAR_CANCELLING = MultiplicitySequence.from_pairs(
    [(mp.mpc(1, 2) / 32, 2), (mp.mpc(-3, 3) / 64, 1), (mp.mpc(0, 2), 2), (mp.mpc(3, 1), 3)],
    "near-cancelling")

DOMAINS = {"0,1": Interval(0, 1), "-1,2": Interval(-1, 2), "half-line": None}

ASSEMBLY_CASES = [(name, mus, dom) for name, mus in [
    ("mu1", (1,) * 6), ("mu2", (2,) * 4), ("mu3", (3,) * 4), ("mixed", (1, 3, 2, 1, 3))]
    for dom in DOMAINS] + [("near-cancelling", None, "0,1"), ("near-cancelling", None, "-1,2")]


class TestBlockAssembly:
    """The Gram matrix assembled block by block from one integral table per
    frequency pair is, entry for entry, the per-entry inner products."""

    @pytest.mark.parametrize("dps", [15, 120])
    @pytest.mark.parametrize("name, mus, dom", ASSEMBLY_CASES,
                             ids=[f"{c[0]}-{c[2]}" for c in ASSEMBLY_CASES])
    def test_equals_per_entry_inner_products(self, name, mus, dom, dps):
        seq = NEAR_CANCELLING if mus is None else jittered(mus, dps)
        idx = flatten(seq, seq.size)
        with mp.workdps(dps):
            got = as_matrix(gram._assemble(seq, idx, DOMAINS[dom]))
            want = reference_assemble(seq, idx, DOMAINS[dom])
        assert [bits(got[i, j]) for i in range(len(idx)) for j in range(len(idx))] == \
            [bits(want[i, j]) for i in range(len(idx)) for j in range(len(idx))]

    @pytest.mark.parametrize("dps", [15, 120])
    @pytest.mark.parametrize("a, dom", [
        (mp.mpc(2, 1), "half-line"), (0, "0,1"), (mp.mpc(1, 3) / 8, "0,1"),
        (mp.mpc(3, -2), "-1,2")], ids=["half-line", "zero", "series", "recurrence"])
    def test_table_holds_each_integral(self, a, dom, dps):
        with mp.workdps(dps):
            table = monomial_exp_integrals(6, a, DOMAINS[dom])
            assert [bits(v) for v in table] == \
                [bits(monomial_exp_integrals(p, a, DOMAINS[dom])[p]) for p in range(7)]

    def test_one_exponential_pair_per_frequency_pair(self, monkeypatch):
        # mu = 3, N = 8: 36 frequency pairs n >= m, against 300 entries i >= j
        calls = counted_calls(monkeypatch, "mp.exp")
        seq = jittered_mu3(8, 0)
        with mp.workdps(50):
            gram._assemble(seq, flatten(seq, 8), DOMAINS["0,1"])
        assert calls["exp"] == 72


# (label, sequence, N, domain, requested digits).  PrecisionContext floors its
# digits at 50, so the 15-digit case reads ctx.digits from a stand-in.
LADDER_CASES = [
    ("squares16-climbs", fixture("squares", 16), 16, "bounded", 120),
    ("example_iv16-guard-band", fixture("example_iv", 16), 16, "bounded", 200),
    ("example_iv8-skips-to-cap", fixture("example_iv", 8), 8, "bounded", 15),
    ("example_iii12-first-pivot-fails", fixture("example_iii", 12), 12, "bounded", 18),
    ("squares12-exhausts", fixture("squares", 12), 12, "bounded", 50),
    ("example_iv16-exhausts", fixture("example_iv", 16), 16, "bounded", 100),
    ("squares8-second-rung", fixture("squares", 8), 8, "bounded", 50),
    ("half-line-power-climbs", fixture("power", 10, exponent=3, mu=6), 10, "half-line", 50),
]


def _ladder_ctx(digits, N):
    if digits < 50:
        return SimpleNamespace(digits=digits)
    return PrecisionContext(digits=digits, trunc_N=N)


def _ladder_outcome(build, seq, N, kind, digits):
    """Every bit of the GramSystem that build returns, or its error and text."""
    dom = None if kind == "half-line" else Interval(0, 1)
    try:
        g = build(seq, N, dom, _ladder_ctx(digits, N))
    except PrecisionError as exc:
        return type(exc), str(exc)
    d, L = g.dim, as_matrix(g.chol)
    return (g.digits_used, g.indices, bits(g.cond_estimate),
            [bits(g.matrix[i, j]) for i in range(d) for j in range(d)],
            [bits(L[i, j]) for i in range(d) for j in range(d)])


class TestRungSkip:
    """The ladder skips a middle rung that the last pivot ratio rules out,
    and returns exactly what factoring every rung in turn returns."""

    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("case", LADDER_CASES, ids=[c[0] for c in LADDER_CASES])
    def test_equals_walked_ladder(self, case, dps):
        _, seq, N, kind, digits = case
        with mp.workdps(dps):
            got = _ladder_outcome(gram_matrix, seq, N, kind, digits)
            want = _ladder_outcome(walked_gram_matrix, seq, N, kind, digits)
        assert got == want

    @pytest.mark.parametrize("seq, N, digits, rungs", [
        (fixture("squares", 16), 16, 120, [120, 480]),
        (fixture("example_iv", 16), 16, 200, [200, 400, 800]),
        (fixture("squares", 12), 12, 50, [50, 200]),
        (fixture("example_iv", 16), 16, 100, [100, 400]),
        (fixture("example_iv", 8), 8, 15, [15, 60]),
        (fixture("example_iii", 12), 12, 18, [18, 36, 72]),
        (jittered((1,) * 14, 0), 14, 400, [400]),
    ], ids=["squares16", "example_iv16-guard-band", "squares12", "example_iv16",
            "example_iv8", "example_iii12", "jittered-squares14"])
    def test_factored_rungs(self, monkeypatch, seq, N, digits, rungs):
        # squares 16's 240-digit rung misses its floor by 89 digits and is
        # skipped; example_iv 16's 400-digit rung misses it by less than the
        # guard band and is factored; the cap is always factored, as after
        # example_iv 8's 15-digit rung; after a failed factorization
        # (example_iii 12 at 18, a non-positive pivot) the ladder keeps
        # doubling; jittered squares 14 (the moment system of the
        # confluent-moment benchmark) is accepted at its first rung
        seen = []
        factor = gram._factor

        def counted(*args):
            seen.append(mp.mp.dps)
            return factor(*args)

        monkeypatch.setattr(gram, "_factor", counted)
        with mp.workdps(15):
            try:
                gram_matrix(seq, N, Interval(0, 1), _ladder_ctx(digits, N))
            except PrecisionError:
                pass
        assert seen == rungs

    # the benchmark's confluent systems: mu = 3 at 300 digits, mu = 2 at 200
    PARITY_CASES = LADDER_CASES + [
        (f"bench-mu{mu}-seed{seed}", jittered((mu,) * 8, seed), 8, "bounded", digits)
        for mu, digits in ((3, 300), (2, 200)) for seed in (0, 1)]

    @pytest.mark.parametrize("case", PARITY_CASES, ids=[c[0] for c in PARITY_CASES])
    def test_digits_used_equals_assembled_ladder(self, case):
        # the ladder on the generators accepts the rung that the ladder on the
        # assembled matrix accepted, or exhausts where it did
        _, seq, N, kind, digits = case
        dom = None if kind == "half-line" else Interval(0, 1)

        def outcome(build):
            try:
                return build(seq, N, dom, _ladder_ctx(digits, N)).digits_used
            except PrecisionError as exc:
                return type(exc)

        with mp.workdps(15):
            assert outcome(gram_matrix) == outcome(assembled_gram_matrix)


def assembled_chol(g):
    """`hermitian_cholesky` of the matrix assembled at the working precision."""
    return as_matrix(hermitian_cholesky(gram._assemble(g.seq, g.indices, g.domain)))


def assembled_norms(g):
    """Dual norms from `hermitian_cholesky` of the assembled matrix, at the
    working precision."""
    L = assembled_chol(g)
    return [parent_norm(parent_forward(L, mp.eye(g.dim).column(j))) for j in range(g.dim)]


# (label, sequence factory, N): every mu = 1 fixture, and jittered squares
SIMPLE_FIXTURES = [
    ("squares", lambda: fixture("squares", 12), 12),
    ("power", lambda: fixture("power", 10), 10),
    ("example_i", lambda: fixture("example_i", 12), 12),
    ("example_ii", lambda: fixture("example_ii", 6), 12),
    ("example_iii", lambda: fixture("example_iii", 4), 8),
    ("carleson_counterexample", lambda: fixture("carleson_counterexample", 3), 6),
    ("jittered-squares", lambda: jittered((1,) * 14, 0), 14),
]

GRAM_DOMAINS = {**DOMAINS, **{w: Interval(0, w.split(",")[1])
                               for w in ("0,0.2", "0,0.05", "0,0.005")}}

# (label, mu, N, domain): jittered squares with mu = 2 and 3 on a long, a
# wide, a short interval and the half-line
CONFLUENT_CASES = [(f"mu{mu}-{dom}", mu, N, dom) for mu in (2, 3) for dom, N in [
    ("0,1", 5), ("-1,2", 4), ("0,0.05", 4), ("half-line", 6)]]

# (label, sequence): frequencies with lambda_n + conj lambda_m = 0 or Re of it
# small beside |lambda|, whose displacement cannot give those entries
PINNED_CASES = [
    ("reflected", MultiplicitySequence.from_pairs(
        [(-1, 1), (1, 2), (2, 1), (mp.mpc(0, 3), 2), (mp.mpc("0.01", 10), 1)], "reflected")),
    ("imaginary", MultiplicitySequence.from_pairs(
        [(mp.mpc(0, k), 2) for k in range(1, 5)], "imaginary")),
    ("small-real-part", MultiplicitySequence.from_pairs(
        [(mp.mpc("0.001", 5 * k), 1) for k in range(1, 7)], "small-real-part")),
]


def chol_error(L, ref):
    """The largest error of the lower triangle of L, relative to the diagonal
    of ref in its row."""
    return max(abs(L[i, j] - ref[i, j]) / abs(ref[i, i])
               for i in range(ref.rows) for j in range(i + 1))


@pytest.mark.parametrize("dps", [15, 60])
class TestSchurFactor:
    """Every Gram is factored from its displacement generators, with no
    assembly: as accurately as `hermitian_cholesky` of the assembled matrix,
    for mu_n >= 1, on short intervals and on the half-line."""

    @pytest.mark.parametrize("N", [5, 10, 20, 30, 40])
    def test_half_line_distances_match_closed_form(self, dps, N):
        # first-order bound: relative error cond * 10^-digits
        with mp.workdps(dps):
            seq = fixture("squares", N)
            g = gram_matrix(seq, N, None, PrecisionContext(digits=50, trunc_N=N))
            dists = dual_norms(g)[1]
        assert g.generators[2] == {}
        with mp.workdps(2 * g.digits_used + 20):
            want = halfline_inverse(seq, N).distances
            err = max(abs(d - w) / w for d, w in zip(dists, want))
            assert err < g.cond_estimate * mp.mpf(10) ** -g.digits_used

    @pytest.mark.parametrize("half_line", [False, True], ids=["bounded", "half-line"])
    @pytest.mark.parametrize("name, make, N", SIMPLE_FIXTURES,
                             ids=[c[0] for c in SIMPLE_FIXTURES])
    def test_as_accurate_as_assembled_cholesky(self, dps, half_line, name, make, N):
        dom = None if half_line else Interval(0, 1)
        with mp.workdps(dps):
            seq = make()
            g = gram_matrix(seq, N, dom, PrecisionContext(digits=120, trunc_N=N))
            schur = dual_norms(g)[0]
        assert g.generators[2] == {}
        with mp.workdps(g.digits_used):
            assembled = assembled_norms(g)
        with mp.workdps(2 * g.digits_used + 20):
            hi = gram_matrix(seq, N, dom, PrecisionContext(digits=2 * g.digits_used + 20,
                                                           trunc_N=N))
            want = assembled_norms(hi)
            assert rel_err(schur, want) <= rel_err(assembled, want)

    @pytest.mark.parametrize("name, mu, N, dom", CONFLUENT_CASES,
                             ids=[c[0] for c in CONFLUENT_CASES])
    def test_confluent_as_accurate_as_assembled_cholesky(self, dps, name, mu, N, dom):
        # L, relative to its diagonal, and the dual norms, against the
        # assembled Cholesky at 2 digits + 20
        with mp.workdps(dps):
            seq = jittered((mu,) * N, dps)
            g = gram_matrix(seq, N, GRAM_DOMAINS[dom], PrecisionContext(digits=120, trunc_N=N))
            schur = dual_norms(g)[0]
        assert g.generators[2] == {}
        with mp.workdps(g.digits_used):
            L = assembled_chol(g)
            assembled = assembled_norms(g)
        with mp.workdps(2 * g.digits_used + 20):
            ref = assembled_chol(g)
            want = assembled_norms(g)
            assert chol_error(as_matrix(g.chol), ref) <= chol_error(L, ref)
            assert rel_err(schur, want) <= rel_err(assembled, want)

    @pytest.mark.parametrize("name, seq", PINNED_CASES, ids=[c[0] for c in PINNED_CASES])
    def test_pinned_pairs(self, dps, name, seq):
        # where lambda_n + conj lambda_m vanishes the displacement says nothing
        # of M_nm: the pinned entries carry it, and L and the dual norms stay
        # within a factor 4 of the assembled Cholesky's error
        dom = Interval(0, 1)
        with mp.workdps(dps):
            N = seq.size
            g = gram_matrix(seq, N, dom, PrecisionContext(digits=60, trunc_N=N))
            schur = dual_norms(g)[0]
        assert g.generators[2]
        with mp.workdps(g.digits_used):
            L = assembled_chol(g)
            assembled = assembled_norms(g)
        with mp.workdps(2 * g.digits_used + 20):
            ref = assembled_chol(g)
            want = assembled_norms(g)
            assert chol_error(as_matrix(g.chol), ref) <= 4 * chol_error(L, ref)
            assert rel_err(schur, want) <= 4 * rel_err(assembled, want)

    @pytest.mark.parametrize("seq, dom", [
        (fixture("squares", 6), Interval(0, "0.2")),
        (jittered((1, 2, 1, 3), 0), Interval(0, 1)),
        (jittered((1, 2, 1, 3), 0), None),
    ], ids=["short-interval", "mu2-bounded", "mu2-half-line"])
    def test_other_grams_take_the_generators(self, monkeypatch, dps, seq, dom):
        # a short interval (2 min Re lambda_n (beta - gamma) < 1/2) and mu > 1
        # make no assembly and no Cholesky: L is `_schur_cholesky` on
        # generators taken afresh, with nothing pinned, and M is within 4 eps
        # of the assembled matrix, with a real diagonal
        calls = counted_calls(monkeypatch, "gram._assemble", "gram.hermitian_cholesky")
        with mp.workdps(dps):
            N = seq.size
            g = gram_matrix(seq, N, dom, PrecisionContext(digits=60, trunc_N=N))
            M = g.matrix
        assert calls == {"_assemble": 0, "hermitian_cholesky": 0}
        idx = flatten(seq, N)
        with mp.workdps(g.digits_used):
            x, v = gram._generators(seq, idx, dom)
            L = gram._schur_cholesky([seq.lam(ix.n) for ix in idx], [ix.k for ix in idx],
                                     [+a for a in x], [+b for b in v], {})
        d = g.dim
        assert g.generators[2] == {}
        assert g.chol == L
        assert all(mp.im(M[a, a]) == 0 for a in range(d))
        monkeypatch.undo()
        with mp.workdps(g.digits_used):
            eps = +mp.eps
        with mp.workdps(2 * g.digits_used + 20):
            want = as_matrix(gram._assemble(seq, idx, dom))
            worst = max(abs(M[a, b] - want[a, b]) / abs(want[a, b])
                        for a in range(d) for b in range(d))
        assert worst <= 4 * eps, worst / eps

    @pytest.mark.parametrize("seq", [fixture("squares", 10), jittered((2,) * 5, 3)],
                             ids=["squares", "mu2"])
    @pytest.mark.parametrize("half_line", [False, True], ids=["bounded", "half-line"])
    def test_lazy_matrix_is_the_recurrence_at_digits_used(self, dps, half_line, seq):
        # for a >= b, (lambda_a + conj lambda_b) M_ab = x_a conj(x_b + v_b)
        # + v_a conj x_b - k_a M_(a-1,b) - k_b M_(a,b-1), with M_aa its real
        # part over 2 Re lambda_a, from generators at 20 guard digits, each
        # entry rounded once to digits_used; on the half-line with every mu_n
        # = 1 (x = 1, v = 0) each entry is the one division
        # 1 / (lambda_a + conj lambda_b), and M is, bit for bit, the matrix
        # assembled at digits_used
        dom = None if half_line else Interval(0, 1)
        with mp.workdps(dps):
            N = seq.size
            g = gram_matrix(seq, N, dom, PrecisionContext(digits=100, trunc_N=N))
            got = g.matrix
        idx, d = flatten(seq, N), g.dim
        with mp.workdps(g.digits_used + 20):
            lams = [seq.lam(ix.n) for ix in idx]
            if half_line:
                x, v = [mp.mpc(int(ix.k == 0)) for ix in idx], [mp.mpc(0)] * d
            else:
                x = [mp.expm1(lams[a]) + (1 if idx[a].k else 0) for a in range(d)]
                v = [mp.mpc(int(ix.k == 0)) for ix in idx]
            want = [[None] * d for _ in range(d)]
            for a in range(d):
                for b in range(a + 1):
                    r = x[a] * mp.conj(x[b] + v[b]) + v[a] * mp.conj(x[b])
                    if idx[a].k:
                        r -= idx[a].k * want[a - 1][b]
                    if idx[b].k:
                        r -= idx[b].k * want[a][b - 1]
                    want[a][b] = (mp.mpc(mp.re(r) / (2 * mp.re(lams[a]))) if a == b
                                  else r / (lams[a] + mp.conj(lams[b])))
                    want[b][a] = mp.conj(want[a][b])
        with mp.workdps(g.digits_used):
            want = [[+want[a][b] for b in range(d)] for a in range(d)]
            assembled = as_matrix(gram._assemble(seq, idx, dom))
        assert g.matrix is got
        assert [bits(got[a, b]) for a in range(d) for b in range(d)] == \
            [bits(want[a][b]) for a in range(d) for b in range(d)]
        if half_line and d == N:
            assert [bits(got[a, b]) for a in range(d) for b in range(d)] == \
                [bits(assembled[a, b]) for a in range(d) for b in range(d)]

    def test_short_interval_from_generators(self, monkeypatch, dps):
        # mu = 1, N = 10 on (0, 0.005) at 200 digits, where every integral
        # takes its series (about a second to assemble): the generators take
        # one exponential and one expm1 per frequency and rung
        seq = jittered((1,) * 10, 0)
        dom = Interval(0, "0.005")
        calls = counted_calls(monkeypatch, "gram._assemble", "gram.hermitian_cholesky")
        with mp.workdps(dps):
            g = gram_matrix(seq, 10, dom, PrecisionContext(digits=200, trunc_N=10))
            schur = dual_norms(g)[0]
        assert calls == {"_assemble": 0, "hermitian_cholesky": 0}
        monkeypatch.undo()
        with mp.workdps(g.digits_used):
            assembled = assembled_norms(g)
        with mp.workdps(2 * g.digits_used + 20):
            want = assembled_norms(g)
        assert rel_err(schur, want) <= rel_err(assembled, want)


# (label, sequence factory, N, domain): mu = 1 fixtures, and confluent Grams
GENERATOR_CASES = [(name, make, N, dom) for name, make, N in SIMPLE_FIXTURES
                   for dom in ("0,1", "half-line")] + [
    ("squares", lambda: fixture("squares", 8), 8, "-1,2"),
    # 2 lambda_1 (beta - gamma) = 1/2, where the generators first served
    ("boundary", lambda: MultiplicitySequence.from_pairs(
        [(mp.mpf(1) / 4, 1)] + [(n * n, 1) for n in range(1, 6)], "boundary"), 6, "0,1"),
    # short intervals, where the parent assembled every mu = 1 Gram
    ("squares", lambda: fixture("squares", 6), 6, "0,0.2"),
    ("jittered-squares", lambda: jittered((1,) * 6, 0), 6, "0,0.005"),
] + [(f"mu{mu}", lambda mu=mu, N=N: jittered((mu,) * N, 7), N, dom)
     for _, mu, N, dom in CONFLUENT_CASES]

# (label, sequence, domain)
BIORTHOGONAL_CASES = [
    ("squares-bounded", fixture("squares", 8), DOMAINS["0,1"]),
    ("jittered-half-line", jittered((1,) * 6, 1), DOMAINS["half-line"]),
    ("squares-short-interval", fixture("squares", 6), Interval(0, "0.2")),
    ("mu3-bounded", jittered_mu3(4, 2), DOMAINS["0,1"]),
]


@pytest.mark.parametrize("dps", [15, 60, 120])
class TestGeneratorMatrix:
    """`GramSystem.matrix` is built from the accepted rung's generators: as
    accurate as assembly, with a real diagonal, no assembly and no
    exponential; `biorthogonal` still assembles M, and its family is the one
    it was when the ladder assembled M."""

    @pytest.mark.parametrize("name, make, N, dom", GENERATOR_CASES,
                             ids=[f"{c[0]}-{c[3]}" for c in GENERATOR_CASES])
    def test_within_4_eps_of_assembled(self, dps, name, make, N, dom):
        with mp.workdps(dps):
            seq = make()
            g = gram_matrix(seq, N, GRAM_DOMAINS[dom], PrecisionContext(digits=120, trunc_N=N))
            got = g.matrix
        assert all(mp.im(got[a, a]) == 0 for a in range(g.dim))
        with mp.workdps(g.digits_used):
            eps = +mp.eps  # mp.eps is a constant of whatever precision reads it
        with mp.workdps(2 * g.digits_used + 20):
            want = as_matrix(gram._assemble(seq, g.indices, GRAM_DOMAINS[dom]))
            worst = max(abs(got[a, b] - want[a, b]) / abs(want[a, b])
                        for a in range(g.dim) for b in range(g.dim))
        assert worst <= 4 * eps, worst / eps

    @pytest.mark.parametrize("dom", ["0,1", "half-line"])
    def test_no_assembly_and_no_exponential(self, monkeypatch, dps, dom):
        seq = jittered((1,) * 8, dps)
        with mp.workdps(dps):
            g = gram_matrix(seq, 8, DOMAINS[dom], PrecisionContext(digits=60, trunc_N=8))
        calls = counted_calls(monkeypatch, "gram._assemble", "mp.exp")
        with mp.workdps(dps):
            M = g.matrix
            assert calls == {"_assemble": 0, "exp": 0}
            biorthogonal(g)
        # the counters see biorthogonal's assembly: one call, one pair per entry
        # of the bounded interval's lower triangle
        assert calls == {"_assemble": 1, "exp": 72 if dom == "0,1" else 0}
        assert g.matrix is M

    @pytest.mark.parametrize("name, mu, N, dom", CONFLUENT_CASES,
                             ids=[c[0] for c in CONFLUENT_CASES])
    def test_ladder_and_matrix_take_no_assembly(self, monkeypatch, dps, name, mu, N, dom):
        # the ladder takes one exponential per frequency and rung (the
        # generators' e^(lambda gamma); none on the half-line), and M none
        seq = jittered((mu,) * N, dps)
        calls = counted_calls(monkeypatch, "gram._assemble", "gram.hermitian_cholesky",
                              "mp.exp", "gram._factor")
        with mp.workdps(dps):
            g = gram_matrix(seq, N, GRAM_DOMAINS[dom], PrecisionContext(digits=60, trunc_N=N))
            exps = calls["exp"]
            g.matrix
        assert exps == (0 if dom == "half-line" else N * calls["_factor"])
        assert calls == {"_assemble": 0, "hermitian_cholesky": 0, "exp": exps,
                         "_factor": calls["_factor"]}

    @pytest.mark.parametrize("name, seq, dom", BIORTHOGONAL_CASES,
                             ids=[c[0] for c in BIORTHOGONAL_CASES])
    def test_biorthogonal_equals_parent(self, dps, name, seq, dom):
        # the ladder on the generators accepts the assembled ladder's rung,
        # and biorthogonal's family is the one computed from that ladder's
        # assembled matrix and factor: C's lower triangle and diagonal, the
        # norms and the distances bit for bit; above the diagonal C is the
        # exact conjugate of its mirror, and the identity residual of C M
        # no larger than that of the parent's fully swept C
        with mp.workdps(dps):
            ctx = PrecisionContext(digits=60, trunc_N=seq.size)
            g = gram_matrix(seq, seq.size, dom, ctx)
            got = biorthogonal(g)
            parent = assembled_gram_matrix(seq, seq.size, dom, ctx)
            want = parent_biorthogonal(parent)
        d = g.dim
        assert g.digits_used == parent.digits_used
        assert lower_bits(got.coeffs) == lower_bits(want.coeffs)
        assert_hermitian_off_diagonal(got.coeffs)
        assert [bits(v) for v in got.norms] == [bits(v) for v in want.norms]
        assert [bits(v) for v in got.distances] == [bits(v) for v in want.distances]
        assert got.identity_residual <= want.identity_residual


class TestCholesky:
    def test_reconstructs_matrix(self):
        rng = random.Random(2)
        d = 4
        B = mp.matrix(d, d)
        for i in range(d):
            for j in range(d):
                B[i, j] = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
        M = B * B.H + 5 * mp.eye(d)
        L = as_matrix(hermitian_cholesky([[_raw(M[i, j]) for j in range(d)] for i in range(d)]))
        R = L * L.H
        worst = max(abs(R[i, j] - M[i, j]) for i in range(d) for j in range(d))
        assert worst < mp.mpf("1e-55")

    def test_rejects_indefinite(self):
        M = mp.matrix([[1, 0], [0, -1]])
        with pytest.raises(PrecisionError):
            hermitian_cholesky([[_raw(M[i, j]) for j in range(2)] for i in range(2)])


class TestDistance:
    def test_singleton_distance_is_norm(self, dom01):
        seq = MultiplicitySequence.from_pairs([(2, 1)])
        ctx = PrecisionContext(digits=60, trunc_N=1)
        g = gram_matrix(seq, 1, dom01, ctx)
        d = dual_norms(g)[1][0]
        want = mp.sqrt((mp.exp(4) - 1) / 4)
        assert abs(d - want) < mp.mpf("1e-50")

    def test_two_element_schur_hand_value(self, dom01):
        seq = MultiplicitySequence.from_pairs([(1, 1), (2, 1)])
        ctx = PrecisionContext(digits=60, trunc_N=2)
        g = gram_matrix(seq, 2, dom01, ctx)
        d = dual_norms(g)[1][0]
        want = mp.sqrt((mp.exp(2) - 1) / 2
                       - ((mp.exp(3) - 1) / 3) ** 2 / ((mp.exp(4) - 1) / 4))
        assert abs(d - want) < mp.mpf("1e-45")

    def test_never_exceeds_norm(self, squares8, dom01):
        ctx = PrecisionContext(digits=120, trunc_N=6)
        g = gram_matrix(squares8, 6, dom01, ctx)
        for i, d in enumerate(dual_norms(g)[1]):
            norm = mp.sqrt(mp.re(g.matrix[i, i]))
            assert 0 < d <= norm

    def test_matches_determinant_ratio(self, dom01):
        seq = fixture("squares", 6)
        ctx = PrecisionContext(digits=120, trunc_N=6)
        g = gram_matrix(seq, 6, dom01, ctx)
        dists = dual_norms(g)[1]
        with mp.workdps(g.digits_used):
            det_full = mp.det(g.matrix)
            for i in range(g.dim):
                keep = [j for j in range(g.dim) if j != i]
                sub = mp.matrix(g.dim - 1, g.dim - 1)
                for a, ja in enumerate(keep):
                    for b, jb in enumerate(keep):
                        sub[a, b] = g.matrix[ja, jb]
                want = mp.sqrt(mp.re(det_full / mp.det(sub)))
                got = dists[i]
                assert abs(got - want) / want < mp.mpf(10) ** (-g.digits_used // 3)

    def test_schur_quadratic_form_agrees(self, dom01):
        # direct leave-one-out Schur complement evaluation
        seq = fixture("squares", 5)
        ctx = PrecisionContext(digits=100, trunc_N=5)
        g = gram_matrix(seq, 5, dom01, ctx)
        with mp.workdps(g.digits_used):
            i = 2
            keep = [j for j in range(g.dim) if j != i]
            S = mp.matrix(len(keep), len(keep))
            for a, ja in enumerate(keep):
                for b, jb in enumerate(keep):
                    S[a, b] = g.matrix[ja, jb]
            row = mp.matrix([g.matrix[i, j] for j in keep])
            col = mp.matrix([g.matrix[j, i] for j in keep])
            x = mp.lu_solve(S, col)
            d2 = g.matrix[i, i] - sum(row[a] * x[a] for a in range(len(keep)))
            want = mp.sqrt(mp.re(d2))
        got = dual_norms(g)[1][i]
        assert abs(got - want) / want < mp.mpf("1e-30")


class TestBiorthogonal:
    def test_singleton_dual_is_scaled_element(self, dom01):
        seq = MultiplicitySequence.from_pairs([(1, 1)])
        ctx = PrecisionContext(digits=60, trunc_N=1)
        g = gram_matrix(seq, 1, dom01, ctx)
        fam = biorthogonal(g)
        norm2 = (mp.exp(2) - 1) / 2
        assert abs(fam.coeffs[0, 0] - 1 / norm2) < mp.mpf("1e-50")

    def test_identity_residual_small(self, squares8, dom01):
        ctx = PrecisionContext(digits=120, trunc_N=6)
        fam = biorthogonal(gram_matrix(squares8, 6, dom01, ctx))
        assert fam.identity_residual < mp.mpf("1e-40")

    def test_norm_distance_product_is_one(self, squares8, dom01):
        ctx = PrecisionContext(digits=120, trunc_N=6)
        fam = biorthogonal(gram_matrix(squares8, 6, dom01, ctx))
        for nv, dv in zip(fam.norms, fam.distances):
            assert abs(nv * dv - 1) < mp.mpf("1e-40")

    def test_dual_norm_bound_trend(self, squares8, dom01):
        # ||r_n|| e^((beta-eps) Re lambda_n) stays bounded by its early max
        ctx = PrecisionContext(digits=200, trunc_N=8)
        fam = biorthogonal(gram_matrix(squares8, 8, dom01, ctx))
        eps = mp.mpf("0.2")
        consts = [nv * mp.exp((1 - eps) * mp.re(squares8.lam(ix.n)))
                  for nv, ix in zip(fam.norms, fam.indices)]
        assert max(consts[4:]) <= max(consts[:4])

    def test_optimality_under_enlargement(self, dom01):
        # any dual vector perturbed by a component orthogonal to the span
        # (built in an enlarged basis) can only grow in norm
        seq = fixture("squares", 5)
        ctx = PrecisionContext(digits=120, trunc_N=5)
        g5 = gram_matrix(seq, 5, dom01, ctx)
        g4 = gram_matrix(seq, 4, dom01, ctx)
        fam4 = biorthogonal(g4)
        with mp.workdps(g5.digits_used):
            # w = e_5 - projection onto span(e_1..e_4): orthogonal to the span
            col = mp.matrix([g5.matrix[j, 4] for j in range(4)])
            L4 = as_matrix(g4.chol)
            proj = parent_backward(L4, parent_forward(L4, col))
            w = [-mp.conj(proj[j]) for j in range(4)] + [mp.mpc(1)]
            a = 1  # perturb r_{2,0}
            r = [fam4.coeffs[a, j] for j in range(4)] + [mp.mpc(0)]
            rng = random.Random(9)
            norm_r = fam4.norms[a]
            for _ in range(5):
                t = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
                vec = [r[j] + t * w[j] for j in range(5)]
                q = mp.mpf(0)
                for i in range(5):
                    for j in range(5):
                        q += mp.re(vec[i] * mp.conj(vec[j]) * g5.matrix[i, j])
                assert mp.sqrt(q) >= norm_r * (1 - mp.mpf("1e-30"))


def reference_solve(L, rhs):
    """(L L^H)^-1 rhs by a full forward and a full backward sweep."""
    n = L.rows
    y = mp.matrix(n, 1)
    for i in range(n):
        s = rhs[i]
        for k in range(i):
            s -= L[i, k] * y[k]
        y[i] = s / L[i, i]
    x = mp.matrix(n, 1)
    for i in reversed(range(n)):
        s = y[i]
        for k in range(i + 1, n):
            s -= mp.conj(L[k, i]) * x[k]
        x[i] = s / L[i, i]
    return x


def reference_inverse(L):
    """Columns of (L L^H)^-1, each a full solve against e_j."""
    n = L.rows
    C = mp.matrix(n, n)
    for j in range(n):
        rhs = mp.matrix(n, 1)
        rhs[j] = 1
        x = reference_solve(L, rhs)
        for i in range(n):
            C[i, j] = x[i]
    return C


def reference_mixed(g, C, n1, n2):
    """The least eigenvalue of the mixed Gram, its dual block read from C, in
    a list."""
    pos = {ix: i for i, ix in enumerate(g.indices)}
    all_ix = list(n1) + list(n2)
    H = mp.matrix(len(all_ix), len(all_ix))
    for i, a in enumerate(all_ix):
        for j, b in enumerate(all_ix):
            if i < len(n1) and j < len(n1):
                H[i, j] = g.matrix[pos[a], pos[b]]
            elif i >= len(n1) and j >= len(n1):
                H[i, j] = C[pos[a], pos[b]]
            else:
                H[i, j] = 1 if a == b else 0
    return [min(mp.eigh(H, eigvals_only=True))]


def rel_err(got, want):
    """The largest relative error of the values got against want."""
    return max(abs(x - y) / abs(y) for x, y in zip(got, want))


def bits(v):
    """The type and the exact binary value of an mpf or mpc."""
    return type(v), (v._mpc_ if isinstance(v, mp.mpc) else v._mpf_)


def lower_bits(A):
    """The bits of the lower triangle and diagonal of A."""
    return [bits(A[i, j]) for i in range(A.rows) for j in range(i + 1)]


def assert_hermitian_off_diagonal(A):
    """Each entry above the diagonal of A is exactly the conjugate of its
    mirror: the same type and real part, and the imaginary part negated."""
    for i in range(A.rows):
        for j in range(i + 1, A.rows):
            a, b = A[i, j], A[j, i]
            want = (b._mpc_[0], mpf_neg(b._mpc_[1])) if isinstance(b, mp.mpc) else b._mpf_
            assert bits(a) == (type(b), want), (i, j)


@pytest.mark.parametrize("dps", [15, 120])
@pytest.mark.parametrize("half_line", [False, True], ids=["bounded", "half-line"])
class TestDiagonalPath:
    """The dual norms read only the forward columns L^-1 e_j and are at least
    as accurate as those of the biorthogonal family; the column-wise inverse
    and the two sweeps give the bits of full forward and backward sweeps; the
    mixed system's two blocks are as accurate as the whole mixed Gram."""

    @staticmethod
    def system(dps, half_line):
        dom = None if half_line else Interval(0, 1)
        seq = jittered_mu3(4, dps)
        return gram_matrix(seq, 4, dom, PrecisionContext(digits=max(dps, 50), trunc_N=4))

    def test_dual_norms_as_accurate_as_biorthogonal(self, dps, half_line):
        # dual_norms reads the ladder's factor and biorthogonal factors the
        # assembled matrix; both against the assembled Cholesky at 2 digits + 20
        with mp.workdps(dps):
            g = self.system(dps, half_line)
            norms, dists = dual_norms(g)
            fam = biorthogonal(g)
        with mp.workdps(2 * g.digits_used + 20):
            want = assembled_norms(g)
            assert rel_err(norms, want) <= rel_err(fam.norms, want)
            assert rel_err(dists, [1 / v for v in want]) <= \
                rel_err(fam.distances, [1 / v for v in want])

    def test_inverse_equals_full_solves(self, request, dps, half_line):
        # biorthogonal's own factor: `hermitian_cholesky` of the matrix it
        # assembles at digits_used; the sweeps stop at the diagonal, so the
        # lower triangle and diagonal are those of full solves, the rest the
        # exact conjugate, and the identity residual no larger than that of
        # the full solves
        if half_line and dps == 120:
            request.applymarker(pytest.mark.xfail(
                strict=True,
                reason="the identity residual of C with its upper triangle mirrored "
                       "reads 8.52e-110 against 7.43e-110 for the full solves (ratio "
                       "1.15): the mirror drops the upper triangle's own rounding, "
                       "which moves the residual either way. Kept at the stated bound."))
        with mp.workdps(dps):
            g = self.system(dps, half_line)
            fam = biorthogonal(g)
            with mp.workdps(g.digits_used):
                ref = reference_inverse(assembled_chol(g))
                resid = parent_identity_residual(ref, as_matrix(gram._assemble(
                    g.seq, g.indices, g.domain)))
        assert g.dim == 12
        assert lower_bits(fam.coeffs) == lower_bits(ref)
        assert_hermitian_off_diagonal(fam.coeffs)
        assert fam.identity_residual <= resid

    @staticmethod
    def right_hand_sides(g, dps):
        """Dense complex, exact leading zeros and all zeros; then entries
        carrying more precision than the solve, dense and below zeros."""
        d = g.dim
        rng = random.Random(dps)
        with mp.workdps(dps):
            dense = mp.matrix([rand_complex(rng) for _ in range(d)])
            leading = mp.matrix(d, 1)
            for i in range(5, d):
                leading[i] = rand_complex(rng)
        with mp.workdps(g.digits_used + 40):
            excess = mp.matrix([rand_complex(rng) / 3 for _ in range(d)])
            excess_leading = mp.matrix(d, 1)
            for i in range(3, d):
                excess_leading[i] = mp.mpf(1) / (i + 1) if i % 2 else mp.mpc(1, i) / 3
        return {"dense": dense, "leading-zeros": leading, "all-zero": mp.matrix(d, 1),
                "excess-dense": excess, "excess-leading-zeros": excess_leading}

    def test_solve_equals_full_sweeps(self, dps, half_line):
        with mp.workdps(dps):
            g = self.system(dps, half_line)
        for name, rhs in self.right_hand_sides(g, dps).items():
            with mp.workdps(g.digits_used):
                F = g.chol
                got = _backward(F, _forward(F, [_raw(rhs[i]) for i in range(g.dim)]))
            with mp.workdps(g.digits_used):
                want = reference_solve(as_matrix(g.chol), rhs)
            assert [bits(_obj(got[i])) for i in range(g.dim)] == \
                [bits(want[i]) for i in range(g.dim)], name

    def test_mixed_completeness_as_accurate_as_full_matrix(self, dps, half_line):
        # the two diagonal blocks against the whole mixed Gram with its zero
        # blocks, both measured against that matrix at 2 * digits_used + 20
        with mp.workdps(dps):
            g = self.system(dps, half_line)
        rng = random.Random(dps + half_line)
        parts = [([], list(g.indices)), (list(g.indices), [])]
        for _ in range(4):
            n2 = [ix for ix in g.indices if rng.random() < 0.5]
            parts.append(([ix for ix in g.indices if ix not in n2], n2))
        L = as_matrix(g.chol)
        with mp.workdps(g.digits_used):
            C = reference_inverse(L)
        with mp.workdps(2 * g.digits_used + 20):
            C_hi = reference_inverse(L)
        worst_blocks = worst_full = mp.mpf(0)
        for n1, n2 in parts:
            with mp.workdps(dps):
                rep = mixed_completeness(g, (n1, n2))
            with mp.workdps(g.digits_used):
                full = reference_mixed(g, C, n1, n2)
            with mp.workdps(2 * g.digits_used + 20):
                want = reference_mixed(g, C_hi, n1, n2)
                worst_blocks = max(worst_blocks, rel_err([rep.min_singular], want))
                worst_full = max(worst_full, rel_err(full, want))
        assert worst_blocks <= worst_full, (worst_blocks, worst_full)


# (label, sequence factory of the seed, domain): jittered squares with mu =
# 1, 2, 3 on a long, a wide and a short interval and the half-line, and the
# pinned frequency pairs
RAW_CASES = [(f"mu{mu}-{dom}", lambda seed, mu=mu, N=N: jittered((mu,) * N, seed),
              GRAM_DOMAINS[dom])
             for mu, N in ((1, 6), (2, 4), (3, 3))
             for dom in ("0,1", "-1,2", "0,0.05", "half-line")] + [
    (name, lambda seed, seq=seq: seq, GRAM_DOMAINS["0,1"]) for name, seq in PINNED_CASES]


def matrix_bits(A):
    return [bits(A[i, j]) for i in range(A.rows) for j in range(A.cols)]


@pytest.mark.parametrize("dps", [15, 60, 120])
@pytest.mark.parametrize("name, make, dom", RAW_CASES, ids=[c[0] for c in RAW_CASES])
def test_raw_kernels_equal_parent(monkeypatch, dps, name, make, dom):
    # every Gram kernel on raw values against its mp-object copy in
    # conftest.py: the ladder's factor, M, the dual norms and distances, the
    # mixed dual block, recovered coefficients (moments with more bits than
    # the solve, some of them real), the assembled rows (the diagonal
    # included, the conjugate of its integral), biorthogonal's Cholesky
    # factor and C's lower triangle, diagonal, norms and distances, all bit
    # for bit; C's
    # identity residual is not compared, since the mirrored upper triangle
    # moves it either way (above the parent's on 13 of these 45 systems)
    blocks = []
    eigh = mp.eigh

    def captured(A, **kwargs):
        blocks.append(A)
        return eigh(A, **kwargs)

    monkeypatch.setattr(mp, "eigh", captured)
    with mp.workdps(dps):
        seq = make(dps)
        N = seq.size
        g = gram_matrix(seq, N, dom, PrecisionContext(digits=max(dps, 50), trunc_N=N))
        norms, dists = dual_norms(g)
        fam = biorthogonal(g)
        mixed_completeness(g, ([], g.indices))
        rng = random.Random(dps)
        with mp.workdps(g.digits_used + 40):
            moments = [mp.mpf(k + 1) / 7 if k % 3 == 0 else rand_complex(rng) / 3
                       for k in range(g.dim)]
        coeffs = recover_coefficients(g, moments)
    chol = as_matrix(g.chol)
    assert matrix_bits(chol) == matrix_bits(parent_factor(g))
    assert matrix_bits(g.matrix) == matrix_bits(parent_matrix(g))
    with mp.workdps(g.digits_used):
        want = [parent_norm(parent_forward(chol, mp.eye(g.dim).column(j)))
                for j in range(g.dim)]
        assert [bits(v) for v in norms] == [bits(v) for v in want]
        assert [bits(v) for v in dists] == [bits(1 / v) for v in want]
        rows = gram._assemble(seq, g.indices, dom)
        M = parent_assemble(seq, g.indices, dom)
        assert rows == [[_raw(M[i, j]) for j in range(g.dim)] for i in range(g.dim)]
        L = parent_hermitian_cholesky(M)
        assert matrix_bits(as_matrix(hermitian_cholesky(rows))) == matrix_bits(L)
    assert matrix_bits(blocks[-1]) == matrix_bits(parent_dual_block(g, g.indices))
    assert [bits(v) for v in coeffs] == \
        [bits(v) for v in parent_recover_coefficients(g, moments)]
    parent = parent_biorthogonal(SimpleNamespace(assembled=M, chol=L, dim=g.dim,
                                                 digits_used=g.digits_used,
                                                 indices=g.indices))
    assert lower_bits(fam.coeffs) == lower_bits(parent.coeffs)
    assert_hermitian_off_diagonal(fam.coeffs)
    assert [bits(v) for v in fam.norms] == [bits(v) for v in parent.norms]
    assert [bits(v) for v in fam.distances] == [bits(v) for v in parent.distances]


class TestRecoverCoefficients:
    @pytest.fixture
    def system(self, squares8, dom01):
        ctx = PrecisionContext(digits=120, trunc_N=6)
        g = gram_matrix(squares8, 6, dom01, ctx)
        return g, biorthogonal(g)

    def test_unit_vector(self, system):
        g, fam = system
        moments = [g.matrix[0, j] for j in range(g.dim)]
        # f = e_{1,0}: its moments against e_j are conj Gram row entries
        moments = [mp.conj(g.matrix[0, j]) for j in range(g.dim)]
        got = recover_coefficients(g, moments)
        assert abs(got[0] - 1) < mp.mpf("1e-35")
        assert max(abs(c) for c in got[1:]) < mp.mpf("1e-35")

    def test_zero_moments(self, system):
        g, fam = system
        got = recover_coefficients(g, [0] * g.dim)
        assert all(c == 0 for c in got)

    def test_random_round_trip(self, system):
        g, fam = system
        rng = random.Random(17)
        with mp.workdps(g.digits_used):
            for _ in range(10):
                c0 = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(g.dim)]
                # moments of f = sum c0_b e_b against e_a: sum_b c0_b <e_b, e_a>
                moments = [sum(c0[b] * g.matrix[b, a] for b in range(g.dim))
                           for a in range(g.dim)]
                got = recover_coefficients(g, moments)
                worst = max(abs(x - y) for x, y in zip(got, c0))
                assert worst < mp.mpf("1e-30")

    def test_dimension_mismatch(self, system):
        g, fam = system
        with pytest.raises(ValueError):
            recover_coefficients(g, [1, 2])


class TestMixedCompleteness:
    @pytest.fixture
    def system(self, squares8, dom01):
        ctx = PrecisionContext(digits=120, trunc_N=6)
        g = gram_matrix(squares8, 6, dom01, ctx)
        return g, biorthogonal(g)

    def test_empty_dual_side_reduces_to_gram(self, system):
        g, fam = system
        rep = mixed_completeness(g, (list(g.indices), []))
        with mp.workdps(g.digits_used):
            eigs = mp.eigh(g.matrix, eigvals_only=True)
        assert abs(rep.min_singular - min(eigs)) / min(eigs) < mp.mpf("1e-25")

    def test_full_dual_side_inverts_spectrum(self, system):
        g, fam = system
        rep = mixed_completeness(g, ([], list(g.indices)))
        with mp.workdps(g.digits_used):
            eigs = mp.eigh(g.matrix, eigvals_only=True)
        assert abs(rep.min_singular - 1 / max(eigs)) * max(eigs) < mp.mpf("1e-20")

    def test_random_partitions_strictly_positive(self, system):
        g, fam = system
        rng = random.Random(23)
        for _ in range(6):
            n2 = [ix for ix in g.indices if rng.random() < 0.5]
            n1 = [ix for ix in g.indices if ix not in n2]
            rep = mixed_completeness(g, (n1, n2))
            assert rep.min_singular > 0

    def test_partition_must_cover(self, system):
        g, fam = system
        with pytest.raises(ValueError):
            mixed_completeness(g, ([g.indices[0]], []))

    def test_partition_must_not_repeat(self, system):
        # N1 and N2 then cover every index with one too many elements: that
        # mixed Gram is singular, and its smallest eigenvalue rounded negative
        g, fam = system
        n1 = list(g.indices[:3]) + [g.indices[0]]
        with pytest.raises(ConfigError, match="disjointly"):
            mixed_completeness(g, (n1, list(g.indices[3:])))


# -- Gauss's three-product complex multiply and the integer dot products --

GAUSS_PRECS = [53, 200, 1600, 2700]


def _part(sign, man, exp):
    """The raw mpf (-1)^sign man 2^exp, exact."""
    return from_man_exp(-man if sign else man, exp)


def shortcut_case(prec, low, top, signs, R, swap=False):
    """Operands z, w whose exact products p = ac and q = bd (p = ac and q =
    bd in the imaginary part ad + bc where swap) have lowest bits `low`
    apart and tops `top` apart.  p lies one unit of its last bit above a
    rounding midpoint at prec, and q exceeds the unit: where q takes p toward
    zero (`opposes`) and mpf_add takes its perturbation shortcut, the two
    roundings of p -+ q differ.  R holds prec bits, its top bit set."""
    sa, sb, sc, sd = signs
    g = 40  # bits of p below its rounding midpoint
    E, ed = -17, -50
    A = (((R << 1) | 1) << g) | 1
    nb = prec + 1 + g - top + low  # q's bits
    B = (1 << (nb - 1)) | (R & ((1 << (nb - 2)) - 1)) | 1
    a, b = _part(sa, A, E), _part(sb, B, E - low - ed)
    c, d = _part(sc, 1, 0), _part(sd, 1, ed)
    return (a, b), ((d, c) if swap else (c, d))


def opposes(signs, swap):
    """Whether q takes p toward zero in a `shortcut_case`: p - q in the real
    part with p, q of one sign, p + q in the imaginary one of opposite signs."""
    sa, sb, sc, sd = signs
    return (sa ^ sc == sb ^ sd) != swap


def exact(x, prec, rnd):
    """x, summed by mpf_mul and mpf_add at prec 0 (which round nothing and
    take no shortcut), rounded once."""
    return mpf_pos(x, prec, rnd)


def exact_cmul(z, w, prec, rnd):
    """z w for raw complex z = a + bi, w = c + di, each part exact and then
    rounded once."""
    (a, b), (c, d) = z, w
    return (exact(mpf_sub(mpf_mul(a, c), mpf_mul(b, d)), prec, rnd),
            exact(mpf_add(mpf_mul(a, d), mpf_mul(b, c)), prec, rnd))


def perturbs(p, q, prec):
    """Whether mpf_add(p, q, prec) perturbs in place of adding: both nonzero,
    lowest bits more than 100 apart, and the top of the one whose lowest bit
    is higher more than prec + 4 above the other's."""
    if not (p[1] and q[1]):
        return False
    if p[2] < q[2]:
        p, q = q, p
    return p[2] - q[2] > 100 and p[2] + p[3] - q[2] - q[3] > prec + 4


def check_cmul(z, w, prec, rnd="n"):
    """`_cmul` is the exact product rounded once, and mpc_mul's wherever
    mpc_mul's add and subtract do not perturb; returns whether mpc_mul's
    differs."""
    got = gram._cmul(z, w, prec, rnd)
    assert got == exact_cmul(z, w, prec, rnd), (z, w, prec, rnd)
    (a, b), (c, d) = z, w
    shortcut = (perturbs(mpf_mul(a, c), mpf_mul(b, d), prec)
                or perturbs(mpf_mul(a, d), mpf_mul(b, c), prec))
    lossy = mpc_mul(z, w, prec, rnd) != got
    assert shortcut or not lossy, (z, w, prec, rnd)
    return lossy


@pytest.mark.parametrize("prec", GAUSS_PRECS)
class TestGaussProducts:
    """`_cmul` gives the exact product rounded once from three integer
    products, and takes mpc_mul exactly where a part is zero or an operand's
    parts lie more than 64 bits apart, where mpc_mul is exact too: each
    boundary is crossed from both sides.  Where mpc_mul's add perturbs in
    place of adding (lowest bits more than 100 apart, tops more than prec +
    4), mpc_mul may round the other way, and `_cmul` still does not take it."""

    @pytest.mark.parametrize("signs", [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 0, 1)])
    @pytest.mark.parametrize("low", [100, 101])
    @pytest.mark.parametrize("offset", [3, 4, 5])
    @pytest.mark.parametrize("swap", [False, True], ids=["re", "im"])
    def test_shortcut_boundary(self, monkeypatch, prec, signs, low, offset, swap):
        calls = counted_calls(monkeypatch, "gram.mpc_mul")
        R = (1 << (prec - 1)) | random.Random(prec).getrandbits(prec - 1)
        z, w = shortcut_case(prec, low, prec + offset, signs, R, swap)
        # mpc_mul perturbs past low 100 and tops prec + 4 apart, at offset 5,
        # and then rounds p -+ q the other way where q takes p toward its
        # midpoint; `_cmul` rounds the exact value
        assert check_cmul(z, w, prec) == (low > 100 and offset > 4 and opposes(signs, swap))
        assert not calls["mpc_mul"]

    @pytest.mark.parametrize("spread", [63, 64, 65, 66])
    @pytest.mark.parametrize("operand", [0, 1])
    def test_part_spread(self, monkeypatch, prec, spread, operand):
        calls = counted_calls(monkeypatch, "gram.mpc_mul")
        rng = random.Random(spread)
        parts = [_part(rng.getrandbits(1), rng.getrandbits(prec) | 1 << prec | 1, -9)
                 for _ in range(4)]
        i = 2 * operand + rng.getrandbits(1)
        parts[i] = _part(parts[i][0], parts[i][1], -9 + spread)
        assert not check_cmul(tuple(parts[:2]), tuple(parts[2:]), prec)
        assert calls["mpc_mul"] == (spread > 64)

    @pytest.mark.parametrize("zero", range(4))
    def test_zero_part(self, monkeypatch, prec, zero):
        calls = counted_calls(monkeypatch, "gram.mpc_mul")
        parts = [_part(0, 3, 1), _part(1, 5, 2), _part(0, 7, -1), _part(1, 9, 0)]
        parts[zero] = fzero
        assert not check_cmul(tuple(parts[:2]), tuple(parts[2:]), prec)
        assert calls["mpc_mul"] == 1

    @pytest.mark.parametrize("odd", [0, 1])
    def test_rounding_ties(self, monkeypatch, prec, odd):
        # re = T and im = T + 2 with T = 2R + 1 of prec + 1 bits: both exact
        # midpoints, rounded to even down (R even) and up (R odd)
        calls = counted_calls(monkeypatch, "gram.mpc_mul")
        R = (1 << (prec - 1)) | random.Random(prec).getrandbits(prec - 1) & ~1 | odd
        T = (R << 1) | 1
        z, w = (from_man_exp(T + 1, 0), fone), (fone, fone)
        assert not check_cmul(z, w, prec)
        got = gram._cmul(z, w, prec, "n")
        assert got[0] == from_man_exp(R + odd, 1), got
        assert not calls["mpc_mul"]

    def test_exact_cancellation(self, monkeypatch, prec):
        calls = counted_calls(monkeypatch, "gram.mpc_mul")
        rng = random.Random(prec)
        a, b = (_part(rng.getrandbits(1), rng.getrandbits(prec) | 1, rng.randint(-30, 30))
                for _ in range(2))
        assert not check_cmul((a, b), (b, a), prec)
        assert gram._cmul((a, b), (b, a), prec, "n")[0] == fzero
        assert not calls["mpc_mul"]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_exact_product(self, prec, data):
        kind = data.draw(st.sampled_from(["random", "shortcut", "cancel"]), label="kind")
        # a shortcut case puts ac beside a midpoint of rounding to nearest
        rnd = "n" if kind == "shortcut" else data.draw(st.sampled_from("nfcdu"), label="rounding")
        if kind == "shortcut":
            R = data.draw(st.integers(1 << (prec - 1), (1 << prec) - 1), label="R")
            low = data.draw(st.sampled_from([100, 101]), label="low")
            offset = data.draw(st.sampled_from([3, 4, 5]), label="top")
            signs = data.draw(st.tuples(*[st.integers(0, 1)] * 4), label="signs")
            swap = data.draw(st.booleans(), label="swap")
            z, w = shortcut_case(prec, low, prec + offset, signs, R, swap)
            assert check_cmul(z, w, prec, rnd) == (low > 100 and offset > 4
                                                   and opposes(signs, swap))
            return
        base = data.draw(st.integers(-3000, 3000), label="exponent")

        def part(label):
            if data.draw(st.integers(0, 9), label=f"{label} zero") == 0:
                return fzero
            n = data.draw(st.integers(1, prec + 70), label=f"{label} bits")
            return _part(data.draw(st.integers(0, 1), label=f"{label} sign"),
                         data.draw(st.integers(1 << (n - 1), (1 << n) - 1),
                                   label=f"{label} mantissa") | 1,
                         base + data.draw(st.integers(-70, 70), label=f"{label} exponent"))

        z = (part("a"), part("b"))
        w = (z[1], z[0]) if kind == "cancel" else (part("c"), part("d"))
        (a, b), (c, d) = z, w
        if all(p[1] for p in (a, b, c, d)) and abs(a[2] - b[2]) <= 64 >= abs(c[2] - d[2]):
            check_cmul(z, w, prec, rnd)
        else:
            # a zero part or parts far apart: mpc_mul's result, which may perturb
            assert gram._cmul(z, w, prec, rnd) == mpc_mul(z, w, prec, rnd)


def _vector(rng, d, prec, exps, real_share=0.25, zero_share=0.15):
    """d raw values, each zero, real or complex, parts of up to prec bits at
    an exponent drawn from exps."""
    def part():
        if rng.random() < zero_share:
            return fzero
        return _part(rng.getrandbits(1), rng.getrandbits(prec) | 1, rng.choice(exps))
    out = []
    for _ in range(d):
        r = rng.random()
        out.append(part() if r < real_share else (part(), part()))
    return out


def _pair(r):
    return r if len(r) == 2 else (r, fzero)


def exact_dot(u, w, conjugate=False):
    """sum u_k w_k (w_k conjugated if asked) over raw vectors, exact and then
    rounded once per part at the context's precision; an mpf where neither
    vector is complex."""
    prec, rnd = mp.mp._prec_rounding
    re = im = fzero
    for (a, b), (c, d) in zip(map(_pair, u), map(_pair, w)):
        if conjugate:
            d = mpf_neg(d)
        re = mpf_add(re, mpf_sub(mpf_mul(a, c), mpf_mul(b, d)))
        im = mpf_add(im, mpf_add(mpf_mul(a, d), mpf_mul(b, c)))
    if any(len(r) == 2 for r in u + w):
        return exact(re, prec, rnd), exact(im, prec, rnd)
    return exact(re, prec, rnd)


def exact_norm(y):
    """||y|| of a raw vector: the exact sum of its parts' squares rounded
    once, then its square root."""
    prec, rnd = mp.mp._prec_rounding
    s = fzero
    for a, b in map(_pair, y):
        s = mpf_add(s, mpf_add(mpf_mul(a, a), mpf_mul(b, b)))
    return mpf_sqrt(exact(s, prec, rnd), prec, rnd)


class TestExactSums:
    """`_dot`, `_norm` and `_identity_residual` sum exact products as one
    integer and round each part once.  That is mpf_sum's result, which
    their mp-object copies take, wherever mpf_sum drops no term; where it
    drops one (a term more than 2 prec below the running sum), the kernels
    keep it."""

    @pytest.mark.parametrize("prec", [53, 200, 1600])
    @pytest.mark.parametrize("conjugate", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_dot_equals_parent(self, prec, conjugate, seed):
        rng = random.Random(seed)
        # seeds 0-3 stay inside 2 prec, seeds 4 and 5 spread past it, where
        # mpf_sum still drops none of these products
        spread = (prec // 2 if seed < 4 else 3 * prec)
        with mp.workprec(prec):
            for d in (1, 2, 5):
                u = _vector(rng, d, prec, range(-spread // 2, spread // 2 + 1, 7))
                w = _vector(rng, d, prec, range(-spread // 2, spread // 2 + 1, 7))
                got = gram._dot(gram._split(u), gram._split(w, conjugate))
                assert got == exact_dot(u, w, conjugate)
                assert got == parent_dot(zip(u, w), conjugate=conjugate)

    @pytest.mark.parametrize("prec", [53, 200, 1600])
    @pytest.mark.parametrize("entries", ["real", "complex", "imaginary"])
    def test_dot_keeps_what_mpf_sum_drops(self, prec, entries):
        # 2^(3 prec) + 1 - 2^(3 prec) in the real part (real or complex
        # entries) or the imaginary one: `_dot` returns the exact 1, and
        # mpf_sum drops the 1 and returns 0
        big = _part(0, 1, 3 * prec)
        u = [big, fone, mpf_neg(big)]
        if entries == "complex":
            u = [(r, fzero) for r in u]
        elif entries == "imaginary":
            u = [(fzero, r) for r in u]
        w = [fone] * 3
        with mp.workprec(prec):
            got = gram._dot(gram._split(u), gram._split(w))
            assert got == exact_dot(u, w)
            lossy = parent_dot(zip(u, w))
        assert (got, lossy) == {"real": (fone, fzero),
                                "complex": ((fone, fzero), (fzero, fzero)),
                                "imaginary": ((fzero, fone), (fzero, fzero))}[entries]

    @pytest.mark.parametrize("prec", [53, 200, 1600])
    @pytest.mark.parametrize("seed", range(4))
    def test_norm_equals_parent(self, prec, seed):
        rng = random.Random(seed)
        # seeds 2 and 3 spread the squares past 2 prec, where mpf_sum still
        # drops none of them
        spread = prec // 3 if seed < 2 else 2 * prec
        with mp.workprec(prec):
            for d in (1, 3, 6):
                y = _vector(rng, d, prec, range(-spread // 2, spread // 2 + 1, 5))
                got = gram._norm(y)
                assert got == exact_norm(y)
                assert got == parent_norm([_obj(r) for r in y])._mpf_

    @pytest.mark.parametrize("prec", [53, 200, 1600])
    def test_norm_keeps_what_mpf_sum_drops(self, prec):
        # s = m^2 + n^2 an exact midpoint at prec, rounded to even down to
        # s - 1, with sqrt(s - 1) and sqrt(s + 1) apart at prec; the square
        # of 2^(-prec - 10) lies more than 2 prec below s and lifts the
        # exact sum above the midpoint, so it rounds up, where mpf_sum drops it
        n = math.isqrt(1 << (prec - 1)) | 1
        m = next(m for m in itertools.count(n + 1, 2)
                 if (m * m + n * n).bit_length() == prec + 1 and (m * m + n * n) & 3 == 1
                 and mpf_sqrt(from_man_exp(m * m + n * n - 1, 0), prec, "n")
                 != mpf_sqrt(from_man_exp(m * m + n * n + 1, 0), prec, "n"))
        y = [(_part(0, m, 0), _part(0, n, 0)), _part(0, 1, -prec - 10)]
        with mp.workprec(prec):
            got = gram._norm(y)
            assert got == exact_norm(y)
            assert got != parent_norm([_obj(r) for r in y])._mpf_

    @pytest.mark.parametrize("dps", [15, 120])
    @pytest.mark.parametrize("name, make, dom", RAW_CASES[::3], ids=[c[0] for c in RAW_CASES[::3]])
    def test_residual_and_dual_block_equal_parent(self, monkeypatch, dps, name, make, dom):
        # biorthogonal's identity residual of its C and M, and the full dual
        # block: the confluent and pinned systems' rows and columns span more
        # than 2 prec in places, and mpf_sum drops none of their products
        seen = {}
        residual = gram._identity_residual

        def captured(C, M):
            seen["C"], seen["M"] = C, M
            return residual(C, M)

        monkeypatch.setattr(gram, "_identity_residual", captured)
        blocks = []
        eigh = mp.eigh
        monkeypatch.setattr(mp, "eigh", lambda A, **kw: (blocks.append(A), eigh(A, **kw))[1])
        with mp.workdps(dps):
            seq = make(dps)
            g = gram_matrix(seq, seq.size, dom, PrecisionContext(digits=max(dps, 50),
                                                                 trunc_N=seq.size))
            fam = biorthogonal(g)
            mixed_completeness(g, ([], g.indices))
        with mp.workdps(g.digits_used):
            want = parent_identity_residual(as_matrix(seen["C"]), as_matrix(seen["M"]))
        assert bits(fam.identity_residual) == bits(want)
        assert matrix_bits(blocks[-1]) == matrix_bits(parent_dual_block(g, g.indices))

    @pytest.mark.parametrize("prec", [53, 1600])
    def test_residual_keeps_what_mpf_sum_drops(self, prec):
        # (C M)_00 sums 2^(3 prec) + 1 - 2^(3 prec), exactly 1, and every
        # other entry of C M - I is +-1/2: the residual is 1/2, and 1 where
        # mpf_sum drops the 1 and takes (C M)_00 as 0
        big, half = _part(0, 1, 3 * prec), _part(0, 1, -1)
        C = [[(big, fzero), (fone, fzero), (mpf_neg(big), fzero)],
             [(half, fzero), fzero, fzero],
             [fzero, fzero, half]]
        M = [[fone, fone, fone], [fone, fzero, fzero], [(fone, fzero), fone, fone]]
        with mp.workprec(prec):
            got = gram._identity_residual(C, M)
            lossy = parent_identity_residual(as_matrix(C), as_matrix(M))
        assert got == half
        assert lossy == 1
