"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL ...` line (visible with
pytest -s or in the captured output of a failing run).  Criterion 10 is
implemented exactly as stated and is a documented expected failure; see
the half-line test for the measured values.
"""

import random
import time

import mpmath as mp
import pytest

from expspan import (FlatIndex, GrowthGateError, Interval, MomentData,
                     PrecisionContext, ProductKind, apply_to_exponential,
                     carleson_operator, counterexample, eval_product, fixture,
                     lk_circle_minima, lk_eval, lk_function, prefix_table)
from expspan.gram import (biorthogonal, gram_matrix, mixed_completeness,
                          monomial_exp_integrals, recover_coefficients)
from expspan.lambda_analysis import condensation_index
from expspan.moment import solve


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def gram200():
    """Shared fixture system: squares, (0,1), N=6, 200 digits."""
    seq = fixture("squares", 12)
    ctx = PrecisionContext(digits=200, trunc_N=6)
    g = gram_matrix(seq, 6, Interval(0, 1), ctx)
    return seq, ctx, g, biorthogonal(g)


def test_criterion_01_biorthogonality():
    t0 = time.monotonic()
    seq = fixture("squares", 12)
    ctx = PrecisionContext(digits=200, trunc_N=6)
    g = gram_matrix(seq, 6, Interval(0, 1), ctx)
    fam = biorthogonal(g)
    # <r_a, e_b> entries are exactly the rows of coeffs * Gram
    resid = fam.identity_residual
    dt = time.monotonic() - t0
    ok = resid < mp.mpf("1e-50") and dt < 30
    assert report(1, ok,
                  f"max |<r,e> - delta| = {mp.nstr(resid, 3)} < 1e-50, "
                  f"runtime {dt:.2f}s < 30s")


def test_criterion_02_norm_distance_identity(gram200):
    seq, ctx, g, fam = gram200
    worst = max(abs(nv * dv - 1) for nv, dv in zip(fam.norms, fam.distances))
    ok = worst < mp.mpf("1e-40")
    assert report(2, ok, f"max |norm*distance - 1| = {mp.nstr(worst, 3)} < 1e-40")


def test_criterion_03_distance_exponent_trend():
    t0 = time.monotonic()
    seq = fixture("squares", 8)
    ctx = PrecisionContext(digits=200, trunc_N=8)
    g = gram_matrix(seq, 8, Interval(0, 1), ctx)
    fam = biorthogonal(g)
    with mp.workdps(g.digits_used):
        ratios = [mp.log(fam.distances[i]) / mp.re(seq.lam(ix.n))
                  for i, ix in enumerate(g.indices)]
    increasing = all(ratios[i + 1] > ratios[i] for i in range(2, 7))
    window = mp.mpf("0.6") <= ratios[5] <= 1
    dt = time.monotonic() - t0
    ok = increasing and window and dt < 120
    assert report(3, ok,
                  f"log D_n/lambda_n increasing for n>=3, value at n=6 is "
                  f"{mp.nstr(ratios[5], 4)} in [0.6, 1], runtime {dt:.2f}s < 120s")


def test_criterion_04_coefficient_recovery(gram200):
    seq, ctx, g, fam = gram200
    rng = random.Random(101)
    worst = mp.mpf(0)
    with mp.workdps(g.digits_used):
        for _ in range(10):
            c0 = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(g.dim)]
            moments = [sum(c0[b] * g.matrix[b, a] for b in range(g.dim))
                       for a in range(g.dim)]
            rec = recover_coefficients(g, moments)
            worst = max(worst, max(abs(x - y) for x, y in zip(rec, c0)))
    ok = worst < mp.mpf("1e-30")
    assert report(4, ok, f"10 random round-trips, max error {mp.nstr(worst, 3)} < 1e-30")


def test_criterion_05_moment_solver():
    seq = fixture("squares", 12)
    ctx = PrecisionContext(digits=200, trunc_N=6)
    iv = Interval(0, 1)
    good = MomentData(values={FlatIndex(n, 0): mp.exp(mp.mpf("0.5") * seq.lam(n))
                              for n in range(1, 7)})
    sol = solve(good, seq, 6, iv, ctx)
    gate_ok = sol.gate.passed and abs(sol.gate.a - mp.mpf("0.5")) < mp.mpf("0.01")
    resid_ok = sol.residual_max < mp.mpf("1e-40")
    bad = MomentData(values={FlatIndex(n, 0): mp.exp(seq.lam(n))
                             for n in range(1, 7)})
    rejected = False
    try:
        solve(bad, seq, 6, iv, ctx)
    except GrowthGateError:
        rejected = True
    ok = gate_ok and resid_ok and rejected
    assert report(5, ok,
                  f"gate a = {mp.nstr(sol.gate.a, 4)} ~ 0.5, residual "
                  f"{mp.nstr(sol.residual_max, 3)} < 1e-40, e^(lambda_n) rejected: {rejected}")


def test_criterion_06_operator_annihilation():
    ctx = PrecisionContext(digits=200, trunc_N=6)
    floor = mp.mpf(10) ** (-ctx.digits + 20)
    worst = mp.mpf(0)
    grid = [mp.mpf(1) / 40 + mp.mpf(i) * mp.mpf("0.9") / 19 for i in range(20)]
    for seq, N in ((fixture("squares", 6), 6), (fixture("example_v", 3), 3)):
        op = carleson_operator(seq, N, ctx)
        for n in range(1, N + 1):
            for row in apply_to_exponential(op, seq.lam(n), range(seq.mu(n)), grid, ctx):
                for v in row:
                    worst = max(worst, abs(v))
    ann_ok = worst < floor
    # eigen-identity at random off-spectrum points
    seq = fixture("squares", 6)
    op = carleson_operator(seq, 6, ctx)
    rng = random.Random(7)
    eig_worst = mp.mpf(0)
    with mp.workdps(ctx.digits):
        for _ in range(10):
            lam = mp.mpc(rng.uniform(-10, 10), rng.uniform(-10, 10))
            x = mp.mpf(rng.uniform(0, 1))
            [[got]] = apply_to_exponential(op, lam, [0], [x], ctx)
            want = eval_product(ProductKind.F_PLAIN, seq, 6, lam) * mp.exp(lam * x)
            eig_worst = max(eig_worst, abs(got - want))
    eig_ok = eig_worst < mp.mpf(10) ** (-ctx.digits // 2)
    ok = ann_ok and eig_ok
    assert report(6, ok,
                  f"annihilation sup {mp.nstr(worst, 3)} < 1e-{ctx.digits - 20}, "
                  f"eigen-identity dev {mp.nstr(eig_worst, 3)} < 1e-{ctx.digits // 2}")


def test_criterion_07_counterexample_dichotomy():
    t0 = time.monotonic()
    ctx = PrecisionContext(digits=120, trunc_N=6)
    rep = counterexample(5, ctx, samples=[mp.mpc(-1)])
    grouped3 = rep.rows[2].grouped_abs[0]
    ungrouped5 = rep.rows[4].ungrouped_abs[0]
    dt = time.monotonic() - t0
    ok = (grouped3 < mp.mpf("1e-20") and ungrouped5 > mp.mpf("1e40")
          and rep.grouped_decreasing and rep.ungrouped_increasing and dt < 10)
    assert report(7, ok,
                  f"grouped n=3 at z=-1: {mp.nstr(grouped3, 3)} < 1e-20, "
                  f"ungrouped n=5: {mp.nstr(ungrouped5, 3)} > 1e40, runtime {dt:.2f}s < 10s")


def test_criterion_08_condensation_discrimination():
    c_ii = condensation_index(prefix_table(fixture("example_ii", 12), 24)).chat
    c_iii = condensation_index(prefix_table(fixture("example_iii", 12), 24)).chat
    ok = c_ii <= mp.mpf("0.2") and c_iii >= mp.mpf("0.5")
    assert report(8, ok,
                  f"chat(example_ii) = {mp.nstr(c_ii, 4)} <= 0.2, "
                  f"chat(example_iii) = {mp.nstr(c_iii, 4)} >= 0.5")


def test_criterion_09_windowed_product_lower_bound():
    seq = fixture("power", 8, exponent=1.5)
    ctx = PrecisionContext(digits=80, trunc_N=8)
    lk = lk_function(seq, Interval(0, 1), ctx)
    with mp.workdps(ctx.digits):
        zeros_exact = all(lk_eval(lk, 1j * seq.lam(n)) == 0
                          for n in range(1, lk.trunc_N + 1))
        minima = lk_circle_minima(lk, "0.1", [1, 2, 3, 4])
        consts = [m.fitted_const for m in minima]
        positive = all(c > 0 for c in consts)
        spread = max(consts) / min(consts)
    ok = zeros_exact and positive and spread < 10
    assert report(9, ok,
                  f"G(i lambda_n) = 0 exactly for n <= {lk.trunc_N}; circle "
                  f"constants positive, spread {mp.nstr(spread, 4)} < 10 over n=1..4")


@pytest.mark.xfail(strict=True,
                   reason="threshold 0.1 at n >= 4 is unattainable for squares: "
                          "|log D_n|/lambda_n ~ 2/n (~0.46 at n=4) at every "
                          "truncation; the ratio only dips below 0.1 near n=20. "
                          "Kept at the stated tolerance; see decisions ledger.")
def test_criterion_10_half_line_distances():
    seq = fixture("squares", 12)
    ctx = PrecisionContext(digits=200, trunc_N=12)
    g = gram_matrix(seq, 12, None, ctx)
    fam = biorthogonal(g)
    with mp.workdps(g.digits_used):
        ratios = [abs(mp.log(fam.distances[i])) / mp.re(seq.lam(ix.n))
                  for i, ix in enumerate(g.indices)]
    tail = ratios[3:]
    worst = max(tail)
    ok = worst < mp.mpf("0.1")
    report(10, ok,
           f"max |log D_n|/lambda_n for n>=4 is {mp.nstr(worst, 4)} "
           f"(ratios n=4..12: {[mp.nstr(r, 3) for r in tail]})")
    assert ok


def test_criterion_10_half_line_trend_shadow():
    # the testable finite-scale content: the half-line ratio decreases
    # toward zero along the prefix and the distances sit below the norms
    seq = fixture("squares", 12)
    ctx = PrecisionContext(digits=200, trunc_N=12)
    g = gram_matrix(seq, 12, None, ctx)
    fam = biorthogonal(g)
    with mp.workdps(g.digits_used):
        ratios = [abs(mp.log(fam.distances[i])) / mp.re(seq.lam(ix.n))
                  for i, ix in enumerate(g.indices)]
        norm_ok = all(fam.distances[i] <= mp.sqrt(mp.re(g.matrix[i, i]))
                      for i in range(g.dim))
    decreasing = all(ratios[i + 1] < ratios[i] for i in range(1, 11))
    ok = decreasing and norm_ok and ratios[-1] < mp.mpf("0.1")
    assert report(10, ok,
                  "trend shadow: ratios decrease along the prefix "
                  f"({mp.nstr(ratios[3], 3)} at n=4 down to {mp.nstr(ratios[-1], 3)} "
                  "at n=12) and distances stay below element norms")


def test_criterion_11_hereditary_completeness(gram200):
    seq, ctx, g, fam = gram200
    rng = random.Random(271)
    with mp.workdps(g.digits_used):
        gram_norm = max(mp.eigh(g.matrix, eigvals_only=True))
        threshold = mp.mpf(10) ** (-ctx.digits // 2) * gram_norm
        worst = mp.mpf("inf")
        for _ in range(20):
            n2 = [ix for ix in g.indices if rng.random() < 0.5]
            n1 = [ix for ix in g.indices if ix not in n2]
            rep = mixed_completeness(g, (n1, n2))
            worst = min(worst, rep.min_singular)
    ok = worst > threshold
    assert report(11, ok,
                  f"20 random partitions: min singular value {mp.nstr(worst, 3)} "
                  f"> 1e-100 * ||Gram|| = {mp.nstr(threshold, 3)}")


def test_criterion_12_integral_oracle():
    digits = 60
    rng = random.Random(999)
    worst = mp.mpf(0)
    with mp.workdps(digits + 15):
        for _ in range(25):
            p = rng.randrange(0, 7)
            a = mp.mpc(rng.uniform(-8, 8), rng.uniform(-8, 8))
            lo = mp.mpf(rng.uniform(-2, 1))
            hi = lo + mp.mpf(rng.uniform(0.2, 2.5))
            dom = Interval(lo, hi)
            got = monomial_exp_integrals(p, a, dom)[p]
            want = mp.quad(lambda t: t ** p * mp.exp(a * t), [lo, hi])
            worst = max(worst, abs(got - want))
    ok = worst < mp.mpf(10) ** (-digits // 2)
    assert report(12, ok,
                  f"25 random (p, a, interval) triples: max |closed form - "
                  f"quadrature| = {mp.nstr(worst, 3)} < 1e-{digits // 2}")
