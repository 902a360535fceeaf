import ast
import pathlib

import mpmath as mp
import pytest
from conftest import (FIXTURE_NAMES, FIXTURE_TERMS, bits, reference_fitted_separation_constant,
                      reference_nearest_gaps)

import expspan
from expspan import (ConfigError, FlatIndex, Interval, MultiplicitySequence,
                     PrecisionContext, PrecisionError, Sector, SequenceError, fixture,
                     flatten, prefix_table, sequence_from_spec, validate_sequence)


class TestValidate:
    def test_valid_prefix_of_ratio_sequence(self):
        seq = MultiplicitySequence.from_pairs([(3, 2), (9, 4)])
        assert validate_sequence(seq) == []

    def test_duplicate_lambda_reported(self):
        seq = MultiplicitySequence.from_pairs([(1, 1), (1, 1)])
        rules = {v.rule for v in validate_sequence(seq)}
        assert "distinct" in rules

    def test_modulus_order_reported(self):
        seq = MultiplicitySequence.from_pairs([(2, 1), (1, 1)])
        rules = {v.rule for v in validate_sequence(seq)}
        assert "modulus-order" in rules

    def test_zero_lambda_reported(self):
        seq = MultiplicitySequence.from_pairs([(0, 1), (1, 1)])
        assert any(v.rule == "nonzero" for v in validate_sequence(seq))

    def test_every_violation_listed(self):
        seq = MultiplicitySequence.from_pairs([(2, 1), (1, 1), (1, 1)])
        rules = [v.rule for v in validate_sequence(seq)]
        assert "modulus-order" in rules and "distinct" in rules

    def test_arg_tiebreak(self):
        good = MultiplicitySequence.from_pairs([(mp.mpc(1, -1), 1), (mp.mpc(1, 1), 1)])
        assert validate_sequence(good) == []
        bad = MultiplicitySequence.from_pairs([(mp.mpc(1, 1), 1), (mp.mpc(1, -1), 1)])
        assert any(v.rule == "arg-order" for v in validate_sequence(bad))

    @pytest.mark.parametrize("name,terms", [
        ("example_i", 8), ("example_ii", 8), ("example_iii", 8),
        ("example_iv", 8), ("example_v", 6), ("example_vi", 5),
        ("carleson_counterexample", 5),
    ])
    def test_all_fixture_sequences_valid(self, name, terms):
        assert validate_sequence(fixture(name, terms)) == []


class TestFlatten:
    def test_multiplicity_blocks(self):
        seq = MultiplicitySequence.from_pairs([(3, 2), (9, 4)])
        assert flatten(seq, 2) == [FlatIndex(1, 0), FlatIndex(1, 1),
                                   FlatIndex(2, 0), FlatIndex(2, 1),
                                   FlatIndex(2, 2), FlatIndex(2, 3)]
        assert flatten(seq, 1) == [FlatIndex(1, 0), FlatIndex(1, 1)]

    def test_singleton(self):
        seq = MultiplicitySequence.from_pairs([(1, 1)])
        assert flatten(seq, 1) == [FlatIndex(1, 0)]

    def test_out_of_range(self, squares8):
        with pytest.raises(SequenceError):
            flatten(squares8, 9)

    def test_bijection_roundtrip(self):
        seq = fixture("example_v", 5)
        for N in (1, 3, 5):
            idx = flatten(seq, N)
            assert len(idx) == seq.total_multiplicity(N)
            assert len(set(idx)) == len(idx)
            pos = {ix: i for i, ix in enumerate(flatten(seq, N))}
            for i, ix in enumerate(idx):
                assert pos[ix] == i
                assert 1 <= ix.n <= N and 0 <= ix.k < seq.mu(ix.n)


class TestSector:
    def test_half_plane(self):
        s = Sector(0, 1)
        assert s.violation(mp.mpf("0.5")) is None
        assert s.violation(1) is not None  # boundary excluded
        assert s.violation(mp.mpc(2, -5)) is not None

    def test_aperture(self):
        s = Sector(mp.pi / 4, 0)
        assert s.violation(mp.mpc(-1, 0.5)) is None
        assert s.violation(mp.mpc(-1, 1.5)) is not None

    def test_violation_message_names_inequality(self):
        s = Sector(0, 1)
        assert "Re z" in s.violation(2)

    def test_left_shift_stays_inside(self):
        rng = __import__("random").Random(7)
        s = Sector(mp.mpf("0.9"), mp.mpf("0.3"))
        found = 0
        while found < 25:
            z = mp.mpc(rng.uniform(-5, 0.3), rng.uniform(-3, 3))
            if s.violation(z) is None:
                found += 1
                t = mp.mpf(rng.uniform(0, 4))
                assert s.violation(z - t) is None

    def test_eta_range(self):
        with pytest.raises(ValueError):
            Sector(mp.pi / 2, 0)


class TestInterval:
    def test_derived_quantities(self):
        iv = Interval(-1, 3)
        assert iv.sigma == 1 and iv.tau == 2 and iv.length == 4

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Interval(2, 1)


class TestPrecisionContext:
    def test_defaults_valid(self):
        ctx = PrecisionContext()
        assert ctx.digits >= 50

    def test_digit_floor(self):
        with pytest.raises(ValueError):
            PrecisionContext(digits=20)

    def test_truncation_orders_positive(self):
        with pytest.raises(ValueError):
            PrecisionContext(trunc_N=0)


class TestSequenceSpec:
    def test_explicit_roundtrip(self, tmp_path):
        spec = {"kind": "explicit", "entries": [[3, 0, 2], [9, 0, 4]]}
        seq = sequence_from_spec(spec)
        assert seq.size == 2 and seq.mu(2) == 4 and seq.lam(1) == 3

    def test_generator_spec(self):
        seq = sequence_from_spec({"kind": "generator", "name": "example_v",
                                  "terms": 3})
        assert seq.size == 3 and seq.lam(3) == 27 and seq.mu(3) == 8

    def test_generator_params_as_strings(self):
        # a count may be a string of digits and the exponent a decimal string
        for name, params in (("example_v", {"base": "2", "mu_base": "3"}),
                             ("example_iv", {"mu": "3"}),
                             ("power", {"exponent": "1.5", "mu": "2"})):
            given = sequence_from_spec({"kind": "generator", "name": name, "terms": 4,
                                        "params": params})
            want = fixture(name, 4, **{k: float(v) if "." in v else int(v)
                                       for k, v in params.items()})
            assert given.entries == want.entries

    def test_string_entries_keep_precision(self):
        spec = {"kind": "explicit",
                "entries": [["1." + "0" * 40 + "1", "0", 1], ["2", "0", 1]]}
        for dps in (15, 80):  # 15 is the CLI's precision
            with mp.workdps(dps):
                seq = sequence_from_spec(spec)
                assert seq.lam(1) != 1

    def test_from_pairs_stores_an_mpc_unrounded(self):
        with mp.workdps(60):
            lam = 1 + mp.mpc(10) ** -40
        with mp.workdps(15):
            seq = MultiplicitySequence.from_pairs([(lam, 1)])
        assert seq.lam(1) == lam

    def test_bad_spec_rejected(self):
        from expspan import ConfigError
        for spec in ({}, {"kind": "explicit"}, {"kind": "generator"},
                     {"kind": "nope"}):
            with pytest.raises(ConfigError):
                sequence_from_spec(spec)

    def test_paired_fixture_keeps_tiny_gap(self):
        seq = fixture("example_iii", 12)
        # gap e^(-144) must survive in the stored entries
        gap = abs(seq.lam(24) - seq.lam(23))
        assert 0 < gap < mp.mpf("1e-60")


class TestNearestGaps:
    @pytest.mark.parametrize("dps", [15, 60])
    @pytest.mark.parametrize("terms", FIXTURE_TERMS)
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_matches_the_pair_loops_bit_for_bit(self, name, terms, dps):
        with mp.workdps(dps):
            seq = fixture(name, terms)
            N = seq.size
            tab = prefix_table(seq, N)
            assert bits(tab.nearest_gaps()) == bits(reference_nearest_gaps(seq, N))
            for eps in ("0.1", "0.3"):
                assert (bits(tab.separation_disks(eps).fitted_m)
                        == bits(reference_fitted_separation_constant(seq, N, eps)))

    def test_duplicate_is_a_sequence_error(self):
        seq = MultiplicitySequence.from_pairs([(1, 1), (4, 1), (4, 1)])
        with pytest.raises(SequenceError, match="zero gap at n=2: duplicate frequency"):
            prefix_table(seq, 3).nearest_gaps()
        with pytest.raises(SequenceError, match="zero gap at n=2: duplicate frequency"):
            prefix_table(seq, 3).separation_disks("0.1")

    def test_unresolvable_rate_is_precision_error(self):
        # an eps the CLI accepts can still give an exponent eps |lambda_n| / mu_n
        # of whose exponential no digit would be right
        seq = fixture("squares", 8)
        with pytest.raises(PrecisionError) as info:
            prefix_table(seq, 8).separation_disks("1e59")
        assert str(info.value) == ("eps*|lambda_4|/mu_4 must be below 10^60 to be "
                                   "resolved at 60 digits, got 1.6e+60")

    def test_one_frequency_has_no_gap(self):
        seq = fixture("squares", 8)
        for call in (lambda: prefix_table(seq, 1).nearest_gaps(),
                     lambda: prefix_table(seq, 1).separation_disks("0.1")):
            with pytest.raises(ConfigError,
                               match="need N >= 2 frequencies to take a gap, got N=1"):
                call()


def test_library_raises_no_bare_value_error():
    # a broken argument condition is a ConfigError, which main maps to exit 2
    found = []
    for path in sorted(pathlib.Path(expspan.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(f"{path.name}:{node.lineno}")
    assert not found


@pytest.mark.parametrize("x", ["nan", "0", "-1"])
def test_positivity_guards_refuse_nan(x):
    # NaN compares false with 0 either way, so each guard asks x > 0
    from expspan import TaylorDirichletSeries, carleson, lambda_analysis, series
    seq = fixture("squares", 8)
    s = TaylorDirichletSeries(seq=seq, coeffs={FlatIndex(1, 0): mp.mpc(1)},
                              claimed_sector=Sector(0, 1))
    ctx = PrecisionContext(digits=60, trunc_N=4)
    op = carleson.carleson_operator(seq, 4, ctx)
    x = mp.mpf(x)
    tab = prefix_table(seq, 8)
    calls = [
        (lambda: tab.separation_disks(x), "eps must be positive"),
        (lambda: lambda_analysis.counting(tab, x), "t must be positive"),
        (lambda: lambda_analysis.integrated_counting(tab, x), "r must be positive"),
        (lambda: lambda_analysis.gap_check(tab, x), "eps must be positive"),
        (lambda: series.bound_check(s, 1, x), "eps must be positive"),
        (lambda: carleson.class_membership(op, s, Interval(0, 1), x, 4, ctx),
         "delta must be positive"),
    ]
    for call, condition in calls:
        with pytest.raises(ConfigError, match=condition):
            call()
