import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expspan
from conftest import halfline_distance
from expspan import (Interval, PrecisionContext, ProductKind, eval_product,
                     load_sequence, lk_eval, lk_function)
from expspan.cli import build_parser, main


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"kind": "generator", "name": "squares", "terms": 8}))
    return str(path)


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"kind": "explicit",
                                "entries": [[3, 0, 2], [9, 0, 4]]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBasicCommands:
    def test_fixtures_listing(self, capsys):
        code, out = run(capsys, "fixtures")
        assert code == 0
        names = {f["name"] for f in json.loads(out)["fixtures"]}
        assert {"example_i", "example_v", "carleson_counterexample"} <= names

    def test_validate(self, capsys, pairs_file):
        code, out = run(capsys, "validate", pairs_file)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_product_eval(self, capsys, seq_file):
        code, out = run(capsys, "product", "eval", "--seq", seq_file,
                        "--N", "2", "--kind", "F", "--z", "2")
        assert code == 0
        obj = json.loads(out)
        assert abs(float(obj["value_re"]) + 0.5) < 1e-25
        assert float(obj["value_im"]) == 0

    def test_analyze_squares(self, capsys, seq_file, tmp_path):
        csv_path = str(tmp_path / "ratios.csv")
        code, out = run(capsys, "analyze", seq_file, "--N", "8",
                        "--eps", "0.1", "--csv", csv_path)
        assert code == 0
        obj = json.loads(out)
        assert obj["condition_a"]["verdict"] == "converging"
        assert obj["condition_b"]["passed"] is True
        assert os.path.exists(csv_path)
        header = open(csv_path).readline().strip().split(",")
        assert header == ["n", "geom_i_ratio", "geom_ii_ratio", "necessary_ratio"]

    def test_lk_eval(self, capsys, seq_file):
        code, out = run(capsys, "lk", "eval", "--seq", seq_file, "--N", "6",
                        "--interval", "0,1", "--z", "0")
        assert code == 0
        obj = json.loads(out)
        assert float(obj["value_re"]) == 1.0

    def test_gram_distance(self, capsys, seq_file, tmp_path):
        csv_path = str(tmp_path / "dist.csv")
        code, out = run(capsys, "gram", "distance", "--seq", seq_file,
                        "--N", "6", "--interval", "0,1", "--digits", "120",
                        "--csv", csv_path)
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 6
        header = open(csv_path).readline().strip().split(",")
        assert header == ["n", "k", "re_lambda", "distance",
                          "log_distance_over_re_lambda", "dual_norm"]

    @pytest.mark.parametrize("argv", [["distance", "--interval", "0,1"],
                                      ["distance", "--half-line"],
                                      ["mixed", "--interval", "0,1"]],
                             ids=["bounded", "half-line", "mixed"])
    def test_gram_distance_needs_no_full_inverse(self, capsys, seq_file, monkeypatch,
                                                 argv):
        def refuse(*args):
            raise AssertionError(f"gram {argv[0]} computed the full inverse or assembled M")
        monkeypatch.setattr("expspan.gram.biorthogonal", refuse)
        if argv[0] == "distance":
            # a mu = 1 Gram is factored from its generators, and no distance reads M
            monkeypatch.setattr("expspan.gram._assemble", refuse)
        code, out = run(capsys, "gram", argv[0], "--seq", seq_file, "--N", "4",
                        "--digits", "120", *argv[1:])
        assert code == 0
        if argv[0] == "mixed":
            parts = json.loads(out)["partitions"]
            assert len(parts) == 5 and all(float(p["min_singular"]) > 0 for p in parts)
            return
        rows = json.loads(out)["distances"]
        assert len(rows) == 4
        assert all(float(r["distance"]) * float(r["dual_norm"]) == pytest.approx(1)
                   for r in rows)

    def test_moment_solve(self, capsys, seq_file, tmp_path):
        moments = {"values": [[n, 0, str(mp.exp(mp.mpf("0.5") * n * n)), "0"]
                              for n in range(1, 7)]}
        mpath = tmp_path / "moments.json"
        mpath.write_text(json.dumps(moments))
        code, out = run(capsys, "moment", "solve", "--seq", seq_file,
                        "--N", "6", "--interval", "0,1", "--digits", "200",
                        "--data", str(mpath))
        assert code == 0
        obj = json.loads(out)
        assert obj["solved"] is True and obj["forced"] is False

    def test_carleson_counterexample(self, capsys):
        code, out = run(capsys, "carleson", "counterexample", "--nmax", "4",
                        "--digits", "80")
        assert code == 0
        obj = json.loads(out)
        assert obj["grouped_decreasing"] and obj["ungrouped_increasing"]

    @pytest.fixture
    def series_file(self, tmp_path):
        rows = [[n, 0, str(mp.exp(-mp.mpf(n * n))), "0"] for n in range(1, 9)]
        obj = {"seq": {"kind": "generator", "name": "squares", "terms": 8},
               "coeffs": rows, "sector": {"eta": "0", "beta": "1"}}
        path = tmp_path / "series.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_series_eval_and_abscissa(self, capsys, series_file):
        code, out = run(capsys, "series", "eval", "--series", series_file,
                        "--z", "0", "--N", "8")
        assert code == 0
        assert abs(float(json.loads(out)["value_re"]) - 0.3863186) < 1e-6
        code, out = run(capsys, "series", "abscissa", "--series", series_file)
        assert code == 0
        assert abs(float(json.loads(out)["a"]) + 1) < 1e-9
        code, out = run(capsys, "series", "eval", "--series", series_file,
                        "--z", "2", "--N", "8")
        assert code == 5  # outside the claimed sector

    def test_carleson_apply_and_residual(self, capsys, seq_file, series_file):
        code, out = run(capsys, "carleson", "apply", "--seq", seq_file,
                        "--N", "6", "--lam", "1", "--k", "0", "--x", "0.5",
                        "--digits", "120")
        assert code == 0
        assert abs(float(json.loads(out)["value_re"])) < 1e-80
        code, out = run(capsys, "carleson", "residual", "--seq", seq_file,
                        "--N", "8", "--series", series_file,
                        "--grid", "0.1:0.9:10", "--digits", "120")
        assert code == 0
        assert float(json.loads(out)["sup_residual"]) < 1e-30

    def test_carleson_apply_huge_k(self, seq_file):
        # F^(j)(lambda)/j! vanishes past the degree 4, so k = 10^8 sums five terms;
        # oracle: e^(x) sum_j k!/(k-j)! x^(k-j) F^(j)(1)/j!, F's Taylor
        # coefficients at 1 by mpmath's numerical differentiation.  The value
        # is printed from its 53-bit rounding (ROADMAP item 7), so 14 digits
        # are compared
        k, x = 100000000, mp.mpf("0.5")
        done = console_script(["carleson", "apply", "--seq", seq_file, "--N", "4",
                               "--lam", "1", "--x", "0.5", "--k", str(k)])
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout)
        seq = load_sequence(seq_file)
        with mp.workdps(80):
            taylor = mp.taylor(lambda z: eval_product(ProductKind.F_PLAIN, seq, 4, z), 1, 4)
            want = mp.exp(x) * sum(mp.ff(k, j) * x ** (k - j) * d
                                   for j, d in enumerate(taylor))
            assert abs(mp.mpf(got["value_re"]) / want - 1) < mp.mpf("1e-14")
        assert got["value_im"] == "0.0"


def console_script(argv):
    """The CLI in a fresh process, as the console script runs it at mpmath's
    15 digits; the timeout turns a hang into a failure."""
    src = os.path.dirname(os.path.dirname(expspan.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "expspan.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)


class TestExitCodes:
    @staticmethod
    def _each_input(seq_file):
        """(argv reading `path` as the input, the name the error gives that input)."""
        return [(lambda path: ["analyze", path], "sequence file"),
                (lambda path: ["validate", path], "sequence file"),
                (lambda path: ["series", "abscissa", "--series", path], "series file"),
                (lambda path: ["moment", "solve", "--seq", seq_file, "--N", "6",
                               "--interval", "0,1", "--data", path], "moments file"),
                (lambda path: ["run", path], "config")]

    def test_missing_file_is_config_error(self, capsys, seq_file):
        path = "/nonexistent/input.json"
        for argv, what in self._each_input(seq_file):
            code = main(argv(path))
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith(f"error: cannot read {what} {path}: ")

    def test_malformed_json_is_config_error(self, capsys, tmp_path, seq_file):
        bad = tmp_path / "bad.json"
        for text in ("{not json", "\udcff"):
            bad.write_bytes(text.encode("utf-8", "surrogateescape"))
            for argv, what in self._each_input(seq_file):
                code = main(argv(str(bad)))
                err = capsys.readouterr().err
                assert code == 2
                assert err.startswith(f"error: {what} {bad} is not valid JSON: ")

    def test_bad_complex_is_config_error(self, capsys, seq_file):
        code, _ = run(capsys, "product", "eval", "--seq", seq_file,
                      "--N", "2", "--kind", "F", "--z", "nonsense")
        assert code == 2

    def test_domain_violation_code(self, capsys, seq_file):
        code, _ = run(capsys, "gram", "build", "--seq", seq_file,
                      "--N", "4", "--half-line", "--interval", "0,1")
        assert code == 0  # squares are fine on the half-line
        neg = {"kind": "explicit", "entries": [[-1, 1, 1], [2, 0, 1]]}
        import json as _json
        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            _json.dump(neg, fh)
            path = fh.name
        code, _ = run(capsys, "gram", "build", "--seq", path,
                      "--N", "2", "--half-line", "--interval", "0,1")
        assert code == 5

    def test_cap_exceeded_code(self, capsys, seq_file, monkeypatch):
        monkeypatch.setenv("EXPSPAN_MAX_DIM", "2")
        code, _ = run(capsys, "gram", "build", "--seq", seq_file,
                      "--N", "6", "--interval", "0,1")
        assert code == 4

    def test_precision_exhaustion_code(self, capsys, seq_file):
        code, _ = run(capsys, "gram", "build", "--seq", seq_file,
                      "--N", "8", "--interval", "0,3", "--digits", "50")
        assert code == 3

    @pytest.mark.parametrize("argv, condition", [
        (["product", "eval", "--seq", "{seq}", "--N", "2", "--z=1+xi"],
         "--z must be a number, got '1+xi'"),
        (["carleson", "residual", "--seq", "{seq}", "--N", "6",
          "--series", "{series}", "--grid", "0:1"], "expected 'lo:hi:steps'"),
        (["carleson", "residual", "--seq", "{seq}", "--N", "6",
          "--series", "{series}", "--grid", "0:1:1"], "--grid steps must be >= 2, got 1"),
        (["carleson", "residual", "--seq", "{seq}", "--N", "6",
          "--series", "{series}", "--grid", "a:1:3"],
         "--grid endpoint must be a real number, got 'a'"),
        (["run", "{list_config}"], "config must be a JSON object"),
        (["run", "{six_config}"], "config 'N' must be an integer"),
        (["analyze", "{seq}", "--N", "3"], "need N >= 6"),
        (["gram", "build", "--seq", "{seq}", "--N", "3", "--digits", "10"],
         "digits=10 below floor 50"),
        (["lk", "eval", "--seq", "{seq}", "--N", "3", "--interval", "0,1", "--z", "1",
          "--digits", "20"], "digits=20 below floor 50"),
        (["run", "{low_digits_config}"], "digits=10 below floor 50"),
        (["lk", "lowerbound", "--seq", "{seq}", "--N", "4", "--interval", "0,1",
          "--eps", "abc"], "--eps must be a real number, got 'abc'"),
        (["series", "bound", "--series", "{series}", "--beta", "x"],
         "--beta must be a real number, got 'x'"),
        (["series", "bound", "--series", "{series}", "--beta", "1", "--eps", "1+2j"],
         "--eps must be a real number, got '1+2j'"),
        (["carleson", "apply", "--seq", "{seq}", "--N", "3", "--lam", "1", "--x", "abc"],
         "--x must be a real number, got 'abc'"),
        (["analyze", "{seq}", "--eps", "abc"], "--eps must be a real number, got 'abc'"),
        (["run", "{eps_config}"], "config 'eps' must be a real number, got 'abc'"),
        (["gram", "build", "--seq", "{seq}", "--N", "1", "--dps", "0"],
         "--dps must be >= 1, got 0"),
        (["carleson", "apply", "--seq", "{seq}", "--N", "3", "--lam", "1", "--k", "-1"],
         "--k must be >= 0, got -1"),
        (["carleson", "counterexample", "--nmax", "0"], "--nmax must be >= 2, got 0"),
        (["carleson", "counterexample", "--nmax", "1"], "--nmax must be >= 2, got 1"),
        (["run", "{nmax_config}"], "config 'nmax' must be >= 2, got 1"),
        # argument conditions that the library checks
        (["series", "abscissa", "--series", "{series}", "--N", "3"], "need N >= 6"),
        (["series", "bound", "--series", "{series}", "--beta", "1", "--eps", "0"],
         "eps must be positive"),
        (["lk", "lowerbound", "--seq", "{seq}", "--N", "8", "--interval", "0,1",
          "--eps", "-1"], "eps must be positive"),
        (["lk", "lowerbound", "--seq", "{seq}", "--N", "1", "--interval", "0,1"],
         "need N >= 2 frequencies to take a gap, got N=1"),
        (["moment", "solve", "--seq", "{seq}", "--N", "3", "--interval", "0,1",
          "--data", "{moments}"], "need data at at least 4 frequencies"),
        (["series", "eval", "--series", "{bad_index_series}", "--z", "0"],
         "coefficient index FlatIndex(n=1, k=1) outside multiplicity bounds"),
        (["run", "{moment_config}"], "need data at at least 4 frequencies"),
        (["run", "{series_config}"], "need N >= 6"),
        # a non-finite real is refused where it is parsed
        (["analyze", "{seq}", "--N", "8", "--eps=nan"], "--eps must be finite, got 'nan'"),
        (["analyze", "{seq}", "--N", "8", "--eps=inf"], "--eps must be finite, got 'inf'"),
        (["lk", "lowerbound", "--seq", "{seq}", "--N", "8", "--interval", "0,1",
          "--eps=nan"], "--eps must be finite, got 'nan'"),
        (["lk", "lowerbound", "--seq", "{seq}", "--N", "8", "--interval", "0,1",
          "--eps=-inf"], "--eps must be finite, got '-inf'"),
        (["series", "bound", "--series", "{series}", "--beta", "1", "--eps=nan"],
         "--eps must be finite, got 'nan'"),
        (["series", "bound", "--series", "{series}", "--beta", "1", "--eps=inf"],
         "--eps must be finite, got 'inf'"),
        (["series", "bound", "--series", "{series}", "--beta=nan"],
         "--beta must be finite, got 'nan'"),
        # 0 is a value given, not an option left out
        (["gram", "distance", "--seq", "{seq}", "--N", "4", "--digits", "0"],
         "digits=0 below floor 50"),
        (["series", "eval", "--series", "{series}", "--z", "0", "--digits", "0"],
         "digits=0 below floor 50"),
        (["lk", "eval", "--seq", "{seq}", "--N", "0", "--interval", "0,1", "--z", "1"],
         "--N must be >= 1, got 0"),
        (["analyze", "{seq}", "--N", "0"], "--N must be >= 1, got 0"),
        (["analyze", "{seq}", "--N", "-1"], "--N must be >= 1, got -1"),
        # a count below 1 would print an empty result
        (["lk", "lowerbound", "--seq", "{seq}", "--N", "8", "--interval", "0,1",
          "--circles", "-3"], "--circles must be >= 1, got -3"),
        (["lk", "lowerbound", "--seq", "{seq}", "--N", "8", "--interval", "0,1",
          "--circles", "0"], "--circles must be >= 1, got 0"),
        (["gram", "mixed", "--seq", "{seq}", "--N", "4", "--partitions", "-1"],
         "--partitions must be >= 1, got -1"),
        # a digit printed past the working digits is not right
        (["gram", "distance", "--seq", "{seq}", "--N", "4", "--dps", "121"],
         "--dps must be <= the working digits 120, got 121"),
        (["product", "eval", "--seq", "{seq}", "--z", "1+1i", "--digits", "60",
          "--dps", "1000"], "--dps must be <= the working digits 60, got 1000"),
        (["series", "eval", "--series", "{series}", "--z", "0", "--digits", "60",
          "--dps", "61"], "--dps must be <= the working digits 60, got 61"),
        (["carleson", "counterexample", "--dps", "121"],
         "--dps must be <= the working digits 120, got 121"),
        # an interval that parses names the condition it violates
        (["gram", "distance", "--seq", "{seq}", "--N", "4", "--interval", "1,1"],
         "need gamma < beta, got (1.0, 1.0)"),
        (["gram", "distance", "--seq", "{seq}", "--N", "4", "--interval", "2,1"],
         "need gamma < beta, got (2.0, 1.0)"),
        (["gram", "distance", "--seq", "{seq}", "--N", "4", "--interval", "0,nan"],
         "interval endpoint must be finite"),
        (["gram", "distance", "--seq", "{seq}", "--N", "4", "--interval", "0,inf"],
         "interval endpoint must be finite"),
        (["run", "{interval_config}"], "need gamma < beta, got (1.0, 0.0)"),
        # a series file's sector is read by the rule of the number options
        (["series", "eval", "--series", "{nan_beta_series}", "--z", "-1"],
         "sector 'beta' must be finite, got 'nan'"),
        (["series", "bound", "--series", "{inf_beta_series}", "--beta", "1"],
         "sector 'beta' must be finite, got 'inf'"),
        (["series", "eval", "--series", "{nan_eta_series}", "--z", "-1"],
         "sector 'eta' must be finite, got 'nan'"),
        # a number in an input file that is not finite is refused where it is read
        (["validate", "{nan_entry_seq}"], "sequence entry 2 must be finite, got 'nan', '0'"),
        (["series", "eval", "--series", "{nan_coeff_series}", "--z", "-1"],
         "coefficient (2, 0) must be finite, got 'nan', '0'"),
        (["moment", "solve", "--seq", "{seq}", "--N", "6", "--interval", "0,1",
          "--data", "{nan_moments}"], "coefficient (2, 0) must be finite, got 'nan', '0'"),
        # int() would truncate a float count and read a bool as 0 or 1
        (["run", "{float_N_config}"], "config 'N' must be an integer, got 6.7"),
        (["run", "{zero_N_config}"], "config 'N' must be >= 1, got 0"),
        (["run", "{negative_N_config}"], "config 'N' must be >= 1, got -1"),
        (["analyze", "{float_terms_seq}"], "generator 'terms' must be an integer, got 8.7"),
        (["analyze", "{bool_terms_seq}"], "generator 'terms' must be an integer, got True"),
        (["validate", "{float_mu_seq}"], "multiplicity must be an integer, got 2.5"),
        # a series or moments row's n and k are counts, and each (n, k) is given once
        (["series", "eval", "--series", "{float_n_series}", "--z", "-1"],
         "row index n must be an integer, got 1.5"),
        (["series", "eval", "--series", "{bool_n_series}", "--z", "-1"],
         "row index n must be an integer, got True"),
        (["series", "eval", "--series", "{zero_n_series}", "--z", "-1"],
         "row index n must be >= 1, got 0"),
        (["series", "eval", "--series", "{repeated_series}", "--z", "-1"],
         "coefficient (1, 0) is given twice"),
        (["moment", "solve", "--seq", "{seq}", "--N", "6", "--interval", "0,1",
          "--data", "{float_k_moments}"], "row power k must be an integer, got 0.5"),
        (["moment", "solve", "--seq", "{seq}", "--N", "6", "--interval", "0,1",
          "--data", "{negative_k_moments}"], "row power k must be >= 0, got -1"),
        (["moment", "solve", "--seq", "{seq}", "--N", "6", "--interval", "0,1",
          "--data", "{repeated_moments}"], "coefficient (2, 0) is given twice"),
        # a generator's params are read by the rules of counts and numbers
        (["validate", "{float_mu_param_seq}"], "generator param 'mu' must be an integer, got 2.5"),
        (["validate", "{bool_base_param_seq}"],
         "generator param 'base' must be an integer, got True"),
        (["validate", "{string_mu_base_param_seq}"],
         "generator param 'mu_base' must be an integer, got 'two'"),
        (["validate", "{nan_exponent_seq}"], "generator param 'exponent' must be finite"),
        (["analyze", "{word_exponent_seq}"],
         "generator param 'exponent' must be a real number, got 'two'"),
        (["validate", "{list_params_seq}"], "generator 'params' must be an object, got [2]"),
        # a generator declares its params, and a term count is at least 1
        (["validate", "{unknown_param_seq}"],
         "generator 'power' has no param 'bogus'; known: exponent, mu"),
        (["validate", "{zero_terms_seq}"], "generator 'terms' must be >= 1, got 0"),
        (["carleson", "residual", "--seq", "{seq}", "--N", "6",
          "--series", "{series}", "--grid", "0:1:x"], "--grid steps must be an integer, got 'x'"),
    ], ids=["complex", "grid-fields", "grid-steps", "grid-number", "config-list",
            "config-int", "analyze-N", "gram-digits", "lk-digits", "config-digits",
            "lk-eps", "series-beta", "series-eps", "carleson-x", "analyze-eps",
            "config-eps", "dps-zero", "carleson-k", "nmax-zero", "nmax-one",
            "config-nmax", "abscissa-N", "bound-eps", "lk-eps-negative", "lk-N-one",
            "moment-N", "series-index", "config-moment-N", "config-series-N",
            "analyze-eps-nan", "analyze-eps-inf", "lk-eps-nan", "lk-eps-minus-inf",
            "bound-eps-nan", "bound-eps-inf", "bound-beta-nan", "gram-digits-zero",
            "series-digits-zero", "lk-N-zero", "analyze-N-zero", "analyze-N-negative",
            "lk-circles-negative", "lk-circles-zero",
            "gram-partitions-negative", "gram-dps-above-digits",
            "product-dps-above-digits", "series-dps-above-digits",
            "counterexample-dps-above-digits", "interval-empty", "interval-reversed",
            "interval-nan", "interval-inf", "config-interval-reversed",
            "series-sector-beta-nan", "series-sector-beta-inf", "series-sector-eta-nan",
            "sequence-entry-nan", "series-coeff-nan", "moment-row-nan", "config-N-float",
            "config-N-zero", "config-N-negative", "sequence-terms-float", "sequence-terms-bool", "sequence-mu-float",
            "series-row-n-float", "series-row-n-bool", "series-row-n-zero",
            "series-row-repeated", "moment-row-k-float", "moment-row-k-negative",
            "moment-row-repeated", "param-mu-float", "param-base-bool",
            "param-mu-base-string", "param-exponent-nan", "param-exponent-word",
            "params-list", "param-unknown", "sequence-terms-zero", "grid-steps-word"])
    def test_malformed_input_is_config_error(self, capsys, tmp_path, seq_file,
                                             argv, condition):
        squares = {"kind": "generator", "name": "squares", "terms": 8}
        squares4 = {"kind": "generator", "name": "squares", "terms": 4}
        rows = [[n, 0, f"1e-{n * n}", "0"] for n in range(1, 9)]
        sector = {"eta": "0", "beta": "1"}
        bundle = str(tmp_path / "bundle")
        files = {"series": {"seq": squares, "sector": sector, "coeffs": rows},
                 "bad_index_series": {"seq": squares, "sector": sector,
                                      "coeffs": [[1, 1, "1", "0"]] + rows[1:]},
                 "moments": rows,
                 "list_config": [{"kind": "analyze", "seq": squares}],
                 "six_config": {"kind": "analyze", "seq": squares, "N": "six"},
                 "low_digits_config": {"kind": "analyze", "seq": squares, "digits": 10},
                 "eps_config": {"kind": "analyze", "seq": squares, "eps": "abc"},
                 "nmax_config": {"kind": "counterexample", "nmax": 1},
                 "interval_config": {"kind": "gram", "seq": squares, "N": 4,
                                     "interval": "1,0", "out": bundle},
                 "moment_config": {"kind": "moment", "seq": squares, "N": 3,
                                   "interval": "0,1", "data": rows, "out": bundle},
                 "series_config": {"kind": "series", "seq": squares4, "out": bundle,
                                   "series": {"seq": squares4, "sector": sector,
                                              "coeffs": rows[:4]}},
                 "nan_beta_series": {"seq": squares, "sector": {"eta": "0", "beta": "nan"},
                                     "coeffs": rows},
                 "inf_beta_series": {"seq": squares, "sector": {"eta": "0", "beta": "inf"},
                                     "coeffs": rows},
                 "nan_eta_series": {"seq": squares, "sector": {"eta": "nan", "beta": "1"},
                                    "coeffs": rows},
                 "nan_entry_seq": {"kind": "explicit",
                                   "entries": [[1, 0, 1], ["nan", "0", 1], [9, 0, 1]]},
                 "nan_coeff_series": {"seq": squares, "sector": sector,
                                      "coeffs": [rows[0], [2, 0, "nan", "0"]] + rows[2:]},
                 "nan_moments": [rows[0], [2, 0, "nan", "0"]] + rows[2:],
                 "float_N_config": {"kind": "analyze", "seq": squares, "N": 6.7,
                                    "out": bundle},
                 "zero_N_config": {"kind": "gram", "seq": squares, "N": 0, "out": bundle},
                 "negative_N_config": {"kind": "analyze", "seq": squares, "N": "-1",
                                       "out": bundle},
                 "float_terms_seq": {"kind": "generator", "name": "squares", "terms": 8.7},
                 "bool_terms_seq": {"kind": "generator", "name": "squares", "terms": True},
                 "float_mu_seq": {"kind": "explicit", "entries": [[1, 0, 2.5], [4, 0, 1]]},
                 "float_n_series": {"seq": squares, "sector": sector,
                                    "coeffs": [[1.5, 0, "1", "0"]] + rows[1:]},
                 "bool_n_series": {"seq": squares, "sector": sector,
                                   "coeffs": [[True, 0, "1", "0"]] + rows[1:]},
                 "zero_n_series": {"seq": squares, "sector": sector,
                                   "coeffs": [[0, 0, "1", "0"]] + rows[1:]},
                 "repeated_series": {"seq": squares, "sector": sector,
                                     "coeffs": rows + [[1, 0, "2", "0"]]},
                 "float_k_moments": [rows[0], [2, 0.5, "1", "0"]] + rows[2:],
                 "negative_k_moments": [rows[0], [2, -1, "1", "0"]] + rows[2:],
                 "repeated_moments": {"values": rows + [[2, "0", "1", "0"]]},
                 "float_mu_param_seq": {"kind": "generator", "name": "example_iv",
                                        "terms": 4, "params": {"mu": 2.5}},
                 "bool_base_param_seq": {"kind": "generator", "name": "example_v",
                                         "terms": 4, "params": {"base": True}},
                 "string_mu_base_param_seq": {"kind": "generator", "name": "example_v",
                                              "terms": 4, "params": {"mu_base": "two"}},
                 "nan_exponent_seq": {"kind": "generator", "name": "power", "terms": 4,
                                      "params": {"exponent": "nan"}},
                 "word_exponent_seq": {"kind": "generator", "name": "power", "terms": 8,
                                       "params": {"exponent": "two"}},
                 "list_params_seq": {"kind": "generator", "name": "power", "terms": 4,
                                     "params": [2]},
                 "unknown_param_seq": {"kind": "generator", "name": "power", "terms": 4,
                                       "params": {"bogus": 1}},
                 "zero_terms_seq": {"kind": "generator", "name": "squares", "terms": 0}}
        paths = {"seq": seq_file}
        for name, obj in files.items():
            paths[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        code = main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and condition in err
        assert err.count("\n") == 1
        assert not os.path.exists(bundle)

    @pytest.mark.parametrize("argv, code", [
        (["lk", "eval", "--seq", "{seq}", "--N", "6", "--interval", "0,1",
          "--z=1e999999"], 3),
        (["series", "eval", "--series", "{series}", "--z=-1e999999"], 3),
        (["carleson", "apply", "--seq", "{seq}", "--N", "6", "--lam", "1",
          "--x=-1e999999"], 3),
        (["lk", "eval", "--seq", "{seq}", "--N", "6", "--interval", "0,1",
          "--z=9.9e49"], 0),
    ], ids=["lk-z", "series-z", "carleson-x", "lk-below-bound"])
    def test_unresolvable_point_is_precision_error(self, capsys, tmp_path, seq_file,
                                                   argv, code):
        # a point off by more than 1 once parsed: no digit of a phase is right,
        # and mpmath's argument reduction of cos/exp would run for minutes
        series = {"seq": {"kind": "generator", "name": "squares", "terms": 8},
                  "sector": {"eta": "0", "beta": "1"},
                  "coeffs": [[n, 0, f"1e-{n * n}", "0"] for n in range(1, 9)]}
        (tmp_path / "series.json").write_text(json.dumps(series))
        paths = {"seq": seq_file, "series": str(tmp_path / "series.json")}
        got = main([a.format(**paths) for a in argv] + ["--digits", "50"])
        err = capsys.readouterr().err
        assert got == code
        if code:
            option = argv[-1].split("=")[0]
            assert err == (f"error: {option} must have modulus below 10^50 to be "
                           "resolved at 50 digits, got 1.0e+999999\n")

    @pytest.mark.parametrize("argv, digits", [
        (["analyze", "{seq}", "--N", "8", "--eps=1e999999"], 15),
        (["lk", "lowerbound", "--seq", "{seq}", "--N", "8", "--interval", "0,1",
          "--eps=1e999999"], 120),
    ], ids=["analyze", "lk-lowerbound"])
    def test_unresolvable_eps_is_precision_error(self, seq_file, argv, digits):
        # e^(eps |lambda_n| / mu_n) would first be reduced with about a million
        # digits of ln 2
        done = console_script([a.format(seq=seq_file) for a in argv])
        assert done.returncode == 3
        assert done.stderr == (f"error: --eps must have modulus below 10^{digits} to "
                               f"be resolved at {digits} digits, got 1.0e+999999\n")

    @pytest.mark.parametrize("argv", [
        ["gram", "distance", "--seq", "{seq}", "--N", "4", "--interval", "0,1e999999"],
        ["lk", "eval", "--seq", "{seq}", "--N", "4", "--interval=-1e999999,1", "--z", "1"],
        ["moment", "solve", "--seq", "{seq}", "--N", "6", "--interval", "0,1e999999",
         "--data", "{moments}"],
        ["run", "{config}"],
    ], ids=["gram", "lk", "moment", "run"])
    def test_unresolvable_interval_is_precision_error(self, tmp_path, seq_file, argv):
        # the Gram entries' e^((lambda_a + conj(lambda_b)) beta) would first be
        # reduced with about a million digits of ln 2
        rows = [[n, 0, f"1e-{n * n}", "0"] for n in range(1, 9)]
        bundle = tmp_path / "bundle"
        config = {"kind": "moment", "N": 6, "interval": "0,1e999999", "data": rows,
                  "seq": {"kind": "generator", "name": "squares", "terms": 8},
                  "out": str(bundle)}
        paths = {"seq": seq_file, "moments": tmp_path / "moments.json",
                 "config": tmp_path / "config.json"}
        paths["moments"].write_text(json.dumps(rows))
        paths["config"].write_text(json.dumps(config))
        done = console_script([a.format(**paths) for a in argv])
        assert done.returncode == 3
        assert done.stderr == ("error: interval endpoint must have modulus below 10^120 "
                               "to be resolved at 120 digits, got 1.0e+999999\n")
        assert not bundle.exists()

    @pytest.mark.parametrize("action", ["eval", "abscissa", "bound"])
    @pytest.mark.parametrize("N", ["0", "99"])
    def test_series_prefix_out_of_range_is_sequence_error(self, capsys, tmp_path,
                                                         action, N):
        # a prefix length below 1 is a bad option, one past the series a bad sequence
        rows = [[n, 0, f"1e-{n * n}", "0"] for n in range(1, 9)]
        path = tmp_path / "series.json"
        path.write_text(json.dumps({
            "seq": {"kind": "generator", "name": "squares", "terms": 8},
            "sector": {"eta": "0", "beta": "1"}, "coeffs": rows}))
        argv = ["series", action, "--series", str(path), "--N", N]
        code = main(argv + {"eval": ["--z", "0"], "bound": ["--beta", "1"]}.get(action, []))
        err = capsys.readouterr().err
        if N == "0":
            assert code == 2
            assert err == "error: --N must be >= 1, got 0\n"
        else:
            assert code == 6
            assert err == (f"error: prefix length N={N} out of range 1..8 for sequence "
                           "squares(8)\n")

    def test_series_bound_gates_the_prefix_it_reads(self, capsys, tmp_path):
        # mu_3 = 0: the coefficients at n = 1, 2 leave it out, --N 3 or one at n = 4 do not
        entries = [[1, 0, 1], [4, 0, 1], [9, 0, 0], [16, 0, 1]]
        for rows, N, want in (([[1, 0, "1", "0"], [2, 0, "1e-4", "0"]], [], 0),
                              ([[1, 0, "1", "0"], [2, 0, "1e-4", "0"]], ["--N", "3"], 6),
                              ([[1, 0, "1", "0"], [4, 0, "1e-16", "0"]], [], 6)):
            path = tmp_path / "series.json"
            path.write_text(json.dumps({
                "seq": {"kind": "explicit", "entries": entries, "provenance": "gap"},
                "sector": {"eta": "0", "beta": "1"}, "coeffs": rows}))
            code = main(["series", "bound", "--series", str(path), "--beta", "1", *N])
            err = capsys.readouterr().err
            assert code == want
            assert err == ("error: entry n=3 of sequence gap: mu=0 must be >= 1\n"
                           if want else "")

    def test_series_eval_gates_every_entry_it_reads(self, capsys, tmp_path):
        # lambda_8 = 0 carries no coefficient and lies past --N 3, but the tail
        # envelope reads it; lambda_8 = 64 is squares(8)
        rows = [[n, 0, f"1e-{n * n}", "0"] for n in range(1, 8)]
        for last, want in ((0, 6), (64, 0)):
            entries = [[n * n, 0, 1] for n in range(1, 8)] + [[last, 0, 1]]
            path = tmp_path / "series.json"
            path.write_text(json.dumps({
                "seq": {"kind": "explicit", "entries": entries, "provenance": "tail"},
                "sector": {"eta": "0", "beta": "1"}, "coeffs": rows}))
            code = main(["series", "eval", "--series", str(path), "--z=-1", "--N", "3"])
            err = capsys.readouterr().err
            assert code == want
            assert err == ("error: entry n=8 of sequence tail: lambda must be nonzero\n"
                           if want else "")

    def test_validate_N_reads_a_prefix(self, capsys, tmp_path):
        # entry 2 has mu = 0: --N 1 leaves it out, and an N past the file exits 6
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps({"kind": "explicit", "entries": [[1, 0, 1], [4, 0, 0]]}))
        for N, valid in (("1", True), ("2", False)):
            code, out = run(capsys, "validate", str(path), "--N", N)
            assert code == 0 and json.loads(out)["valid"] is valid
        code = main(["validate", str(path), "--N", "99"])
        assert code == 6
        assert capsys.readouterr().err == ("error: prefix length N=99 out of range 1..2 "
                                           "for sequence explicit\n")

    @pytest.mark.parametrize("cap", ["abc", "0"])
    def test_bad_max_dim_is_config_error(self, capsys, seq_file, monkeypatch, cap):
        monkeypatch.setenv("EXPSPAN_MAX_DIM", cap)
        code = main(["gram", "build", "--seq", seq_file, "--N", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == {"abc": "error: EXPSPAN_MAX_DIM must be an integer, got 'abc'\n",
                       "0": "error: EXPSPAN_MAX_DIM must be >= 1, got 0\n"}[cap]


# every real or complex number option: (argv with the value at {value}, the name
# its error gives, whether it takes a complex value)
_NUMBER_OPTIONS = {
    "product-z": (["product", "eval", "--seq", "{seq}", "--N", "2", "--z={value}"],
                  "--z", True),
    "lk-z": (["lk", "eval", "--seq", "{seq}", "--N", "4", "--interval", "0,1",
              "--z={value}"], "--z", True),
    "series-z": (["series", "eval", "--series", "{series}", "--z={value}"], "--z", True),
    "analyze-eps": (["analyze", "{seq}", "--N", "8", "--eps={value}"], "--eps", False),
    "lk-eps": (["lk", "lowerbound", "--seq", "{seq}", "--N", "8", "--interval", "0,1",
                "--eps={value}"], "--eps", False),
    "bound-eps": (["series", "bound", "--series", "{series}", "--beta", "1",
                   "--eps={value}"], "--eps", False),
    "beta": (["series", "bound", "--series", "{series}", "--beta={value}"], "--beta", False),
    "lam": (["carleson", "apply", "--seq", "{seq}", "--N", "3", "--lam={value}"],
            "--lam", True),
    "x": (["carleson", "apply", "--seq", "{seq}", "--N", "3", "--lam", "1", "--x={value}"],
          "--x", False),
    "grid": (["carleson", "residual", "--seq", "{seq}", "--N", "6", "--series", "{series}",
              "--grid=0:{value}:3"], "--grid endpoint", False),
    "interval": (["gram", "distance", "--seq", "{seq}", "--N", "4", "--interval=0,{value}"],
                 "interval endpoint", False),
}


@pytest.fixture
def number_paths(tmp_path, seq_file):
    series = {"seq": {"kind": "generator", "name": "squares", "terms": 8},
              "sector": {"eta": "0", "beta": "1"},
              "coeffs": [[n, 0, f"1e-{n * n}", "0"] for n in range(1, 9)]}
    (tmp_path / "series.json").write_text(json.dumps(series))
    return {"seq": seq_file, "series": str(tmp_path / "series.json")}


class TestNumberOptions:
    """One reader takes every number option: text that does not parse, a complex
    value where a real one is needed, nan and inf exit 2; a modulus of 10^digits
    or more exits 3 before any work is done."""

    @pytest.mark.parametrize("option, value", [
        (option, value) for option, (_, _, complex_) in _NUMBER_OPTIONS.items()
        for value in ("nan", "inf", "-inf", "abc") + (() if complex_ else ("1e999999i",))])
    def test_bad_number_is_config_error(self, capsys, number_paths, option, value):
        argv, name, complex_ = _NUMBER_OPTIONS[option]
        code = main([a.format(value=value, **number_paths) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        if value in ("nan", "inf", "-inf"):
            assert err == f"error: {name} must be finite, got {value!r}\n"
        else:
            kind = "" if complex_ else "real "
            assert err == f"error: {name} must be a {kind}number, got {value!r}\n"

    @pytest.mark.parametrize("option, value, digits", [
        *[(option, "1e999999i", 120)
          for option, (_, _, complex_) in _NUMBER_OPTIONS.items() if complex_],
        # each of these ran in mpmath's argument reduction until killed
        ("lam", "1e999999", 120), ("beta", "1e999999", 120),
        ("bound-eps", "1e999999", 120), ("grid", "1e999999", 15),
    ])
    def test_huge_number_is_precision_error(self, number_paths, option, value, digits):
        argv, name, _ = _NUMBER_OPTIONS[option]
        done = console_script([a.format(value=value, **number_paths) for a in argv])
        assert done.returncode == 3
        assert done.stderr == (f"error: {name} must have modulus below 10^{digits} to be "
                               f"resolved at {digits} digits, got 1.0e+999999\n")


    @pytest.mark.parametrize("field", ["eta", "beta"])
    def test_huge_sector_is_precision_error(self, tmp_path, field):
        # a series file's sector is read by the same rule; a beta of 1e999999 ran
        # in mpmath's argument reduction of exp until killed
        sector = {"eta": "0", "beta": "1", field: "1e999999"}
        path = tmp_path / "series.json"
        path.write_text(json.dumps({
            "seq": {"kind": "generator", "name": "squares", "terms": 8}, "sector": sector,
            "coeffs": [[n, 0, f"1e-{n * n}", "0"] for n in range(1, 9)]}))
        done = console_script(["series", "eval", "--series", str(path), "--z", "-1"])
        assert done.returncode == 3
        assert done.stderr == (f"error: sector {field!r} must have modulus below 10^15 to "
                               "be resolved at 15 digits, got 1.0e+999999\n")


# the least value of every integer option; --digits has PrecisionContext's floor
# and --seed takes any integer
_COUNT_LEAST = {"--N": 1, "--dps": 1, "--circles": 1, "--partitions": 1, "--k": 0,
                "--nmax": 2, "--digits": 50, "--seed": None}

# what each subcommand needs besides its integer options
_REQUIRED = {
    ("analyze",): ["{seq}"],
    ("validate",): ["{seq}"],
    ("product", "eval"): ["--seq", "{seq}", "--z", "1+1i"],
    ("lk", "eval"): ["--seq", "{seq}", "--interval", "0,1", "--z", "1"],
    ("lk", "lowerbound"): ["--seq", "{seq}", "--interval", "0,1"],
    **{("gram", action): ["--seq", "{seq}"]
       for action in ("build", "distance", "biorthogonal", "mixed")},
    ("series", "eval"): ["--series", "{series}", "--z", "-1"],
    ("series", "abscissa"): ["--series", "{series}"],
    ("series", "bound"): ["--series", "{series}", "--beta", "1"],
    ("moment", "solve"): ["--seq", "{seq}", "--interval", "0,1", "--data", "{moments}"],
    ("carleson", "apply"): ["--seq", "{seq}", "--lam", "1"],
    ("carleson", "residual"): ["--seq", "{seq}", "--series", "{series}",
                               "--grid", "0.1:0.9:3"],
    ("carleson", "counterexample"): [],
}


def _int_options(parser, path=()):
    """{subcommand path: option of each type=int action} over the parser's leaves."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        options = [a.option_strings[0] for a in parser._actions if a.type is int]
        return {path: options} if options else {}
    return {leaf: options for sub in subs for name, child in sub.choices.items()
            for leaf, options in _int_options(child, path + (name,)).items()}


_INT_OPTIONS = _int_options(build_parser())
_SIZE = 8  # every sequence and series file of the sweep has 8 entries


def _values(option, below):
    """The values drawn for an option: least - 1 (when `below`), least, one past the
    sequence or the working digits, and small valid ones; --digits <= 200 and
    --partitions <= 3 keep every call short."""
    return {"--N": [0, 1, _SIZE + 1, 3, 6], "--dps": [0, 1, 201, 5, 30],
            "--circles": [0, 1, _SIZE + 1, 2], "--partitions": [0, 1, 3, 2],
            "--k": [-1, 0, _SIZE + 1, 2], "--nmax": [1, 2, _SIZE + 1, 4],
            "--digits": [49, 50, 200, 80], "--seed": [-1, 0, 7]}[option][not below:]


@pytest.fixture(scope="module")
def sweep_files(tmp_path_factory):
    """{name: (sequence file, series file over that sequence, index of its bad entry
    or None)} for squares(8) and its explicit copies with lambda_j = 0 or mu_j = 0,
    and the moments file."""
    root = tmp_path_factory.mktemp("sweep")
    squares = [[n * n, 0, 1] for n in range(1, _SIZE + 1)]
    rows = [[n, 0, f"1e-{n * n}", "0"] for n in range(1, _SIZE + 1)]
    specs = {"squares": ({"kind": "generator", "name": "squares", "terms": _SIZE}, None)}
    for j in range(1, _SIZE + 1):
        for field, bad in (("lambda", [0, 0, 1]), ("mu", [j * j, 0, 0])):
            specs[f"zero-{field}-{j}"] = ({"kind": "explicit", "entries":
                                           squares[:j - 1] + [bad] + squares[j:]}, j)
    seqs = {}
    for name, (spec, j) in specs.items():
        # a coefficient of mu_j = 0 would be out of bounds, so that row is left out
        coeffs = [r for r in rows if not (name.startswith("zero-mu") and r[0] == j)]
        seq_path, series_path = root / f"{name}.json", root / f"{name}-series.json"
        seq_path.write_text(json.dumps(spec))
        series_path.write_text(json.dumps(
            {"seq": spec, "sector": {"eta": "0", "beta": "1"}, "coeffs": coeffs}))
        seqs[name] = (str(seq_path), str(series_path), j)
    (root / "moments.json").write_text(json.dumps(rows))
    return seqs, str(root / "moments.json")


class TestCountOptions:
    """One reader bounds every count: a count option below its least value exits 2
    with one line naming the option, the bound and the value, and a sequence with
    lambda_n = 0 or mu_n = 0 in the prefix computes nothing."""

    def test_every_int_option_is_swept(self):
        assert set(_INT_OPTIONS) == set(_REQUIRED)
        assert {o for options in _INT_OPTIONS.values() for o in options} == set(_COUNT_LEAST)

    @pytest.mark.parametrize("path", [p for p, options in _INT_OPTIONS.items()
                                      if "--N" in options], ids=" ".join)
    @pytest.mark.parametrize("N", ["0", "-1"])
    def test_N_below_one_is_config_error(self, capsys, sweep_files, path, N):
        seqs, moments = sweep_files
        seq, series, _ = seqs["squares"]
        argv = [a.format(seq=seq, series=series, moments=moments) for a in _REQUIRED[path]]
        code = main([*path, *argv, "--N", N])
        assert code == 2
        assert capsys.readouterr().err == f"error: --N must be >= 1, got {N}\n"

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_count_sweep(self, sweep_files, data):
        seqs, moments = sweep_files
        path = data.draw(st.sampled_from(sorted(_INT_OPTIONS)), label="subcommand")
        options = _INT_OPTIONS[path]
        varied = data.draw(st.sampled_from(options), label="varied option")
        values = {option: data.draw(st.sampled_from(_values(option, option == varied)),
                                    label=option) for option in options}
        # squares half the time, else a copy with lambda_j = 0 or mu_j = 0
        seq, series, bad = seqs[data.draw(st.one_of(
            st.just("squares"), st.sampled_from(sorted(set(seqs) - {"squares"}))),
            label="sequence")]
        argv = [*path, *(a.format(seq=seq, series=series, moments=moments)
                         for a in _REQUIRED[path]),
                *(f"{option}={value}" for option, value in values.items())]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3, 4, 5, 6)
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
        least, value = _COUNT_LEAST[varied], values[varied]
        if least is not None and value < least:
            assert code == 2
            assert err == (f"error: digits={value} below floor {least}\n"
                           if varied == "--digits"
                           else f"error: {varied} must be >= {least}, got {value}\n")
        elif path == ("validate",):
            # validate reports the violations of the first N entries; N past them exits 6
            N = values["--N"]
            assert code == (6 if N > _SIZE else 0)
            if not code:
                assert json.loads(out.getvalue())["valid"] is (bad is None or bad > N)
        elif bad is not None and bad <= values.get("--N", 0):
            # nothing is computed over a prefix that holds lambda_j = 0 or mu_j = 0
            assert code != 0


class TestDeterminism:
    def test_identical_runs_byte_identical(self, capsys, seq_file):
        _, out1 = run(capsys, "analyze", seq_file, "--N", "8", "--eps", "0.1")
        _, out2 = run(capsys, "analyze", seq_file, "--N", "8", "--eps", "0.1")
        assert out1 == out2

    def test_gram_runs_byte_identical(self, capsys, seq_file):
        _, out1 = run(capsys, "gram", "biorthogonal", "--seq", seq_file,
                      "--N", "4", "--interval", "0,1", "--digits", "80")
        _, out2 = run(capsys, "gram", "biorthogonal", "--seq", seq_file,
                      "--N", "4", "--interval", "0,1", "--digits", "80")
        assert out1 == out2


class TestRunReports:
    def test_full_report_bundle(self, capsys, tmp_path, seq_file):
        cfg = {"kind": "full-report",
               "seq": {"kind": "generator", "name": "squares", "terms": 8},
               "N": 6, "digits": 120, "interval": "0,1", "nmax": 4,
               "out": str(tmp_path / "bundle")}
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        code, _ = run(capsys, "run", str(cpath))
        assert code == 0
        manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"analyze.json", "biorthogonal.json",
                                              "distance_trend.csv",
                                              "carleson_annihilation.json",
                                              "counterexample.json"}
        header = (tmp_path / "bundle" / "distance_trend.csv").read_text().splitlines()[0]
        assert header.split(",") == ["n", "re_lambda", "distance",
                                     "log_distance_over_re_lambda"]

    def test_unknown_kind_refused(self, capsys, tmp_path):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps({"kind": "nope"}))
        code, _ = run(capsys, "run", str(cpath))
        assert code == 2

    def test_distance_trend_kind(self, capsys, tmp_path):
        cfg = {"kind": "distance-trend",
               "seq": {"kind": "generator", "name": "squares", "terms": 6},
               "N": 6, "digits": 120, "interval": "0,1",
               "out": str(tmp_path / "d")}
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        code, _ = run(capsys, "run", str(cpath))
        assert code == 0
        assert (tmp_path / "d" / "distance_trend.csv").exists()

    def test_moment_kind(self, capsys, tmp_path):
        rows = [[n, 0, str(mp.exp(mp.mpf("0.25") * n * n)), "0"]
                for n in range(1, 7)]
        cfg = {"kind": "moment",
               "seq": {"kind": "generator", "name": "squares", "terms": 6},
               "N": 6, "digits": 200, "interval": "0,1", "data": rows,
               "out": str(tmp_path / "m")}
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        code, _ = run(capsys, "run", str(cpath))
        assert code == 0
        obj = json.loads((tmp_path / "m" / "moment_solution.json").read_text())
        assert float(obj["residual_max"]) < 1e-40

    def test_failing_growth_gate_is_domain_error(self, capsys, tmp_path):
        # data growing like 10^(n^2) does not fit in the span on (0,1); `moment
        # solve` answers "solved": false, and a bundle exits 5
        rows = [[n, 0, f"1e{n * n}", "0"] for n in range(1, 9)]
        cfg = {"kind": "moment",
               "seq": {"kind": "generator", "name": "squares", "terms": 8},
               "N": 6, "interval": "0,1", "data": rows, "out": str(tmp_path / "m")}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code = main(["run", str(tmp_path / "cfg.json")])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("error: fitted growth a=") and err.count("\n") == 1
        assert not (tmp_path / "m").exists()

    def test_series_kind_requires_series(self, capsys, tmp_path):
        cfg = {"kind": "series",
               "seq": {"kind": "generator", "name": "squares", "terms": 6}}
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        code, _ = run(capsys, "run", str(cpath))
        assert code == 2

    @pytest.mark.parametrize("cfg, exit_code", [
        ({"kind": "series"}, 2),  # validation refuses it
        ({"kind": "full-report", "N": 8, "digits": 50, "interval": "0,3"}, 3),  # gram fails
        ({"kind": "full-report", "digits": 10}, 2),  # below the digits floor
        ({"kind": "counterexample", "nmax": 1}, 2),  # below the nmax floor
    ], ids=["invalid", "gram-fails", "digits-floor", "nmax-floor"])
    def test_refused_config_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                           cfg, exit_code):
        monkeypatch.chdir(tmp_path)
        cfg = {"seq": {"kind": "generator", "name": "squares", "terms": 8}, **cfg}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, _ = run(capsys, "run", "cfg.json")
        assert code == exit_code
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_carleson_kind(self, capsys, tmp_path):
        cfg = {"kind": "carleson",
               "seq": {"kind": "generator", "name": "squares", "terms": 6},
               "N": 6, "digits": 120, "interval": "0,1",
               "out": str(tmp_path / "c")}
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(cfg))
        code, _ = run(capsys, "run", str(cpath))
        assert code == 0
        obj = json.loads((tmp_path / "c" / "carleson_annihilation.json").read_text())
        assert float(obj["sup_annihilation_residual"]) < 1e-80


class TestOneCopy:
    def test_second_main_builds_no_parser(self, capsys, monkeypatch):
        assert main(["fixtures"]) == 0
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["fixtures"]) == 0
        capsys.readouterr()
        assert built == []

    def test_zero_series_abscissa_is_the_run_bundle_object(self, capsys, tmp_path):
        squares = {"kind": "generator", "name": "squares", "terms": 8}
        series = {"seq": squares, "coeffs": [[n, 0, "0", "0"] for n in range(1, 9)],
                  "sector": {"eta": "0", "beta": "1"}}
        (tmp_path / "series.json").write_text(json.dumps(series))
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"kind": "series", "seq": squares, "series": series,
             "out": str(tmp_path / "bundle")}))
        code, out = run(capsys, "series", "abscissa", "--series", str(tmp_path / "series.json"))
        assert code == 0
        obj = json.loads(out)
        del obj["schema_version"]
        assert obj["a"] == "-inf" and obj["implied_beta"] == "+inf"
        assert run(capsys, "run", str(tmp_path / "cfg.json"))[0] == 0
        assert json.loads((tmp_path / "bundle" / "series_abscissa.json").read_text()) == obj

    @pytest.mark.parametrize("action", ["build", "biorthogonal", "mixed"])
    def test_gram_csv_refused_where_no_table_is_written(self, capsys, seq_file, action):
        with pytest.raises(SystemExit) as exc:
            main(["gram", action, "--seq", seq_file, "--N", "2", "--csv", "x.csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err


class TestExplicitStrings:
    """Explicit frequencies keep every written digit at the CLI's 15 digits."""

    def write(self, tmp_path, *lams):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "explicit",
                                    "entries": [[lam, "0", 1] for lam in lams]}))
        return str(path)

    def test_product_eval_sees_a_26_digit_offset(self, capsys, tmp_path):
        path = self.write(tmp_path, "1.00000000000000000000000001")
        with mp.workdps(15):
            code, out = run(capsys, "product", "eval", "--seq", path, "--kind", "F",
                            "--N", "1", "--z", "1", "--digits", "60")
        assert code == 0
        # 1 - 1/lambda_1 = 1e-26 / (1 + 1e-26)
        assert abs(float(json.loads(out)["value_re"]) / 1e-26 - 1) < 1e-12

    def test_validate_tells_close_entries_apart(self, capsys, tmp_path):
        path = self.write(tmp_path, "1.00000000000000000001", "1.00000000000000000002")
        with mp.workdps(15):
            code, out = run(capsys, "validate", path)
        assert code == 0
        assert json.loads(out) == {"provenance": "explicit", "schema_version": 1,
                                   "valid": True, "violations": []}


class TestOptionsAtDigits:
    """--lam and --interval are read at the command's --digits, not at the CLI's
    15 digits."""

    def test_carleson_lam_is_read_at_digits(self, capsys, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"kind": "explicit", "entries": [
            ["1.1" + "0" * 110, "0", 1], ["2", "0", 1], ["3.5", "0", 1]]}))
        with mp.workdps(15):
            code, out = run(capsys, "carleson", "apply", "--seq", str(path), "--N", "3",
                            "--lam", "1.1", "--x", "0.5", "--digits", "100")
        assert code == 0
        obj = json.loads(out)
        # at 53 bits the frequency is off by about 1e-17, and so is the value
        assert abs(mp.mpc(obj["value_re"], obj["value_im"])) < mp.mpf("1e-90")

    def test_lk_interval_is_read_at_digits(self, capsys, seq_file):
        with mp.workdps(15):
            code, out = run(capsys, "lk", "eval", "--seq", seq_file, "--N", "6",
                            "--interval", "0,0.3", "--z", "2+3i", "--digits", "60",
                            "--dps", "60")
        assert code == 0
        obj = json.loads(out)
        with mp.workdps(60):
            lk = lk_function(load_sequence(seq_file), Interval(0, mp.mpf("0.3")),
                             PrecisionContext(digits=60, trunc_N=6))
            want = lk_eval(lk, mp.mpc(2, 3))
            got = mp.mpc(obj["value_re"], obj["value_im"])
            assert abs(got - want) < mp.mpf("1e-55") * abs(want)


class TestHalfLineClosedForm:
    """gram distance --half-line against the Blaschke-product closed form
    D_n = (2 Re lambda_n)^(-1/2) prod_{k != n} |lambda_n - lambda_k| / |lambda_n + conj(lambda_k)|
    (`conftest.halfline_distance`), run at the CLI's 15 digits."""

    @pytest.mark.parametrize("spec, N", [
        ({"kind": "generator", "name": "squares", "terms": 12}, 12),
        # complex jitter in multiples of 2^-10
        ({"kind": "explicit", "entries": [
            [str(n * n + (37 * n % 201 - 100) / 1024), str((53 * n % 201 - 100) / 1024), 1]
            for n in range(1, 11)]}, 10),
    ], ids=["squares-12", "jittered-10"])
    def test_distances_match(self, capsys, tmp_path, spec, N):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(spec))
        with mp.workdps(15):
            seq = load_sequence(str(path))
            code, out = run(capsys, "gram", "distance", "--seq", str(path), "--N", str(N),
                            "--half-line")
        assert code == 0
        rows = json.loads(out)["distances"]
        assert [r["n"] for r in rows] == list(range(1, N + 1))
        with mp.workdps(40):
            for r in rows:
                want = halfline_distance(seq, N, r["n"])
                assert abs(mp.mpf(r["distance"]) / want - 1) < mp.mpf("1e-14")
