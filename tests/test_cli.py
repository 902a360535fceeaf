import argparse
import json
import os

import mpmath as mp
import pytest

from expspan.cli import main


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
        def refuse(g):
            raise AssertionError(f"gram {argv[0]} computed the full inverse")
        monkeypatch.setattr("expspan.gram.biorthogonal", refuse)
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
         "cannot parse complex number '1+xi'"),
        (["carleson", "residual", "--seq", "{seq}", "--N", "6",
          "--series", "{series}", "--grid", "0:1"], "expected 'lo:hi:steps'"),
        (["carleson", "residual", "--seq", "{seq}", "--N", "6",
          "--series", "{series}", "--grid", "0:1:1"], "needs steps >= 2"),
        (["carleson", "residual", "--seq", "{seq}", "--N", "6",
          "--series", "{series}", "--grid", "a:1:3"], "expected 'lo:hi:steps'"),
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
    ], ids=["complex", "grid-fields", "grid-steps", "grid-number", "config-list",
            "config-int", "analyze-N", "gram-digits", "lk-digits", "config-digits",
            "lk-eps", "series-beta", "series-eps", "carleson-x", "analyze-eps",
            "config-eps", "dps-zero", "carleson-k", "nmax-zero", "nmax-one",
            "config-nmax", "abscissa-N", "bound-eps", "lk-eps-negative", "lk-N-one",
            "moment-N", "series-index", "config-moment-N", "config-series-N",
            "analyze-eps-nan", "analyze-eps-inf", "lk-eps-nan", "lk-eps-minus-inf",
            "bound-eps-nan", "bound-eps-inf", "bound-beta-nan"])
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
                 "moment_config": {"kind": "moment", "seq": squares, "N": 3,
                                   "interval": "0,1", "data": rows, "out": bundle},
                 "series_config": {"kind": "series", "seq": squares4, "out": bundle,
                                   "series": {"seq": squares4, "sector": sector,
                                              "coeffs": rows[:4]}}}
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
                           "resolved at 50 digits, got 1.0e+999999; raise --digits\n")

    @pytest.mark.parametrize("cap", ["abc", "0"])
    def test_bad_max_dim_is_config_error(self, capsys, seq_file, monkeypatch, cap):
        monkeypatch.setenv("EXPSPAN_MAX_DIM", cap)
        code = main(["gram", "build", "--seq", seq_file, "--N", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: EXPSPAN_MAX_DIM must be a positive integer, got {cap!r}\n"


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
