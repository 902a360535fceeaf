"""Byte-for-byte parity of every CLI subcommand, action and `run` kind.

Each case records its exit code, its stdout and every file it writes.  The
recorded outputs live in ``data/cli_golden.json``; regenerate them with

    PYTHONPATH=src python tests/test_cli_golden.py

only when an output is meant to change.  Cases run at mpmath's default 15
digits, the precision the CLI runs at, not at the 60 digits conftest pins.
"""

import contextlib
import io
import json
import pathlib

import mpmath as mp
import pytest

from expspan.cli import main

DATA = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
SQUARES6 = {"kind": "generator", "name": "squares", "terms": 6}
SQUARES8 = {"kind": "generator", "name": "squares", "terms": 8}
SERIES = {"seq": SQUARES8,
          "coeffs": [[n, 0, f"1e-{n * n}", "0"] for n in range(1, 9)],
          "sector": {"eta": "0", "beta": "1"}}
SOLVABLE = [[n, 0, f"1e{n * n // 5}", "0"] for n in range(1, 7)]
TOO_FAST = [[n, 0, f"1e{n * n}", "0"] for n in range(1, 7)]

# {i} is the input directory, {o} the directory the case writes into
INPUTS = {
    "seq.json": SQUARES8,
    "pairs.json": {"kind": "explicit", "entries": [[3, 0, 2], [9, 0, 4]]},
    "series.json": SERIES,
    "moments.json": {"values": SOLVABLE},
    "moments_fast.json": {"values": TOO_FAST},
    "example_iii.json": {"kind": "generator", "name": "example_iii", "terms": 12},
    "carleson.json": {"kind": "generator", "name": "carleson_counterexample",
                      "terms": 12},
    "run_analyze.json": {"kind": "analyze", "seq": SQUARES8, "N": 8, "eps": "0.1"},
    "run_gram.json": {"kind": "gram", "seq": SQUARES6, "N": 6, "digits": 120,
                      "interval": "0,1"},
    "run_biorthogonal.json": {"kind": "biorthogonal", "seq": SQUARES6, "N": 6,
                              "digits": 120, "interval": "0,1"},
    "run_distance_trend.json": {"kind": "distance-trend", "seq": SQUARES6, "N": 6,
                                "digits": 120, "interval": "0,2"},
    "run_series.json": {"kind": "series", "seq": SQUARES8, "series": SERIES},
    "run_moment.json": {"kind": "moment", "seq": SQUARES6, "N": 6, "digits": 200,
                        "interval": "0,1", "data": SOLVABLE},
    "run_carleson.json": {"kind": "carleson", "seq": SQUARES6, "N": 6,
                          "digits": 120, "interval": "0,1"},
    "run_counterexample.json": {"kind": "counterexample", "nmax": 4, "digits": 80},
    "run_full_report.json": {"kind": "full-report", "seq": SQUARES8, "N": 6,
                             "digits": 120, "interval": "0,1", "nmax": 4},
    "run_series_missing.json": {"kind": "series", "seq": SQUARES6},
    "run_unknown.json": {"kind": "nope"},
}

CASES = {
    "fixtures": ["fixtures"],
    "validate": ["validate", "{i}/pairs.json", "--out", "{o}/validate.json"],
    "analyze": ["analyze", "{i}/seq.json", "--N", "8", "--eps", "0.1",
                "--csv", "{o}/ratios.csv"],
    "analyze-missing-file": ["analyze", "{i}/absent.json"],
    # near-duplicate pairs: gaps e^(-n^2) and e^(-n^4) in the condensation index
    "analyze-example-iii": ["analyze", "{i}/example_iii.json", "--N", "24"],
    "analyze-carleson": ["analyze", "{i}/carleson.json", "--N", "24"],
    "product-eval": ["product", "eval", "--seq", "{i}/seq.json", "--N", "4",
                     "--kind", "G", "--z", "1.5+0.5i", "--dps", "20"],
    "lk-eval": ["lk", "eval", "--seq", "{i}/seq.json", "--N", "6",
                "--interval", "0,1", "--z", "2+3i"],
    "lk-lowerbound": ["lk", "lowerbound", "--seq", "{i}/seq.json", "--N", "6",
                      "--interval", "0,1", "--circles", "3",
                      "--csv", "{o}/bounds.csv", "--out", "{o}/lk.json"],
    "gram-build": ["gram", "build", "--seq", "{i}/seq.json", "--N", "3",
                   "--interval", "0,1", "--digits", "80", "--dps", "20"],
    "gram-distance": ["gram", "distance", "--seq", "{i}/seq.json", "--N", "6",
                      "--interval", "0,1", "--digits", "120",
                      "--csv", "{o}/dist.csv"],
    "gram-distance-half-line": ["gram", "distance", "--seq", "{i}/seq.json",
                                "--N", "4", "--half-line", "--digits", "80"],
    "gram-biorthogonal": ["gram", "biorthogonal", "--seq", "{i}/seq.json",
                          "--N", "3", "--interval", "0,1", "--digits", "80"],
    "gram-mixed": ["gram", "mixed", "--seq", "{i}/seq.json", "--N", "4",
                   "--interval", "0,1", "--digits", "80", "--partitions", "3",
                   "--seed", "7"],
    "series-eval": ["series", "eval", "--series", "{i}/series.json", "--z", "0.5+1i",
                    "--N", "8"],
    "series-abscissa": ["series", "abscissa", "--series", "{i}/series.json"],
    "series-bound": ["series", "bound", "--series", "{i}/series.json",
                     "--beta", "1", "--eps", "0.2"],
    "moment-solve": ["moment", "solve", "--seq", "{i}/seq.json", "--N", "6",
                     "--interval", "0,1", "--digits", "200",
                     "--data", "{i}/moments.json"],
    "moment-solve-refused": ["moment", "solve", "--seq", "{i}/seq.json", "--N", "6",
                             "--interval", "0,1", "--digits", "200",
                             "--data", "{i}/moments_fast.json"],
    "carleson-apply": ["carleson", "apply", "--seq", "{i}/seq.json", "--N", "6",
                       "--lam", "2+1i", "--k", "1", "--x", "0.5", "--digits", "120"],
    "carleson-residual": ["carleson", "residual", "--seq", "{i}/seq.json",
                          "--N", "8", "--series", "{i}/series.json",
                          "--grid", "0.1:0.9:5", "--digits", "120"],
    "carleson-counterexample": ["carleson", "counterexample", "--nmax", "4",
                                "--digits", "80"],
    **{f"run-{kind}": ["run", f"{{i}}/run_{kind.replace('-', '_')}.json",
                       "--out", "{o}/bundle"]
       for kind in ("analyze", "gram", "biorthogonal", "distance-trend", "series",
                    "moment", "carleson", "counterexample", "full-report",
                    "series-missing", "unknown")},
}


def write_inputs(root: pathlib.Path) -> pathlib.Path:
    inputs = root / "inputs"
    inputs.mkdir()
    for name, obj in INPUTS.items():
        (inputs / name).write_text(json.dumps(obj))
    return inputs


def run_case(name: str, inputs: pathlib.Path, root: pathlib.Path) -> dict:
    """Exit code, stdout and written files of one case, at 15 digits."""
    out = root / name
    out.mkdir()
    argv = [a.format(i=inputs, o=out) for a in CASES[name]]
    stdout = io.StringIO()
    with mp.workdps(15), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    files = {str(p.relative_to(out)): p.read_text()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit": code, "stdout": stdout.getvalue(), "files": files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recording(name, golden, inputs, tmp_path):
    assert run_case(name, inputs, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        ins = write_inputs(root)
        record = {name: run_case(name, ins, root) for name in sorted(CASES)}
    DATA.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
