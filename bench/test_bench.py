"""Tests of the benchmark itself: seeded inputs, the checker and the tracer."""

import filecmp
import json
import os

import pytest

import checks
import run
import spans
import workloads


def _inputs(tmp_path, workload, seed, tag):
    workdir = tmp_path / f"{workload}-{seed}-{tag}"
    workloads.build(workload, seed, str(workdir))
    return workdir


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    a = _inputs(tmp_path, workload, 7, "a")
    b = _inputs(tmp_path, workload, 7, "b")
    c = _inputs(tmp_path, workload, 8, "c")
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) == sorted(os.listdir(c))
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors
    _, differ, _ = filecmp.cmpfiles(a, c, names, shallow=False)
    assert differ


def test_jobs_do_not_depend_on_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 1, str(tmp_path / f"{workload}-1"))
        b = workloads.build(workload, 2, str(tmp_path / f"{workload}-2"))
        assert [j.id for j in a] == [j.id for j in b]


def _small_halfline_job(tmp_path):
    """A cut-down half-line distance job with the real job's checks."""
    import random
    spec = workloads.jittered_squares(random.Random(3), 6, 1, "test")
    f = tmp_path / "seq.json"
    f.write_text(json.dumps(spec))
    return workloads.Job("halfline", ["gram", "distance", "--half-line", "--seq", str(f),
                                      "--N", "6", "--digits", "60"],
                         check={"halfline_oracle": spec})


def _run(job):
    return run._run_job(run._import_program(), job, {})


def _perturb_20th_digit(text: str) -> str:
    """Add one unit in the 20th significant digit of the third distance."""
    import mpmath as mp
    obj = json.loads(text)
    row = obj["distances"][2]
    with mp.workdps(60):
        d = mp.mpf(row["distance"])
        row["distance"] = mp.nstr(d + mp.mpf(10) ** (mp.floor(mp.log10(d)) - 19), 30)
    return json.dumps(obj)


def test_checker_accepts_then_flags_a_perturbed_distance(tmp_path):
    job = _small_halfline_job(tmp_path)
    res = _run(job)
    assert res["code"] == 0
    digest = checks.value_digest({"stdout": json.loads(res["stdout"]), "files": {}})
    ref = {"digits_used": json.loads(res["stdout"])["digits_used"], "digest": digest}
    fails, wrong, digits = run._verdict(job, res, ref)
    assert fails == [] and not wrong
    assert min(digits) >= checks.REQUIRED_DIGITS
    bad = dict(res, stdout=_perturb_20th_digit(res["stdout"]))
    fails, wrong, _ = run._verdict(job, bad, ref)
    assert wrong and "printed values differ from the recorded reference" in fails


def test_checker_flags_a_lower_rung_and_a_nonzero_exit(tmp_path):
    job = _small_halfline_job(tmp_path)
    res = _run(job)
    obj = json.loads(res["stdout"])
    ref = {"digits_used": obj["digits_used"]}
    obj["digits_used"] //= 2
    fails, wrong, _ = run._verdict(job, dict(res, stdout=json.dumps(obj)), ref)
    assert wrong and any("digits_used" in f for f in fails)
    fails, wrong, _ = run._verdict(job, dict(res, code=6, error="bad sequence"), ref)
    assert fails and wrong
    fails, wrong, _ = run._verdict(job, dict(res, code=None, error="raised KeyError"), ref)
    assert fails and wrong


def test_recorded_exit_code_is_a_known_defect(tmp_path):
    job = _small_halfline_job(tmp_path)
    res = _run(job)
    ref = {"exit_code": 6}
    fails, wrong, _ = run._verdict(job, dict(res, code=6, error="bad sequence"), ref)
    assert fails and not wrong
    fails, wrong, _ = run._verdict(job, dict(res, code=2, error="usage"), ref)
    assert fails and wrong
    fails, wrong, _ = run._verdict(job, res, ref)  # the defect fixed
    assert fails == [] and not wrong


def test_unconverged_laurent_is_a_known_defect(tmp_path):
    jobs = workloads.build("lk-contour", 0, str(tmp_path / "lk"))
    job = next(j for j in jobs if j.id == "laurent-n2")
    res = _run(job)
    fails, wrong, digits = run._verdict(job, res, {})
    assert fails == [] and not wrong and min(digits) >= checks.REQUIRED_DIGITS
    obj = json.loads(res["stdout"])
    obj["converged"] = False
    fails, wrong, _ = run._verdict(job, dict(res, stdout=json.dumps(obj)), {})
    assert fails == ["laurent quadrature did not converge"] and not wrong


def test_checker_flags_a_wrong_oracle_value(tmp_path):
    job = _small_halfline_job(tmp_path)
    res = _run(job)
    obj = json.loads(res["stdout"])
    obj["distances"][0]["distance"] = "0.5"
    fails, wrong, digits = run._verdict(job, dict(res, stdout=json.dumps(obj)), {})
    assert wrong and min(digits) < checks.REQUIRED_DIGITS


def test_tracer_wraps_every_binding_and_restores_them():
    run._import_program()
    import expspan.carleson
    import expspan.gram
    import expspan.moment
    import expspan.products
    orig = expspan.gram.gram_matrix
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert expspan.moment.gram_matrix is expspan.gram.gram_matrix is not orig
        assert expspan.carleson.taylor_coeffs is expspan.products.taylor_coeffs
        assert expspan.carleson.taylor_coeffs.__wrapped__ is not None
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert expspan.gram.gram_matrix is orig and expspan.moment.gram_matrix is orig


def test_self_time_excludes_children():
    s = [spans.Span("a", 0.0, 10.0, None, "j"), spans.Span("b", 1.0, 4.0, 0, "j"),
         spans.Span("b", 5.0, 6.0, 0, "j")]
    layers = spans.pass_layers(s, 0, 3)
    assert layers["a.self_s"] == 6.0 and layers["b.calls"] == 2 and layers["b.s"] == 4.0


def test_tail_leaves_ten_samples_above():
    xs = [float(i) for i in range(1, 41)]
    value, pct, above = run._tail(xs)
    assert value == 30.0 and pct == 75.0 and above == 10
    assert run._tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run._tail([float(i) for i in range(19)]) == (18.0, 100.0, 0)


def test_missing_target_is_absent_not_zero(monkeypatch):
    run._import_program()
    monkeypatch.setitem(spans.TARGETS, "gram", spans.TARGETS["gram"] + ["no_such_function"])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["gram.no_such_function"]
    metrics, _ = spans.layer_metrics([{}], tracer.missing)
    assert "gram.no_such_function.s" not in metrics and "gram.gram_matrix.s" in metrics


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    metrics, _ = spans.layer_metrics([{}], [])
    emitted = set(metrics) | {"cli.output_bytes", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == emitted


def test_scale_reads_the_reference_time_around_each_job():
    ref = run.REF_SECONDS
    assert run._scales([[2 * ref] * 5, [2 * ref] * 5]) == [0.5]
    # one slow reference time next to a short job is outweighed by its neighbours
    blocks = [[ref] * 5, [2 * ref], [ref] * 5]
    assert run._scales(blocks)[0] > 0.9
