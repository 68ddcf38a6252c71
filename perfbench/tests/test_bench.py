"""Self-tests of the benchmark harness (not part of the package's test suite).

Run from the checkout root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import cli_command, run_child  # noqa: E402


@pytest.mark.parametrize("workload", ["golden", "census", "isometry"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = inputs.first_rounds(workload, 7, 3)
    assert first == inputs.first_rounds(workload, 7, 3)
    assert first != inputs.first_rounds(workload, 8, 3)


@pytest.mark.parametrize("workload", ["census", "isometry"])
def test_no_input_repeats_within_a_run(workload):
    jobs = [job for rnd in inputs.first_rounds(workload, 3, 40) for job in rnd]
    grams = [job["gram"] for job in jobs]
    assert len(set(grams)) == len(grams)


def test_census_inputs_match_their_strata():
    for rnd in inputs.first_rounds("census", 5, 3):
        assert len(rnd) == len(inputs.CENSUS_STRATA) * inputs.POOL_PER_STRATUM
        for job in rnd:
            gram = job["gram"]
            assert all(gram[i][i] % 2 == 0 for i in range(len(gram)))
            assert inputs.det_int(gram) != 0
            assert job["definite"] == inputs.is_positive_definite(gram)


@pytest.mark.parametrize("workload", ["census", "isometry"])
def test_every_round_of_every_seed_covers_the_same_large_lattices(workload):
    def classes(rnd):
        return sorted(inputs._class_key(job["gram"]) for job in rnd if len(job["gram"]) > 2)

    rounds = inputs.first_rounds(workload, 5, 2) + inputs.first_rounds(workload, 6, 1)
    assert classes(rounds[0]) == classes(rounds[1]) == classes(rounds[2])


def test_vector_count_oracle_agrees_with_latglue():
    from latglue.isometries import vectors_of_norm
    from latglue.lattices import IntegerLattice

    for rnd in inputs.first_rounds("isometry", 2, 2):
        for job in rnd:
            lattice = IntegerLattice(job["gram"])
            for norm in (2, 4, job["norm"]):
                assert inputs.count_vectors_of_norm(job["gram"], norm) == len(
                    vectors_of_norm(lattice, norm)
                )


def test_tail_is_nearest_rank_percentile():
    samples = [float(i) for i in range(100)]
    assert bench_run.tail(samples, 90.0) == (89.0, 10)
    assert bench_run.tail(samples * 2, 95.0) == (94.0, 10)


def test_tracer_patches_every_bound_name_and_restores():
    import latglue
    from latglue import classify, discforms, report

    original = discforms.preserves_form
    assert classify.preserves_form is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = discforms.preserves_form
        assert wrapped is not original
        assert classify.preserves_form is wrapped
        assert latglue.preserves_form is wrapped
        assert report.is_anti_isometry is discforms.is_anti_isometry
        assert report.is_anti_isometry.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert discforms.preserves_form is original
    assert classify.preserves_form is original
    assert latglue.preserves_form is original


def test_tracer_fails_loudly_on_a_missing_target(monkeypatch):
    from latglue import discforms

    original = discforms.span_elements
    monkeypatch.setattr(
        tracing, "SPAN_TARGETS",
        tracing.SPAN_TARGETS + (("discforms", "no_such_function", "discforms.gone"),),
    )
    with pytest.raises(tracing.TracerError, match="no longer exists"):
        tracing.Tracer().install()
    assert discforms.span_elements is original


def test_build_extension_count_matches_an_independent_profile():
    """18 build_extension calls per verify-table cases at the recorded commit.

    The profile hook counts calls by code object, so it sees every call no
    matter which module-level name it went through.
    """
    from latglue import classify, report

    code = classify.build_extension.__code__
    profiled = 0

    def hook(frame, event, _arg):
        nonlocal profiled
        if event == "call" and frame.f_code is code:
            profiled += 1

    sys.setprofile(hook)
    try:
        report.verify_cases_report()
    finally:
        sys.setprofile(None)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        report.verify_cases_report()
    finally:
        tracer.uninstall()
    traced = tracing.aggregate(tracer.spans, tracer.counts)["classify.build_extension.calls"]
    assert traced == profiled == 18


def test_traced_and_untraced_cli_stdout_are_byte_identical(tmp_path):
    for argv in (["verify-table", "cases"], ["classify", "--m", "2", "--format", "md"]):
        _wall, plain = run_child(cli_command(argv))
        spans = tmp_path / "spans.json.gz"
        cmd = [sys.executable, str(BENCH / "launch.py"), str(spans), "--", *argv]
        _wall, traced = run_child(cmd)
        assert plain.returncode == traced.returncode == 0
        assert plain.stdout == traced.stdout
        _header, spans_read, _counts = tracing.load(spans)
        names = {span[3] for span in spans_read}
        assert "cli.main" in names and "report.render" in names


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _u in bench_run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(s) for s in tracing.per_layer_metric_specs()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
