"""Tests of the benchmark harness at toy size.

    python3 -m pytest benchmarks/tests -q
"""

import json
import math
import os
import re
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import nsnet  # noqa: E402
import nsnet.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TOY = workloads.Scale(classes=3, videos_per_class=12, val_videos_per_class=6,
                      frames=16, dim=16, batch_size=4, k_list=(2, 4),
                      unit_epochs=4, setup_epochs=1, sample_lengths=(8, 32),
                      sample_videos_per_class=2, sample_passes=1)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(name, tmp_path, trace=False, seconds=0.01):
    workload = workloads.WORKLOADS[name](str(tmp_path / name), seed=1, scale=TOY)
    metrics, _, extra = run.measure(workload, seconds, trace)
    line, errors = run.summarize(workload, metrics, trace)
    return line, errors, extra


def test_benchmark_json_is_well_formed():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                      "per_layer"}
    assert s["command"][0] == "python3" and s["paths"] == ["benchmarks"]
    assert s["command"][1].startswith("benchmarks/")
    assert isinstance(s["run_seconds"], int) and 1 <= s["run_seconds"] <= 60
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    names += [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for metric in s["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == tracing.PER_LAYER
    assert all(set(m) == {"name", "unit", "better"} for m in s["per_layer"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_result_line_schema_and_checks_pass(name, tmp_path):
    line, errors, extra = measure(name, tmp_path)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0, errors
    assert line["correct"] is True, errors
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == want
    for m in line["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert math.isfinite(m["value"]) and m["value"] > 0
    assert json.loads(json.dumps(line)) == line
    assert set(extra["reported"]) >= {"top1", "recall"}


def test_sampler_runs_inside_long_calls_and_leaves_them_out_of_the_work_clock():
    sampler, samples = run.Sampler(), []
    with sampler.sampling(samples):
        wall, work = time.perf_counter(), sampler.clock()
        while time.perf_counter() - wall < 4 * run.PROBE_EVERY_S:   # one long call
            pass
    wall, work = time.perf_counter() - wall, sampler.clock() - work
    assert len(samples) >= 3
    assert wall - work == pytest.approx(sum(samples[1:]), rel=0.05)


def test_corrupted_selection_counts_as_failed(tmp_path, monkeypatch):
    original = nsnet.select_frames
    calls = []

    def corrupt(s_f, s_v, cfg):
        calls.append(1)
        chosen = original(s_f, s_v, cfg)
        return chosen[:1] * len(chosen) if len(calls) == 3 else chosen

    monkeypatch.setattr(nsnet, "select_frames", corrupt)
    line, errors, _ = measure("sample", tmp_path)
    assert line["failed"] == 1 and line["correct"] is False
    assert line["attempted"] == len(calls) > 1
    assert "distinct" in errors[0]


def test_nonzero_cli_exit_counts_as_failed(tmp_path, monkeypatch):
    original = nsnet.cli.main
    evals = []

    def failing(argv):
        if argv[0] == "eval":
            evals.append(1)
            if len(evals) == 2:
                print("error: injected", file=sys.stderr)
                return 1
        return original(argv)

    monkeypatch.setattr(nsnet.cli, "main", failing)
    line, errors, _ = measure("sweep", tmp_path)
    assert line["failed"] == 1 and line["correct"] is False
    assert line["attempted"] == len(evals)
    assert errors == ["exit 1: error: injected"]


def test_artifacts_differing_from_an_earlier_run_count_as_failed(tmp_path):
    workload = workloads.TrainWorkload(str(tmp_path / "train"), seed=1, scale=TOY)
    workload.known_digest = "0" * 128
    metrics, _, _ = run.measure(workload, 0.01, False)
    line, errors = run.summarize(workload, metrics, False)
    assert line["failed"] == line["attempted"] >= 1 and line["correct"] is False
    assert "earlier run" in errors[0]


def test_traced_runs_span_every_module_and_restore_bindings(tmp_path):
    bound = (nsnet.select_frames, nsnet.Tensor.__init__, nsnet.SamplerModel.forward)
    seen = set()
    for name in workloads.WORKLOADS:
        line, errors, extra = measure(name, tmp_path, trace=True)
        assert line["correct"] is True, errors
        assert {n: m["unit"] for n, m in line["metrics"].items()} == tracing.PER_LAYER
        modules = sum(line["metrics"][f"{m}.self_s"]["value"]
                      for m in tracing.MODULES + ("bench",))
        assert modules == pytest.approx(line["metrics"]["traced_wall_s"]["value"], rel=1e-9)
        assert extra["absent"] == []
        seen |= {span[0].partition(".")[0] for span in extra["spans"]["spans"]}
    assert seen == set(tracing.MODULES) | {"bench"}
    assert (nsnet.select_frames, nsnet.Tensor.__init__, nsnet.SamplerModel.forward) == bound


def test_select_frames_is_patched_in_every_binding_module():
    original = nsnet.fusion.select_frames
    holders = (nsnet, nsnet.fusion, nsnet.evaluation, nsnet.training)
    assert all(m.select_frames is original for m in holders)
    with tracing.Tracer().installed():
        assert len({id(m.select_frames) for m in holders}) == 1
        assert nsnet.select_frames is not original
        assert nsnet.select_frames.__wrapped__ is original
    assert all(m.select_frames is original for m in holders)


def test_absent_target_is_reported_not_fatal():
    targets = tracing.TARGETS + (tracing.Target("model", "no_such_function"),
                                 tracing.Target("no_such_module", "f"))
    tracer = tracing.Tracer(targets)
    with tracer.installed():
        pass
    assert tracer.absent == ["model.no_such_function", "no_such_module.f"]
    metrics = tracing.per_layer_metrics(tracer, units=1, videos_per_unit=1,
                                        train_videos=0, overhead=1.0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["autodiff.backward.self_s"] == 0.0
