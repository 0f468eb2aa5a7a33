"""Self-tests of the benchmark (smoke sizes; collected by the tier-1 suite)."""

from __future__ import annotations

import json
import os
import re
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from octobench import loadgen, report, reqgen, runner, spec, sut, tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def declared():
    return spec.load_benchmark_json()


@pytest.fixture(scope="module")
def artifacts():
    return sut.ensure_artifacts(spec.SMOKE)


@pytest.fixture(scope="module")
def inputs(artifacts):
    return reqgen.Inputs.from_dataset(artifacts.dataset)


def test_declared_names_match_the_code(declared):
    workloads = [entry["name"] for entry in declared["workloads"]]
    assert workloads == list(spec.WORKLOADS)
    layers = [entry["name"] for entry in declared["per_layer"]]
    assert sorted(layers) == sorted(tracer.metric_names()) == sorted(spec.MOVES)
    end_to_end = [entry["name"] for entry in declared["end_to_end"]]
    assert "setup_s" in end_to_end
    for name in workloads + layers + end_to_end:
        assert NAME.match(name), name
    assert len(set(layers + end_to_end + workloads)) == len(layers + end_to_end + workloads)
    for target, moved_on in spec.MOVES.values():
        assert target in end_to_end
        assert set(moved_on) <= set(workloads)
    assert all(0 < entry["bound"] <= 0.25 for entry in declared["end_to_end"])


def test_request_lists_are_a_function_of_the_seed(inputs):
    for name in spec.WORKLOADS:
        first = reqgen.replayable_json(reqgen.operations_for(name, inputs, 5, spec.SMOKE))
        again = reqgen.replayable_json(reqgen.operations_for(name, inputs, 5, spec.SMOKE))
        other = reqgen.replayable_json(reqgen.operations_for(name, inputs, 6, spec.SMOKE))
        assert first == again
        assert first != other
    distinct = [json.dumps(op.requests[0], sort_keys=True)
                for op in reqgen.operations_for("cold_im", inputs, 5, spec.SMOKE)]
    assert len(set(distinct)) == len(distinct)


def test_percentile_needs_ten_samples_beyond():
    assert loadgen.percentile(list(range(200)), 95.0) == pytest.approx(189.05)
    with pytest.raises(loadgen.InsufficientSamples):
        loadgen.percentile(list(range(199)), 95.0)
    with pytest.raises(loadgen.InsufficientSamples):
        loadgen.percentile(list(range(99)), 90.0)
    assert loadgen.percentile(list(range(11)), 50.0) == 5.0
    with pytest.raises(loadgen.InsufficientSamples):
        loadgen.percentile([1.0, 2.0, 3.0, 4.0], 50.0)


def test_smoke_run_emits_every_declared_metric(declared):
    result = report.run_one("wire_cheap", 3, 0.5, spec.SMOKE, False, declared)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 40
    assert list(result["metrics"]) == [e["name"] for e in declared["end_to_end"]]
    for entry in declared["end_to_end"]:
        measured = result["metrics"][entry["name"]]
        assert measured["unit"] == entry["unit"] and measured["value"] > 0


def test_answer_check_flags_a_corrupted_envelope(artifacts, inputs):
    from repro.service import OctopusService, ServiceResponse
    from repro.snapshot import load_snapshot

    request = reqgen.warmup_requests(inputs)[2]
    system = load_snapshot(artifacts.snapshot_serial)
    try:
        good = OctopusService(system).execute(request)
    finally:
        system.close()
    body = good.to_dict()
    body["payload"] = dict(body["payload"], corrupted=True)
    bad = ServiceResponse.from_dict(body)
    samples = [(0, loadgen.Sample(0, "radar", request, 1.0, good)),
               (1, loadgen.Sample(1, "radar", request, 1.0, bad))]
    assert list(runner.answer_check(samples, artifacts.snapshot_serial)) == [1]
    assert loadgen.failure_of(ServiceResponse.failure("radar", "internal_error", "x"))


def test_dead_server_is_a_structured_failure_not_a_hang(tmp_path):
    started = time.perf_counter()
    server = sut.Server(["serve", "--snapshot", str(tmp_path / "missing.octosnap"),
                         "--port", "0"], str(tmp_path / "serve.log"))
    with pytest.raises(sut.BootError):
        server.wait_healthy(deadline_s=20.0)
    assert server.stop() == []
    assert time.perf_counter() - started < 20.0
    refused = loadgen.run_phase("http://127.0.0.1:9", [reqgen.Operation(
        ({"service": "stats"},), ("stats",))], 1, 0.2, max_ops=2, timeout=1.0)
    assert refused.samples and all(sample.error for sample in refused.samples)
