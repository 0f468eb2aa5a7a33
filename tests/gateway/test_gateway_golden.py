"""Golden replay through the asyncio front end.

The determinism contract so far: a fixed seed produces identical
deterministic forms in process, over the threaded wire, through the
``processes`` executor's forked replicas and through the shard cluster.
This module closes the loop for the gateway — the **same bytes** must come
back when the transport is the asyncio event loop with admission control
in the path, for every executor (serial, processes, cluster), and via the
CLI's ``query --url`` acceptance path.
"""

import json

import pytest

from repro.cli import main
from repro.cluster import ClusterCoordinator
from repro.server import OctopusClient
from repro.service import (
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    OctopusService,
    RadarRequest,
    ServiceResponse,
    SuggestKeywordsRequest,
    TargetedInfluencersRequest,
    deterministic_form,
)

WIRE_TIMEOUT = 15.0

#: The recorded workload of the serving suite, duplicates included.
GOLDEN_WORKLOAD = [
    CompleteRequest(prefix="da", limit=5),
    FindInfluencersRequest("data mining", k=3),
    RadarRequest("data mining"),
    SuggestKeywordsRequest(user=0, k=2),
    ExplorePathsRequest(user=0, threshold=0.02),
    FindInfluencersRequest("data mining", k=3),  # duplicate of slot 1
    TargetedInfluencersRequest("data mining", k=2, num_sets=150),
    CompleteRequest(prefix="da", limit=5),  # duplicate of slot 0
]


def golden_forms(responses):
    """The byte-comparable deterministic forms of a response list."""
    return [deterministic_form(response) for response in responses]


@pytest.fixture(scope="module")
def in_process_forms(backend):
    """The reference: the workload executed directly on a local service."""
    service = OctopusService(backend)
    return golden_forms([service.execute(r) for r in GOLDEN_WORKLOAD])


class TestGatewayDeterminism:
    """Admission control and lanes must never change answer bytes."""

    def test_serial_executor_matches_in_process(
        self, backend, in_process_forms, running_gateway
    ):
        with running_gateway(OctopusService(backend)) as gateway:
            with OctopusClient(gateway.url, timeout=WIRE_TIMEOUT) as client:
                served = [client.execute(r) for r in GOLDEN_WORKLOAD]
        assert golden_forms(served) == in_process_forms

    def test_process_executor_matches_in_process(
        self, backend, in_process_forms, running_gateway
    ):
        executor = ClusterCoordinator(
            OctopusService(backend), shards=2, fan_out=False
        )
        with running_gateway(executor) as gateway:
            with OctopusClient(gateway.url, timeout=WIRE_TIMEOUT) as client:
                served = client.execute_batch(GOLDEN_WORKLOAD)
        assert golden_forms(served) == in_process_forms

    def test_cluster_executor_matches_in_process(
        self, backend, in_process_forms, running_gateway
    ):
        coordinator = ClusterCoordinator(OctopusService(backend), shards=2)
        with running_gateway(coordinator) as gateway:
            with OctopusClient(gateway.url, timeout=WIRE_TIMEOUT) as client:
                served = client.execute_batch(GOLDEN_WORKLOAD)
        assert golden_forms(served) == in_process_forms

    def test_batch_and_single_paths_agree(
        self, backend, in_process_forms, running_gateway
    ):
        """/query one-by-one and one /batch serve identical bytes."""
        with running_gateway(OctopusService(backend)) as gateway:
            with OctopusClient(gateway.url, timeout=WIRE_TIMEOUT) as client:
                one_by_one = [client.execute(r) for r in GOLDEN_WORKLOAD]
                batched = client.execute_batch(GOLDEN_WORKLOAD)
        assert golden_forms(one_by_one) == in_process_forms
        assert golden_forms(batched) == in_process_forms

    def test_wire_error_envelopes_match_threaded_front_end(
        self, backend, running_gateway
    ):
        """Transport-level failures serve the same canonical envelopes."""
        from repro.server import serve_in_background

        bad_bodies = [
            "not json at all",
            json.dumps({"service": "no_such_service"}),
            json.dumps({"service": "influencers"}),  # missing keywords
        ]
        with running_gateway(OctopusService(backend)) as gateway:
            with OctopusClient(gateway.url, timeout=WIRE_TIMEOUT) as client:
                via_gateway = [client.execute(body) for body in bad_bodies]
        server = serve_in_background(OctopusService(backend), request_timeout=5.0)
        try:
            with OctopusClient(server.url, timeout=WIRE_TIMEOUT) as client:
                via_threaded = [client.execute(body) for body in bad_bodies]
        finally:
            server.shutdown_gracefully()
        assert golden_forms(via_gateway) == golden_forms(via_threaded)


class TestCLIGoldenReplay:
    """The acceptance path: ``octopus query --url`` against a gateway-
    fronted server reproduces local in-process bytes for every executor."""

    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("golden") / "dataset"
        code = main(
            [
                "generate",
                "--kind",
                "citation",
                "--out",
                str(directory),
                "--size",
                "120",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        return str(directory)

    @pytest.fixture(scope="class")
    def workload_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("golden") / "workload.json"
        path.write_text(
            json.dumps([request.to_dict() for request in GOLDEN_WORKLOAD])
        )
        return str(path)

    @pytest.fixture(scope="class")
    def local_replay(self, dataset_dir, workload_file):
        """The local CLI's output for the recorded workload (the golden)."""
        import contextlib
        import io

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(
                ["query", dataset_dir, f"@{workload_file}", "--batch", "--fast"]
            )
        assert code == 0
        return json.loads(stdout.getvalue())

    @pytest.mark.parametrize("executor", ["serial", "processes", "cluster"])
    def test_remote_replay_is_byte_identical(
        self, dataset_dir, workload_file, local_replay, executor, capsys,
        running_gateway,
    ):
        """Replay over the asyncio wire against every executor flavour."""
        import argparse

        from repro.cli import _load_service

        arguments = argparse.Namespace(
            dataset=dataset_dir,
            seed=0,
            fast=True,
            backend="serial",
            workers=2 if executor != "serial" else None,
        )
        service = _load_service(arguments)
        if executor != "serial":
            service = ClusterCoordinator(
                service, shards=2, fan_out=executor == "cluster"
            )
        with running_gateway(service) as gateway:
            capsys.readouterr()  # drop anything buffered before the replay
            code = main(
                [
                    "query",
                    "--url",
                    gateway.url,
                    f"@{workload_file}",
                    "--batch",
                    "--timeout",
                    str(WIRE_TIMEOUT),
                ]
            )
            remote_replay = json.loads(capsys.readouterr().out)
        assert code == 0
        local = golden_forms(
            ServiceResponse.from_dict(entry) for entry in local_replay
        )
        remote = golden_forms(
            ServiceResponse.from_dict(entry) for entry in remote_replay
        )
        assert remote == local
