"""Golden replay: the determinism contract extended across the socket.

The contract so far (PR 2/3): a fixed seed produces identical results on
any execution backend at any worker count.  This module extends it one
layer out — identical **response payloads** no matter how a request
travels: executed in process, served by a threaded HTTP server, or served
by a ``processes``-executor HTTP server (forked whole-query replicas);
driven by the library client or by ``octopus query --url``.  Comparisons are on
:func:`~repro.service.responses.deterministic_form` — canonical JSON of
the envelope minus wall-clock measurement fields — and must match **byte
for byte**.
"""

import json

import pytest

from repro.cli import main
from repro.cluster import ClusterCoordinator
from repro.server import OctopusClient, serve_in_background
from repro.service import (
    CompleteRequest,
    ExplorePathsRequest,
    FindInfluencersRequest,
    OctopusService,
    RadarRequest,
    SuggestKeywordsRequest,
    TargetedInfluencersRequest,
    deterministic_form,
)

WIRE_TIMEOUT = 15.0

#: The recorded workload: every deterministic service, duplicates included
#: (duplicates exercise cache/de-duplication paths, which must not change
#: payload bytes).  StatsRequest is excluded by design — its payload is
#: live counters, the one service the determinism contract does not cover.
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


class TestThreeWayDeterminism:
    """Same seed + same workload ⇒ identical payloads on all three paths."""

    def test_threaded_server_matches_in_process(self, backend, in_process_forms):
        server = serve_in_background(OctopusService(backend), request_timeout=5.0)
        try:
            with OctopusClient(server.url, timeout=WIRE_TIMEOUT) as client:
                served = client.execute_batch(GOLDEN_WORKLOAD)
        finally:
            server.shutdown_gracefully()
        assert golden_forms(served) == in_process_forms

    def test_process_executor_server_matches_in_process(
        self, backend, in_process_forms
    ):
        executor = ClusterCoordinator(
            OctopusService(backend), shards=2, fan_out=False
        )
        server = serve_in_background(executor, request_timeout=5.0)
        try:
            with OctopusClient(server.url, timeout=WIRE_TIMEOUT) as client:
                served = client.execute_batch(GOLDEN_WORKLOAD)
        finally:
            server.shutdown_gracefully()
        assert golden_forms(served) == in_process_forms

    def test_single_requests_match_batched_requests(self, backend, in_process_forms):
        """/query and /batch serve the same bytes for the same request."""
        server = serve_in_background(OctopusService(backend), request_timeout=5.0)
        try:
            with OctopusClient(server.url, timeout=WIRE_TIMEOUT) as client:
                one_by_one = [client.execute(r) for r in GOLDEN_WORKLOAD]
        finally:
            server.shutdown_gracefully()
        assert golden_forms(one_by_one) == in_process_forms

    def test_wire_responses_survive_json_round_trip(self, backend):
        """What the client parsed re-encodes to the exact server bytes."""
        from repro.service import ServiceResponse

        server = serve_in_background(OctopusService(backend), request_timeout=5.0)
        try:
            with OctopusClient(server.url, timeout=WIRE_TIMEOUT) as client:
                response = client.execute(CompleteRequest(prefix="da"))
        finally:
            server.shutdown_gracefully()
        assert ServiceResponse.from_json(response.to_json()) == response


class TestCLIGoldenReplay:
    """The acceptance path: a workload file through ``octopus query --url``
    against a served dataset returns payloads byte-identical to local
    in-process execution with the same seed."""

    @pytest.fixture(scope="class")
    def dataset_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("golden") / "dataset"
        assert (
            main(
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
            == 0
        )
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
        self, dataset_dir, workload_file, local_replay, executor, capsys
    ):
        """Replay over the wire against every server executor flavour."""
        import argparse

        from repro.cli import _load_service

        # Build the served system exactly the way `octopus serve` does,
        # from the same dataset directory with the same seed and budgets.
        arguments = argparse.Namespace(
            dataset=dataset_dir,
            seed=0,
            fast=True,
            backend="serial",
            workers=2 if executor != "serial" else None,
            rr_kernel="vectorized",
        )
        service = _load_service(arguments)
        if executor != "serial":
            service = ClusterCoordinator(
                service, shards=2, fan_out=executor == "cluster"
            )
        server = serve_in_background(service, request_timeout=5.0)
        try:
            capsys.readouterr()  # drop anything buffered before the replay
            code = main(
                [
                    "query",
                    "--url",
                    server.url,
                    f"@{workload_file}",
                    "--batch",
                    "--timeout",
                    str(WIRE_TIMEOUT),
                ]
            )
            remote_replay = json.loads(capsys.readouterr().out)
        finally:
            server.shutdown_gracefully()
        assert code == 0
        from repro.service import ServiceResponse

        local = golden_forms(
            ServiceResponse.from_dict(entry) for entry in local_replay
        )
        remote = golden_forms(
            ServiceResponse.from_dict(entry) for entry in remote_replay
        )
        assert remote == local

    def test_single_query_cli_matches_local(
        self, dataset_dir, local_replay, capsys
    ):
        """A single (non-batch) query --url also reproduces local bytes."""
        from repro.service import ServiceResponse

        request_json = GOLDEN_WORKLOAD[1].to_json()
        import argparse

        from repro.cli import _load_service

        arguments = argparse.Namespace(
            dataset=dataset_dir,
            seed=0,
            fast=True,
            backend="serial",
            workers=None,
            rr_kernel="vectorized",
        )
        server_service = _load_service(arguments)
        server = serve_in_background(server_service, request_timeout=5.0)
        try:
            capsys.readouterr()
            code = main(["query", "--url", server.url, request_json])
            remote = ServiceResponse.from_json(capsys.readouterr().out)
        finally:
            server.shutdown_gracefully()
        assert code == 0
        local = ServiceResponse.from_dict(local_replay[1])
        assert deterministic_form(remote) == deterministic_form(local)
