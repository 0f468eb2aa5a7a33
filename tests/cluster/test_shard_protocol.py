"""The shard protocol, exercised directly against a ShardWorker.

:class:`~repro.cluster.worker.ShardWorker` is a plain object — the pipe
loop is a thin shell around :meth:`~repro.cluster.worker.ShardWorker.handle`
— so every command verb can be driven in-process: the sampling verb and
its reply on both transports, the introspection verbs (ping / stats), and
the error replies that keep a worker alive through bad commands.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backend import SerialBackend
from repro.backend.base import draw_batch_key
from repro.backend.shm import ShmArena, ShmSession, ShmSlice
from repro.cluster.coordinator import _ShardHandle, partition_contiguous
from repro.cluster.protocol import (
    ExecuteRequest,
    Ping,
    SampleShard,
    ShardStatsCmd,
)
from repro.cluster.worker import ShardWorker
from repro.service import CompleteRequest


@pytest.fixture
def worker(make_service):
    return ShardWorker(make_service("threads"), shard_id=0, num_shards=1)


class TestSampleShardReply:
    @pytest.mark.parametrize("transport", ["shm", "inline"])
    def test_reply_is_the_serial_batch_of_the_chunk_range(
        self, worker, transport
    ):
        """A resolved reply equals the same set range of the batch
        ``SerialBackend`` samples from the same key and roots — with the
        shard writing into a real arena or not."""
        backend = worker.service.backend
        session = ShmSession() if transport == "shm" else None
        arena = ShmArena(session, "shard0") if session is not None else None
        worker.arena = arena
        try:
            gamma = backend.derive_gamma("data mining")
            probabilities = backend.edge_weights.edge_probabilities(gamma)
            num_sets = 1100
            roots = np.resize([3, 1, 4, 1, 5, 9, 2, 6], num_sets)
            start, stop = 300, 1000
            reply = worker.handle(
                SampleShard(
                    gamma=gamma,
                    key=draw_batch_key(np.random.default_rng(7)),
                    first=start,
                    roots=roots[start:stop],
                )
            )
            assert reply.ok
            assert isinstance(reply.value, ShmSlice) == (transport == "shm")
            handle = _ShardHandle(0, None, None, arena)
            nodes, offsets = handle.resolve(reply.value)
            # The reference: the whole batch, keyed by the same first draw.
            batch = SerialBackend().sample_rr_sets_packed(
                backend.graph,
                probabilities,
                num_sets,
                np.random.default_rng(7),
                roots=roots,
            )
            low, high = batch.offsets[start], batch.offsets[stop]
            assert np.array_equal(nodes, batch.nodes[low:high])
            assert np.array_equal(offsets, batch.offsets[start:stop + 1] - low)
        finally:
            if arena is not None:
                arena.close()
                session.close()


@given(total=st.integers(0, 60), parts=st.integers(1, 9))
def test_partition_contiguous_is_a_partition(total, parts):
    bounds = partition_contiguous(total, parts)
    assert len(bounds) == parts
    assert bounds[0][0] == 0 and bounds[-1][1] == total
    for (_, previous_high), (low, high) in zip(bounds, bounds[1:]):
        assert previous_high == low
        assert high >= low
    sizes = [high - low for low, high in bounds]
    assert max(sizes) - min(sizes) <= 1


class TestIntrospectionVerbs:
    def test_ping_reports_identity(self, worker):
        reply = worker.handle(Ping())
        assert reply.ok
        assert reply.value["shard"] == 0
        assert reply.value["pid"] == os.getpid()  # driven in-process

    def test_stats_reports_shard_counters_and_replica_stats(self, worker):
        assert worker.handle(ExecuteRequest(CompleteRequest(prefix="da"))).ok
        reply = worker.handle(ShardStatsCmd())
        assert reply.ok
        stats = reply.value
        assert stats["shard.id"] == 0.0
        assert stats["shard.requests"] == 1.0
        assert stats["shard.commands"] >= 2.0
        assert stats["service.complete.requests"] == 1.0

    def test_unknown_commands_do_not_kill_the_worker(self, worker):
        reply = worker.handle(object())
        assert not reply.ok
        assert "unknown command" in reply.error
        assert worker.handle(Ping()).ok


class TestCoordinatorIntrospection:
    def test_shard_stats_snapshots_every_live_shard(
        self, make_service, running_cluster
    ):
        with running_cluster(make_service("serial"), shards=2) as cluster:
            assert cluster.execute(CompleteRequest(prefix="da")).ok
            snapshots = cluster.shard_stats()
            assert [entry["shard.id"] for entry in snapshots] == [0.0, 1.0]
            assert sum(entry["shard.requests"] for entry in snapshots) == 1.0
