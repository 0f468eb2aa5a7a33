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
from repro.backend.base import DEFAULT_RR_CHUNK_SIZE, rr_chunk_plan
from repro.backend.shm import ShmArena, ShmSession, ShmSlice
from repro.cluster.coordinator import _ShardHandle, partition_contiguous
from repro.cluster.protocol import (
    ChunkSpec,
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
        """A resolved reply equals ``SerialBackend`` sampling of the same
        chunk range — with the shard writing into a real arena or not."""
        backend = worker.service.backend
        session = ShmSession() if transport == "shm" else None
        arena = ShmArena(session, "shard0") if session is not None else None
        worker.arena = arena
        try:
            gamma = backend.derive_gamma("data mining")
            num_sets, low, high = 1100, 1, 4
            roots = [3, 1, 4, 1, 5, 9, 2, 6]
            plan = rr_chunk_plan(
                num_sets, DEFAULT_RR_CHUNK_SIZE, np.random.SeedSequence(7), roots
            )
            reply = worker.handle(
                SampleShard(
                    gamma=gamma,
                    chunks=tuple(
                        ChunkSpec(count=count, seed=child, roots=tuple(chunk_roots))
                        for count, child, chunk_roots in plan[low:high]
                    ),
                    kernel=backend.config.rr_kernel,
                )
            )
            assert reply.ok
            assert isinstance(reply.value, ShmSlice) == (transport == "shm")
            handle = _ShardHandle(0, None, None, arena)
            nodes, offsets = handle.resolve(reply.value)
            # The reference: the same chunk range (plan offset low·chunk
            # size, same spawned streams) sampled by the serial backend.
            sequence = np.random.SeedSequence(7)
            sequence.spawn(low)  # the chunks before the range
            start = low * DEFAULT_RR_CHUNK_SIZE
            expected = SerialBackend().sample_rr_sets_packed(
                backend.graph,
                backend.edge_weights.edge_probabilities(gamma),
                sum(count for count, _, _ in plan[low:high]),
                sequence,
                roots=[roots[(start + i) % len(roots)] for i in range(len(roots))],
                kernel=backend.config.rr_kernel,
            )
            assert np.array_equal(nodes, expected.nodes)
            assert np.array_equal(offsets, expected.offsets)
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
