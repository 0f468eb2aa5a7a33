"""Unit tests for repro.propagation.packed — flat-array RR-set storage."""

import pickle

import numpy as np
import pytest

from repro.graph.digraph import SocialGraph
from repro.propagation.packed import PackedRRSets
from repro.propagation.rrsets import RRSetCollection
from repro.utils.validation import ValidationError


def _example() -> PackedRRSets:
    """Three sets over 5 nodes: {0, 1}, {1, 2, 3}, {3}."""
    return PackedRRSets.from_sets(5, [{0, 1}, {1, 2, 3}, {3}])


class TestConstruction:
    def test_from_sets_roundtrip(self):
        packed = _example()
        assert packed.num_sets == 3
        assert len(packed) == 3
        assert packed.to_sets() == [{0, 1}, {1, 2, 3}, {3}]

    def test_from_node_arrays(self):
        packed = PackedRRSets.from_node_arrays(
            4, [np.array([2, 0], dtype=np.int64), np.array([3], dtype=np.int64)]
        )
        assert packed.to_sets() == [{0, 2}, {3}]
        assert set(packed.set_nodes(0).tolist()) == {0, 2}

    def test_empty_batch(self):
        packed = PackedRRSets.from_sets(3, [])
        assert packed.num_sets == 0
        assert packed.to_sets() == []

    def test_empty_set_member(self):
        packed = PackedRRSets.from_sets(3, [set(), {1}])
        assert packed.to_sets() == [set(), {1}]
        assert packed.coverage_counts().tolist() == [0, 1, 0]

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValidationError):
            PackedRRSets(3, np.array([0, 1]), np.array([1, 2]))
        with pytest.raises(ValidationError):
            PackedRRSets(3, np.array([0, 1]), np.array([0, 1]))

    def test_rejects_out_of_range_members(self):
        with pytest.raises(ValidationError):
            PackedRRSets.from_sets(2, [{0, 5}])
        with pytest.raises(ValidationError):
            PackedRRSets.from_sets(2, [{-1}])

    def test_arrays_are_immutable(self):
        packed = _example()
        with pytest.raises(ValueError):
            packed.nodes[0] = 9

    def test_set_nodes_bounds(self):
        with pytest.raises(ValidationError):
            _example().set_nodes(3)


class TestChunks:
    def test_from_chunks_concatenates_in_order(self):
        first = PackedRRSets.from_sets(4, [{0}, {1, 2}])
        second = PackedRRSets.from_sets(4, [{3}])
        merged = PackedRRSets.from_chunks(
            4, [first.chunk_payload(), second.chunk_payload()]
        )
        assert merged.to_sets() == [{0}, {1, 2}, {3}]

    def test_from_chunks_empty(self):
        merged = PackedRRSets.from_chunks(4, [])
        assert merged.num_sets == 0

    def test_chunk_payload_pickle_roundtrip(self):
        """Chunk payloads cross process boundaries as two flat buffers."""
        rng = np.random.default_rng(0)
        sets = [set(rng.integers(0, 1000, size=30).tolist()) for _ in range(50)]
        packed = PackedRRSets.from_sets(1000, sets)
        nodes, offsets = pickle.loads(pickle.dumps(packed.chunk_payload()))
        rebuilt = PackedRRSets(1000, nodes, offsets)
        assert rebuilt.to_sets() == packed.to_sets()


class TestMembership:
    def test_membership_matches_sets(self):
        packed = _example()
        expected = {0: [0], 1: [0, 1], 2: [1], 3: [1, 2], 4: []}
        for node, sets in expected.items():
            assert packed.sets_containing(node).tolist() == sets

    def test_out_of_range_node_has_no_sets(self):
        assert _example().sets_containing(99).size == 0
        assert _example().sets_containing(-1).size == 0

    def test_coverage_counts(self):
        assert _example().coverage_counts().tolist() == [1, 2, 1, 2, 0]

    def test_membership_set_ids_ascend(self):
        rng = np.random.default_rng(1)
        sets = [set(rng.integers(0, 50, size=8).tolist()) for _ in range(40)]
        packed = PackedRRSets.from_sets(50, sets)
        for node in range(50):
            containing = packed.sets_containing(node).tolist()
            assert containing == sorted(containing)
            assert containing == [
                index for index, rr in enumerate(sets) if node in rr
            ]


class TestMembershipKeyWidths:
    """``membership()`` sorts keys of the narrowest unsigned dtype that
    holds ``num_nodes - 1``; the index must be the int64 stable-argsort
    one on both sides of every dtype boundary."""

    @pytest.mark.parametrize(
        "num_nodes", [1, 255, 256, 257, 65_535, 65_536, 65_537]
    )
    def test_matches_the_int64_reference(self, num_nodes):
        rng = np.random.default_rng(num_nodes)
        sets = [
            rng.choice(num_nodes, size=min(size, num_nodes), replace=False)
            for size in rng.integers(0, 6, size=400)
        ]
        # The extreme ids, alone and together.
        sets[:3] = [[0], [num_nodes - 1], [num_nodes - 1, 0][:num_nodes]]
        sizes = np.array([len(members) for members in sets])
        nodes = np.concatenate(sets).astype(np.int64)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        packed = PackedRRSets(num_nodes, nodes, offsets)

        set_ids = np.repeat(np.arange(len(sizes)), sizes)
        expected_sets = set_ids[np.argsort(nodes.astype(np.int64), kind="stable")]
        expected_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(nodes, minlength=num_nodes), out=expected_offsets[1:])
        member_offsets, member_sets = packed.membership()
        np.testing.assert_array_equal(member_offsets, expected_offsets)
        np.testing.assert_array_equal(member_sets, expected_sets)
        assert member_sets.dtype == np.int64

        collection = RRSetCollection(SocialGraph.from_edges(num_nodes, []), packed)
        for node in {0, num_nodes // 2, num_nodes - 1}:
            containing = packed.sets_containing(node)
            assert np.all(np.diff(containing) > 0)
            expected = np.flatnonzero([node in members for members in sets])
            assert containing.tolist() == expected.tolist()
        seeds = [0, num_nodes - 1]
        hit = [bool(np.isin(members, seeds).any()) for members in sets]
        assert collection.estimate_spread(seeds) == (
            num_nodes * sum(hit) / len(sizes)
        )
