"""Packed flat-array storage for batches of RR sets.

A batch of RR sets is two int64 arrays — ``nodes`` (all members,
concatenated) and ``offsets`` (set ``i`` occupies
``nodes[offsets[i]:offsets[i + 1]]``) — plus a lazily built CSR
node→set-membership index.  Compared to ``List[Set[int]]`` with a
dict-of-lists inverted index, the packed form:

* makes coverage counting, spread estimation and greedy max-cover pure
  array operations (``np.bincount``, fancy indexing, vectorized argmax);
* crosses process boundaries as two flat buffer pickles instead of
  thousands of Python set pickles (the execution backends ship this form);
* concatenates chunk results without touching individual members.

Membership order inside a set is irrelevant to every consumer (sets!), so
producers may append members in any deterministic order.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.utils.validation import ValidationError

__all__ = ["PackedRRSets"]

_EMPTY = np.empty(0, dtype=np.int64)


class PackedRRSets:
    """Immutable flat-array batch of RR sets over ``num_nodes`` nodes."""

    __slots__ = (
        "num_nodes",
        "nodes",
        "offsets",
        "_member_offsets",
        "_member_sets",
        "_first_occurrence",
    )

    def __init__(
        self, num_nodes: int, nodes: np.ndarray, offsets: np.ndarray
    ) -> None:
        if num_nodes < 0:
            raise ValidationError(f"num_nodes must be >= 0, got {num_nodes}")
        nodes = np.ascontiguousarray(nodes, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) == 0 or offsets[0] != 0:
            raise ValidationError("offsets must be 1-d and start at 0")
        if offsets[-1] != len(nodes) or np.any(np.diff(offsets) < 0):
            raise ValidationError(
                "offsets must be non-decreasing and end at len(nodes)"
            )
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= num_nodes):
            raise ValidationError(
                f"member nodes must be in [0, {num_nodes})"
            )
        self.num_nodes = int(num_nodes)
        self.nodes = nodes
        self.offsets = offsets
        self._member_offsets: Optional[np.ndarray] = None
        self._member_sets: Optional[np.ndarray] = None
        self._first_occurrence: Optional[np.ndarray] = None
        self.nodes.setflags(write=False)
        self.offsets.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_sets(
        cls, num_nodes: int, rr_sets: Sequence[Iterable[int]]
    ) -> "PackedRRSets":
        """Pack an iterable-of-iterables (the legacy representation)."""
        arrays = [
            np.fromiter((int(node) for node in rr_set), dtype=np.int64)
            for rr_set in rr_sets
        ]
        return cls.from_node_arrays(num_nodes, arrays)

    @classmethod
    def from_node_arrays(
        cls, num_nodes: int, arrays: Sequence[np.ndarray]
    ) -> "PackedRRSets":
        """Pack one int64 member array per RR set."""
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum([len(array) for array in arrays], out=offsets[1:])
        nodes = np.concatenate(arrays) if arrays else _EMPTY
        return cls(num_nodes, nodes, offsets)

    @classmethod
    def from_chunks(
        cls, num_nodes: int, chunks: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> "PackedRRSets":
        """Concatenate ``(nodes, offsets)`` chunk payloads, in order.

        This is how backend chunk results and shard replies merge: pure
        array concatenation, never touching individual members.  The
        concatenation writes the batch into fresh arrays, so the result
        never aliases a chunk.
        """
        if not chunks:
            return cls(num_nodes, _EMPTY, np.zeros(1, dtype=np.int64))
        node_parts = [np.asarray(nodes, dtype=np.int64) for nodes, _ in chunks]
        counts = [np.diff(np.asarray(offs, dtype=np.int64)) for _, offs in chunks]
        lengths = np.concatenate(counts) if counts else _EMPTY
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(num_nodes, np.concatenate(node_parts), offsets)

    def chunk_payload(self) -> Tuple[np.ndarray, np.ndarray]:
        """The raw ``(nodes, offsets)`` pair (what backends ship)."""
        return self.nodes, self.offsets

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_sets(self) -> int:
        """Number of RR sets in the batch."""
        return len(self.offsets) - 1

    def __len__(self) -> int:
        return self.num_sets

    def set_nodes(self, index: int) -> np.ndarray:
        """Members of set *index* (read-only view)."""
        if not 0 <= index < self.num_sets:
            raise ValidationError(
                f"set index must be in [0, {self.num_sets}), got {index}"
            )
        return self.nodes[self.offsets[index]:self.offsets[index + 1]]

    def to_sets(self) -> List[Set[int]]:
        """Materialise the legacy ``List[Set[int]]`` representation."""
        flat = self.nodes.tolist()
        bounds = self.offsets.tolist()
        return [
            set(flat[bounds[index]:bounds[index + 1]])
            for index in range(self.num_sets)
        ]

    # ------------------------------------------------------------------
    # Membership index (CSR node → set ids)
    # ------------------------------------------------------------------

    def membership(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(member_offsets, member_sets)``: set ids containing each node.

        Node ``v``'s sets are
        ``member_sets[member_offsets[v]:member_offsets[v + 1]]``, ascending.
        Built once, on first use, by one stable argsort of ``nodes`` cast to
        the narrowest unsigned dtype that holds ``num_nodes - 1``: the same
        stable order, and NumPy radix-sorts keys of 16 bits or fewer.
        """
        if self._member_offsets is None:
            set_ids = np.repeat(
                np.arange(self.num_sets, dtype=np.int64), np.diff(self.offsets)
            )
            keys = self.nodes.astype(np.min_scalar_type(max(self.num_nodes - 1, 0)))
            order = np.argsort(keys, kind="stable")
            member_sets = set_ids[order]
            counts = np.bincount(self.nodes, minlength=self.num_nodes)
            member_offsets = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(counts, out=member_offsets[1:])
            member_sets.setflags(write=False)
            member_offsets.setflags(write=False)
            self._member_offsets = member_offsets
            self._member_sets = member_sets
        return self._member_offsets, self._member_sets

    def sets_containing(self, node: int) -> np.ndarray:
        """Set ids containing *node* (ascending, read-only view)."""
        if not 0 <= node < self.num_nodes:
            return _EMPTY
        member_offsets, member_sets = self.membership()
        return member_sets[member_offsets[node]:member_offsets[node + 1]]

    def coverage_counts(self) -> np.ndarray:
        """Per-node count of containing sets (``np.bincount`` over members)."""
        return np.bincount(self.nodes, minlength=self.num_nodes)

    def first_occurrence(self) -> np.ndarray:
        """Position in ``nodes`` where each node first appears.

        Nodes absent from every set get the sentinel ``len(nodes)``.  This
        is the producer's emission order — for batches packed from Python
        sets it equals the membership-dict insertion order of the historical
        ``List[Set[int]]`` representation, which is what lets the greedy
        cover's tie-breaking replicate earlier releases exactly.
        """
        if self._first_occurrence is None:
            first = np.full(self.num_nodes, len(self.nodes), dtype=np.int64)
            np.minimum.at(
                first, self.nodes, np.arange(len(self.nodes), dtype=np.int64)
            )
            first.setflags(write=False)
            self._first_occurrence = first
        return self._first_occurrence

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"PackedRRSets(num_sets={self.num_sets}, "
            f"total_members={len(self.nodes)}, num_nodes={self.num_nodes})"
        )
