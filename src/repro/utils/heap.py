"""The priority queue behind the influence-analysis algorithms.

:class:`LazyGreedyQueue` is the CELF-style queue behind every lazy greedy
loop in the library (influence maximization, best-effort keyword IM, and
keyword suggestion).  Items carry a *stale* flag; the queue surfaces the
item with the largest cached gain and tells the caller whether that gain
was computed during the current round and can therefore be trusted.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Generic, Hashable, List, Optional, Tuple, TypeVar

__all__ = ["LazyGreedyQueue"]

T = TypeVar("T", bound=Hashable)


class LazyGreedyQueue(Generic[T]):
    """Max-priority queue with staleness tracking for lazy (CELF) greedy.

    Usage pattern::

        queue = LazyGreedyQueue()
        for item in candidates:
            queue.push(item, upper_bound(item))
        while selecting:
            item, gain, fresh = queue.pop_best()
            if fresh:
                select(item)
                queue.mark_all_stale()
            else:
                queue.push(item, recompute_gain(item))  # re-insert, now fresh

    The queue stores at most one live entry per item; pushing an item again
    invalidates its previous entry.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, T]] = []
        self._entries: dict = {}
        self._round = 0
        self._rounds: dict = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item: T) -> bool:
        return item in self._entries

    def push(self, item: T, gain: float) -> None:
        """Insert *item* with *gain*, replacing any previous entry.

        The entry is stamped with the current round, marking it *fresh*.
        """
        count = next(self._counter)
        self._entries[item] = count
        self._rounds[item] = self._round
        heapq.heappush(self._heap, (-gain, count, item))

    def peek_gain(self, item: T) -> Optional[float]:
        """Return the cached gain of *item*, or ``None`` if absent.

        Linear in heap size; intended for tests and diagnostics only.
        """
        if item not in self._entries:
            return None
        count = self._entries[item]
        for neg_gain, entry_count, entry_item in self._heap:
            if entry_item == item and entry_count == count:
                return -neg_gain
        return None

    def pop_best(self) -> Tuple[T, float, bool]:
        """Remove and return ``(item, gain, fresh)`` for the best item.

        *fresh* is ``True`` when the gain was pushed during the current round
        and can be accepted without re-evaluation.

        Raises :class:`IndexError` when the queue is empty.
        """
        while self._heap:
            neg_gain, count, item = heapq.heappop(self._heap)
            if self._entries.get(item) != count:
                continue  # superseded entry
            del self._entries[item]
            fresh = self._rounds.pop(item) == self._round
            return item, -neg_gain, fresh
        raise IndexError("pop from an empty LazyGreedyQueue")

    def discard(self, item: T) -> None:
        """Remove *item* from the queue if present."""
        self._entries.pop(item, None)
        self._rounds.pop(item, None)

    def mark_all_stale(self) -> None:
        """Start a new round: all existing entries become stale."""
        self._round += 1

    def best_gain(self) -> Optional[float]:
        """Return the gain of the current best entry without removing it."""
        while self._heap:
            neg_gain, count, item = self._heap[0]
            if self._entries.get(item) != count:
                heapq.heappop(self._heap)
                continue
            return -neg_gain
        return None
