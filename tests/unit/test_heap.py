"""Unit tests for repro.utils.heap."""

import pytest

from repro.utils.heap import LazyGreedyQueue


class TestLazyGreedyQueue:
    def test_pop_returns_largest_gain(self):
        queue = LazyGreedyQueue()
        queue.push("a", 1.0)
        queue.push("b", 3.0)
        queue.push("c", 2.0)
        item, gain, _fresh = queue.pop_best()
        assert item == "b"
        assert gain == 3.0

    def test_entries_start_fresh_within_round(self):
        queue = LazyGreedyQueue()
        queue.push("a", 1.0)
        _item, _gain, fresh = queue.pop_best()
        assert fresh

    def test_mark_all_stale(self):
        queue = LazyGreedyQueue()
        queue.push("a", 1.0)
        queue.mark_all_stale()
        _item, _gain, fresh = queue.pop_best()
        assert not fresh

    def test_reinsert_after_stale_is_fresh(self):
        queue = LazyGreedyQueue()
        queue.push("a", 5.0)
        queue.push("b", 4.0)
        queue.mark_all_stale()
        item, gain, fresh = queue.pop_best()
        assert (item, fresh) == ("a", False)
        queue.push("a", 3.5)  # re-evaluated, smaller gain
        item, gain, fresh = queue.pop_best()
        assert (item, gain, fresh) == ("b", 4.0, False)

    def test_push_replaces_previous_entry(self):
        queue = LazyGreedyQueue()
        queue.push("a", 10.0)
        queue.push("a", 1.0)
        assert len(queue) == 1
        item, gain, _ = queue.pop_best()
        assert (item, gain) == ("a", 1.0)
        assert len(queue) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            LazyGreedyQueue().pop_best()

    def test_contains_and_len(self):
        queue = LazyGreedyQueue()
        queue.push(1, 1.0)
        queue.push(2, 2.0)
        assert 1 in queue and 2 in queue and 3 not in queue
        assert len(queue) == 2

    def test_discard(self):
        queue = LazyGreedyQueue()
        queue.push("a", 1.0)
        queue.discard("a")
        assert len(queue) == 0
        with pytest.raises(IndexError):
            queue.pop_best()

    def test_best_gain_skips_superseded(self):
        queue = LazyGreedyQueue()
        queue.push("a", 10.0)
        queue.push("a", 2.0)
        queue.push("b", 5.0)
        assert queue.best_gain() == 5.0

    def test_best_gain_empty(self):
        assert LazyGreedyQueue().best_gain() is None

    def test_peek_gain(self):
        queue = LazyGreedyQueue()
        queue.push("a", 1.5)
        assert queue.peek_gain("a") == 1.5
        assert queue.peek_gain("zz") is None

    def test_celf_simulation(self):
        """Simulate a CELF round: stale pop, re-evaluate, accept fresh."""
        queue = LazyGreedyQueue()
        true_gain = {"a": 2.0, "b": 1.8, "c": 0.5}
        for item, bound in [("a", 5.0), ("b", 2.5), ("c", 0.9)]:
            queue.push(item, bound)
        queue.mark_all_stale()
        selected = []
        while queue and len(selected) < 2:
            item, _gain, fresh = queue.pop_best()
            if fresh:
                selected.append(item)
                queue.mark_all_stale()
            else:
                queue.push(item, true_gain[item])
        assert selected == ["a", "b"]
