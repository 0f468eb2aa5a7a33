"""Property-based tests for LazyGreedyQueue and the LRU cache."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.cache import LRUCache
from repro.utils.heap import LazyGreedyQueue


@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.floats(-1e6, 1e6)),
        max_size=50,
    )
)
@settings(max_examples=200, deadline=None)
def test_queue_pops_in_descending_order_of_latest_gain(pushes):
    queue = LazyGreedyQueue()
    latest = {}
    for item, gain in pushes:
        queue.push(item, gain)
        latest[item] = gain
    popped = []
    while len(queue):
        item, gain, _fresh = queue.pop_best()
        assert latest[item] == gain
        popped.append(gain)
    assert popped == sorted(popped, reverse=True)
    assert len(popped) == len(latest)


@given(
    st.integers(1, 8),
    st.lists(
        st.tuples(st.integers(0, 15), st.booleans()),  # key, is_put
        max_size=100,
    ),
)
@settings(max_examples=200, deadline=None)
def test_lru_never_exceeds_capacity_and_tracks_reference(capacity, operations):
    cache = LRUCache(capacity)
    reference = {}
    order = []
    for key, is_put in operations:
        if is_put:
            cache.put(key, key * 10)
            reference[key] = key * 10
            if key in order:
                order.remove(key)
            order.append(key)
            while len(order) > capacity:
                evicted = order.pop(0)
                del reference[evicted]
        else:
            value = cache.get(key)
            if key in reference:
                assert value == reference[key]
                order.remove(key)
                order.append(key)
            else:
                assert value is None
        assert len(cache) <= capacity
    for key, value in reference.items():
        assert cache.get(key) == value
