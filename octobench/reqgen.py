"""Seeded request lists for the four workloads.

The *shape* of every list (which class sits at which position, which
popularity rank is drawn) comes from a fixed pattern generator, and
``--seed`` only chooses the concrete keywords, users and prefixes.  Every
seed therefore sends the same mix with the same cache-hit pattern, which
keeps the spread between seeds down to the spread between requests of one
class.  Keywords are dealt round-robin over their dominant topics (read from
the dataset's public ``word_topic.npy``), because a keyword query's cost is
set almost entirely by its topic: every stretch of a list then holds the same
blend of cheap topic-sample answers and expensive best-effort searches.  The
same seed always gives byte-identical lists.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import numpy as np
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence

from octobench import spec

Request = Dict[str, Any]


@dataclass(frozen=True)
class Operation:
    """One timed client call: a single ``/query`` or one ``/batch``."""

    requests: Sequence[Request]
    classes: Sequence[str]
    batch: bool = False


@dataclass(frozen=True)
class Inputs:
    """What the generator may know about the dataset: its public files."""

    keywords: List[str]
    topics: List[List[str]]  # the keywords grouped by dominant topic
    users: List[int]  # node ids with recorded keywords, ascending
    num_users: int

    @classmethod
    def from_dataset(cls, directory: str) -> "Inputs":
        with open(os.path.join(directory, "dataset.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        keywords = list(manifest["vocabulary"])
        weight = np.load(os.path.join(directory, "word_topic.npy")) * np.load(
            os.path.join(directory, "topic_prior.npy"))
        topics: List[List[str]] = [[] for _ in range(weight.shape[1])]
        for word, topic in zip(keywords, weight.argmax(axis=1)):
            topics[int(topic)].append(word)
        users = sorted(
            int(user) for user, words in manifest["user_keywords"].items() if words
        )
        return cls(keywords, [group for group in topics if group], users,
                   1 + max(users))


class KeywordDeck:
    """Deals never-repeating (keyword, k) pairs, one topic after the other.

    Each topic's keywords come in a seeded order; when a topic runs out at the
    current k it starts over at the next k of *ks*.
    """

    def __init__(self, rng: random.Random, inputs: Inputs, ks: Sequence[int]) -> None:
        self._rng, self._ks = rng, tuple(ks)
        self._topics = inputs.topics
        self._hands: List[List[str]] = [[] for _ in self._topics]
        self._rounds = [0] * len(self._topics)
        self._turn = 0

    def draw(self) -> tuple:
        topic = self._turn % len(self._topics)
        self._turn += 1
        if not self._hands[topic]:
            if self._rounds[topic] >= len(self._ks):
                raise RuntimeError("request list outran its distinct keys")
            words = self._topics[topic]
            self._hands[topic] = self._rng.sample(words, len(words))
            self._rounds[topic] += 1
        return self._hands[topic].pop(), self._ks[self._rounds[topic] - 1]


def _influencers(keywords: Sequence[str], k: int) -> Request:
    return {"service": "influencers", "keywords": list(keywords), "k": k}


def _targeted(keyword: str, k: int, num_sets: int) -> Request:
    return {"service": "targeted", "keywords": [keyword], "k": k,
            "num_sets": num_sets}


def _suggest(user: int) -> Request:
    return {"service": "suggest", "user": user, "k": 3}


def _paths(user: int, keyword: str = "") -> Request:
    request: Request = {"service": "paths", "user": user}
    if keyword:
        request["keywords"] = [keyword]
    return request


def _radar(keyword: str) -> Request:
    return {"service": "radar", "keywords": [keyword]}


def _prefixes(inputs: Inputs) -> List[Request]:
    stems = sorted({word[:2] for word in inputs.keywords}
                   | {word[:3] for word in inputs.keywords})
    return [{"service": "complete", "prefix": stem, "kind": "keywords"}
            for stem in stems]


def warmup_requests(inputs: Inputs) -> List[Request]:
    """The fixed warm-up list: every service once or twice, seed-independent."""
    first, second = inputs.users[0], inputs.users[len(inputs.users) // 2]
    word = inputs.keywords[0]
    # Parameters no timed list uses (k=3, limit=7, 1000 sets), so a warm-up
    # answer is never a cache hit for a timed request.
    requests = [
        {"service": "complete", "prefix": word[:2], "kind": "keywords", "limit": 7},
        {"service": "complete", "prefix": "a", "kind": "users", "limit": 7},
        {"service": "radar", "keywords": inputs.keywords[:2]},
        {"service": "suggest", "user": first, "k": 2},
        {"service": "suggest", "user": second, "k": 2},
        {"service": "paths", "user": first, "threshold": 0.02},
        {"service": "paths", "user": second, "keywords": [word], "threshold": 0.02},
        _influencers([word], 3),
        _targeted(word, 3, 1000),
        {"service": "stats"},
    ]
    assert len(requests) == spec.WARMUP_SIZE
    return requests


def quality_requests(inputs: Inputs, count: int) -> List[Request]:
    """Fixed ``influencers`` queries graded by ``seed_quality_ratio``: single
    keywords and, from three queries up, one two-keyword mixture."""
    rng = random.Random("octobench-quality")
    words = rng.sample(inputs.keywords, count + 1)
    if count < 3:
        return [_influencers([word], 5) for word in words[:count]]
    return ([_influencers([word], 5) for word in words[: count - 1]]
            + [_influencers(words[count - 1:], 5)])


def _zipf_cumulative(size: int, exponent: float) -> List[float]:
    return list(itertools.accumulate(
        (rank + 1) ** -exponent for rank in range(size)))


def _interactive_pools(inputs: Inputs, seed: int) -> Dict[str, List[Request]]:
    """Per repeating class, the request at each popularity rank (rank 0 most
    popular); sized by the universe column of ``spec.INTERACTIVE_MIX``."""
    rng = random.Random(f"interactive_mix:{seed}")
    size = {row[0]: row[2] for row in spec.INTERACTIVE_MIX}
    deck = KeywordDeck(rng, inputs, (5,))
    return {
        "influencers": [_influencers([deck.draw()[0]], 5)
                        for _rank in range(size["influencers"])],
        "suggest": [_suggest(u) for u in rng.sample(inputs.users, size["suggest"])],
        "paths": [_paths(u, rng.choice(inputs.keywords) if i % 2 else "")
                  for i, u in enumerate(rng.sample(inputs.users, size["paths"]))],
        "complete": rng.sample(_prefixes(inputs), size["complete"]),
        "radar": [_radar(w) for w in rng.sample(inputs.keywords, size["radar"])],
    }


def interactive_mix(inputs: Inputs, seed: int, length: int = 4000) -> List[Operation]:
    pools = _interactive_pools(inputs, seed)
    campaigns = KeywordDeck(random.Random(f"interactive_mix:targeted:{seed}"),
                            inputs, (10, 9, 8, 7, 6, 5, 11, 12))
    pattern = random.Random("octobench-pattern:interactive_mix")
    classes = [row[0] for row in spec.INTERACTIVE_MIX]
    shares = [row[1] for row in spec.INTERACTIVE_MIX]
    cumulative = {name: _zipf_cumulative(universe, exponent)
                  for name, _share, universe, exponent, _fill in spec.INTERACTIVE_MIX
                  if universe}
    operations = []
    for cls in pattern.choices(classes, weights=shares, k=length):
        if cls in cumulative:
            size = len(cumulative[cls])
            rank = pattern.choices(range(size), cum_weights=cumulative[cls])[0]
            request = pools[cls][rank]
        else:  # never repeated
            word, k = campaigns.draw()
            request = _targeted(word, k, 5000)
        operations.append(Operation((request,), (cls,)))
    return operations


def prefill_requests(workload: str, inputs: Inputs, seed: int) -> List[Request]:
    """Requests sent once, untimed, before the timed phase so that the result
    cache starts in its steady state: the most popular ranks of every class
    for interactive_mix (least popular first, so the LRU keeps the popular
    ones longest), the whole universe for wire_cheap, nothing elsewhere."""
    if workload == "wire_cheap":
        return wire_universe(inputs, seed)
    if workload != "interactive_mix":
        return []
    pools = _interactive_pools(inputs, seed)
    ranked = [(rank, pools[name][rank])
              for name, _share, _universe, _exponent, fill in spec.INTERACTIVE_MIX
              for rank in range(fill)]
    return [request for _rank, request in sorted(
        ranked, key=lambda item: -item[0])]


def cold_im(inputs: Inputs, seed: int, blocks: int = 16) -> List[Operation]:
    rng = random.Random(f"cold_im:{seed}")
    singles = KeywordDeck(rng, inputs, (5, 6, 7, 4))
    campaigns = KeywordDeck(rng, inputs, (10, 9, 11, 8))
    users = iter(rng.sample(inputs.users, 16 * blocks))
    pattern = random.Random("octobench-pattern:cold_im")
    operations = []
    for _block in range(blocks):
        # A fresh fixed order per block: no period for the clients to alias with.
        for slot in pattern.sample(spec.COLD_IM_BLOCK, len(spec.COLD_IM_BLOCK)):
            if slot == "suggest":
                request = _suggest(next(users))
            elif slot == "paths":
                request = _paths(next(users))
            elif slot == "influencers":
                word, k = singles.draw()
                request = _influencers([word], k)
            else:
                word, k = campaigns.draw()
                request = _targeted(word, k, 5000)
            operations.append(Operation((request,), (slot,)))
    return operations


def wire_universe(inputs: Inputs, seed: int) -> List[Request]:
    """wire_cheap's 64 requests; sent once before timing so all are hits."""
    rng = random.Random(f"wire_cheap:{seed}")
    deck = KeywordDeck(rng, inputs, (5,))
    size = dict(spec.WIRE_UNIVERSE)
    return (
        rng.sample(_prefixes(inputs), size["complete"])
        + [_radar(w) for w in rng.sample(inputs.keywords, size["radar"])]
        + [_suggest(u) for u in rng.sample(inputs.users, size["suggest"])]
        + [_paths(u) for u in rng.sample(inputs.users, size["paths"])]
        + [_influencers([deck.draw()[0]], 5) for _ in range(size["influencers"])]
        + [_targeted(deck.draw()[0], 10, 2000) for _ in range(size["targeted"])]
    )


def wire_cheap(inputs: Inputs, seed: int, rounds: int = 64) -> List[Operation]:
    universe = wire_universe(inputs, seed)
    pattern = random.Random("octobench-pattern:wire_cheap")
    singles = 4 * spec.WIRE_BATCH  # 64 singles + 16 batched = 20 % in batches
    operations = []
    for _round in range(rounds):
        for index in pattern.choices(range(len(universe)), k=singles):
            request = universe[index]
            operations.append(Operation((request,), (request["service"],)))
        members = [universe[i] for i in
                   pattern.choices(range(len(universe)), k=spec.WIRE_BATCH)]
        operations.append(Operation(
            tuple(members), tuple(m["service"] for m in members), batch=True))
    return operations


def cluster_fanout(inputs: Inputs, seed: int, num_sets: int,
                   blocks: int = 30) -> List[Operation]:
    rng = random.Random(f"cluster_fanout:{seed}")
    half = inputs.num_users // 2
    low = [u for u in inputs.users if u < half]
    high = [u for u in inputs.users if u >= half]
    per_shard = 13 * blocks
    # Users alternate between the two shards' node ranges.
    users = itertools.chain.from_iterable(zip(
        rng.sample(low, min(per_shard, len(low))),
        rng.sample(high, min(per_shard, len(high)))))
    fanouts = KeywordDeck(rng, inputs, (10, 9, 11, 8, 12, 7))
    singles = KeywordDeck(rng, inputs, (5, 6))
    pattern = random.Random("octobench-pattern:cluster_fanout")
    operations = []
    for _block in range(blocks):
        for slot in pattern.sample(spec.CLUSTER_BLOCK, len(spec.CLUSTER_BLOCK)):
            if slot == "suggest":
                request = _suggest(next(users))
            elif slot == "paths":
                request = _paths(next(users))
            elif slot == "influencers":
                word, k = singles.draw()
                request = _influencers([word], k)
            else:
                word, k = fanouts.draw()
                request = _targeted(word, k, num_sets)
            operations.append(Operation((request,), (slot,)))
    return operations


def operations_for(workload: str, inputs: Inputs, seed: int,
                   scale: spec.Scale) -> List[Operation]:
    """The timed list of *workload*; consumed in order, cyclically."""
    if workload == "interactive_mix":
        return interactive_mix(inputs, seed)
    if workload == "cold_im":
        return cold_im(inputs, seed, blocks=1 if scale.max_ops else 16)
    if workload == "wire_cheap":
        return wire_cheap(inputs, seed)
    if workload == "cluster_fanout":
        return cluster_fanout(inputs, seed, scale.fanout_sets,
                              blocks=2 if scale.max_ops else 30)
    raise KeyError(workload)


def replayable_json(operations: Sequence[Operation]) -> str:
    """The list as one JSON array of requests, replayable with
    ``octopus query --url URL --batch @file``."""
    flat = [request for op in operations for request in op.requests]
    return json.dumps(flat, sort_keys=True, indent=0)
