"""OCTOPUS's primary contribution: online topic-aware influence analysis.

* :mod:`repro.core.query` — keyword query / result types.
* :mod:`repro.core.topic_samples` — the topic-sample-based algorithm and
  the one RR answer (``ris_seed_prefixes``) that builds the samples and
  answers a query that misses them.  The paper's best-effort search and
  its upper bounds live in ``reference/`` (benchmarks E1–E3).
* :mod:`repro.core.influencer_index` — §II-D's sampled influencer index.
* :mod:`repro.core.suggestion` — personalized influential keyword suggestion.
* :mod:`repro.core.paths` — §II-E influential-path exploration.
* :mod:`repro.core.octopus` — the system facade tying everything together.
"""

from repro.core.influencer_index import InfluencerIndex
from repro.core.octopus import Octopus, OctopusConfig
from repro.core.paths import InfluencePathExplorer, PathTree
from repro.core.query import (
    InfluencerResult,
    KeywordQuery,
    KeywordSuggestionResult,
)
from repro.core.suggestion import KeywordSuggester
from repro.core.topic_samples import TopicSampleIndex

__all__ = [
    "InfluencerIndex",
    "Octopus",
    "OctopusConfig",
    "InfluencePathExplorer",
    "PathTree",
    "KeywordQuery",
    "InfluencerResult",
    "KeywordSuggestionResult",
    "KeywordSuggester",
    "TopicSampleIndex",
]
