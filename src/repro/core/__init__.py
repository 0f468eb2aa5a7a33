"""OCTOPUS's primary contribution: online topic-aware influence analysis.

* :mod:`repro.core.query` — keyword query / result types.
* :mod:`repro.core.bounds` — §II-C's upper-bound estimator.
* :mod:`repro.core.besteffort` — the best-effort keyword-IM framework.
* :mod:`repro.core.topic_samples` — the topic-sample-based algorithm.
* :mod:`repro.core.influencer_index` — §II-D's sampled influencer index.
* :mod:`repro.core.suggestion` — personalized influential keyword suggestion.
* :mod:`repro.core.paths` — §II-E influential-path exploration.
* :mod:`repro.core.octopus` — the system facade tying everything together.
"""

from repro.core.besteffort import BestEffortKeywordIM
from repro.core.bounds import (
    PrecomputationBound,
    UpperBoundEstimator,
    walk_sum_bounds,
)
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
    "BestEffortKeywordIM",
    "UpperBoundEstimator",
    "PrecomputationBound",
    "walk_sum_bounds",
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
