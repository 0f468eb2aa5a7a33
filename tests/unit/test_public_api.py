"""Meta-tests on the public API surface.

A production library's contract: every public package exports what its
``__all__`` promises, and every public item carries a docstring.
"""

import importlib
import importlib.util
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.utils",
    "repro.graph",
    "repro.topics",
    "repro.propagation",
    "repro.im",
    "repro.core",
    "repro.index",
    "repro.datasets",
    "repro.viz",
    "repro.service",
    "repro.server",
    "repro.cluster",
    "repro.gateway",
    "repro.obs",
]

MODULES = [
    "repro.cli",
    "repro.cluster.coordinator",
    "repro.cluster.protocol",
    "repro.cluster.worker",
    "repro.core.besteffort",
    "repro.core.bounds",
    "repro.core.influencer_index",
    "repro.core.octopus",
    "repro.core.paths",
    "repro.core.query",
    "repro.core.suggestion",
    "repro.core.targeted",
    "repro.core.topic_samples",
    "repro.datasets.loaders",
    "repro.gateway.admission",
    "repro.gateway.http",
    "repro.gateway.limits",
    "repro.graph.digraph",
    "repro.server.client",
    "repro.server.http",
    "repro.server.wire",
    "repro.service.dispatcher",
    "repro.service.middleware",
    "repro.service.requests",
    "repro.service.responses",
    "repro.obs.histogram",
    "repro.obs.prometheus",
    "repro.obs.trace",
    "repro.propagation.kernels",
    "repro.propagation.packed",
    "repro.propagation.rrsets",
    "repro.topics.em",
    "repro.topics.model",
]

#: The unshipped baselines and reference engines keep the same contract.
REFERENCE_MODULES = [
    "reference",
    "reference.analysis",
    "reference.cascade",
    "reference.estimators",
    "reference.greedy",
    "reference.heuristics",
    "reference.mia",
    "reference.rrsets",
    "reference.worlds",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES + REFERENCE_MODULES)
def test_module_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} is missing a module docstring"


@pytest.mark.parametrize("name", PACKAGES + MODULES + REFERENCE_MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for item in exported:
        assert hasattr(module, item), f"{name}.__all__ lists missing {item!r}"


@pytest.mark.parametrize("name", PACKAGES + MODULES + REFERENCE_MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for item in exported:
        obj = getattr(module, item)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name}.{item} is missing a docstring"
            if inspect.isclass(obj):
                for method_name, method in inspect.getmembers(
                    obj, predicate=inspect.isfunction
                ):
                    if method_name.startswith("_"):
                        continue
                    if method.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited
                    assert method.__doc__, (
                        f"{name}.{item}.{method_name} is missing a docstring"
                    )


def test_version_exposed():
    import repro

    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_top_level_quickstart_names():
    """The README quickstart's imports must keep working."""
    from repro import (  # noqa: F401
        CitationNetworkGenerator,
        Octopus,
        OctopusConfig,
        SocialNetworkGenerator,
    )


def test_top_level_service_and_engine_names():
    """The service layer and its compute engine are reachable without deep
    imports."""
    from repro import (  # noqa: F401
        FindInfluencersRequest,
        Octopus,
        OctopusService,
        ServiceError,
        ServiceResponse,
        request_from_dict,
        request_from_json,
    )


def test_top_level_server_names():
    """The HTTP wire transport is reachable without deep imports."""
    from repro import (  # noqa: F401
        OctopusClient,
        OctopusHTTPServer,
        OctopusTransportError,
        serve_in_background,
    )


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro", "ConcurrentOctopusService"),
        ("repro.service", "ConcurrentOctopusService"),
    ],
)
def test_retired_executor_names_are_gone(module, name):
    """The thread/process pool executor was folded into the cluster's
    forked replicas (``ClusterCoordinator(fan_out=False)``)."""
    assert not hasattr(importlib.import_module(module), name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.service.concurrent")


#: Modules that left the package: ``repro.engine`` (octobench generates the
#: workloads) and ``repro.core.dynamic`` were deleted; the paper baselines
#: and reference engines moved to the repository's unshipped ``reference``
#: package.
GONE_MODULES = [
    "repro.engine",
    "repro.core.dynamic",
    "repro.im.greedy",
    "repro.im.heuristics",
    "repro.im.mia",
    "repro.graph.analysis",
    "repro.propagation.worlds",
]

#: Public names that went with them, as ``(module, attribute path)``.
REMOVED_NAMES = [
    ("repro", "QueryWorkload"),
    ("repro", "WorkloadConfig"),
    ("repro", "LatencyReport"),
    ("repro", "run_workload"),
    ("repro.im", "greedy_im"),
    ("repro.im", "MIAModel"),
    ("repro.im", "mia_im"),
    ("repro.im", "degree_seeds"),
    ("repro.im", "degree_discount_seeds"),
    ("repro.im", "pagerank_seeds"),
    ("repro.im", "random_seeds"),
    ("repro.graph", "pagerank"),
    ("repro.graph", "weakly_connected_components"),
    ("repro.graph", "degree_histogram"),
    ("repro.propagation", "simulate_cascade"),
    ("repro.propagation", "LiveEdgeWorld"),
    ("repro.propagation", "WorldEnsemble"),
    ("repro.propagation", "generate_rr_set"),
    ("repro.propagation", "SpreadEstimator"),
    ("repro.propagation", "RRSetSpreadEstimator"),
    ("repro.propagation.ic", "simulate_cascade"),
    ("repro.propagation.ic", "CascadeTrace"),
    ("repro.propagation.ic", "IndependentCascade.estimate_spread_with_interval"),
    ("repro.propagation.rrsets", "generate_rr_set"),
    ("repro.propagation.rrsets", "RRSetCollection.coverage_of"),
    ("repro.propagation.estimators", "SpreadEstimator"),
    ("repro.propagation.estimators", "RRSetSpreadEstimator"),
]


@pytest.mark.parametrize("name", GONE_MODULES)
def test_moved_and_deleted_modules_are_gone(name):
    assert importlib.util.find_spec(name) is None


@pytest.mark.parametrize("module, path", REMOVED_NAMES)
def test_removed_public_names_are_gone(module, path):
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    assert not hasattr(owner, name)
