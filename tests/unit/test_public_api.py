"""Meta-tests on the public API surface.

A production library's contract: every public package exports what its
``__all__`` promises, and every public item carries a docstring.
"""

import importlib
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
    "repro.engine",
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
    "repro.core.dynamic",
    "repro.core.influencer_index",
    "repro.core.octopus",
    "repro.core.paths",
    "repro.core.query",
    "repro.core.suggestion",
    "repro.core.targeted",
    "repro.core.topic_samples",
    "repro.datasets.loaders",
    "repro.engine.workload",
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
    "repro.im.mia",
    "repro.obs.histogram",
    "repro.obs.prometheus",
    "repro.obs.trace",
    "repro.propagation.kernels",
    "repro.propagation.packed",
    "repro.propagation.rrsets",
    "repro.topics.em",
    "repro.topics.model",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports_and_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} is missing a module docstring"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for item in exported:
        assert hasattr(module, item), f"{name}.__all__ lists missing {item!r}"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
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
    """The service/engine layers are reachable without deep imports."""
    from repro import (  # noqa: F401
        FindInfluencersRequest,
        LatencyReport,
        OctopusService,
        QueryWorkload,
        ServiceError,
        ServiceResponse,
        WorkloadConfig,
        request_from_dict,
        request_from_json,
        run_workload,
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
