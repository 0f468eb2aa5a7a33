"""Every ``from repro… import X`` in the examples and benchmarks resolves.

No test runs the examples, and tier-1 does not collect the benchmarks, so
a name removed from the package would otherwise break them silently.  The
scripts are parsed, not executed: each imported module must exist and each
imported name must be an attribute or a submodule of it.  Imports from the
repository's ``reference`` package are checked the same way.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPTS = sorted(
    path.relative_to(ROOT).as_posix()
    for directory in ("examples", "benchmarks")
    for path in (ROOT / directory).glob("*.py")
)
CHECKED_PACKAGES = ("repro", "reference")


def _checked(module: str) -> bool:
    return module.split(".")[0] in CHECKED_PACKAGES


def _no_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is None
    except ModuleNotFoundError:  # a parent is missing or is not a package
        return True


def unresolved_imports(source: str) -> list:
    """``module`` / ``module.name`` strings of *source* that do not resolve."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _checked(alias.name) and _no_module(alias.name):
                    missing.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if not _checked(node.module):
                continue
            try:
                module = importlib.import_module(node.module)
            except ModuleNotFoundError:
                missing.append(node.module)
                continue
            for alias in node.names:
                if hasattr(module, alias.name):
                    continue
                if _no_module(f"{node.module}.{alias.name}"):
                    missing.append(f"{node.module}.{alias.name}")
    return missing


def test_scripts_are_found():
    assert any(path.startswith("examples/") for path in SCRIPTS)
    assert any(path.startswith("benchmarks/") for path in SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports_resolve(script):
    source = (ROOT / script).read_text(encoding="utf-8")
    assert unresolved_imports(source) == []


def test_removed_names_are_caught():
    source = (
        "from repro import run_workload\n"
        "from repro.engine import x\n"
        "import repro.engine.workload\n"
        "from repro.propagation.ic import simulate_cascade\n"
    )
    assert unresolved_imports(source) == [
        "repro.run_workload",
        "repro.engine",
        "repro.engine.workload",
        "repro.propagation.ic.simulate_cascade",
    ]
