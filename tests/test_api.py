"""The public surface: every exported name resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import surgeshare

MODULES = ["qos", "cost", "solver", "aimd", "scenarios", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"surgeshare.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"surgeshare.{name}.__all__ names missing attributes: {missing}"


def _package_reexports():
    tree = ast.parse(Path(surgeshare.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.asname or alias.name


def test_package_reexports_resolve_to_public_names():
    reexports = list(_package_reexports())
    assert reexports
    for module_name, attr in reexports:
        module = importlib.import_module(f"surgeshare.{module_name}")
        assert attr in module.__all__, f"{attr} is not public in surgeshare.{module_name}"
        assert getattr(surgeshare, attr) is getattr(module, attr)
