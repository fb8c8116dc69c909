"""Import hygiene of the package: every imported name is used, and no module
reaches into another patbench module's private (underscore) names."""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "patbench"
MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def _imports(tree: ast.Module):
    """(bound name, imported name, source module, is a patbench module) per
    imported name; ``from __future__`` imports are directives, not names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, alias.name, alias.name.startswith("patbench")
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = node.module or ""
            internal = node.level > 0 or module.split(".")[0] == "patbench"
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, module, internal


def _referenced(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _referenced(tree)
    unused = sorted({bound for bound, _, _, _ in _imports(tree)} - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_another_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = sorted(
        f"{name} from {module or '.'}"
        for _, name, module, internal in _imports(tree)
        if internal and name.split(".")[-1].startswith("_")
    )
    assert not private, f"{path.name} imports private names: {private}"


def test_modules_found():
    assert {"metrics.py", "report.py", "corpus.py"} <= {p.name for p in MODULES}


def test_scan_flags_unused_and_private_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .metrics import _match, query_outcomes\n"
        "from patbench.report import _aligned\n"
        "from collections import _chain\n"
        "np.zeros(query_outcomes)\n"
    )
    assert {bound for bound, _, _, _ in _imports(tree)} - _referenced(tree) == {
        "os", "_match", "_aligned", "_chain"
    }
    assert [name for _, name, _, internal in _imports(tree) if internal] == [
        "_match", "query_outcomes", "_aligned"
    ]
