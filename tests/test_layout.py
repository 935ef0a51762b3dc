"""Package layout rules that keep module boundaries explicit."""

import ast
from pathlib import Path

import matchcolor

SRC = Path(matchcolor.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    """Shared helpers are public: no ``from .module import _name`` in the package."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                source = "." * node.level + (node.module or "")
                offenders += [
                    f"{path.name}: from {source} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []
