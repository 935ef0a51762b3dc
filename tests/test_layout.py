"""Package layout rules that keep module boundaries explicit."""

import ast
import sys
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


def test_no_unused_imports():
    """Every name a module imports is used in it; ``__init__`` re-exports are exempt."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [
            f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used
        ]
    assert offenders == []


def test_no_function_local_imports():
    """Imports sit at module level, where the module's dependencies are visible."""
    offenders = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert sorted(offenders) == []


def test_only_hardcore_decides_exact_vs_chain():
    """The exact-or-chain decision sits in ``hardcore``: no other module
    reaches for the exact marginals, the chain estimate or the sampler
    budgets, by import or by attribute; ``__init__`` re-exports are exempt."""
    policy = {
        "exact_marginals",
        "estimate_marginals",
        "_node_budget",
        "AUTO_NODE_BUDGET",
        "AUTO_SWEEP_BUDGET",
    }
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("__init__.py", "hardcore.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}: {name}" for name in names if name in policy]
    assert offenders == []


def test_no_unread_parameters():
    """Every parameter of every function and lambda is read in its body;
    ``self``, ``cls`` and names starting with ``_`` are exempt."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = func.args
            params = [
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                if a is not None and a.arg not in ("self", "cls") and not a.arg.startswith("_")
            ]
            body = func.body if isinstance(func.body, list) else [func.body]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            name = getattr(func, "name", "lambda")
            offenders += [f"{path.stem}.{name}:{p}" for p in params if p not in read]
    assert offenders == []


def test_src_imports_only_stdlib_and_numpy():
    """The package depends on numpy alone: networkx, scipy and the other
    test-side tools stay out of ``src``."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}
            ]
    assert offenders == []


# The verification API the acceptance criteria import: nothing in ``src`` or
# ``bench`` calls it.
VERIFICATION_API = {"colorer.round_flaw_specs", "colorer.round_measure", "graphs.is_matching"}


def referenced_names(tree, strings=False):
    """Identifiers a syntax tree refers to: names, attributes and imported
    names, and with ``strings`` also string constants that are identifiers."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def test_every_definition_is_reached():
    """Every top-level function and class in ``src`` is referenced outside
    its own definition: from its module or another ``src`` module, from
    ``bench/`` (which wraps functions by name), or from ``matchcolor.__all__``.
    ``oracle`` is exempt, since its brute-force references serve the tests,
    and so is ``VERIFICATION_API``."""
    bench = SRC.parents[1] / "bench"
    assert (bench / "spans.py").exists()
    reached = set(matchcolor.__all__)
    for path in bench.rglob("*.py"):
        reached |= referenced_names(ast.parse(path.read_text()), strings=True)
    modules = {
        p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"
    }
    # What each top-level statement of src refers to, so that a definition
    # is reached when a statement other than itself names it.
    refs = [(stmt, referenced_names(stmt)) for tree in modules.values() for stmt in tree.body]
    offenders = []
    for module, tree in modules.items():
        if module == "oracle":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if f"{module}.{node.name}" in VERIFICATION_API or node.name in reached:
                continue
            if not any(node.name in names for stmt, names in refs if stmt is not node):
                offenders.append(f"{module}.{node.name}")
    assert offenders == []
