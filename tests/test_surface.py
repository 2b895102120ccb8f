"""The library surface is what the command line runs.

Every public top-level function or class of ``src/gasket_lerw`` is read by
other package code, wrapped by the benchmark's tracer, or named below as a
ground truth; reference code that only tests read lives in
``tests/oracles.py``.  Every name the tracer wraps exists, so a rename
that would break a traced benchmark run fails here first, and every name
on the allowlist is still defined, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gasket_lerw"
SPANS = ROOT / "perfbench" / "spans.py"

# Public names that no other package code reads, kept on purpose.
ALLOWED = {
    "attempt_crossing",  # the whole-attempt ground truth the samplers are gated against
    "compose_level",  # the exact joint count laws the count samplers are gated against
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded or attributes read in ``tree``, outside ``skip``."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _wrapped() -> set[tuple[str, str]]:
    """(module, name) of every ``self.wrap(module, "name", ...)`` call in the tracer."""
    out = set()
    for node in ast.walk(ast.parse(SPANS.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            out.add((node.args[0].id, node.args[1].value))
    return out


def test_tracer_wraps_are_found():
    assert ("eraser", "erase_scale") in _wrapped()
    assert ("limit", "sample_limit_path") in _wrapped()


def test_every_public_name_is_used():
    modules = _modules()
    refs = {mod: _references(tree) for mod, tree in modules.items()}
    kept = {name for _, name in _wrapped()} | ALLOWED
    unused = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in kept or node.name in _references(tree, skip=node):
                continue
            if any(node.name in r for other, r in refs.items() if other != mod):
                continue
            unused.append(f"{mod}.{node.name}")
    assert not unused, f"public names that no package code reads: {unused}"


def test_every_wrapped_name_exists():
    for mod, name in sorted(_wrapped()):
        module = importlib.import_module(f"gasket_lerw.{mod}")
        assert callable(getattr(module, name, None)), f"the tracer wraps a missing {mod}.{name}"


def test_every_allowed_name_is_defined():
    defined = {
        node.name
        for tree in _modules().values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    stale = sorted(ALLOWED - defined)
    assert not stale, f"allowlisted names that src/ no longer defines: {stale}"
