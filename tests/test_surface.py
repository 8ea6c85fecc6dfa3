"""Production code keeps only what production calls.

Every top-level function or class in src/sublattices is either used somewhere
in src/ outside its own body or exported through the package's _SOURCES
table.  A helper that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

from sublattices import _SOURCES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sublattices"

# names kept without a caller in src/: the file outside src/ that keeps each, and why
ALLOWED = {
    "admissible_glue": ("bench/probes.py", "wraps it to count glue cells"),
}


def referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_top_level_def_has_a_production_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    assert "oracle.py" in trees
    defs = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    # the allowlist names only definitions that exist
    assert set(ALLOWED) <= {node.name for _, node in defs}
    unused = []
    for name, node in defs:
        if node.name.startswith("__") or node.name in _SOURCES or node.name in ALLOWED:
            continue
        # uses outside the definition itself, so recursion does not count
        used = any(
            node.name in referenced_names(other)
            for tree in trees.values()
            for other in tree.body
            if other is not node
        )
        if not used:
            unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []


def test_every_allowlist_entry_has_a_keeper():
    # an entry whose keeper no longer names it is stale: delete the definition
    for name, (keeper, _) in ALLOWED.items():
        assert name in (ROOT / keeper).read_text(encoding="utf-8"), (name, keeper)
