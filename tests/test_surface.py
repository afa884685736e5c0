"""The public surface of ``halfwave`` is what the system calls.

Every top-level public name of a ``src/halfwave`` module must be referenced
somewhere other than its own definition and ``halfwave/__init__``: in
``src/``, ``demos/`` or ``perfbench/``.  A helper that only tests use
belongs in ``tests/_oracles.py``; a parameter that only tests set is a
module constant they monkeypatch.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "halfwave"


def public_definitions(tree):
    """{name: node} of the top-level public functions, classes and
    assigned names of a module."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found[name.id] = node
    return {name: node for name, node in found.items() if not name.startswith("_")}


def referenced_names(tree, skip=None):
    """Names read in ``tree`` outside the node ``skip``: loaded names and
    attribute names."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unreferenced_public_names(package, callers):
    """``module.name`` of every public name in ``package`` (a directory of
    modules) that no file in ``callers`` nor another definition reads."""
    trees = {path: ast.parse(path.read_text()) for path in callers}
    elsewhere = {path: referenced_names(tree) for path, tree in trees.items()}
    missing = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = trees[path]
        for name, node in public_definitions(tree).items():
            if name in referenced_names(tree, skip=node):
                continue
            if any(name in refs for other, refs in elsewhere.items() if other != path):
                continue
            missing.append(f"{path.stem}.{name}")
    return missing


def caller_files():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        files += sorted((ROOT / folder).glob("*.py"))
    return files


def test_every_public_name_has_a_caller():
    assert unreferenced_public_names(PACKAGE, caller_files()) == []


def test_surface_guard_flags_an_orphan(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .mod import orphan, used, LIMIT, Kept\n")
    (pkg / "mod.py").write_text(
        "LIMIT = 3\n"
        "def orphan(x):\n"
        "    return orphan(x - 1) if x else LIMIT\n"
        "def used(x):\n"
        "    return x\n"
        "class Kept:\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
    )
    user = tmp_path / "user.py"
    user.write_text("import pkg\npkg.used(1)\nisinstance(1, pkg.Kept)\n")
    # a call from its own body is no caller, and the __init__ export is none
    assert unreferenced_public_names(pkg, [pkg / "mod.py", user]) == ["mod.orphan"]
