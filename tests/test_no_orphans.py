"""No orphans under ``src/pyrsample/``: every module-level private function
or constant is used somewhere under ``src/`` outside its own definition;
every module-level public function or class is named somewhere under
``src/``, ``tests/``, ``perfbench/`` or ``scripts/``, or in the README,
outside its own definition; and every name a module imports is used in that
module (or exported in its ``__all__``). A deletion that leaves a helper, a
wrapper or an import behind fails here."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pyrsample"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _used(node: ast.AST) -> set[str]:
    """The names that ``node`` reads, as bare names or attributes."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _defined(statement: ast.stmt) -> list[str]:
    """The names that a module-level def or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else (
        [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _named(node: ast.AST) -> set[str]:
    """The names that ``node`` reads or imports, and its string constants,
    which is how ``perfbench`` names the functions it traces."""
    names = _used(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_private_definitions_have_a_use():
    assert "cli.py" in TREES
    statements = [(module, s) for module, tree in TREES.items() for s in tree.body]
    uses = [_used(s) for _, s in statements]
    orphans = [
        f"{module}: {name}"
        for k, (module, statement) in enumerate(statements)
        for name in _defined(statement)
        if _private(name) and not any(name in u for j, u in enumerate(uses) if j != k)
    ]
    assert orphans == []


def test_public_definitions_have_a_use():
    outside = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for folder in ("tests", "perfbench", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            outside |= _named(ast.parse(path.read_text(), str(path)))
    named = {module: [_named(s) for s in tree.body] for module, tree in TREES.items()}
    orphans = []
    for module, tree in TREES.items():
        elsewhere = outside.union(*(n for m, ns in named.items() if m != module for n in ns))
        for k, statement in enumerate(tree.body):
            if (isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not statement.name.startswith("_")
                    and statement.name not in elsewhere.union(
                        *(n for j, n in enumerate(named[module]) if j != k))):
                orphans.append(f"{module}: {statement.name}")
    assert "cli.py" in TREES and "FocusMap" in outside
    assert orphans == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_imports_have_a_use(module):
    tree = TREES[module]
    exported = set()
    for statement in tree.body:
        if "__all__" in _defined(statement):
            exported = {ast.literal_eval(e) for e in statement.value.elts}
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    assert [name for name in imported if name not in _used(tree) | exported] == []
