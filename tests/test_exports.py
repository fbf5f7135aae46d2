"""Every exported name has a caller: each name in a module's `__all__` appears
as a code reference (an `ast.Name` or `ast.Attribute`, not a string, an import
or a docstring) outside its own definition, in the package, `perfbench/` or
`scripts/`.  Tests do not count as callers."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fermichip"
CALLER_DIRS = [PACKAGE, ROOT / "perfbench", ROOT / "scripts"]


def _exports(tree) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _definitions(tree, name) -> list[tuple[int, int]]:
    """Line spans of the module-level statements that define name."""
    spans = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            spans.append((node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                spans.append((node.lineno, node.end_lineno))
    return spans


def _references(tree) -> list[tuple[str, int]]:
    return [
        (node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def _uncalled() -> list[str]:
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for folder in CALLER_DIRS
        for path in sorted(folder.glob("*.py"))
    }
    references = {path: _references(tree) for path, tree in trees.items()}
    uncalled = []
    for module_path in sorted(PACKAGE.glob("*.py")):
        tree = trees[module_path]
        for name in _exports(tree):
            spans = _definitions(tree, name)
            called = any(
                ref == name
                and not (path == module_path and any(a <= line <= b for a, b in spans))
                for path, refs in references.items()
                for ref, line in refs
            )
            if not called:
                uncalled.append(f"{module_path.stem}.{name}")
    return uncalled


def test_every_export_has_a_caller():
    assert _uncalled() == []
