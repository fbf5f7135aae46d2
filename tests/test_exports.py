"""Every exported name has a caller: each name in a module's `__all__` appears
as a code reference (an `ast.Name` or `ast.Attribute`, not a string, an import
or a docstring) outside its own definition, in the package, `perfbench/` or
`scripts/`.  And every option has a caller: each parameter with a default, and
each field with a default of a `@dataclass`, is passed by some call of its
name there.  Tests do not count as callers."""

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


def _trees() -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(), str(path))
        for folder in CALLER_DIRS
        for path in sorted(folder.glob("*.py"))
    }


def _uncalled() -> list[str]:
    trees = _trees()
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


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _options(tree):
    """(call name, option, position) for each defaulted parameter of a function
    or method and each defaulted field of a dataclass.  The position counts the
    arguments a call passes before the option (self and cls excluded); it is
    None for a keyword-only parameter."""
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if any(_name(getattr(d, "func", d)) == "dataclass" for d in cls.decorator_list):
            fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield cls.name, f.target.id, i
    methods = {
        f: cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef)
    }
    for f in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        name = methods[f] if f.name == "__init__" else f.name
        bound = f in methods and not any(_name(d) == "staticmethod" for d in f.decorator_list)
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        for i in range(first, len(positional)):
            yield name, positional[i].arg, i - bound
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passes(call: ast.Call, option: str, position: int | None) -> bool:
    if any(k.arg in (option, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args[: position + 1]
    )


def _unset_options() -> list[str]:
    trees = _trees()
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unset = []
    for module_path in sorted(PACKAGE.glob("*.py")):
        for name, option, position in _options(trees[module_path]):
            if not any(
                _name(call.func) == name and _passes(call, option, position) for call in calls
            ):
                unset.append(f"{module_path.stem}.{name}({option})")
    return unset


def test_every_option_has_a_caller():
    assert _unset_options() == []
