"""Every imported name is used, in the package and in the tests, and
every exported name is bound.

Deleting a function must take the imports that only it needed along with
it, and its ``__all__`` entry.  A name counts as used when the code refers
to it, when it appears in a string annotation, or, in ``__init__.py``, when
``__all__`` lists it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).parents[1]
MODULES = sorted((ROOT / "src" / "seclab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _used_names(tree, path):
    used = _names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    if path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
    return used


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = _used_names(tree, path)
    return [(line, name) for name, line in imported if name not in used]


def test_every_imported_name_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in MODULES
        for line, name in _unused_imports(path)
    ]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_every_exported_name_is_bound():
    dangling = []
    for path in sorted((ROOT / "src" / "seclab").glob("*.py")):
        name = "seclab" if path.stem == "__init__" else f"seclab.{path.stem}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())  # cli.py lists none
        dangling += [f"{name}.{n}" for n in exported if not hasattr(module, n)]
    assert not dangling, "listed in __all__ but not bound:\n" + "\n".join(dangling)
