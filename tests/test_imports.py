"""Every imported name is used, in the package and in the tests, and
every exported name is bound and listed once.

Deleting a function must take the imports that only it needed along with
it, and its ``__all__`` entry.  A name counts as used when the code refers
to it or when it appears in a string annotation.  A star import counts as
used only in ``__init__.py``, which republishes each module's ``__all__``
that way; anywhere else it is reported.  The package itself imports
from the standard library alone.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import seclab

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "seclab"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
        used.add("*")
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
    for path in sorted(PACKAGE.glob("*.py")):
        name = "seclab" if path.stem == "__init__" else f"seclab.{path.stem}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())  # cli.py lists none
        dangling += [f"{name}.{n}" for n in exported if not hasattr(module, n)]
    assert not dangling, "listed in __all__ but not bound:\n" + "\n".join(dangling)


def _republished():
    """The modules ``__init__.py`` star-imports, in import order."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        importlib.import_module(f"seclab.{node.module}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]


def test_the_package_lists_each_module_list_in_import_order():
    """``seclab.__all__`` is every listing module's ``__all__``, in the
    order ``__init__.py`` imports them, then ``__version__``."""
    modules = _republished()
    stems = (p.stem for p in PACKAGE.glob("[!_]*.py"))
    listing = {importlib.import_module(f"seclab.{s}") for s in stems}
    assert set(modules) == {m for m in listing if hasattr(m, "__all__")}
    expected = [name for m in modules for name in m.__all__] + ["__version__"]
    assert seclab.__all__ == expected


def test_no_name_is_exported_by_two_modules():
    owner, twice = {}, []
    for module in _republished():
        for name in module.__all__:
            if name in owner:
                twice.append(f"{name}: {owner[name]} and {module.__name__}")
            owner.setdefault(name, module.__name__)
    assert not twice, "exported by two modules:\n" + "\n".join(twice)


def test_the_runtime_needs_only_the_standard_library():
    """Under ``python -I -S`` neither the environment nor site-packages is
    on the path, so with ``src`` added the package and its CLI import from
    the standard library alone.  ``-I`` drops ``PYTHONDONTWRITEBYTECODE``,
    so ``-B`` keeps the import from writing ``__pycache__`` into ``src``."""
    src = str(ROOT / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import seclab, seclab.cli; "
        "print(seclab.__file__)"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == str(PACKAGE / "__init__.py")
