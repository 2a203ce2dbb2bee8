"""Reach gate: every statement in ``src/seclab`` is reached by a tier-1 test.

Runs the tier-1 suite in this process under a ``sys.settrace`` tracer that
follows only frames whose code lives in ``src/seclab``, and maps each line
event to the statement that holds the line.  It fails on a statement that
no test reached and that is not on ``ALLOWED``, and on an ``ALLOWED`` entry
whose statement a test reached or that no longer exists, so the list can
only shrink.  Entries are keyed by module, enclosing function and the
statement's text with its whitespace collapsed, not by line number.

Tests that run seclab in a subprocess (the CLI and import tests) are not
traced.  Criterion 01 is deselected: it takes most of the untraced run and
reaches no statement that another test does not.  Line events differ
between Python versions, so the allow-list is kept for CPython 3.11.

Run from anywhere, with pytest and hypothesis installed::

    python tests/reach.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seclab"
DESELECTED = "tests/test_acceptance.py::test_criterion_01_conjugation_pullback_identity"

_THEOREM = "a theorem guard: no input reaches it unless the library is wrong"

#: (module, function, statement text, reason) of each statement no test reaches.
ALLOWED = (
    (
        "cohomology",
        "inner_pullback",
        "raise InvariantViolation( f\"conjugation pullback by {g} is not the expected "
        "coboundary twist\" )",
        _THEOREM,
    ),
    (
        "extensions",
        "lifts_up_to_conjugacy",
        "raise InvariantViolation( f\"{len(classes)} lift classes but "
        "{h1(coeff).class_count} cocycle classes\" )",
        _THEOREM,
    ),
    (
        "localglobal",
        "transport_family",
        "raise InvariantViolation(\"transport lost density; the covering argument is broken\")",
        _THEOREM,
    ),
    (
        "localglobal",
        "interpolating_section_from_hom",
        "raise InvariantViolation(\"constructed map is not a section\")",
        _THEOREM,
    ),
    (
        "localglobal",
        "interpolating_section_from_hom",
        "raise InvariantViolation(f\"conjugator {c_i} escapes the embedded kernel\")",
        _THEOREM,
    ),
    (
        "localglobal",
        "interpolating_section_from_hom",
        "raise InvariantViolation(\"re-validation of the constructed conjugator failed\")",
        _THEOREM,
    ),
    (
        "localglobal",
        "tower_limit_sections",
        "raise InvariantViolation( f\"pushed witness fell outside level {j + 1}'s witness "
        "set\" )",
        _THEOREM,
    ),
)


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path):
    """Yield ``(function, text, lines)`` for each statement of one module,
    docstrings left out.  ``lines`` are the lines whose events count for
    the statement: all of a simple statement's, and only the header of a
    compound one (decorators included), since its body is statements too."""
    source = path.read_text()
    text_lines = source.splitlines()

    def visit(body, scope):
        for node in body:
            if _is_docstring(node):
                continue
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            inner = getattr(node, "body", None)
            last = max(first, inner[0].lineno - 1) if inner else node.end_lineno
            text = " ".join(" ".join(text_lines[first - 1 : last]).split())
            yield scope, text, range(first, last + 1)
            name = getattr(node, "name", None)
            child = scope if name is None else (name if scope == "<module>" else f"{scope}.{name}")
            for field in ("body", "orelse", "finalbody", "handlers", "cases"):
                for part in getattr(node, field, ()):
                    if isinstance(part, ast.stmt):
                        yield from visit([part], child)
                    else:  # an except handler or a match case holds a body
                        yield from visit(part.body, child)

    yield from visit(ast.parse(source).body, "<module>")


def trace_tier1(owner: dict) -> tuple[int, set]:
    """Run tier-1 under the tracer; return pytest's exit code and the
    statements that fired a line event.  ``owner`` maps each package file
    to ``{line: statement}``.  A frame is traced only while its code holds
    a statement not yet reached, so a covered loop stops paying for it."""
    import pytest

    reached: set = set()
    pending: dict = {}  # code object -> (its statements not yet reached, its file's lines)

    def follow(frame, event, arg):
        code = frame.f_code
        if code not in pending:
            lines = owner.get(os.path.realpath(code.co_filename), {})
            todo = {lines[n] for _, _, n in code.co_lines() if n in lines} - reached
            if code.co_name != "<module>":  # its def or class line runs in the caller
                todo.discard(lines.get(code.co_firstlineno))
            pending[code] = todo, lines
        todo, lines = pending[code]
        if not todo:
            return None

        def line(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                key = lines[frame.f_lineno]
                reached.add(key)
                todo.discard(key)
                if not todo:
                    frame.f_trace = None
            return line

        return line

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(follow)
    sys.settrace(follow)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", DESELECTED, "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main() -> int:
    found = {path: list(statements(path)) for path in sorted(PACKAGE.glob("*.py"))}
    owner = {
        os.path.realpath(path): {n: (path, i) for i, (*_, lines) in enumerate(stmts) for n in lines}
        for path, stmts in found.items()
    }
    code, reached = trace_tier1(owner)
    if code != 0:
        print(f"reach: tier-1 exited with {code}; reach is not judged on a failing run")
        return 1
    unreached: Counter = Counter()
    where: dict = {}
    for path, stmts in found.items():
        for i, (function, text, lines) in enumerate(stmts):
            if (path, i) not in reached:
                key = (path.stem, function, text)
                unreached[key] += 1
                where.setdefault(key, f"src/seclab/{path.name}:{lines[0]}")
    allowed = Counter((module, function, text) for module, function, text, _ in ALLOWED)
    new = unreached - allowed
    stale = allowed - unreached
    print(
        f"reach: {sum(map(len, found.values()))} statements in src/seclab, "
        f"{sum(unreached.values())} not reached, {len(ALLOWED)} allow-listed.  "
        "Tests that run seclab in a subprocess are not traced."
    )
    for key in sorted(new):
        print(f"reach: not reached by any test: {where[key]} in {key[1]}: {key[2]}")
    for key in sorted(stale):
        print(f"reach: allow-listed but reached or gone: {key[0]}.{key[1]}: {key[2]}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
