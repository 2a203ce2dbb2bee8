"""Shared pytest hooks: fixed hypothesis draws, the acceptance verdict block
printed after a run, and ``--validate-trusted``, which checks every record
the library builds with ``_trusted``.

Under ``--validate-trusted`` each ``seclab`` module that binds
``groups._trusted`` is rebound to a version that also builds the record
through its validating constructor and requires the two to be equal.  It
returns the trusted record, so results and identities are unchanged.  A
failed check is an ``AssertionError``, not a ``ValidationError``, so no
``pytest.raises`` of a library error can swallow it, and every failure is
counted again at the end of the run, which then fails.  The summary lists
the ``_trusted`` call sites in ``src/seclab`` that no test reached.  Code
run in a subprocess (the CLI and import tests) is not checked.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from hypothesis import settings

# each property draws the same examples on every run, so a check that only
# some draws reach is reached always or never; max_examples stays per test
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seclab"

#: (file, line) of each ``_trusted`` call made, and each failed check
_reached = set()
_refused = []


def pytest_addoption(parser):
    parser.addoption(
        "--validate-trusted",
        action="store_true",
        help="also build every record seclab trusts through its validating "
        "constructor, and fail unless the two are equal",
    )


def pytest_configure(config):
    if not config.getoption("validate_trusted"):
        return
    from seclab import groups  # the package imports every module first

    trusted = groups._trusted

    def validated(cls, *values):
        caller = sys._getframe(1)
        site = caller.f_code.co_filename, caller.f_lineno
        _reached.add(site)
        record = trusted(cls, *values)
        try:
            same = cls(*values) == record
        except Exception as err:
            _refused.append("{}:{}: {} refused: {!r}".format(*site, cls.__name__, err))
            raise AssertionError(_refused[-1]) from err
        if not same:
            _refused.append("{}:{}: {} differs from its validated copy".format(*site, cls.__name__))
            raise AssertionError(_refused[-1])
        return record

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "seclab" and getattr(module, "_trusted", None) is trusted:
            module._trusted = validated


def _trusted_sites():
    """(file, first line, last line) of each ``_trusted(...)`` call in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_trusted":
                yield str(path), node.lineno, node.end_lineno


def pytest_sessionfinish(session):
    if _refused:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, config):
    for name in ("test_acceptance", "tests.test_acceptance"):
        module = sys.modules.get(name)
        if module is not None and getattr(module, "VERDICTS", None):
            terminalreporter.section("acceptance criteria")
            for line in module.VERDICTS:
                terminalreporter.write_line(line)
            break
    if not config.getoption("validate_trusted"):
        return
    reached = {(str(Path(path).resolve()), line) for path, line in _reached}
    sites = list(_trusted_sites())
    missed = [
        f"{Path(path).relative_to(PACKAGE.parents[1])}:{first}"
        for path, first, last in sites
        if not any((path, line) in reached for line in range(first, last + 1))
    ]
    terminalreporter.section("validate-trusted")
    terminalreporter.write_line(
        f"{len(sites) - len(missed)} of {len(sites)} _trusted call sites reached, "
        f"{len(_refused)} checks failed"
    )
    for line in _refused[:20]:
        terminalreporter.write_line(f"failed: {line}")
    for site in missed:
        terminalreporter.write_line(f"not reached: {site}")
