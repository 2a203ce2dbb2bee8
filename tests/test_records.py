"""Every record class is built by the one constructor, ``_Record.__init__``.

A class that needs another way in is not a record: a plain class, or a
tuple of records, says so.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import seclab
from seclab.groups import _Record

MODULES = sorted(p.stem for p in Path(seclab.__file__).parent.glob("[!_]*.py"))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _records():
    for stem in MODULES:
        importlib.import_module(f"seclab.{stem}")
    return [c for c in _subclasses(_Record) if c.__module__.startswith("seclab.")]


def test_no_record_class_defines_its_own_constructor():
    records = _records()
    assert len(records) > 10, records
    own = sorted(f"{c.__module__}.{c.__qualname__}" for c in records if "__init__" in vars(c))
    assert not own, "record classes with their own __init__: " + ", ".join(own)


def test_every_record_class_is_public():
    """So the junk property over ``seclab.__all__`` reaches each of them."""
    hidden = [c.__qualname__ for c in _records() if c.__name__ not in seclab.__all__]
    assert not hidden, "record classes missing from seclab.__all__: " + ", ".join(hidden)
