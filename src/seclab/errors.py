"""Exception types raised by the validating constructors.

Every error message names a concrete witness (the offending triple, element,
or map) so a failing construction can be debugged from the message alone.
"""

from __future__ import annotations

__all__ = [
    "ValidationError",
    "NotAssociative",
    "NoIdentity",
    "NoInverse",
    "NotAPermutation",
    "NotASubgroup",
    "NotAHomomorphism",
    "NotNormal",
    "NotExact",
    "NotAnAction",
    "NotACocycle",
    "IncompatibleTower",
    "BoundExceeded",
    "ManifestSyntaxError",
    "UnknownName",
    "InvariantViolation",
]


class ValidationError(ValueError):
    """Base class for every structural validation failure in this package."""


class NotAssociative(ValidationError):
    """A multiplication table violates associativity; names the witness triple."""


class NoIdentity(ValidationError):
    """A multiplication table has no two-sided identity element."""


class NoInverse(ValidationError):
    """Some element of a table has no inverse; names the element."""


class NotAPermutation(ValidationError):
    """A claimed permutation is not a bijection on its domain."""


class NotASubgroup(ValidationError):
    """An element set is not closed, misses the identity, or lacks inverses."""


class NotAHomomorphism(ValidationError):
    """A map between groups fails multiplicativity; names the witness pair."""


class NotNormal(ValidationError):
    """A subgroup is not stable under conjugation; names the conjugation."""


class NotExact(ValidationError):
    """A would-be short exact sequence is not exact: the first map is not
    injective, the second not surjective, or kernel and image disagree."""


class NotAnAction(ValidationError):
    """A family of maps fails to define a group action by automorphisms."""


class NotACocycle(ValidationError):
    """A value table violates the twisted multiplicativity rule."""


class IncompatibleTower(ValidationError):
    """Tower levels or connecting maps do not commute with the structure maps."""


class BoundExceeded(ValidationError):
    """A size over its bound, raised by the one size check ``groups._check_order``:
    a corpus order, a closure, a permutation, Sn or An degree, a group or Aut order."""


class ManifestSyntaxError(ValidationError):
    """A manifest line cannot be parsed; names the line number."""


class UnknownName(ValidationError):
    """A manifest line references a name that was never defined."""


class InvariantViolation(AssertionError):
    """A theorem or internal invariant checked at run time failed.

    Not a :class:`ValidationError`: the input was accepted, and the library
    then contradicted itself.  Subclasses ``AssertionError`` so checks that
    expect one keep catching it.
    """
