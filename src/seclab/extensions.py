"""Short exact sequences of finite groups and their homomorphic sections.

An extension is a validated chain ``A -> E -> Gamma`` with the first map
injective, the second surjective, and image equal to kernel in the middle.
Sections are homomorphisms splitting the projection; they are compared up
to conjugation by the embedded kernel and by all of the middle group.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Tuple

from .cohomology import conjugation_coefficients, h1
from .errors import InvariantViolation, NotExact, ValidationError
from .groups import (
    GroupHom,
    Subgroup,
    _factor,
    _lifts_through,
    _Record,
    compose,
    identity_hom,
    image,
    partition_by_conjugation,
    quotient,
    subgroup,
)

__all__ = [
    "Extension",
    "SectionReport",
    "enumerate_sections",
    "lifts_up_to_conjugacy",
    "pushout",
]


class Extension(_Record):
    """A short exact sequence ``A --iota--> E --pi--> Gamma``, fixed by its
    two maps: ``A`` and ``E`` are iota's source and target, ``Gamma`` pi's target."""

    _fields = {"iota": GroupHom, "pi": GroupHom}

    A = property(attrgetter("iota.source"))
    E = property(attrgetter("iota.target"))
    Gamma = property(attrgetter("pi.target"))

    def __post_init__(self) -> None:
        if self.iota.target != self.pi.source:
            raise ValidationError("iota's target and pi's source must be the same group")
        seen = {}
        for x in self.A.elements:
            y = self.iota.map[x]
            if y in seen:
                raise NotExact(f"iota identifies {seen[y]} and {x} (both map to {y})")
            seen[y] = x
        hit = set(self.pi.map)
        for g in self.Gamma.elements:
            if g not in hit:
                raise NotExact(f"pi misses base element {g}")
        img = set(self.iota.map)
        ker = {e for e in self.E.elements if self.pi.map[e] == self.Gamma.identity}
        for e in sorted(img - ker):
            raise NotExact(f"image element {e} of iota is not killed by pi")
        for e in sorted(ker - img):
            raise NotExact(f"kernel element {e} of pi is not hit by iota")

    def is_section(self, s: GroupHom) -> bool:
        return (
            s.source == self.Gamma
            and s.target == self.E
            and all(self.pi.map[s.map[g]] == g for g in self.Gamma.elements)
        )

    def __repr__(self) -> str:
        name = lambda g: g.label or f"?{g.order}"
        return f"<extension {name(self.A)} -> {name(self.E)} -> {name(self.Gamma)}>"


class SectionReport(_Record):
    """All sections of one extension plus their conjugacy partition.

    ``classes_mod_A`` is an index partition into ``sections`` by conjugation
    with the embedded kernel.  Conjugating by all of E gives the same
    partition: if e·s·e⁻¹ is a section, π(e) is central in Γ
    (π(e·s(g)·e⁻¹) = g), so e = a·s(π(e)) with a in the kernel and s(π(e))
    commuting with the image of s, and e·s·e⁻¹ = a·s·a⁻¹.
    """

    _fields = {"sections": tuple, "classes_mod_A": tuple}

    @property
    def count(self) -> int:
        return len(self.sections)


def _sections(ext: Extension) -> Tuple[GroupHom, ...]:
    """Every homomorphic section of the projection, found by the hom search
    over the projection's fibres, sorted: :func:`enumerate_sections`
    without the partition, which the deciders never read."""
    return _lifts_through(ext.pi, identity_hom(ext.Gamma))


def enumerate_sections(ext: Extension) -> SectionReport:
    """Every homomorphic section of the projection, canonically ordered."""
    sections = _sections(ext)
    return SectionReport(sections, partition_by_conjugation(sections, ext.iota.map))


def lifts_up_to_conjugacy(ext: Extension, phibar: GroupHom) -> Tuple[Tuple[GroupHom, ...], ...]:
    """Lifts of a map into the base through the projection, up to kernel conjugacy.

    Returns the partition, possibly empty, of the lifts that the hom search
    over the projection's fibres finds; with lifts, the class count is checked
    against that of the conjugation coefficients at the first lift.
    """
    if phibar.target != ext.Gamma:
        raise ValidationError("the map must land in the extension's base group")
    lifts = _lifts_through(ext.pi, phibar)
    partition = partition_by_conjugation(lifts, ext.iota.map)
    classes = tuple(tuple(lifts[j] for j in cls) for cls in partition)
    if lifts:
        coeff = conjugation_coefficients(image(ext.iota), lifts[0])
        if len(classes) != h1(coeff).class_count:
            raise InvariantViolation(
                f"{len(classes)} lift classes but {h1(coeff).class_count} cocycle classes"
            )
    return classes


def pushout(ext: Extension, sub: Subgroup) -> Tuple[Extension, GroupHom]:
    """Quotient an extension by a subgroup of its kernel group.

    The embedded image must be normal in the middle group (quotient checks).
    The result is the extension of the same base by ``A/sub``, whose maps
    are the ones iota and pi induce on the quotients, together with the
    quotient map on middle groups.  ``A/sub`` is numbered along A, not as
    the kernel's cosets inside the middle quotient.
    """
    if sub.parent != ext.A:
        raise ValidationError("pushout subgroup must live in the kernel group")
    q_e = quotient(ext.E, subgroup(ext.E, (ext.iota.map[x] for x in sub.elements)))[1]
    q_a = quotient(ext.A, sub)[1]
    return Extension(_factor(q_a, compose(q_e, ext.iota)), _factor(q_e, ext.pi)), q_e
