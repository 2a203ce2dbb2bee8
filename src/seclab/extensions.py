"""Short exact sequences of finite groups and their homomorphic sections.

An extension is a validated chain ``A -> E -> Gamma`` with the first map
injective, the second surjective, and image equal to kernel in the middle.
Sections are homomorphisms splitting the projection; they are compared up
to conjugation by the embedded kernel and by all of the middle group.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .cohomology import Cocycle, GammaGroup, conjugation_coefficients
from .errors import (
    DifferenceEscapesA,
    InvariantViolation,
    NotAnAction,
    NotALift,
    NotExact,
    NotInjective,
    NotNormalInE,
    NotSurjective,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _coset_representatives,
    _lifts_through,
    _normality_witness,
    _Record,
    compose,
    group_from_table,
    identity_hom,
    image,
    partition_by_conjugation,
    quotient,
    subgroup,
)

__all__ = [
    "Extension",
    "SectionReport",
    "make_extension",
    "enumerate_sections",
    "splits",
    "pushout",
    "semidirect",
    "lift_difference",
]


class Extension(_Record):
    """A short exact sequence ``A --iota--> E --pi--> Gamma``."""

    _fields = ("A", "E", "Gamma", "iota", "pi")

    def __init__(
        self, A: FiniteGroup, E: FiniteGroup, Gamma: FiniteGroup, iota: GroupHom, pi: GroupHom
    ) -> None:
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "Gamma", Gamma)
        object.__setattr__(self, "iota", iota)
        object.__setattr__(self, "pi", pi)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.iota.source != self.A or self.iota.target != self.E:
            raise ValidationError("iota must map the kernel group into the middle group")
        if self.pi.source != self.E or self.pi.target != self.Gamma:
            raise ValidationError("pi must map the middle group onto the base group")
        seen = {}
        for x in self.A.elements:
            y = self.iota.map[x]
            if y in seen:
                raise NotInjective(f"iota identifies {seen[y]} and {x} (both map to {y})")
            seen[y] = x
        hit = set(self.pi.map)
        for g in self.Gamma.elements:
            if g not in hit:
                raise NotSurjective(f"pi misses base element {g}")
        img = set(self.iota.map)
        ker = {e for e in self.E.elements if self.pi.map[e] == self.Gamma.identity}
        for e in sorted(img - ker):
            raise NotExact(f"image element {e} of iota is not killed by pi")
        for e in sorted(ker - img):
            raise NotExact(f"kernel element {e} of pi is not hit by iota")

    @property
    def kernel_subgroup(self) -> Subgroup:
        return image(self.iota)

    def is_section(self, s: GroupHom) -> bool:
        return (
            s.source == self.Gamma
            and s.target == self.E
            and all(self.pi.map[s.map[g]] == g for g in self.Gamma.elements)
        )

    def __repr__(self) -> str:
        name = lambda g: g.label or f"?{g.order}"
        return f"<extension {name(self.A)} -> {name(self.E)} -> {name(self.Gamma)}>"


def make_extension(iota: GroupHom, pi: GroupHom) -> Extension:
    """Assemble and validate an extension from its two structure maps."""
    if iota.target != pi.source:
        raise ValidationError("iota's target and pi's source must be the same group")
    return Extension(iota.source, iota.target, pi.target, iota, pi)


class SectionReport(_Record):
    """All sections of one extension plus their two conjugacy partitions.

    ``classes_mod_A`` conjugates only by the embedded kernel and
    ``classes_mod_E`` by everything; both are index partitions into
    ``sections``, so the second always coarsens the first.
    """

    _fields = ("sections", "classes_mod_A", "classes_mod_E")

    def __init__(
        self,
        sections: Tuple[GroupHom, ...],
        classes_mod_A: Tuple[Tuple[int, ...], ...],
        classes_mod_E: Tuple[Tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "classes_mod_A", classes_mod_A)
        object.__setattr__(self, "classes_mod_E", classes_mod_E)

    @property
    def count(self) -> int:
        return len(self.sections)


def enumerate_sections(ext: Extension) -> SectionReport:
    """Every homomorphic section of the projection, canonically ordered."""
    sections = _lifts_through(ext.pi, identity_hom(ext.Gamma))
    mod_a = partition_by_conjugation(sections, ext.iota.map)
    mod_e = partition_by_conjugation(sections, ext.E.elements)
    return SectionReport(sections, mod_a, mod_e)


def splits(ext: Extension) -> bool:
    return bool(enumerate_sections(ext).sections)


def pushout(ext: Extension, sub: Subgroup) -> Tuple[Extension, GroupHom]:
    """Quotient an extension by a subgroup of its kernel group.

    The embedded image must be normal in the middle group; the result is the
    extension of the same base by ``A/sub`` together with the quotient map on
    middle groups.
    """
    if sub.parent != ext.A:
        raise ValidationError("pushout subgroup must live in the kernel group")
    embedded = subgroup(ext.E, (ext.iota.map[x] for x in sub.elements))
    bad = _normality_witness(ext.E, embedded)
    if bad is not None:
        raise NotNormalInE(
            f"conjugating {bad[1]} by {bad[0]} escapes the embedded subgroup"
        )
    e_quot, q_e = quotient(ext.E, embedded)
    a_quot, q_a = quotient(ext.A, sub)
    a_reps = _coset_representatives(q_a)
    iota_new = GroupHom(
        a_quot, e_quot, tuple(q_e.map[ext.iota.map[r]] for r in a_reps)
    )
    e_reps = _coset_representatives(q_e)
    pi_new = GroupHom(e_quot, ext.Gamma, tuple(ext.pi.map[r] for r in e_reps))
    if compose(pi_new, q_e).map != ext.pi.map:
        raise InvariantViolation("pushout projection does not factor the original one")
    if compose(q_e, ext.iota).map != compose(iota_new, q_a).map:
        raise InvariantViolation("pushout square does not commute")
    return make_extension(iota_new, pi_new), q_e


def semidirect(
    gamma: FiniteGroup, a: FiniteGroup, action: Sequence[GroupHom]
) -> Tuple[Extension, GroupHom]:
    """The split extension for an action of gamma on a by automorphisms.

    ``action[g]`` must be an automorphism of ``a``, the identity must act
    trivially, and rows must compose, as for any coefficient system.  Pairs
    are encoded as ``x*|gamma| + g`` with multiplication
    ``(x,g)(y,h) = (x * g(y), gh)``.  Returns the extension together with
    its canonical section ``g -> (e, g)``.
    """
    for g, phi in enumerate(action):
        if phi.source != a or phi.target != a:
            raise NotAnAction(f"entry for {g} does not map the fibre group to itself")
    GammaGroup(gamma, a, tuple(phi.map for phi in action))
    n = gamma.order
    size = a.order * n
    table = []
    for left in range(size):
        x, g = divmod(left, n)
        row = []
        for right in range(size):
            y, h = divmod(right, n)
            row.append(a.mul(x, action[g].map[y]) * n + gamma.mul(g, h))
        table.append(row)
    label = None
    if a.label and gamma.label:
        label = f"{a.label}:{gamma.label}"
    middle = group_from_table(table, label)
    iota = GroupHom(a, middle, tuple(x * n + gamma.identity for x in a.elements))
    pi = GroupHom(middle, gamma, tuple(e % n for e in range(size)))
    section = GroupHom(gamma, middle, tuple(a.identity * n + g for g in gamma.elements))
    ext = make_extension(iota, pi)
    if not ext.is_section(section):
        raise InvariantViolation("canonical section of a semidirect product failed")
    return ext, section


def lift_difference(
    p: GroupHom,
    p0: GroupHom,
    target_a: Subgroup,
    projection: Optional[GroupHom] = None,
) -> Cocycle:
    """The pointwise difference ``x -> p(x) p0(x)^-1`` of two lifts, as a cocycle.

    Both maps must share source and target and, when ``projection`` is given,
    agree after it; the difference must stay inside ``target_a``, which
    becomes the coefficient group with the source acting by conjugation
    through ``p0``.  The cocycle identity holds by construction and is
    checked by the cocycle validator.
    """
    if p.source != p0.source or p.target != p0.target:
        raise ValidationError("lift difference needs maps with shared source and target")
    if target_a.parent != p.target:
        raise ValidationError("coefficient subgroup must live in the shared target")
    if projection is not None:
        if projection.source != p.target:
            raise ValidationError("projection must start at the shared target")
        for x in p.source.elements:
            if projection.map[p.map[x]] != projection.map[p0.map[x]]:
                raise NotALift(
                    f"maps disagree after the projection at {x}: "
                    f"{projection.map[p.map[x]]} vs {projection.map[p0.map[x]]}"
                )
    big = p.target
    inside = set(target_a.elements)
    diffs = []
    for x in p.source.elements:
        d = big.mul(p.map[x], big.inv(p0.map[x]))
        if d not in inside:
            raise DifferenceEscapesA(
                f"difference {d} at {x} lies outside the coefficient subgroup"
            )
        diffs.append(d)
    coeff = conjugation_coefficients(target_a, p0)
    back = {e: i for i, e in enumerate(target_a.elements)}
    return Cocycle(coeff, tuple(back[d] for d in diffs))
