"""Local-global interpolation for sections of a finite group extension.

Local sections map small groups into the middle group of an extension,
lifting their projections, the local maps into the base.  The deciders
answer, by exhaustive search, whether the local sections survive every
coefficient test (a), every constant-coefficient test (a'), the
kernel-quotient tests (a''), and whether a global homomorphism (b) or a
global section with kernel conjugators (c) interpolates them.  The descent
properties compare H^1 class labels: a class is labelled by its classes
along the local maps (over the base) or the local sections (over the
middle group).  All searches are canonical: first witnesses are
enumeration-least.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count, repeat
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .cohomology import (
    Cocycle,
    GammaGroup,
    _values_at,
    conjugation_coefficients,
    constant_coefficients,
    h1,
    pullback_coefficients,
)
from .errors import IncompatibleTower, InvariantViolation, ValidationError
from .extensions import Extension, _sections, pushout
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _as_tuple,
    _check_types,
    _factor,
    _orbit_partition,
    _Record,
    _trusted,
    all_normal_subgroups,
    class_index,
    compose,
    conjugacy_classes,
    enumerate_homs,
    generating_set,
    identity_hom,
    image,
    inverse_hom,
    is_bijective,
    is_surjective,
    quotient,
    subgroup_as_group,
)

__all__ = [
    "LocalFamily",
    "LocalSections",
    "CorpusEntry",
    "DescentCheck",
    "EquivalenceReport",
    "TowerResult",
    "CONSTANT_QUOTIENT",
    "A_QUOTIENT_SECTION",
    "USER_SUPPLIED",
    "check_density",
    "transport_family",
    "diagonal_fibre",
    "interpolating_homs",
    "decide_b",
    "decide_c",
    "standard_corpus",
    "decide_a",
    "decide_a_prime",
    "decide_a_doubleprime",
    "verify_equivalences",
    "interpolating_section_from_hom",
    "pushout_tower",
    "tower_limit_sections",
]

CONSTANT_QUOTIENT = "constant-quotient-of-E"
A_QUOTIENT_SECTION = "A-quotient-with-section-action"
USER_SUPPLIED = "user-supplied"


class LocalFamily(_Record):
    """An indexed family of maps from local groups into a common base."""

    _fields = {"gamma": FiniteGroup, "thetas": tuple}

    def __post_init__(self) -> None:
        _check_types(self.thetas, repeat(GroupHom), ValidationError, "local map {}", count())
        for i, theta in enumerate(self.thetas):
            if theta.target != self.gamma:
                raise ValidationError(f"local map {i} does not land in the base group")


class LocalSections(_Record):
    """Local sections of an extension: ``sections[i]`` maps the i-th local
    group into the middle group and lifts ``family.thetas[i] = pi∘sections[i]``.
    The family is a view, built when first read and kept, and not checked
    again: a composite of homomorphisms is one."""

    _fields = {"ext": Extension, "sections": tuple}

    def __post_init__(self) -> None:
        _check_types(self.sections, repeat(GroupHom), ValidationError, "local section {}", count())
        for i, s in enumerate(self.sections):
            if s.target != self.ext.E:
                raise ValidationError(f"local section {i} does not land in the middle group")

    @cached_property
    def family(self) -> LocalFamily:
        thetas = tuple(compose(self.ext.pi, s) for s in self.sections)
        return _trusted(LocalFamily, self.ext.Gamma, thetas)


# ---------------------------------------------------------------------------
# density and transport


def check_density(family: LocalFamily) -> bool:
    """Do the local images meet every conjugacy class of the base group?"""
    _check_types((family,), (LocalFamily,), ValidationError, "{}", ("family",))
    ci = class_index(family.gamma)
    met = {ci[y] for theta in family.thetas for y in theta.map}
    return len(met) == len(conjugacy_classes(family.gamma))


def transport_family(family: LocalFamily, sub: Subgroup) -> LocalFamily:
    """Restrict a family to a subgroup of its base.

    The new locals are indexed by (old local, coset representative): each is
    the preimage of the conjugated subgroup, mapped in by conjugated
    inclusion.  Density is preserved and asserted when the input has it.
    """
    _check_types((family, sub), (LocalFamily, Subgroup), ValidationError, "{}",
                 ("family", "transport target"))
    g = family.gamma
    if sub.parent != g:
        raise ValidationError("transport target must be a subgroup of the base")
    gprime = subgroup_as_group(sub)[0]
    back = {e: i for i, e in enumerate(sub.elements)}
    # the cosets H·x are the orbits of left multiplication by H
    cosets = _orbit_partition(g.elements, lambda x: [g.mul(h, x) for h in sub.elements])
    reps = [coset[0] for coset in cosets]
    thetas = []
    for theta in family.thetas:
        for r in reps:
            moved = [back.get(g.conj(r, y)) for y in theta.map]
            fibre = tuple(x for x, i in enumerate(moved) if i is not None)
            # a preimage of a subgroup is one, conjugation after theta is a hom on
            # it, and gi's inclusion maps onto the fibre in element order
            gi = subgroup_as_group(_trusted(Subgroup, theta.source, fibre))[0]
            thetas.append(_trusted(GroupHom, gi, gprime, tuple(moved[x] for x in fibre)))
    out = LocalFamily(gprime, tuple(thetas))
    if check_density(family) and not check_density(out):
        raise InvariantViolation("transport lost density; the covering argument is broken")
    return out


def _labels(
    values: Sequence[Tuple[int, ...]], maps: Sequence[GroupHom], local: Sequence[Dict[object, int]]
) -> Iterator[Tuple[int, ...]]:
    """Each cocycle's label: its class, in each local H^1, read along each map.

    A cocycle's values at the images of the generators of a map's source
    are the key, by :func:`_values_at`, of its pullback along the map, and
    ``local[i]`` is the ``class_by_key`` of the local H^1 along ``maps[i]``.
    Each map must pull the cocycles' coefficients back to its local system,
    so the values read along it form one of its cocycles.  Each local is
    read as one column, a getter call and a lookup per cocycle, both mapped
    at C level; no restricted value tuple is built.  Only genuine cocycles
    may be labelled: the key of anything else may name some other
    cocycle's class.  With no locals every label is ``()``.
    """
    if not maps:
        return repeat((), len(values))
    keys = (_values_at(tuple(map(f.map.__getitem__, generating_set(f.source)))) for f in maps)
    return zip(*(map(classes.__getitem__, map(key, values)) for key, classes in zip(keys, local)))


def _base_labels(family: LocalFamily, coeff: GammaGroup) -> Tuple[list, tuple, Iterator]:
    """One system's pass over the base: the ``class_by_key`` of the local
    H^1 along each local map, the representative values of the classes
    over the base, and their labels."""
    local = [h1(pullback_coefficients(theta, coeff)).class_by_key for theta in family.thetas]
    classes = h1(coeff).representative_values
    return local, classes, _labels(classes, family.thetas, local)


def diagonal_fibre(alpha: Cocycle, family: LocalFamily) -> Tuple[Cocycle, ...]:
    """All classes over the base whose local restrictions match alpha's.

    Returns representatives; always contains the class of alpha itself, so
    the fibre is finite and nonempty by construction.  Labels are read as
    in :func:`_diagonal`, by :func:`_base_labels`.
    """
    _check_types((alpha, family), (Cocycle, LocalFamily), ValidationError, "{}",
                 ("cocycle", "family"))
    coeff = alpha.parent
    if coeff.gamma != family.gamma:
        raise ValidationError("cocycle does not live over the family's base group")
    local, classes, labels = _base_labels(family, coeff)
    (want,) = _labels((alpha.values,), family.thetas, local)
    return tuple(_trusted(Cocycle, coeff, v) for v, label in zip(classes, labels) if label == want)


# ---------------------------------------------------------------------------
# properties (b) and (c)


def _conjugator(
    u: GroupHom, theta: GroupHom, t: GroupHom, ambient: FiniteGroup, pool: Iterable[int]
) -> Optional[int]:
    """The first e in ``pool`` with ``u(theta(x)) = e t(x) e^-1`` for all x.

    Both sides are homomorphisms in x, so they are compared only on
    ``generating_set(theta.source)``, reading ``ambient``'s table rows.
    """
    # (t(x), u(theta(x))) for each generator x
    pairs = [(t.map[x], u.map[theta.map[x]]) for x in generating_set(theta.source)]
    table, inverse = ambient.table, ambient.inverse
    for e in pool:
        row, e_inv = table[e], inverse[e]
        if all(table[row[y]][e_inv] == w for y, w in pairs):
            return e
    return None


def _interpolating(
    ls: LocalSections, candidates: Iterable[GroupHom], pool: Sequence[int]
) -> Iterator[GroupHom]:
    """The candidates, maps from the base into the middle group, matching
    every local section up to conjugation by an element of ``pool``: all
    homomorphisms and all of E for (b), sections and the kernel for (c)."""
    pairs = tuple(zip(ls.family.thetas, ls.sections))
    for u in candidates:
        if all(_conjugator(u, theta, t, ls.ext.E, pool) is not None for theta, t in pairs):
            yield u


def interpolating_homs(ls: LocalSections) -> Iterator[GroupHom]:
    """All homomorphisms into the middle group matching every local section
    up to conjugation, in canonical order."""
    _check_types((ls,), (LocalSections,), ValidationError, "{}", ("local sections",))
    return _interpolating(ls, enumerate_homs(ls.ext.Gamma, ls.ext.E), ls.ext.E.elements)


def decide_b(ls: LocalSections) -> Optional[GroupHom]:
    """The least interpolating homomorphism, or None."""
    _check_types((ls,), (LocalSections,), ValidationError, "{}", ("local sections",))
    return next(interpolating_homs(ls), None)


def decide_c(ls: LocalSections) -> Optional[GroupHom]:
    """The least section interpolating with conjugators from the kernel."""
    _check_types((ls,), (LocalSections,), ValidationError, "{}", ("local sections",))
    return next(_interpolating(ls, _sections(ls.ext), ls.ext.iota.map), None)


# ---------------------------------------------------------------------------
# coefficient corpora and the descent properties


class CorpusEntry(_Record):
    """One coefficient system together with where it came from."""

    _fields = {"coeff": GammaGroup, "provenance": str}

    def __post_init__(self) -> None:
        if self.provenance not in (CONSTANT_QUOTIENT, A_QUOTIENT_SECTION, USER_SUPPLIED):
            raise ValidationError(f"unknown provenance tag {self.provenance!r}")


def _corpora(ext: Extension, sections: Sequence[GroupHom]) -> Tuple[Tuple[CorpusEntry, ...], ...]:
    """The corpora of (a'), (a) and (a''), read off one pass over the
    normal subgroups V of E, in :func:`all_normal_subgroups` order, with
    each projection E -> E/V built once.

    The constant entries are the base acting trivially on each E/V.  The
    kernel entries are the kernels of the pushouts along each V inside the
    embedded kernel: the image of the kernel in E/V, with the base acting
    by conjugation through the first section pushed to E/V; none without a
    section.  Each kind keeps equal systems once, the first seen.  (a')
    reads the constant entries, (a) the constant then the kernel entries,
    and (a'') the kernel entries, or the constant ones with no section: a
    section always brings the kernel's quotient by itself, so there are no
    kernel entries exactly when there is no section.

    E/V numbers its cosets by least member, so the cosets inside the
    kernel keep the order of their least members.  :func:`pushout` is not
    used: its ``A/V`` is numbered along A.  A/V is normal in E/V, so the
    conjugation check always passes.
    """
    kernel = frozenset(ext.iota.map)
    constant, pushed = {}, {}
    for v in all_normal_subgroups(ext.E):
        q = quotient(ext.E, v)[1]
        constant[constant_coefficients(ext.Gamma, q.target)] = None
        if sections and kernel.issuperset(v.elements):
            act = compose(q, sections[0])
            pushed[conjugation_coefficients(image(compose(q, ext.iota)), act)] = None
    constant = tuple(CorpusEntry(coeff, CONSTANT_QUOTIENT) for coeff in constant)
    pushed = tuple(CorpusEntry(coeff, A_QUOTIENT_SECTION) for coeff in pushed)
    return constant, constant + pushed, pushed or constant


def standard_corpus(ls: LocalSections) -> Tuple[CorpusEntry, ...]:
    """All constant quotients of the middle group, and the pushout kernels
    with section action when a section exists: enough for the implication
    diagram's implications, not for the paper's (a) over every action of
    the base.  Without a section it has no kernel entries, so on a
    non-split instance (a) over it is (a').  A caller's own systems join
    it as ``USER_SUPPLIED`` entries passed to :func:`decide_a` after it."""
    _check_types((ls,), (LocalSections,), ValidationError, "{}", ("local sections",))
    return _corpora(ls.ext, _sections(ls.ext))[1]


class DescentCheck(_Record):
    """Outcome of a survival check over a coefficient corpus.

    When it fails, the first failing coefficient system and class are both
    kept as the witness; when it holds, neither is.  ``classes_checked``
    counts the classes examined.
    """

    _fields = {
        "failing_entry": (CorpusEntry, type(None)),
        "failing_class": (Cocycle, type(None)), "classes_checked": int
    }

    def __post_init__(self) -> None:
        if (self.failing_entry is None) != (self.failing_class is None):
            raise ValidationError("DescentCheck needs both a failing entry and class, or neither")

    @property
    def holds(self) -> bool:
        return self.failing_entry is None


def _diagonal(ls: LocalSections, coeff: GammaGroup) -> Tuple[GammaGroup, tuple, list]:
    """One coefficient system's diagonal test for fixed local sections: the
    system over the middle group, its classes' representative values, and
    each class's verdict, all computed here.

    A class over the base is labelled by its classes along the local maps,
    a class over the middle group by its classes along the local sections.
    Since each section projects to its local map, both read into the same
    local systems, and a class passes exactly when its label is the label
    of some class over the base.  The base's labels come from
    :func:`_base_labels`, and the sections are read into its local class
    maps by :func:`_labels`.
    """
    local, _, base = _base_labels(ls.family, coeff)
    image_labels = set(base)
    over_e = h1(pullback_coefficients(ls.ext.pi, coeff))
    classes = over_e.representative_values
    labels = _labels(classes, ls.sections, local)
    return over_e.parent, classes, list(map(image_labels.__contains__, labels))


def _run_corpus(
    ls: LocalSections,
    entries: Sequence[CorpusEntry],
    diagonals: Dict[GammaGroup, tuple],
    kernel: Optional[Tuple[int, ...]] = None,
) -> DescentCheck:
    """Check each entry's classes in order, stopping at the first that fails.

    ``diagonals`` holds each system's :func:`_diagonal` once built; callers
    deciding several properties of one instance share it.  Given the
    embedded kernel's elements, as for (a''), only the classes whose values
    on them fill the coefficient group are checked and counted.  The
    entries' bases are checked by the caller.
    """
    checked = 0
    for entry in entries:
        if entry.coeff not in diagonals:
            diagonals[entry.coeff] = _diagonal(ls, entry.coeff)
        over, classes, verdicts = diagonals[entry.coeff]
        order = entry.coeff.M.order
        for values, passes in zip(classes, verdicts):
            if kernel is not None and len({values[e] for e in kernel}) != order:
                continue
            checked += 1
            if not passes:
                # the one record a check builds; its values are search output
                failing = _trusted(Cocycle, over, values)
                return DescentCheck(entry, failing, checked)
    return DescentCheck(None, None, checked)


def decide_a(ls: LocalSections, corpus: Iterable[CorpusEntry]) -> DescentCheck:
    """Survival of the local data in every coefficient system of the corpus,
    a sequence of :class:`CorpusEntry` such as :func:`standard_corpus` returns."""
    _check_types((ls,), (LocalSections,), ValidationError, "{}", ("local sections",))
    entries = _as_tuple(corpus, ValidationError, "corpus entries")
    _check_types(entries, repeat(CorpusEntry), ValidationError, "entry {}", count())
    for entry in entries:
        if entry.coeff.gamma != ls.ext.Gamma:
            raise ValidationError("corpus entry does not act through the base group")
    return _run_corpus(ls, entries, {})


def decide_a_prime(
    ls: LocalSections,
    *,
    _shared: Optional[Tuple[Tuple[CorpusEntry, ...], Dict[GammaGroup, tuple]]] = None,
) -> DescentCheck:
    """Survival in all constant quotients of the middle group.

    Every quotient counts, E itself included: that is what makes this
    property match (b) exactly.  The corpus is built with no sections, so
    this decider never searches for one.  ``_shared`` is only for
    :func:`verify_equivalences`: the constant quotients it built and the
    diagonals it shares with (a) and (a'').
    """
    _check_types((ls,), (LocalSections,), ValidationError, "{}", ("local sections",))
    entries, diagonals = _shared or (_corpora(ls.ext, ())[0], {})
    return _run_corpus(ls, entries, diagonals)


def decide_a_doubleprime(ls: LocalSections) -> DescentCheck:
    """Survival in the pushout kernels, restricted to classes surjective on
    the embedded kernel: the kernel's image in each E/V, acted on through
    the first section pushed to E/V.  With no section the check falls back
    to constant quotients, still restricted to classes surjective on the
    kernel's image; :func:`_corpora` makes that choice.
    """
    _check_types((ls,), (LocalSections,), ValidationError, "{}", ("local sections",))
    return _run_corpus(ls, _corpora(ls.ext, _sections(ls.ext))[2], {}, ls.ext.iota.map)


# ---------------------------------------------------------------------------
# the equivalence report


# The implication diagram's names, in report order.
_IMPLICATION_NAMES = (
    "c=>a", "a=>a'", "a=>a''", "b=>a'", "a'=>b", "split&a''=>c", "density=>abc-agree"
)


class EquivalenceReport(_Record):
    """All five properties, the density flag and witnesses; the verdict of
    every implication that is a theorem at this scale is read off them."""

    _fields = {
        "density": bool, "split": bool, "a": DescentCheck, "a_prime": DescentCheck,
        "a_doubleprime": DescentCheck, "b": (GroupHom, type(None)), "c": (GroupHom, type(None)),
    }

    @property
    def holds_b(self) -> bool:
        return self.b is not None

    @property
    def holds_c(self) -> bool:
        return self.c is not None

    @property
    def implications(self) -> Tuple[Tuple[str, bool], ...]:
        a, a1, a2 = self.a.holds, self.a_prime.holds, self.a_doubleprime.holds
        b, c = self.holds_b, self.holds_c
        verdicts = ((not c) or a, (not a) or a1, (not a) or a2, (not b) or a1, (not a1) or b,
                    (not (self.split and a2)) or c, (not self.density) or (a == a1 == b == c))
        return tuple(zip(_IMPLICATION_NAMES, verdicts))

    @property
    def all_implications_hold(self) -> bool:
        return all(v for _, v in self.implications)


def verify_equivalences(ls: LocalSections) -> EquivalenceReport:
    """Decide everything; the report checks the implication diagram.

    The implications asserted: (c) => (a) => (a') and (a) => (a''),
    (b) <=> (a'), split and (a'') together give (c), and density collapses
    (a), (a'), (b), (c) to a single truth value.

    The three corpora come from one :func:`_corpora` pass, and the
    sections are read once, without the conjugacy partition that
    :func:`enumerate_sections` adds.
    """
    _check_types((ls,), (LocalSections,), ValidationError, "{}", ("local sections",))
    density = check_density(ls.family)
    sections = _sections(ls.ext)
    corpus_a_prime, corpus_a, corpus_a_double = _corpora(ls.ext, sections)
    # (a'), (a) and (a'') read overlapping corpora, so each system's
    # diagonal is built once for all three.  (a') is decided through the
    # public decider, so a profile or trace of decide_a_prime sees every
    # (a') decision.
    diagonals: Dict[GammaGroup, tuple] = {}
    a_prime = decide_a_prime(ls, _shared=(corpus_a_prime, diagonals))
    a = _run_corpus(ls, corpus_a, diagonals)
    a_double = _run_corpus(ls, corpus_a_double, diagonals, ls.ext.iota.map)
    b = decide_b(ls)
    c = next(_interpolating(ls, sections, ls.ext.iota.map), None)
    return EquivalenceReport(density, bool(sections), a, a_prime, a_double, b, c)


# ---------------------------------------------------------------------------
# the constructive section from a dense interpolating homomorphism


def interpolating_section_from_hom(
    ls: LocalSections, u: GroupHom
) -> Tuple[GroupHom, Tuple[int, ...]]:
    """Turn an interpolating homomorphism into an interpolating section.

    Requires the composite with the projection to be bijective (density
    guarantees this through class preservation).  The section is
    ``u`` precomposed with that composite's inverse; each returned
    conjugator is re-validated to lie in the kernel's image and to move the
    local section onto the new section's restriction.
    """
    _check_types((ls, u), (LocalSections, GroupHom), ValidationError, "{}",
                 ("local sections", "homomorphism"))
    ext = ls.ext
    if u.source != ext.Gamma or u.target != ext.E:
        raise ValidationError("the homomorphism must map the base into the middle group")
    phi = compose(ext.pi, u)
    if not is_bijective(phi):
        raise ValidationError(
            "projection composed with the homomorphism must be bijective"
        )
    phi_inv = inverse_hom(phi)
    s = compose(u, phi_inv)
    if not ext.is_section(s):
        raise InvariantViolation("constructed map is not a section")
    gam, mid = ext.Gamma, ext.E
    kernel_elements = set(ext.iota.map)
    conjugators = []
    for theta, t in zip(ls.family.thetas, ls.sections):
        gamma_i = _conjugator(u, theta, t, mid, mid.elements)
        if gamma_i is None:
            raise ValidationError("the homomorphism does not interpolate a local section")
        sigma_i = ext.pi.map[gamma_i]
        tau_i = phi_inv.map[gam.inv(sigma_i)]
        c_i = mid.mul(u.map[tau_i], gamma_i)
        if c_i not in kernel_elements:
            raise InvariantViolation(f"conjugator {c_i} escapes the embedded kernel")
        if _conjugator(s, theta, t, mid, (c_i,)) is None:
            raise InvariantViolation("re-validation of the constructed conjugator failed")
        conjugators.append(c_i)
    return s, tuple(conjugators)


# ---------------------------------------------------------------------------
# towers


class TowerResult(_Record):
    """Per-level witness counts and, exactly when none is 0, one chain map per level."""

    _fields = {"level_sizes": tuple, "chain": (tuple, type(None))}

    def __post_init__(self) -> None:
        sizes, chain = self.level_sizes, self.chain
        _check_types(sizes, repeat(int), ValidationError, "TowerResult level size {}", count())
        _check_types(chain or (), repeat(GroupHom), ValidationError, "TowerResult chain map {}",
                     count())
        want, got = (None if 0 in sizes else len(sizes)), (None if chain is None else len(chain))
        if any(type(s) is bool or s < 0 for s in sizes) or want != got:
            raise ValidationError(f"TowerResult level sizes {sizes} must be counts, with one"
                                  " chain map per level exactly when none is 0")

    @property
    def empty_levels(self) -> Tuple[int, ...]:
        return tuple(j for j, size in enumerate(self.level_sizes) if not size)


def pushout_tower(
    ext: Extension, subs: Sequence[Subgroup]
) -> Tuple[Tuple[Extension, ...], Tuple[GroupHom, ...]]:
    """The tower obtained by pushing out along an ascending chain of kernel
    subgroups, with its connecting surjections."""
    _check_types((ext,), (Extension,), ValidationError, "{}", ("tower top",))
    subs = _as_tuple(subs, ValidationError, "tower subgroups")
    _check_types(subs, repeat(Subgroup), ValidationError, "tower subgroup {}", count())
    levels = [ext]
    quots = []
    for i, sub in enumerate(subs):
        if sub.parent != ext.A:
            raise ValidationError(f"tower subgroup {i} does not live in the kernel group")
        if i > 0 and not set(subs[i - 1].elements) <= set(sub.elements):
            raise ValidationError("tower subgroups must be ascending")
        smaller, q = pushout(ext, sub)
        levels.append(smaller)
        quots.append(q)
    maps = quots[:1] + [_factor(upper, lower) for upper, lower in zip(quots, quots[1:])]
    return tuple(levels), tuple(maps)


def tower_limit_sections(
    levels: Sequence[Extension], maps: Sequence[GroupHom], ls: LocalSections
) -> TowerResult:
    """Witness sets at every level of a tower, and a compatible chain.

    Level j's witnesses are homomorphisms into level j's middle group that
    interpolate the pushed-down local sections.  When no level is empty the
    least top witness pushes to a compatible chain, mirroring the
    finite-limit compactness argument; otherwise the empty levels are
    reported.
    """
    levels = _as_tuple(levels, ValidationError, "tower levels")
    maps = _as_tuple(maps, ValidationError, "connecting maps")
    _check_types(levels, repeat(Extension), ValidationError, "tower level {}", count())
    _check_types(maps, repeat(GroupHom), ValidationError, "connecting map {}", count())
    _check_types((ls,), (LocalSections,), ValidationError, "{}", ("local sections",))
    if len(maps) != len(levels) - 1:
        raise IncompatibleTower(
            f"{len(maps)} connecting maps for {len(levels)} levels"
        )
    if ls.ext != levels[0]:
        raise IncompatibleTower("local sections do not live at the top level")
    for j, ext in enumerate(levels):
        if ext.Gamma != ls.ext.Gamma:
            raise IncompatibleTower(f"level {j} has a different base group")
    for j, q in enumerate(maps):
        if q.source != levels[j].E or q.target != levels[j + 1].E:
            raise IncompatibleTower(f"connecting map {j} does not join its levels")
        if not is_surjective(q):
            raise IncompatibleTower(f"connecting map {j} is not surjective")
        if compose(levels[j + 1].pi, q).map != levels[j].pi.map:
            raise IncompatibleTower(
                f"connecting map {j} does not commute with the projections"
            )
    proj = identity_hom(levels[0].E)
    witness_sets = []
    for j, ext in enumerate(levels):
        pushed = tuple(compose(proj, s) for s in ls.sections)
        witness_sets.append(tuple(interpolating_homs(LocalSections(ext, pushed))))
        if j < len(maps):
            proj = compose(maps[j], proj)
    sizes = tuple(len(w) for w in witness_sets)
    if not all(sizes):
        return TowerResult(sizes, None)
    chain = [witness_sets[0][0]]
    for j, q in enumerate(maps):
        nxt = compose(q, chain[-1])
        if nxt.map not in {w.map for w in witness_sets[j + 1]}:
            raise InvariantViolation(
                f"pushed witness fell outside level {j + 1}'s witness set"
            )
        chain.append(nxt)
    return TowerResult(sizes, tuple(chain))
