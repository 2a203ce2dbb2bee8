"""Finite groups as dense multiplication tables over element indices.

Elements of a group of order n are the integers 0..n-1; the whole structure
is the n-by-n table.  Permutation input is converted to a table at the
boundary.  Constructors validate their input completely and raise the
errors from :mod:`seclab.errors` with explicit witnesses, but they check a
law on generators wherever that decides it: a table's associativity by
Light's test, a homomorphism's products, a subgroup's closure.  The
elements that pass such a check are closed under products, so the
generators decide it.  Search output is verified by the search itself and
not checked a second time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from functools import lru_cache, reduce
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Optional, Sequence, Tuple

from .errors import (
    ClosureBoundExceeded,
    NoIdentity,
    NoInverse,
    NotAHomomorphism,
    NotAPermutation,
    NotAssociative,
    NotASubgroup,
    NotNormal,
    ValidationError,
)

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "GroupHom",
    "JordanCover",
    "group_from_table",
    "group_from_permutations",
    "trivial_group",
    "cyclic_group",
    "direct_product",
    "generating_set",
    "element_order",
    "enumerate_homs",
    "hom_from_generator_images",
    "identity_hom",
    "trivial_hom",
    "compose",
    "kernel",
    "image",
    "is_injective",
    "is_surjective",
    "is_bijective",
    "inverse_hom",
    "subgroup",
    "subgroup_generated",
    "trivial_subgroup",
    "full_subgroup",
    "subgroup_as_group",
    "is_normal",
    "conjugacy_classes",
    "class_index",
    "union_of_conjugates",
    "is_class_preserving",
    "quotient",
    "all_subgroups",
    "all_normal_subgroups",
    "all_normal_subgroups_between",
    "automorphisms",
    "automorphism_group",
    "inner_automorphism",
    "partition_by_conjugation",
]

#: Default cap on permutation-closure size; generous for the supported corpus.
DEFAULT_CLOSURE_BOUND = 10080


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group: its full multiplication table plus derived data.

    ``table[a][b]`` is the index of the product ``a*b``.  ``label`` is
    cosmetic and ignored by equality so that structurally equal groups
    compare (and hash) equal.
    """

    table: Tuple[Tuple[int, ...], ...]
    identity: int
    inverse: Tuple[int, ...]
    label: Optional[str] = field(default=None, compare=False)

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def elements(self) -> range:
        return range(len(self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        t = self.table
        return t[t[g][x]][self.inverse[g]]

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in self.elements for b in self.elements)

    def __repr__(self) -> str:
        name = self.label or "group"
        return f"<{name}: order {self.order}>"


def group_from_table(
    table: Sequence[Sequence[int]], label: Optional[str] = None
) -> FiniteGroup:
    """Validate a multiplication table and wrap it as a :class:`FiniteGroup`.

    Checks, in order: shape (a list of lists of ints), entry range, a
    two-sided identity, associativity, and a two-sided inverse for every
    element.  Associativity is Light's test (Clifford & Preston, vol. 1,
    §1.2): ``(a*b)*c = a*(b*c)`` for every a and c but only for b in a
    set S that generates the table.  The b that pass for all a and c are
    closed under products and include the identity, so they are every
    element once they include S.  S comes from :func:`_greedy_generators`,
    so the test costs O(n²·|S|) with |S| <= log2(n) for a group.
    """
    if not isinstance(table, (list, tuple)):
        raise ValidationError(f"table must be a list of rows, not {table!r}")
    n = len(table)
    if n == 0:
        raise NoIdentity("empty table has no identity element")
    for a, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            raise ValidationError(f"row {a} must be a list of entries, not {row!r}")
    rows = tuple(tuple(row) for row in table)
    for a, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if type(v) is not int:
                raise ValidationError(f"entry table[{a}][{b}] = {v!r} is not an integer")
            if not (0 <= v < n):
                raise ValidationError(f"entry table[{a}][{b}] = {v} outside 0..{n - 1}")
    identity = None
    for e in range(n):
        if all(rows[e][g] == g and rows[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity(f"no two-sided identity among {n} elements")
    gens, _ = _greedy_generators(rows, identity, range(n))
    for b in gens:
        rb = rows[b]
        right = itemgetter(*rb)  # right(ra)[c] is a*(b*c); n > 1 here, so a tuple
        for a in range(n):
            ra = rows[a]
            left = rows[ra[b]]
            if left != right(ra):
                c = next(c for c in range(n) if left[c] != ra[rb[c]])
                raise NotAssociative(
                    f"({a}*{b})*{c} = {left[c]} but {a}*({b}*{c}) = {ra[rb[c]]}"
                )
    inverse = []
    for g in range(n):
        # in a finite monoid a one-sided inverse is two-sided and unique
        inv = rows[g].index(identity) if identity in rows[g] else None
        if inv is None or rows[inv][g] != identity:
            raise NoInverse(f"element {g} has no two-sided inverse")
        inverse.append(inv)
    return FiniteGroup(rows, identity, tuple(inverse), label)


def _close_elements(
    table: Sequence[Sequence[int]], identity: int, seed: Iterable[int]
) -> frozenset:
    """Everything reached from the identity by right multiplication with
    seed elements: for a group, the subgroup the seed generates.

    Costs O(|closure|·|seed|).  Only products are taken, so it also serves
    tables not yet known to be groups.
    """
    gens = tuple(seed)
    elems = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gens:
                z = row[g]
                if z not in elems:
                    elems.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(elems)


def _greedy_generators(
    table: Sequence[Sequence[int]],
    identity: int,
    elements: Iterable[int],
    within: Optional[frozenset] = None,
) -> Tuple[list, frozenset]:
    """Generators taken from ``elements`` in order, each one that is not yet
    in the span of those before it; returned with their span.

    For a group each one at least doubles the span, so there are at most
    log2(order) of them.  Given ``within``, stops as soon as the span
    leaves it.
    """
    gens: list[int] = []
    span = frozenset([identity])
    for x in elements:
        if x not in span:
            gens.append(x)
            span = _close_elements(table, identity, gens)
            if within is not None and not span <= within:
                break
    return gens, span


def _compose_perms(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """Left-to-right as maps: (p*q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def _check_permutation(perm: Sequence[int], degree: int) -> Tuple[int, ...]:
    p = tuple(perm)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise NotAPermutation(f"{p!r} is not a permutation of 0..{degree - 1}")
    return p


def group_from_permutations(
    degree: int,
    generators: Iterable[Sequence[int]],
    label: Optional[str] = None,
    closure_bound: int = DEFAULT_CLOSURE_BOUND,
) -> Tuple[FiniteGroup, Tuple[Tuple[int, ...], ...]]:
    """Close permutation generators under composition and tabulate the result.

    Returns the group together with the element-to-permutation dictionary
    (a tuple indexed by element).  Elements are sorted lexicographically as
    permutation tuples, which places the identity at index 0.
    """
    if degree < 0:
        raise ValidationError(f"degree {degree} is negative")
    idp = tuple(range(degree))
    gens = [_check_permutation(p, degree) for p in generators]
    seen = {idp}
    frontier = [idp]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose_perms(p, g)
                if q not in seen:
                    seen.add(q)
                    if len(seen) > closure_bound:
                        raise ClosureBoundExceeded(
                            f"closure of {len(gens)} generators exceeded {closure_bound} elements"
                        )
                    nxt.append(q)
        frontier = nxt
    perms = tuple(sorted(seen))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[_compose_perms(perms[a], perms[b])] for b in range(len(perms))]
        for a in range(len(perms))
    ]
    return group_from_table(table, label), perms


def trivial_group(label: str = "1") -> FiniteGroup:
    return group_from_table(((0,),), label)


def cyclic_group(n: int, label: Optional[str] = None) -> FiniteGroup:
    if n < 1:
        raise ValidationError(f"cyclic group order must be positive, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return group_from_table(table, label or f"C{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, label: Optional[str] = None) -> FiniteGroup:
    """Componentwise product on pairs encoded as a*|h| + b."""
    m = h.order
    size = g.order * m
    table = [
        [g.mul(x // m, y // m) * m + h.mul(x % m, y % m) for y in range(size)]
        for x in range(size)
    ]
    if label is None and g.label and h.label:
        label = f"{g.label}x{h.label}"
    return group_from_table(table, label)


# ---------------------------------------------------------------------------
# generation, element orders, homomorphisms


def element_order(group: FiniteGroup, g: int) -> int:
    k, x = 1, g
    while x != group.identity:
        x = group.mul(x, g)
        k += 1
    return k


@lru_cache(maxsize=None)
def generating_set(group: FiniteGroup) -> Tuple[int, ...]:
    """A small generating set, chosen greedily for maximal span growth.

    Ties go to the smallest element index, so the result is deterministic.
    """
    span = frozenset([group.identity])
    gens: list[int] = []
    while len(span) < group.order:
        best_g, best_span = None, None
        for g in group.elements:
            if g in span:
                continue
            cand = _close_elements(group.table, group.identity, (*gens, g))
            if best_span is None or len(cand) > len(best_span):
                best_g, best_span = g, cand
        gens.append(best_g)
        span = best_span
    return tuple(gens)


@lru_cache(maxsize=None)
def _derivation(group: FiniteGroup) -> Tuple[Tuple[int, ...], Tuple[Optional[Tuple[int, int]], ...]]:
    """BFS order and parent links writing each element as parent * generator."""
    gens = generating_set(group)
    parent: list[Optional[Tuple[int, int]]] = [None] * group.order
    order = [group.identity]
    seen = {group.identity}
    qi = 0
    while qi < len(order):
        x = order[qi]
        qi += 1
        for gi, g in enumerate(gens):
            y = group.mul(x, g)
            if y not in seen:
                seen.add(y)
                parent[y] = (x, gi)
                order.append(y)
    return tuple(order), tuple(parent)


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism stored as the full image tuple ``map[x]``.

    Validated on construction: identity goes to identity and every product
    is preserved.  Products are checked as ``f(a*g) = f(a)*f(g)`` for every
    a and each generator g of the source (see :func:`_derivation_failure`).
    """

    source: FiniteGroup
    target: FiniteGroup
    map: Tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.map
        if len(m) != self.source.order:
            raise NotAHomomorphism(
                f"map has {len(m)} entries for a source of order {self.source.order}"
            )
        for v in m:
            if not (0 <= v < self.target.order):
                raise NotAHomomorphism(f"image {v} outside target of order {self.target.order}")
        if m[self.source.identity] != self.target.identity:
            raise NotAHomomorphism(
                f"identity {self.source.identity} maps to {m[self.source.identity]}, not the identity"
            )
        src, tgt = self.source, self.target
        broken = _derivation_failure(src, tgt, _identity_rows(src, tgt), m, generating_set(src))
        if broken is not None:
            a, g = broken
            raise NotAHomomorphism(
                f"f({a}*{g}) = {m[self.source.mul(a, g)]} but f({a})*f({g}) = "
                f"{self.target.mul(m[a], m[g])}"
            )

    def __call__(self, x: int) -> int:
        return self.map[x]

    def __repr__(self) -> str:
        return f"<hom {self.source.label or '?'} -> {self.target.label or '?'}: {self.map}>"


def _derivation_failure(
    gamma: FiniteGroup,
    m: FiniteGroup,
    rows: Sequence[Sequence[int]],
    v: Sequence[int],
    ts: Iterable[int],
) -> Optional[Tuple[int, int]]:
    """The first pair ``(s, t)``, t in ``ts``, with ``v[s*t] != v[s] * s(v[t])``.

    ``rows[s]`` is the image tuple of s acting on m; with identity rows the
    law says that v is a homomorphism.  None means the law holds for every
    s and every t in ``ts``.  When ``rows`` is an action by automorphisms,
    the t that pass for every s are closed under products, since
    ``v[s*t*u] = v[s*t] * st(v[u]) = v[s] * s(v[t] * t(v[u])) = v[s] * s(v[t*u])``.
    So once ``ts`` generates gamma the law holds on all pairs, and then
    v sends the identity to the identity too, except when gamma is trivial
    and has no generators to try.
    """
    gt, mt = gamma.table, m.table
    for t in ts:
        vt = v[t]
        for s, (grow, vs, row) in enumerate(zip(gt, v, rows)):
            if v[grow[t]] != mt[vs][row[vt]]:
                return s, t
    return None


def _trusted(cls: type, *values: object):
    """An instance of a validated dataclass built without its check.

    Only for values already known to pass it: output a search has verified
    in full, such as that of :func:`_propagate`, or an object derived from
    validated ones by a construction that keeps the law, such as a
    quotient's projection.
    """
    obj = object.__new__(cls)
    for f, value in zip(fields(cls), values):
        object.__setattr__(obj, f.name, value)
    return obj


def identity_hom(group: FiniteGroup) -> GroupHom:
    return GroupHom(group, group, tuple(group.elements))


def trivial_hom(source: FiniteGroup, target: FiniteGroup) -> GroupHom:
    return GroupHom(source, target, (target.identity,) * source.order)


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """outer after inner."""
    if inner.target != outer.source:
        raise ValidationError("composition mismatch: inner target differs from outer source")
    return GroupHom(inner.source, outer.target, tuple(outer.map[v] for v in inner.map))


def _propagate(
    gamma: FiniteGroup, m: FiniteGroup, rows: Sequence[Sequence[int]], images: Sequence[int]
) -> Optional[Tuple[int, ...]]:
    """Extend generator values along the derivation by ``a_{xg} = a_x * x(a_g)``.

    ``rows[x]`` is the image tuple of x acting on m, an action by
    automorphisms.  Returns the value tuple when ``a_{st} = a_s * s(a_t)``
    holds for every s and each generator t, which decides all pairs (see
    :func:`_derivation_failure`), else None.  A returned tuple has the
    identity at the identity and every value drawn from m, so it needs no
    further check (see :func:`_trusted`).
    """
    order, parent = _derivation(gamma)
    mt = m.table
    v = [-1] * gamma.order
    v[gamma.identity] = m.identity
    for x in order[1:]:
        prev, gi = parent[x]
        v[x] = mt[v[prev]][rows[prev][images[gi]]]
    if _derivation_failure(gamma, m, rows, v, generating_set(gamma)) is not None:
        return None
    return tuple(v)


def _derivation_search(
    gamma: FiniteGroup, m: FiniteGroup, rows: Sequence[Sequence[int]]
) -> Tuple[Tuple[int, ...], ...]:
    """Every value tuple ``a`` with ``a_{st} = a_s * s(a_t)``, sorted.

    A homomorphism is the case of identity rows.  A generator g of order
    k may take the value c only when the twisted norm
    ``c * g(c) * ... * g^(k-1)(c)`` is the identity, which for identity
    rows says that the order of c divides k.  Every candidate is then
    verified by :func:`_propagate`.
    """
    choices = []
    for g in generating_set(gamma):
        powers = [gamma.identity]
        for _ in range(element_order(gamma, g) - 1):
            powers.append(gamma.mul(powers[-1], g))
        choices.append([
            c
            for c in m.elements
            if reduce(m.mul, (rows[p][c] for p in powers), m.identity) == m.identity
        ])
    found = (_propagate(gamma, m, rows, images) for images in itertools.product(*choices))
    return tuple(sorted(v for v in found if v is not None))


def _identity_rows(gamma: FiniteGroup, m: FiniteGroup) -> Tuple[Tuple[int, ...], ...]:
    return (tuple(m.elements),) * gamma.order


def hom_from_generator_images(
    src: FiniteGroup, tgt: FiniteGroup, images: Sequence[int]
) -> GroupHom:
    """The hom sending the canonical generating set to ``images``."""
    gens = generating_set(src)
    if len(images) != len(gens):
        raise NotAHomomorphism(
            f"expected {len(gens)} generator images for generators {gens}, got {len(images)}"
        )
    for y in images:
        if not 0 <= y < tgt.order:
            raise ValidationError(f"generator image {y} outside 0..{tgt.order - 1}")
    m = _propagate(src, tgt, _identity_rows(src, tgt), images)
    if m is None:
        raise NotAHomomorphism(
            f"generator images {tuple(images)} do not extend to a homomorphism"
        )
    return _trusted(GroupHom, src, tgt, m)


@lru_cache(maxsize=None)
def enumerate_homs(src: FiniteGroup, tgt: FiniteGroup) -> Tuple[GroupHom, ...]:
    """Every homomorphism src -> tgt, sorted lexicographically by image tuple.

    A homomorphism is a derivation for the trivial action, so this is the
    cocycle search with identity rows.
    """
    found = _derivation_search(src, tgt, _identity_rows(src, tgt))
    return tuple(_trusted(GroupHom, src, tgt, m) for m in found)


def _lifts_through(pi: GroupHom, theta: GroupHom) -> Tuple[GroupHom, ...]:
    """The homs h from theta's source into pi's source with ``pi∘h = theta``,
    in :func:`enumerate_homs` order."""
    pm = pi.map
    return tuple(
        h
        for h in enumerate_homs(theta.source, pi.source)
        if all(pm[v] == t for v, t in zip(h.map, theta.map))
    )


def kernel(hom: GroupHom) -> "Subgroup":
    elems = tuple(g for g in hom.source.elements if hom.map[g] == hom.target.identity)
    return Subgroup(hom.source, elems)


def image(hom: GroupHom) -> "Subgroup":
    return Subgroup(hom.target, tuple(sorted(set(hom.map))))


def is_injective(hom: GroupHom) -> bool:
    return len(set(hom.map)) == hom.source.order


def is_surjective(hom: GroupHom) -> bool:
    return len(set(hom.map)) == hom.target.order


def is_bijective(hom: GroupHom) -> bool:
    return hom.source.order == hom.target.order and is_injective(hom)


def inverse_hom(hom: GroupHom) -> GroupHom:
    if not is_bijective(hom):
        raise ValidationError("only bijective homomorphisms can be inverted")
    back = [0] * hom.target.order
    for x, y in enumerate(hom.map):
        back[y] = x
    return GroupHom(hom.target, hom.source, tuple(back))


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class Subgroup:
    """A validated subgroup: a sorted element tuple inside a parent group.

    Closure is checked on generators: the span of greedy generators
    (:func:`_greedy_generators`) must stay inside the element set.  A
    finite set with the identity that is closed under products holds every
    inverse too.
    """

    parent: FiniteGroup
    elements: Tuple[int, ...]

    def __post_init__(self) -> None:
        elems = self.elements
        if tuple(sorted(set(elems))) != elems:
            raise NotASubgroup(f"element list {elems} is not sorted and duplicate-free")
        eset = frozenset(elems)
        for g in elems:
            if not (0 <= g < self.parent.order):
                raise NotASubgroup(f"element {g} outside parent of order {self.parent.order}")
        e, table = self.parent.identity, self.parent.table
        if e not in eset:
            raise NotASubgroup(f"identity {e} missing from {elems}")
        gens, span = _greedy_generators(table, e, elems, within=eset)
        if not span <= eset:
            # the span is reached from e by steps a -> a*g, so one step leaves
            a, g = next(
                (a, g) for a in sorted(span & eset) for g in gens if table[a][g] not in eset
            )
            raise NotASubgroup(f"product {a}*{g} = {table[a][g]} escapes {elems}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self.elements

    def __repr__(self) -> str:
        return f"<subgroup of {self.parent.label or '?'}: {self.elements}>"


def subgroup(parent: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    return Subgroup(parent, tuple(sorted(set(elements))))


def subgroup_generated(parent: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    gens = tuple(gens)
    for g in gens:
        if not (0 <= g < parent.order):
            raise NotASubgroup(f"element {g} outside parent of order {parent.order}")
    return Subgroup(parent, tuple(sorted(_close_elements(parent.table, parent.identity, gens))))


def trivial_subgroup(parent: FiniteGroup) -> Subgroup:
    return Subgroup(parent, (parent.identity,))


def full_subgroup(parent: FiniteGroup) -> Subgroup:
    return Subgroup(parent, tuple(parent.elements))


def subgroup_as_group(sub: Subgroup) -> Tuple[FiniteGroup, GroupHom]:
    """Re-tabulate a subgroup as a standalone group plus its inclusion hom."""
    elems = sub.elements
    index = {g: i for i, g in enumerate(elems)}
    table = [[index[sub.parent.mul(a, b)] for b in elems] for a in elems]
    label = None
    if sub.parent.label:
        label = f"{sub.parent.label}[{len(elems)}]"
    grp = group_from_table(table, label)
    return grp, GroupHom(grp, sub.parent, elems)


def _normality_witness(parent: FiniteGroup, sub: Subgroup) -> Optional[Tuple[int, int]]:
    eset = set(sub.elements)
    for g in parent.elements:
        for h in sub.elements:
            if parent.conj(g, h) not in eset:
                return g, h
    return None


def is_normal(parent: FiniteGroup, sub: Subgroup) -> bool:
    return _normality_witness(parent, sub) is None


# ---------------------------------------------------------------------------
# conjugacy


@lru_cache(maxsize=None)
def conjugacy_classes(group: FiniteGroup) -> Tuple[Tuple[int, ...], ...]:
    """Conjugacy classes as sorted tuples, ordered by least member."""
    gens = generating_set(group)
    return _orbit_partition(list(group.elements), lambda x: [group.conj(g, x) for g in gens])


@lru_cache(maxsize=None)
def class_index(group: FiniteGroup) -> Tuple[int, ...]:
    """class_index(G)[g] is the index of g's conjugacy class."""
    idx = [0] * group.order
    for i, cls in enumerate(conjugacy_classes(group)):
        for g in cls:
            idx[g] = i
    return tuple(idx)


@dataclass(frozen=True)
class JordanCover:
    """Union of all conjugates of a subgroup, with the covering estimate.

    ``len(union) <= group_order - index + 1`` always holds; the union is the
    whole group exactly when the subgroup already is.
    """

    union: frozenset
    group_order: int
    index: int

    @property
    def bound(self) -> int:
        return self.group_order - self.index + 1

    @property
    def covers(self) -> bool:
        return len(self.union) == self.group_order

    def triple(self) -> Tuple[int, int, int]:
        return self.group_order, self.index, len(self.union)


def union_of_conjugates(group: FiniteGroup, sub: Subgroup) -> JordanCover:
    """All conjugates of ``sub`` pooled together, with the Jordan triple."""
    if sub.parent != group:
        raise NotASubgroup("subgroup belongs to a different parent group")
    union = set()
    for g in group.elements:
        for h in sub.elements:
            union.add(group.conj(g, h))
    return JordanCover(frozenset(union), group.order, group.order // sub.order)


def is_class_preserving(hom: GroupHom) -> bool:
    """Does an endomorphism send every element into its own conjugacy class?"""
    if hom.source != hom.target:
        raise ValidationError("class preservation is only defined for endomorphisms")
    ci = class_index(hom.source)
    return all(ci[hom.map[g]] == ci[g] for g in hom.source.elements)


# ---------------------------------------------------------------------------
# quotients and subgroup lattices


def quotient(group: FiniteGroup, sub: Subgroup) -> Tuple[FiniteGroup, GroupHom]:
    """The quotient by a normal subgroup plus the projection hom.

    Cosets are indexed by their least member, in increasing order.
    """
    if sub.parent != group:
        raise NotASubgroup("subgroup belongs to a different parent group")
    witness = _normality_witness(group, sub)
    if witness is not None:
        g, h = witness
        raise NotNormal(f"conjugate {g}*{h}*{g}^-1 = {group.conj(g, h)} escapes the subgroup")
    coset_of = {}
    reps = []
    for g in group.elements:
        if g in coset_of:
            continue
        coset = sorted(group.mul(g, h) for h in sub.elements)
        for x in coset:
            coset_of[x] = len(reps)
        reps.append(coset[0])
    table = tuple(tuple(coset_of[group.mul(a, b)] for b in reps) for a in reps)
    label = f"{group.label}/{sub.order}" if group.label else None
    # the group laws pass from G to G/N: the identity is N's own coset and
    # the inverse of a coset holds its representative's inverse
    inverse = tuple(coset_of[group.inv(r)] for r in reps)
    quot = FiniteGroup(table, coset_of[group.identity], inverse, label)
    proj = _trusted(GroupHom, group, quot, tuple(coset_of[g] for g in group.elements))
    return quot, proj


def _coset_representatives(proj: GroupHom) -> Tuple[int, ...]:
    """The least preimage of each target element under a surjection."""
    reps = {}
    for x in proj.source.elements:
        reps.setdefault(proj.map[x], x)
    return tuple(reps[y] for y in proj.target.elements)


def _subgroup_lattice(group: FiniteGroup, allowed: frozenset) -> Tuple[Tuple[int, ...], ...]:
    """All subgroups whose elements stay inside ``allowed``, as element tuples.

    Each subgroup found is kept with the generators that reached it, and
    grows by closing those generators plus one more element.
    """
    trivial = frozenset([group.identity])
    found = {trivial}
    frontier = [((), trivial)]
    while frontier:
        nxt = []
        for gens, base in frontier:
            for g in sorted(allowed - base):
                grown = _close_elements(group.table, group.identity, (*gens, g))
                if grown <= allowed and grown not in found:
                    found.add(grown)
                    nxt.append(((*gens, g), grown))
        frontier = nxt
    return tuple(sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t)))


@lru_cache(maxsize=None)
def all_subgroups(group: FiniteGroup) -> Tuple[Subgroup, ...]:
    """Every subgroup, sorted by order then element tuple."""
    allowed = frozenset(group.elements)
    return tuple(Subgroup(group, t) for t in _subgroup_lattice(group, allowed))


@lru_cache(maxsize=None)
def all_normal_subgroups(group: FiniteGroup) -> Tuple[Subgroup, ...]:
    return tuple(s for s in all_subgroups(group) if is_normal(group, s))


def all_normal_subgroups_between(sub: Subgroup, group: FiniteGroup) -> Tuple[Subgroup, ...]:
    """Normal subgroups of ``group`` contained in ``sub`` (trivial one included)."""
    if sub.parent != group:
        raise NotASubgroup("subgroup belongs to a different parent group")
    allowed = frozenset(sub.elements)
    cands = (Subgroup(group, t) for t in _subgroup_lattice(group, allowed))
    return tuple(s for s in cands if is_normal(group, s))


@lru_cache(maxsize=None)
def automorphisms(group: FiniteGroup) -> Tuple[GroupHom, ...]:
    return tuple(h for h in enumerate_homs(group, group) if is_bijective(h))


def inner_automorphism(group: FiniteGroup, g: int) -> GroupHom:
    return GroupHom(group, group, tuple(group.conj(g, x) for x in group.elements))


@lru_cache(maxsize=None)
def automorphism_group(group: FiniteGroup) -> Tuple[FiniteGroup, Tuple[GroupHom, ...]]:
    """The automorphisms assembled into a group under composition.

    Returns the composition table together with the automorphism list it
    indexes; entry i*j is compose(auts[i], auts[j]).
    """
    auts = automorphisms(group)
    index = {a.map: i for i, a in enumerate(auts)}
    table = tuple(
        tuple(index[compose(a, b).map] for b in auts) for a in auts
    )
    label = f"Aut({group.label})" if group.label else None
    return group_from_table(table, label=label), auts


def _orbit_partition(
    points: Sequence[Hashable],
    moves: Callable[[Hashable], Iterable[Hashable]],
) -> Tuple[Tuple[int, ...], ...]:
    """Partition points into orbits, each the closure of a point under ``moves``.

    ``moves`` must give a point's images under the generators of a group
    action; the closure under generators is then the whole orbit.  It is
    found by a frontier search, which may pass through images that are not
    points; only the points are kept.  Classes are returned as sorted index
    tuples, ordered by least member.
    """
    index = {p: i for i, p in enumerate(points)}
    classed = [False] * len(points)
    classes = []
    for i, p in enumerate(points):
        if classed[i]:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            nxt = []
            for q in frontier:
                for r in moves(q):
                    if r not in orbit:
                        orbit.add(r)
                        nxt.append(r)
            frontier = nxt
        members = sorted(index[q] for q in orbit if q in index)
        for j in members:
            classed[j] = True
        classes.append(tuple(members))
    return tuple(classes)


def partition_by_conjugation(
    homs: Sequence[GroupHom], conjugators: Iterable[int]
) -> Tuple[Tuple[int, ...], ...]:
    """Partition homs with a common target by pointwise conjugation.

    ``h ~ h'`` when some listed conjugator c has ``h'(x) = c h(x) c^-1`` for
    all x.  The conjugators must form a subgroup, so that this is an
    equivalence and their greedy generators reach every class; a list whose
    span leaves it raises ValidationError.  Classes are returned as sorted
    index tuples, ordered by least member.
    """
    if not homs:
        return ()
    tgt = homs[0].target
    conjs = tuple(conjugators)
    listed = frozenset(conjs)
    gens, span = _greedy_generators(tgt.table, tgt.identity, conjs, within=listed)
    if not span <= listed:
        raise ValidationError(
            f"conjugators do not form a subgroup: {min(span - listed)} is in their span"
        )
    rows = [tuple(tgt.conj(c, y) for y in tgt.elements) for c in gens]
    return _orbit_partition(
        [h.map for h in homs],
        lambda f: [tuple(map(row.__getitem__, f)) for row in rows],
    )
