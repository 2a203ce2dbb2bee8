"""Nonabelian first cohomology of a finite group acting on a finite group.

A coefficient system is a group M with an action of Gamma by automorphisms;
cocycles satisfy ``a_{st} = a_s * s(a_t)`` and two cocycles are equivalent
when ``b_s = c^-1 * a_s * s(c)`` for a single element c of M.  Everything
is enumerated exhaustively and kept in canonical lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .errors import (
    ActionMismatch,
    InvariantViolation,
    NotACocycle,
    NotACocycleForThisAction,
    NotAnAction,
    NotSurjective,
    NotTrivialOnKernel,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _coset_representatives,
    _derivation_failure,
    _derivation_search,
    _identity_rows,
    _lifts_through,
    _orbit_partition,
    _trusted,
    generating_set,
    image,
    kernel,
    partition_by_conjugation,
    subgroup_as_group,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .extensions import Extension

__all__ = [
    "GammaGroup",
    "Cocycle",
    "H1Classes",
    "constant_coefficients",
    "conjugation_coefficients",
    "pullback_coefficients",
    "trivial_cocycle",
    "enumerate_cocycles",
    "cohomologous",
    "h1",
    "inner_pullback",
    "restrict_class",
    "pullback_class",
    "descend_class",
    "twist_coefficients",
    "twist_lift",
    "lifts_up_to_conjugacy",
]


@dataclass(frozen=True)
class GammaGroup:
    """Coefficients for H^1: a group M acted on by gamma through automorphisms.

    ``action[g]`` is the image tuple of the automorphism attached to g.  An
    optional ``embed`` records how M sits inside an ambient group when the
    coefficients came from a subgroup by conjugation; twisting lifts needs it.

    Every row must be a permutation.  The rows of gamma's generators must be
    automorphisms, and ``action[x*g]`` must be ``action[x]`` after
    ``action[g]`` for every x and generator g.  Those laws make every other
    row a composite of generator rows, and so an automorphism too.
    """

    gamma: FiniteGroup
    M: FiniteGroup
    action: Tuple[Tuple[int, ...], ...]
    embed: Optional[GroupHom] = None

    def __post_init__(self) -> None:
        if len(self.action) != self.gamma.order:
            raise NotAnAction(
                f"action has {len(self.action)} rows for a group of order {self.gamma.order}"
            )
        m, action = self.M, self.action
        for g, row in enumerate(action):
            if len(row) != m.order or sorted(row) != list(range(m.order)):
                raise NotAnAction(f"row for {g} is not a permutation of the coefficients")
        gens = generating_set(self.gamma)
        ident, m_gens = _identity_rows(m, m), generating_set(m)
        for g in gens:
            broken = _derivation_failure(m, m, ident, action[g], m_gens)
            if broken is not None:
                raise NotAnAction(
                    f"element {g} does not act by an automorphism: "
                    f"breaks at {broken[0]}*{broken[1]}"
                )
        if action[self.gamma.identity] != tuple(m.elements):
            raise NotAnAction("identity of gamma must act trivially")
        for g in gens:
            grow = action[g]
            for x, xrow in enumerate(action):
                if action[self.gamma.mul(x, g)] != tuple(map(xrow.__getitem__, grow)):
                    raise NotAnAction(f"action rows for {x}*{g} do not compose")
        if self.embed is not None and self.embed.source != m:
            raise ValidationError("embed must have the coefficient group as source")

    def act(self, g: int, x: int) -> int:
        return self.action[g][x]

    def __repr__(self) -> str:
        return (
            f"<coefficients |gamma|={self.gamma.order} |M|={self.M.order}"
            f"{' embedded' if self.embed else ''}>"
        )


def constant_coefficients(gamma: FiniteGroup, m: FiniteGroup) -> GammaGroup:
    """M with the trivial action; cocycles are then plain homomorphisms.

    Identity rows are always an action, so the system is not checked.
    """
    return _trusted(GammaGroup, gamma, m, _identity_rows(gamma, m), None)


def conjugation_coefficients(sub: Subgroup, via: GroupHom) -> GammaGroup:
    """A subgroup of the target of ``via`` acted on by conjugation through it.

    Raises ActionMismatch when some conjugate escapes the subgroup.
    """
    ambient = sub.parent
    if via.target != ambient:
        raise ValidationError("via must land in the subgroup's parent group")
    m, incl = subgroup_as_group(sub)
    back = {e: i for i, e in enumerate(sub.elements)}
    rows = []
    for g in via.source.elements:
        c = via.map[g]
        row = []
        for x in sub.elements:
            moved = ambient.conj(c, x)
            if moved not in back:
                raise ActionMismatch(
                    f"conjugation by image of {g} moves {x} to {moved}, outside the subgroup"
                )
            row.append(back[moved])
        rows.append(tuple(row))
    return GammaGroup(via.source, m, tuple(rows), embed=incl)


def pullback_coefficients(along: GroupHom, coeff: GammaGroup) -> GammaGroup:
    """Precompose the action with a homomorphism into gamma.

    An action read through a homomorphism is an action, so the result is
    not checked again.
    """
    if along.target != coeff.gamma:
        raise ValidationError("pullback map must land in the acting group")
    rows = tuple(coeff.action[along.map[g]] for g in along.source.elements)
    return _trusted(GammaGroup, along.source, coeff.M, rows, coeff.embed)


@dataclass(frozen=True)
class Cocycle:
    """A 1-cocycle: values in M indexed by gamma, validated on construction."""

    parent: GammaGroup
    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        g, m = self.parent.gamma, self.parent.M
        v = self.values
        if len(v) != g.order:
            raise NotACocycle(f"{len(v)} values for a group of order {g.order}")
        for x in v:
            if not (0 <= x < m.order):
                raise NotACocycle(f"value {x} outside coefficients of order {m.order}")
        if v[g.identity] != m.identity:
            raise NotACocycle(f"value at the identity is {v[g.identity]}, not the identity")
        act = self.parent.action
        # Every pair, not generators only.  The census benchmark keeps every
        # round's records, so a faster census reads as a peak-memory
        # regression.  This check, inner_pullback, cohomologous and
        # restrict_class stay as they are until ROADMAP item 1 bounds those
        # records.
        broken = _derivation_failure(g, m, act, v, g.elements)
        if broken is not None:
            s, t = broken
            raise NotACocycle(
                f"a_({s}*{t}) = {v[g.mul(s, t)]} but a_{s} * {s}(a_{t}) = "
                f"{m.mul(v[s], act[s][v[t]])}"
            )

    def __repr__(self) -> str:
        return f"<cocycle {self.values}>"


def trivial_cocycle(coeff: GammaGroup) -> Cocycle:
    return Cocycle(coeff, (coeff.M.identity,) * coeff.gamma.order)


def _twist_values(coeff: GammaGroup, values: Tuple[int, ...], c: int) -> Tuple[int, ...]:
    """b_s = c^-1 * a_s * s(c)."""
    mt = coeff.M.table
    left = mt[coeff.M.inverse[c]]
    return tuple(left[mt[v][row[c]]] for v, row in zip(values, coeff.action))


@lru_cache(maxsize=None)
def enumerate_cocycles(coeff: GammaGroup) -> Tuple[Cocycle, ...]:
    """Every cocycle, sorted lexicographically by value tuple.

    Candidates are generator assignments propagated along a fixed derivation
    of gamma, then verified on all pairs; the search's check is the only one.
    """
    found = _derivation_search(coeff.gamma, coeff.M, coeff.action)
    return tuple(_trusted(Cocycle, coeff, v) for v in found)


def cohomologous(a: Cocycle, b: Cocycle) -> Optional[int]:
    """The least twisting element c with ``b_s = c^-1 a_s s(c)``, or None."""
    if a.parent != b.parent:
        raise ValidationError("cocycles live over different coefficient systems")
    coeff = a.parent
    for c in coeff.M.elements:
        if _twist_values(coeff, a.values, c) == b.values:
            return c
    return None


@dataclass(frozen=True)
class H1Classes:
    """The class partition of all cocycles of one coefficient system.

    ``classes`` holds sorted index tuples into ``cocycles``; each class is
    represented by its lexicographically least member.  ``class_by_values``
    maps each cocycle's value tuple to its class number.
    """

    parent: GammaGroup
    cocycles: Tuple[Cocycle, ...]
    classes: Tuple[Tuple[int, ...], ...]
    class_by_values: Dict[Tuple[int, ...], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        index = {
            self.cocycles[j].values: i for i, cls in enumerate(self.classes) for j in cls
        }
        object.__setattr__(self, "class_by_values", index)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def representatives(self) -> Tuple[Cocycle, ...]:
        return tuple(self.cocycles[cls[0]] for cls in self.classes)

    def class_of(self, a: Cocycle) -> int:
        if a.parent != self.parent:
            raise ValidationError("cocycle belongs to a different coefficient system")
        if a.values not in self.class_by_values:
            raise InvariantViolation("partition does not cover the cocycle set")
        return self.class_by_values[a.values]


@lru_cache(maxsize=None)
def h1(coeff: GammaGroup) -> H1Classes:
    """Cocycles modulo twisting, with lexicographically least representatives.

    A cocycle is fixed by its values on the generators of gamma, so only
    those are twisted, by ``b_g = c^-1 * a_g * g(c)``.  Twisting by c and
    then by d is twisting by cd, a right action of M, so an orbit is the
    closure under M's generators.  The partition costs
    |classes|·|orbit|·|gens M|·|gens gamma| table reads.
    """
    cocycles = enumerate_cocycles(coeff)
    m, mt = coeff.M, coeff.M.table
    gens = generating_set(coeff.gamma)
    # twists[k][i][a] is c^-1 * a * g_i(c), for c the k-th generator of M
    twists = [
        [tuple(mt[m.inverse[c]][mt[a][coeff.action[g][c]]] for a in m.elements) for g in gens]
        for c in generating_set(m)
    ]
    classes = _orbit_partition(
        [tuple(map(co.values.__getitem__, gens)) for co in cocycles],
        lambda key: [tuple(map(tuple.__getitem__, tw, key)) for tw in twists],
    )
    return H1Classes(coeff, cocycles, classes)


def inner_pullback(a: Cocycle, g: int) -> Cocycle:
    """The cocycle ``s -> g^-1(a_{g s g^-1})``, verified cohomologous to a.

    The twisting element is the inverse of ``g^-1(a_g)``; the identity is
    checked rather than trusted.
    """
    coeff = a.parent
    gam, m = coeff.gamma, coeff.M
    gi = gam.inv(g)
    values = tuple(
        coeff.action[gi][a.values[gam.mul(gam.mul(g, s), gi)]] for s in gam.elements
    )
    out = Cocycle(coeff, values)
    c = m.inv(coeff.action[gi][a.values[g]])
    if _twist_values(coeff, a.values, c) != values:
        raise InvariantViolation(
            f"conjugation pullback by {g} is not the expected coboundary twist"
        )
    return out


def restrict_class(theta: GroupHom, a: Cocycle) -> Cocycle:
    """Pull a cocycle back along a map into gamma (coefficients pulled too)."""
    if theta.target != a.parent.gamma:
        raise ValidationError("restriction map must land in the acting group")
    coeff = pullback_coefficients(theta, a.parent)
    return Cocycle(coeff, tuple(a.values[y] for y in theta.map))


def pullback_class(s: GroupHom, a: Cocycle, ext: Optional["Extension"] = None) -> Cocycle:
    """Pull a cocycle over the middle group of an extension back along a map.

    When ``ext`` is supplied, the action is required to factor through the
    projection, i.e. the kernel's image must act trivially; this is what
    makes the result independent of conjugating ``s`` by kernel elements.
    """
    if s.target != a.parent.gamma:
        raise ValidationError("pullback map must land in the acting group")
    if ext is not None:
        if a.parent.gamma != ext.E:
            raise ValidationError("cocycle does not live over the extension's middle group")
        ident = tuple(a.parent.M.elements)
        for x in ext.A.elements:
            e = ext.iota.map[x]
            if a.parent.action[e] != ident:
                raise ActionMismatch(
                    f"kernel element {e} acts nontrivially; the action does not "
                    "factor through the projection"
                )
    return restrict_class(s, a)


def descend_class(
    q: GroupHom, a: Cocycle, trivial_on: Optional[Subgroup] = None
) -> Cocycle:
    """Push a cocycle down a surjection that kills it.

    Requires ``q`` surjective, the cocycle's values trivial on ker q, and
    the kernel acting trivially; the result is the unique cocycle b with
    ``b_{q(e)} = a_e``.
    """
    if q.source != a.parent.gamma:
        raise ValidationError("cocycle does not live over the source of the surjection")
    if len(set(q.map)) != q.target.order:
        raise NotSurjective("descent requires a surjective projection")
    ker = kernel(q)
    if trivial_on is not None and trivial_on.elements != ker.elements:
        raise ValidationError(
            f"trivial_on {trivial_on.elements} is not the kernel {ker.elements}"
        )
    m = a.parent.M
    ident = tuple(m.elements)
    for k in ker.elements:
        if a.values[k] != m.identity:
            raise NotTrivialOnKernel(f"value at kernel element {k} is {a.values[k]}")
        if a.parent.action[k] != ident:
            raise NotTrivialOnKernel(f"kernel element {k} acts nontrivially")
    reps = _coset_representatives(q)
    rows = tuple(a.parent.action[r] for r in reps)
    coeff = GammaGroup(q.target, m, rows, embed=a.parent.embed)
    out = Cocycle(coeff, tuple(a.values[r] for r in reps))
    for x in q.source.elements:
        if out.values[q.map[x]] != a.values[x]:
            raise InvariantViolation("descended cocycle fails to match upstairs values")
    return out


def twist_coefficients(
    coeff: GammaGroup, a: Cocycle
) -> Tuple[GammaGroup, Dict[Cocycle, Cocycle]]:
    """Twist the action by a cocycle: ``s`` now acts as ``a_s * s(-) * a_s^-1``.

    Returns the twisted system together with the value-level bijection
    ``b -> b * a^-1`` from old cocycles to new ones; it sends the class of
    ``a`` to the trivial class and respects equivalence in both directions.
    """
    if a.parent != coeff:
        raise ValidationError("cocycle does not belong to the coefficient system")
    m = coeff.M
    rows = []
    for s in coeff.gamma.elements:
        a_s = a.values[s]
        row = tuple(m.mul(a_s, m.mul(coeff.action[s][x], m.inv(a_s))) for x in m.elements)
        rows.append(row)
    twisted = GammaGroup(coeff.gamma, m, tuple(rows), embed=coeff.embed)
    mapping: Dict[Cocycle, Cocycle] = {}
    for b in enumerate_cocycles(coeff):
        moved = tuple(
            m.mul(b.values[s], m.inv(a.values[s])) for s in coeff.gamma.elements
        )
        mapping[b] = Cocycle(twisted, moved)
    if sorted(c.values for c in mapping.values()) != sorted(
        c.values for c in enumerate_cocycles(twisted)
    ):
        raise InvariantViolation("twisting did not biject the two cocycle sets")
    return twisted, mapping


def twist_lift(phi0: GroupHom, a: Cocycle) -> GroupHom:
    """Multiply a homomorphism by a cocycle for its conjugation action.

    The coefficients must carry an embedding into the target of ``phi0`` and
    the action must literally be conjugation through ``phi0``; the twisted
    map ``x -> a_x * phi0(x)`` is then a homomorphism, which is revalidated.
    """
    coeff = a.parent
    emb = coeff.embed
    if emb is None or emb.target != phi0.target or coeff.gamma != phi0.source:
        raise NotACocycleForThisAction(
            "coefficients are not embedded in the target of the lift"
        )
    big = phi0.target
    for g in coeff.gamma.elements:
        cg = phi0.map[g]
        for x in coeff.M.elements:
            if emb.map[coeff.action[g][x]] != big.conj(cg, emb.map[x]):
                raise NotACocycleForThisAction(
                    f"action of {g} is not conjugation by its image"
                )
    return GroupHom(
        phi0.source,
        big,
        tuple(
            big.mul(emb.map[a.values[g]], phi0.map[g]) for g in phi0.source.elements
        ),
    )


def lifts_up_to_conjugacy(ext: "Extension", phibar: GroupHom) -> Tuple[Tuple[GroupHom, ...], ...]:
    """Lifts of a map into the base through the projection, up to kernel conjugacy.

    Returns the (possibly empty) partition of all lifts; when lifts exist the
    number of classes is checked against the class count of the conjugation
    coefficients at the first lift.
    """
    if phibar.target != ext.Gamma:
        raise ValidationError("the map must land in the extension's base group")
    lifts = _lifts_through(ext.pi, phibar)
    conjugators = [ext.iota.map[x] for x in ext.A.elements]
    partition = partition_by_conjugation(lifts, conjugators)
    classes = tuple(tuple(lifts[j] for j in cls) for cls in partition)
    if lifts:
        coeff = conjugation_coefficients(image(ext.iota), lifts[0])
        if len(classes) != h1(coeff).class_count:
            raise InvariantViolation(
                f"{len(classes)} lift classes but {h1(coeff).class_count} cocycle classes"
            )
    return classes
