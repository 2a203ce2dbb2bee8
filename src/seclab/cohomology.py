"""Nonabelian first cohomology of a finite group acting on a finite group.

A coefficient system is a group M with an action of Gamma by automorphisms;
cocycles satisfy ``a_{st} = a_s * s(a_t)`` and two cocycles are equivalent
when ``b_s = c^-1 * a_s * s(c)`` for a single element c of M.  Everything
is enumerated exhaustively and kept in canonical lexicographic order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, repeat
from operator import itemgetter
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import InvariantViolation, NotACocycle, NotAnAction, ValidationError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _derivation_failure,
    _derivation_search,
    _identity_rows,
    _orbit_partition,
    _Record,
    _check_indices,
    _check_types,
    _trusted,
    generating_set,
    subgroup_as_group,
)

__all__ = [
    "GammaGroup",
    "Cocycle",
    "H1Classes",
    "constant_coefficients",
    "conjugation_coefficients",
    "pullback_coefficients",
    "enumerate_cocycles",
    "cohomologous",
    "h1",
    "inner_pullback",
]


class GammaGroup(_Record):
    """Coefficients for H^1: a group M acted on by gamma through automorphisms.

    ``action[g]`` is the image tuple of the automorphism attached to g.

    The action must be a tuple of rows, each a tuple of integers that
    permutes the elements of M.  The rows of gamma's generators must be
    automorphisms, and ``action[x*g]`` must be ``action[x]`` after
    ``action[g]`` for every x and generator g.  Those laws make every other
    row a composite of generator rows, and so an automorphism too.
    """

    _fields = {"gamma": FiniteGroup, "M": FiniteGroup, "action": tuple}
    _error = NotAnAction

    def __post_init__(self) -> None:
        m, action = self.M, self.action
        if len(action) != self.gamma.order:
            raise NotAnAction(
                f"action has {len(action)} rows for a group of order {self.gamma.order}"
            )
        _check_types(action, repeat(tuple), NotAnAction, "row for {}", count())
        for g, row in enumerate(action):
            _check_indices(row, m.order, NotAnAction, f"row for {g} entry")
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

    def __repr__(self) -> str:
        return f"<coefficients |gamma|={self.gamma.order} |M|={self.M.order}>"


def constant_coefficients(gamma: FiniteGroup, m: FiniteGroup) -> GammaGroup:
    """M with the trivial action; cocycles are then plain homomorphisms.

    Identity rows are always an action, so the system is not checked.
    """
    return _trusted(GammaGroup, gamma, m, _identity_rows(gamma, m))


def conjugation_coefficients(sub: Subgroup, via: GroupHom) -> GammaGroup:
    """A subgroup of the target of ``via`` acted on by conjugation through it.

    Raises NotAnAction when some conjugate escapes the subgroup.  Past
    that check the system is not checked again: conjugation by an element
    that keeps the subgroup acts on it by an automorphism, and through a
    homomorphism those compose as its source does.
    """
    ambient = sub.parent
    if via.target != ambient:
        raise ValidationError("via must land in the subgroup's parent group")
    m, _ = subgroup_as_group(sub)
    back = {e: i for i, e in enumerate(sub.elements)}
    rows = []
    for g in via.source.elements:
        c = via.map[g]
        row = []
        for x in sub.elements:
            moved = ambient.conj(c, x)
            if moved not in back:
                raise NotAnAction(
                    f"conjugation by image of {g} moves {x} to {moved}, outside the subgroup"
                )
            row.append(back[moved])
        rows.append(tuple(row))
    return _trusted(GammaGroup, via.source, m, tuple(rows))


def pullback_coefficients(along: GroupHom, coeff: GammaGroup) -> GammaGroup:
    """Precompose the action with a homomorphism into gamma.

    An action read through a homomorphism is an action, so the result is
    not checked again.
    """
    if along.target != coeff.gamma:
        raise ValidationError("pullback map must land in the acting group")
    rows = tuple(coeff.action[along.map[g]] for g in along.source.elements)
    return _trusted(GammaGroup, along.source, coeff.M, rows)


class Cocycle(_Record):
    """A 1-cocycle: a tuple of integer values in M indexed by gamma,
    validated on construction."""

    _fields = {"parent": GammaGroup, "values": tuple}
    _error = NotACocycle

    def __post_init__(self) -> None:
        g, m = self.parent.gamma, self.parent.M
        v, n = self.values, m.order
        if len(v) != g.order:
            raise NotACocycle(f"{len(v)} values for a group of order {g.order}")
        _check_indices(v, n, NotACocycle, "value")
        if v[g.identity] != m.identity:
            raise NotACocycle(f"value at the identity is {v[g.identity]}, not the identity")
        act = self.parent.action
        # Every pair, not generators only.  The census benchmark keeps every
        # round's records, so a faster census reads as a peak-memory
        # regression.  This check, inner_pullback and cohomologous stay as
        # they are until ROADMAP item 1 bounds those records.
        broken = _derivation_failure(g, m, act, v, g.elements)
        if broken is not None:
            s, t = broken
            raise NotACocycle(
                f"a_({s}*{t}) = {v[g.mul(s, t)]} but a_{s} * {s}(a_{t}) = "
                f"{m.mul(v[s], act[s][v[t]])}"
            )

    def __repr__(self) -> str:
        return f"<cocycle {self.values}>"


def _twist_values(coeff: GammaGroup, values: Tuple[int, ...], c: int, ci: int) -> Tuple[int, ...]:
    """b_s = c^-1 * a_s * s(c), with ``ci`` = c^-1."""
    mt = coeff.M.table
    left = mt[ci]
    return tuple(left[mt[v][row[c]]] for v, row in zip(values, coeff.action))


@lru_cache(maxsize=None)
def enumerate_cocycles(coeff: GammaGroup) -> Tuple[Cocycle, ...]:
    """Every cocycle, sorted lexicographically by value tuple.

    The value tuples are ``h1(coeff).values``, so a system is searched once
    whichever of the two is called first.  This cache is the one holder of
    a system's records; they are not checked again, as the values are
    output of the cocycle search.
    """
    return tuple(_trusted(Cocycle, coeff, v) for v in h1(coeff).values)


def cohomologous(a: Cocycle, b: Cocycle) -> Optional[int]:
    """The least twisting element c with ``b_s = c^-1 a_s s(c)``, or None."""
    if a.parent != b.parent:
        raise ValidationError("cocycles live over different coefficient systems")
    coeff = a.parent
    for c, c_inv in enumerate(coeff.M.inverse):
        if _twist_values(coeff, a.values, c, c_inv) == b.values:
            return c
    return None


def _values_at(points: Sequence[int]) -> Callable[[Tuple[int, ...]], object]:
    """The key convention of :attr:`H1Classes.class_by_key`: a value tuple's
    values at ``points``, as one :func:`operator.itemgetter` returns them,
    so one point gives a bare value and none, as for the trivial group,
    gives ``()``."""
    return itemgetter(*points) if points else lambda values: ()


class H1Classes(_Record):
    """The class partition of all cocycles of one coefficient system.

    ``values`` holds every cocycle's value tuple, sorted lexicographically,
    and ``classes`` holds sorted index tuples into it; each class is
    represented by its lexicographically least member.  The table holds
    value tuples only and memoises nothing: ``representative_values`` and
    ``class_by_key`` are read off the fields on each access, and the
    records are built by :func:`enumerate_cocycles`.

    ``class_by_key`` maps each cocycle's key, its values on
    ``generating_set(gamma)`` read by :func:`_values_at`, to its class
    number.  A cocycle is fixed by its values on a generating set, so no
    two cocycles share a key; only a cocycle's own key may be looked up.
    """

    _fields = {"parent": GammaGroup, "values": tuple, "classes": tuple}

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def representative_values(self) -> Tuple[Tuple[int, ...], ...]:
        values = self.values
        return tuple(values[cls[0]] for cls in self.classes)

    @property
    def class_by_key(self) -> Dict[object, int]:
        key, values = _values_at(generating_set(self.parent.gamma)), self.values
        return {key(values[j]): i for i, cls in enumerate(self.classes) for j in cls}


@lru_cache(maxsize=None)
def h1(coeff: GammaGroup) -> H1Classes:
    """Cocycles modulo twisting, with lexicographically least representatives.

    Generator values are chosen one generator at a time and propagated
    along the layers of gamma's derivation, and each layer's relations are
    checked as soon as its values are fixed (see
    :func:`seclab.groups._derivation_search`); the search's check is the
    only one.  The sorted value tuples it returns are the table: no
    record is built here.

    A cocycle is fixed by its values on the generators of gamma, so only
    those are twisted, by ``b_g = c^-1 * a_g * g(c)``.  Twisting by c and
    then by d is twisting by cd, a right action of M, so an orbit is the
    closure under M's generators.  A generator c of M moves no key, and is
    dropped, exactly when every generator of gamma fixes c and c is
    central in M; with gamma trivial the key is empty and no c moves it.
    When every generator of gamma acts by the identity and M is abelian,
    no c moves a key and M's generators are not read.  The twist table is
    built for the generators left, in their order; the partition costs
    |classes|·|orbit|·|gens M left|·|gens gamma| table reads.  With none
    left every class is a singleton, and h1 costs one pass over the value
    tuples.
    """
    values = _derivation_search(coeff.gamma, coeff.M, coeff.action)
    m, mt = coeff.M, coeff.M.table
    gens = generating_set(coeff.gamma)
    rows = [coeff.action[g] for g in gens]
    moving = []
    if gens:
        ident, cols = tuple(m.elements), tuple(zip(*mt))
        # Tested first, as it spares generating_set(M): its greedy closures
        # cost more than this test whenever M's cache entry is cold.
        if mt != cols or any(row != ident for row in rows):
            moving = [
                c for c in generating_set(m) if mt[c] != cols[c] or any(row[c] != c for row in rows)
            ]
    if not moving:
        return H1Classes(coeff, values, tuple((i,) for i in range(len(values))))
    # twists[k][i][a] is c^-1 * a * g_i(c), for c the k-th generator of M left
    twists = [
        [tuple(mt[m.inverse[c]][mt[a][row[c]]] for a in m.elements) for row in rows]
        for c in moving
    ]
    classes = _orbit_partition(
        [tuple(map(v.__getitem__, gens)) for v in values],
        lambda key: [tuple(map(tuple.__getitem__, tw, key)) for tw in twists],
    )
    return H1Classes(coeff, values, classes)


def inner_pullback(a: Cocycle, g: int) -> Cocycle:
    """The cocycle ``s -> g^-1(a_{g s g^-1})``, verified cohomologous to a.

    The twisting element is the inverse of ``g^-1(a_g)``; the identity is
    checked rather than trusted.
    """
    coeff, gam = a.parent, a.parent.gamma
    _check_indices((g,), gam.order, ValidationError, "element")
    gt, gi = gam.table, gam.inverse[g]
    act, av = coeff.action[gi], a.values
    values = tuple(act[av[gt[gs][gi]]] for gs in gt[g])
    out = Cocycle(coeff, values)
    c_inv = act[av[g]]
    if _twist_values(coeff, av, coeff.M.inverse[c_inv], c_inv) != values:
        raise InvariantViolation(
            f"conjugation pullback by {g} is not the expected coboundary twist"
        )
    return out
