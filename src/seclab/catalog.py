"""A deterministic catalog of small groups, extensions, and seeded instances.

Presets cover the cyclic, dihedral, dicyclic, symmetric/alternating, and a
few metacyclic and product groups up to order 64.  Everything derived from
them — extension lists, coefficient systems, seeded local-section instances
— is reproducible: identical arguments and seeds give identical objects.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce, wraps
from math import prod
from typing import Dict, List, Tuple

from .cohomology import GammaGroup
from .errors import InvariantViolation, UnknownName, ValidationError
from .extensions import Extension
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _check_int,
    _check_order,
    _check_types,
    _derivation_search,
    _extension_group,
    _identity_rows,
    _lifts_through,
    _show,
    _trusted,
    all_normal_subgroups,
    all_subgroups,
    automorphism_group,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    group_from_permutations,
    identity_hom,
    quotient,
    subgroup_as_group,
    subgroup_generated,
)
from .localglobal import LocalFamily, LocalSections, check_density

__all__ = [
    "MAX_PRESET_ORDER",
    "dihedral_group",
    "dicyclic_group",
    "metacyclic_group",
    "symmetric_group",
    "alternating_group",
    "preset_groups",
    "preset_group",
    "preset_extensions",
    "coefficient_catalog",
    "seeded_instances",
    "seeded_transport_pairs",
]

#: Hard cap on preset orders; beyond this the exhaustive searches stop paying.
MAX_PRESET_ORDER = 64


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon as permutations of its vertices."""
    _check_int(n, "dihedral group n", 3)
    _check_order(2 * n, "dihedral group order")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return group_from_permutations(n, [rot, ref], label=f"D{n}")[0]


def dicyclic_group(n: int) -> FiniteGroup:
    """The dicyclic group of order 4n; n = 2 gives the quaternions."""
    _check_int(n, "dicyclic group n", 2)
    _check_order(4 * n, "dicyclic group order")
    label = "Q8" if n == 2 else ("Q16" if n == 4 else f"Dic{n}")
    # the non-split extension of C2 by C_2n: 1 acts by inversion, and f(1, 1) = n
    c2n = cyclic_group(2 * n)
    rows = (tuple(c2n.elements), c2n.inverse)
    return _extension_group(c2n, cyclic_group(2), rows, ((0, 0), (0, n)), label)


def metacyclic_group(m: int, n: int, r: int) -> FiniteGroup:
    """The split extension of Z/m by Z/n where the generator acts as r.

    Requires r^n = 1 mod m so the action is well defined.
    """
    for name, value, least in (("m", m, 1), ("n", n, 1), ("r", r, None)):
        _check_int(value, f"metacyclic group {name}", least)
    if pow(r, n, m) != 1 % m:
        raise ValidationError(f"r^n must be 1 mod m; got {_show(r)}^{_show(n)} mod {_show(m)}")
    _check_order(m * n, "metacyclic group order")
    rows = tuple(tuple(pow(r, l, m) * k % m for k in range(m)) for l in range(n))
    label = f"C{m}:C{n}r{_show(r)}"
    return _extension_group(cyclic_group(m), cyclic_group(n), rows, ((0,) * n,) * n, label)


def symmetric_group(n: int) -> FiniteGroup:
    _check_int(n, "symmetric group degree", 2)
    # 7! = 5,040 <= 10,080 < 8! and |A8| = 20,160: n > 7 closes past the bound
    _check_order(n, "symmetric group degree", 7)
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple((i + 1) % n for i in range(n))
    return group_from_permutations(n, [swap, cycle], label=f"S{n}")[0]


def alternating_group(n: int) -> FiniteGroup:
    _check_int(n, "alternating group degree", 3)
    _check_order(n, "alternating group degree", 7)  # as in symmetric_group
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2 == 1:
        cycle = tuple((i + 1) % n for i in range(n))
    else:
        cycle = (0,) + tuple(1 + (i % (n - 1)) for i in range(1, n))
    return group_from_permutations(n, [three, cycle], label=f"A{n}")[0]


#: The preset direct products of cyclic groups, by the orders of their factors.
_PRODUCTS = ((2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 8), (4, 4), (3, 6), (2, 12))


def _cached_behind(key):
    """``lru_cache(build)`` behind ``key``, which checks the raw arguments (a list
    would end in ``TypeError: unhashable``) and returns the cache key."""

    def decorate(build):
        cached = lru_cache(maxsize=None)(build)
        checked = wraps(build)(lambda *args, **kwargs: cached(*key(*args, **kwargs)))
        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked

    return decorate


def _order_key(max_order: int) -> Tuple[int]:
    _check_int(max_order, "max_order")
    return (max_order,)


def _catalog_key(gamma: FiniteGroup, max_m: int) -> Tuple[FiniteGroup, int]:
    _check_types((gamma,), (FiniteGroup,), ValidationError, "{}", ("gamma",))
    _check_int(max_m, "max_m")
    return gamma, max_m


@_cached_behind(_order_key)
def preset_groups(max_order: int) -> Tuple[FiniteGroup, ...]:
    """All catalog groups of order at most ``max_order``, sorted by
    (order, name)."""
    _check_order(max_order, "preset catalog order", MAX_PRESET_ORDER)
    out: List[FiniteGroup] = []
    for n in range(2, max_order + 1):
        out.append(cyclic_group(n))
    for orders in _PRODUCTS:
        if prod(orders) <= max_order:
            out.append(reduce(direct_product, map(cyclic_group, orders)))
    for n in range(3, max_order // 2 + 1):
        out.append(dihedral_group(n))
    for n in (2, 3, 4, 6):
        if 4 * n <= max_order:
            out.append(dicyclic_group(n))
    for g in (symmetric_group(3), symmetric_group(4), alternating_group(4)):
        if g.order <= max_order:
            out.append(g)
    if 20 <= max_order:
        out.append(metacyclic_group(5, 4, 2))
    if 21 <= max_order:
        out.append(metacyclic_group(7, 3, 2))
    return tuple(sorted(out, key=lambda g: (g.order, g.label or "")))


def preset_group(name: str) -> FiniteGroup:
    """Look a preset up by name, e.g. ``"D4"`` or ``"C2xC2"``."""
    for g in preset_groups(MAX_PRESET_ORDER):
        if g.label == name:
            return g
    raise UnknownName(f"no preset group named {_show(name)}")


@_cached_behind(_order_key)
def preset_extensions(max_order: int) -> Tuple[Tuple[str, Extension], ...]:
    """Every preset middle group with every normal subgroup as the kernel.

    Names follow ``E/ni`` where i indexes the normal subgroup list; the
    trivial and full kernels are kept for their edge behaviour.
    """
    out: List[Tuple[str, Extension]] = []
    for g in preset_groups(max_order):
        for i, n_sub in enumerate(all_normal_subgroups(g)):
            a_grp, iota = subgroup_as_group(_trusted(Subgroup, g, n_sub.elements))
            _, pi = quotient(g, n_sub)
            out.append((f"{g.label}/n{i}", Extension(iota, pi)))
    return tuple(out)


@_cached_behind(_catalog_key)
def coefficient_catalog(gamma: FiniteGroup, max_m: int) -> Tuple[GammaGroup, ...]:
    """Every action of the base on every preset of order at most ``max_m``.

    Each entry is one homomorphism into the automorphism group of some
    preset; the constant system is the trivial-hom entry.  Presets with
    equal Aut tables share one hom search, whose output is read directly.

    No entry is checked again.  Each tuple comes out of the verified hom
    search into the table of :func:`automorphism_group`, whose entry i*j
    is ``auts[i]`` after ``auts[j]``.  So the row of x*g is the row of x
    after the row of g, the identity's row is the identity automorphism,
    and every row is an automorphism of m.
    """
    out: List[GammaGroup] = []
    homs: Dict[FiniteGroup, tuple] = {}
    for m in preset_groups(max_m):
        aut, auts = automorphism_group(m)
        if aut not in homs:
            homs[aut] = _derivation_search(gamma, aut, _identity_rows(gamma, aut))
        maps = [a.map for a in auts]
        for phi in homs[aut]:
            out.append(_trusted(GammaGroup, gamma, m, tuple(map(maps.__getitem__, phi))))
    return tuple(out)


# ---------------------------------------------------------------------------
# seeded instances


@lru_cache(maxsize=None)
def _lifts(theta: GroupHom, ext: Extension) -> Tuple[GroupHom, ...]:
    return _lifts_through(ext.pi, theta)


def _instance_pool(max_middle: int) -> Tuple[Extension, ...]:
    return tuple(
        ext
        for _, ext in preset_extensions(max_middle)
        if ext.Gamma.order > 1 and ext.A.order > 1
    )


def seeded_instances(
    seed: int, count: int, max_middle: int = 16
) -> Tuple[LocalSections, ...]:
    """Reproducible local-section instances over the preset extensions.

    Each instance draws an extension, up to three locals (subgroup
    inclusions, sometimes the full base), and one lift per local — either
    conjugates of a global section or independent random lifts.  Locals
    with no lift are dropped.  No lift is checked again: the first kind is
    a verified section composed with a local map and an inner automorphism,
    the second a verified lift read on an equal source group.
    """
    _check_int(seed, "seed")
    _check_int(count, "count")
    _check_int(max_middle, "max_middle")
    rng = random.Random(seed)
    pool = _instance_pool(max_middle)
    if not pool:
        raise ValidationError(
            f"no preset extension of middle order at most {_show(max_middle)} "
            "has a nontrivial kernel and base"
        )
    out: List[LocalSections] = []
    while len(out) < count:
        ext = rng.choice(pool)
        gamma, conj = ext.Gamma, ext.E.conj
        ext_sections = _lifts(identity_hom(gamma), ext)
        coherent = bool(ext_sections) and rng.random() < 0.5
        sections: List[GroupHom] = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.25:
                theta = identity_hom(gamma)
            else:
                sub = rng.choice(all_subgroups(gamma))
                theta = subgroup_as_group(sub)[1]
            if coherent:
                s0 = ext_sections[0]
                a_i = rng.choice(ext.iota.map)
                images = tuple(conj(a_i, s0.map[t]) for t in theta.map)
                lift = _trusted(GroupHom, theta.source, ext.E, images)
            else:
                lifts = _lifts(theta, ext)
                if not lifts:
                    continue
                # cached lifts keep the source label of their first caller
                lift = _trusted(GroupHom, theta.source, ext.E, rng.choice(lifts).map)
            sections.append(lift)
        out.append(LocalSections(ext, tuple(sections)))
    return tuple(out)


def _class_representative_family(gamma: FiniteGroup) -> LocalFamily:
    """One cyclic local per conjugacy class, generated by its least member."""
    gens = (subgroup_generated(gamma, cls[:1]) for cls in conjugacy_classes(gamma))
    return LocalFamily(gamma, tuple(subgroup_as_group(sub)[1] for sub in gens))


def seeded_transport_pairs(
    seed: int, count: int, max_order: int = 12
) -> Tuple[Tuple[LocalFamily, Subgroup], ...]:
    """Reproducible (dense family, subgroup) pairs for transport checks.

    Density comes for free: one cyclic local per conjugacy class
    representative already covers the group.
    """
    _check_int(seed, "seed")
    _check_int(count, "count")
    rng = random.Random(seed)
    pool = [g for g in preset_groups(max_order) if g.order > 1]
    if not pool:
        raise ValidationError(f"no nontrivial preset group of order at most {_show(max_order)}")
    out: List[Tuple[LocalFamily, Subgroup]] = []
    for _ in range(count):
        gamma = rng.choice(pool)
        fam = _class_representative_family(gamma)
        if not check_density(fam):
            raise InvariantViolation(f"class-representative family failed to cover {gamma.label}")
        out.append((fam, rng.choice(all_subgroups(gamma))))
    return tuple(out)
