"""Transporting a dense family to a subgroup, and section towers.

First half: restrict a dense local family on the full base to a chosen
subgroup and watch density survive the move.  Second half: push an
extension down a tower of kernel subgroups and either thread a compatible
chain of interpolating homomorphisms through every level or report the
levels where the witness sets come up empty.
"""

from __future__ import annotations

from seclab.groups import (
    GroupHom,
    Subgroup,
    cyclic_group,
    direct_product,
    full_subgroup,
    group_from_permutations,
    subgroup_as_group,
    subgroup_generated,
    trivial_subgroup,
)
from seclab.extensions import Extension
from seclab.localglobal import (
    LocalFamily,
    LocalSections,
    check_density,
    pushout_tower,
    tower_limit_sections,
    transport_family,
)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
S3 = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)], label="S3")[0]


def transport_walkthrough() -> None:
    thetas = []
    for gen in (2, 3):
        g_i, inc = subgroup_as_group(subgroup_generated(S3, [gen]))
        thetas.append(GroupHom(g_i, S3, inc.map))
    family = LocalFamily(S3, tuple(thetas))
    print(f"family on S3 with local orders {[t.source.order for t in family.thetas]}")
    print(f"  dense: {check_density(family)}")
    rotations = subgroup_generated(S3, [3])
    moved = transport_family(family, rotations)
    print(f"transported to the rotation subgroup (order {len(rotations.elements)}):")
    print(f"  local orders {[t.source.order for t in moved.thetas]}")
    print(f"  dense: {check_density(moved)}")


def tower_with_chain() -> None:
    ext = Extension(GroupHom(C3, S3, (0, 3, 4)), GroupHom(S3, C2, (0, 1, 1, 0, 0, 1)))
    s0 = GroupHom(C2, S3, (0, 2))
    s1 = GroupHom(C2, S3, tuple(S3.conj(3, s0.map[x]) for x in C2.elements))
    ls = LocalSections(ext, (s1,))
    levels, maps = pushout_tower(ext, [trivial_subgroup(C3), full_subgroup(C3)])
    result = tower_limit_sections(levels, maps, ls)
    print("\ntower over the sign extension of S3 (kernel chain 1 < C3):")
    print(f"  witnesses per level: {result.level_sizes}")
    for j, u in enumerate(result.chain):
        print(f"  level {j} chain member: {u.map}")


def tower_with_empty_levels() -> None:
    e2 = direct_product(C3, C3)
    ext = Extension(
        GroupHom(C3, e2, (0, 1, 2)), GroupHom(e2, C3, tuple(x // 3 for x in e2.elements))
    )
    ls = LocalSections(ext, (GroupHom(C3, e2, (0, 3, 6)), GroupHom(C3, e2, (0, 4, 8))))
    levels, maps = pushout_tower(ext, [trivial_subgroup(C3), full_subgroup(C3)])
    result = tower_limit_sections(levels, maps, ls)
    print("\ntower over the abelian square with two diagonal local sections:")
    print(f"  witnesses per level: {result.level_sizes}")
    print(f"  empty levels: {result.empty_levels}  (no chain can start)")


def main() -> None:
    transport_walkthrough()
    tower_with_chain()
    tower_with_empty_levels()


if __name__ == "__main__":
    main()
