"""Tour of the five local-global properties on three hand-picked instances.

Each instance pairs an extension with local sections over a family of
subgroup maps.  The tour decides corpus survival (a), its constant (a')
and kernel (a'') variants, interpolation by a homomorphism (b), and
interpolation by a section with kernel conjugators (c), then prints the
implication verdicts and finally upgrades a homomorphism to a section on
a dense instance.
"""

from __future__ import annotations

from seclab.groups import (
    GroupHom,
    cyclic_group,
    direct_product,
    group_from_permutations,
    subgroup_as_group,
    subgroup_generated,
)
from seclab.extensions import Extension
from seclab.localglobal import (
    LocalSections,
    decide_b,
    interpolating_section_from_hom,
    verify_equivalences,
)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
S3 = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)], label="S3")[0]
SIGN = GroupHom(S3, C2, (0, 1, 1, 0, 0, 1))


def twisted_instance() -> LocalSections:
    ext = Extension(GroupHom(C3, S3, (0, 3, 4)), SIGN)
    s0 = GroupHom(C2, S3, (0, 2))
    s1 = GroupHom(C2, S3, tuple(S3.conj(3, s0.map[x]) for x in C2.elements))
    return LocalSections(ext, (s1,))


def obstructed_instance() -> LocalSections:
    v4 = direct_product(C2, C2)
    ext = Extension(GroupHom(C2, v4, (0, 1)), GroupHom(v4, C2, (0, 0, 1, 1)))
    return LocalSections(ext, (GroupHom(C2, v4, (0, 2)), GroupHom(C2, v4, (0, 3))))


def dense_instance() -> LocalSections:
    e = direct_product(S3, C2)
    ext = Extension(GroupHom(C2, e, (0, 1)), GroupHom(e, S3, tuple(x // 2 for x in e.elements)))
    s0_map = tuple(2 * g for g in S3.elements)
    sections = []
    for gen in (2, 3):
        g_i, inc = subgroup_as_group(subgroup_generated(S3, [gen]))
        sections.append(GroupHom(g_i, e, tuple(s0_map[t] for t in inc.map)))
    return LocalSections(ext, tuple(sections))


def describe(title: str, ls: LocalSections) -> None:
    report = verify_equivalences(ls)
    print(f"== {title}")
    print(f"  dense local family: {report.density}   extension splits: {report.split}")
    print(f"  (a)  corpus survival:   {report.a.holds}  ({report.a.classes_checked} classes checked)")
    print(f"  (a') constant quotients: {report.a_prime.holds}")
    print(f"  (a'') kernel quotients:  {report.a_doubleprime.holds}")
    print(f"  (b)  interpolating hom:  {report.b.map if report.b else None}")
    print(f"  (c)  section + kernel conjugators: {report.c.map if report.c else None}")
    if not report.a_prime.holds and report.a_prime.failing_entry is not None:
        entry = report.a_prime.failing_entry
        print(
            f"  witness: class {report.a_prime.failing_class.values} dies against the"
            f" {entry.provenance} entry with module order {entry.coeff.M.order}"
        )
    verdicts = "  ".join(f"{label}:{'ok' if ok else 'BROKEN'}" for label, ok in report.implications)
    print(f"  implications  {verdicts}")
    print()


def upgrade_to_section() -> None:
    ls = twisted_instance()
    u = GroupHom(C2, S3, (0, 2))
    section, conjugators = interpolating_section_from_hom(ls, u)
    print("upgrading a homomorphism to a section on the twisted instance:")
    print(f"  the sign section {u.map} matches the local only up to a rotation")
    print(f"  constructed section {section.map} with conjugators {conjugators}")
    print("  the conjugator is a genuine rotation, i.e. lies in the embedded kernel")
    witness = decide_b(dense_instance())
    both = interpolating_section_from_hom(dense_instance(), witness)
    print(f"  on the dense product the least witness {witness.map} is already a")
    print(f"  section, so its conjugators come out trivial: {both[1]}")


def main() -> None:
    describe("sign extension of S3, local section twisted by a rotation", twisted_instance())
    describe("Klein middle over order 2, incompatible local sections", obstructed_instance())
    describe("split central product with locals on both cyclic types", dense_instance())
    upgrade_to_section()


if __name__ == "__main__":
    main()
