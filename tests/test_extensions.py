"""Extension validation, section enumeration and pushouts."""

from __future__ import annotations

import pytest

from oracles import oracle_sections
from seclab.catalog import preset_extensions, preset_groups
from seclab.errors import NotExact, NotNormal, ValidationError
from seclab.extensions import (
    Extension,
    enumerate_sections,
    lifts_up_to_conjugacy,
    pushout,
)
from seclab.groups import (
    GroupHom,
    _lifts_through,
    compose,
    cyclic_group,
    direct_product,
    enumerate_homs,
    full_subgroup,
    group_from_permutations,
    identity_hom,
    image,
    partition_by_conjugation,
    subgroup,
    subgroup_as_group,
    subgroup_generated,
    trivial_group,
    trivial_subgroup,
)

C2 = cyclic_group(2)
C4 = cyclic_group(4)
C6 = cyclic_group(6)
V4 = direct_product(C2, C2)


def s3():
    return group_from_permutations(3, [(1, 0, 2), (1, 2, 0)], label="S3")[0]


def c4_over_c2():
    return Extension(GroupHom(C2, C4, (0, 2)), GroupHom(C4, C2, (0, 1, 0, 1)))


def v4_over_c2():
    iota = GroupHom(C2, V4, (0, 1))  # second factor
    pi = GroupHom(V4, C2, (0, 0, 1, 1))  # first factor
    return Extension(iota, pi)


def s3_over_c2():
    grp = s3()
    sign = enumerate_homs(grp, C2)[1]
    incl = subgroup_as_group(subgroup_generated(grp, [3]))[1]
    return Extension(incl, sign)


# --- validation --------------------------------------------------------------


def test_extension_validates_exactness():
    with pytest.raises(NotExact, match=r"iota identifies 0 and 1 \(both map to 0\)"):
        Extension(GroupHom(C2, C4, (0, 0)), GroupHom(C4, C2, (0, 1, 0, 1)))
    with pytest.raises(NotExact, match="pi misses base element 1"):
        Extension(GroupHom(C2, C4, (0, 2)), GroupHom(C4, C2, (0, 0, 0, 0)))
    # image is the first factor but the kernel is the second: not exact
    with pytest.raises(NotExact):
        Extension(GroupHom(C2, V4, (0, 2)), GroupHom(V4, C2, (0, 0, 1, 1)))


@pytest.mark.parametrize(
    "build, needle",
    [
        (
            lambda: Extension(GroupHom(C2, C4, (0, 2)), v4_over_c2().pi),
            "iota's target and pi's source must be the same group",
        ),
        (
            lambda: Extension(GroupHom(C2, C4, (0, 2)), identity_hom(C2)),
            "iota's target and pi's source must be the same group",
        ),
        (
            lambda: Extension(GroupHom(trivial_group(), V4, (0,)), GroupHom(V4, C2, (0, 0, 1, 1))),
            "kernel element 1 of pi is not hit by iota",
        ),
        (
            lambda: pushout(c4_over_c2(), full_subgroup(C4)),
            "pushout subgroup must live in the kernel group",
        ),
    ],
    ids=["iota", "pi", "kernel-not-hit", "pushout-foreign"],
)
def test_extension_and_lift_difference_reject_mismatched_maps(build, needle):
    with pytest.raises(ValidationError, match=needle):
        build()


def test_extension_kernel_is_the_image_of_iota():
    ext = s3_over_c2()
    assert image(ext.iota).elements == (0, 3, 4)


# --- section enumeration -----------------------------------------------------


def test_sections_frozen_counts():
    assert enumerate_sections(c4_over_c2()).count == 0

    rep = enumerate_sections(v4_over_c2())
    assert [s.map for s in rep.sections] == [(0, 2), (0, 3)]
    assert rep.classes_mod_A == ((0,), (1,))  # abelian: nothing is conjugate

    rep3 = enumerate_sections(s3_over_c2())
    assert rep3.count == 3
    assert rep3.classes_mod_A == ((0, 1, 2),)


@pytest.mark.parametrize("builder", [c4_over_c2, v4_over_c2, s3_over_c2])
def test_sections_match_bruteforce_oracle(builder):
    ext = builder()
    got = sorted(s.map for s in enumerate_sections(ext).sections)
    want = oracle_sections(
        [list(r) for r in ext.Gamma.table],
        [list(r) for r in ext.E.table],
        list(ext.pi.map),
    )
    assert got == [tuple(w) for w in want]


def test_mod_e_partition_coarsens_mod_a():
    """Conjugating by all of E merges no two kernel classes (the theorem in
    ``SectionReport``'s docstring), so the one partition is both."""
    for builder in (v4_over_c2, s3_over_c2):
        ext = builder()
        rep = enumerate_sections(ext)
        assert partition_by_conjugation(rep.sections, ext.E.elements) == rep.classes_mod_A


def test_section_report_from_trivial_base():
    grp = s3()
    triv = cyclic_group(1)
    ext = Extension(identity_hom(grp), GroupHom(grp, triv, (0,) * 6))
    rep = enumerate_sections(ext)
    assert rep.count == 1  # only the trivial map sections 1 -> S3


def _base_maps():
    """Every base map from a preset of order at most 4 into the base of
    each preset extension of order at most 12."""
    return [
        (ext, phibar)
        for _, ext in preset_extensions(12)
        for delta in preset_groups(4)
        for phibar in enumerate_homs(delta, ext.Gamma)
    ]


def test_lifts_are_the_filtered_homs_in_order():
    """The fibre search finds the homs over each base map in the order of
    the reference: list every hom into E, keep those over the base map."""
    lifts = 0
    for ext, phibar in _base_maps():
        want = tuple(
            h
            for h in enumerate_homs(phibar.source, ext.E)
            if compose(ext.pi, h).map == phibar.map
        )
        assert _lifts_through(ext.pi, phibar) == want
        lifts += len(want)
    assert (len(_base_maps()), lifts) == (1401, 3460)


def test_sections_and_lifts_list_no_homs():
    """Sections and lifts come from the fibre search alone: with the hom
    cache emptied, neither reader lists the homs into E."""
    cases = _base_maps()
    enumerate_homs.cache_clear()
    for ext, phibar in cases:
        enumerate_sections(ext)
        lifts_up_to_conjugacy(ext, phibar)
    assert enumerate_homs.cache_info().misses == 0


# --- pushout -----------------------------------------------------------------


def test_pushout_c6_by_c3():
    e_mid = direct_product(C6, C2)
    iota = GroupHom(C6, e_mid, tuple(2 * x for x in range(6)))
    pi = GroupHom(e_mid, C2, tuple(e % 2 for e in range(12)))
    ext = Extension(iota, pi)
    smaller, q = pushout(ext, subgroup(C6, [0, 3]))
    assert smaller.A.order == 3
    assert smaller.E.order == 6
    assert smaller.Gamma == C2
    assert sorted(set(q.map)) == list(range(6))


def test_pushout_by_trivial_and_full_subgroups():
    ext = s3_over_c2()
    same, q = pushout(ext, trivial_subgroup(ext.A))
    assert same.E.order == ext.E.order
    collapsed, _ = pushout(ext, full_subgroup(ext.A))
    assert collapsed.A.order == 1
    assert collapsed.E.order == 2


def test_pushout_rejects_non_normal_embedded_subgroup():
    s4, _ = group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)], label="S4")
    v4sub = subgroup_generated(s4, [7, 16])  # the Klein four normal subgroup
    assert v4sub.order == 4
    v4grp, incl = subgroup_as_group(v4sub)
    quot_ext = Extension(incl, __import__("seclab.groups", fromlist=["quotient"]).quotient(s4, v4sub)[1])
    half = subgroup(v4grp, [0, 1])
    with pytest.raises(NotNormal, match=r"conjugate 2\*7\*2\^-1 = 16 escapes the subgroup"):
        pushout(quot_ext, half)
