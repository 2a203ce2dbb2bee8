"""Cocycle enumeration, class partitions, twisting, lifting dictionary."""

from __future__ import annotations

import pytest

from oracles import oracle_cocycles, oracle_h1_class_count
from seclab import cohomology
from seclab.catalog import coefficient_catalog, preset_group
from seclab.errors import NotACocycle, NotAnAction, ValidationError
from seclab.cohomology import (
    Cocycle,
    GammaGroup,
    cohomologous,
    conjugation_coefficients,
    constant_coefficients,
    enumerate_cocycles,
    h1,
    inner_pullback,
    pullback_coefficients,
)
from seclab.extensions import Extension, lifts_up_to_conjugacy
from seclab.groups import (
    GroupHom,
    cyclic_group,
    direct_product,
    enumerate_homs,
    group_from_permutations,
    identity_hom,
    image,
    subgroup_as_group,
    subgroup_generated,
)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)


def s3():
    return group_from_permutations(3, [(1, 0, 2), (1, 2, 0)], label="S3")[0]


def s3_over_c2():
    grp = s3()
    sign = enumerate_homs(grp, C2)[1]
    incl = subgroup_as_group(subgroup_generated(grp, [3]))[1]
    return Extension(incl, sign)


def c4_over_c2():
    return Extension(GroupHom(C2, C4, (0, 2)), GroupHom(C4, C2, (0, 1, 0, 1)))


INVERSION_ON_C3 = GammaGroup(C2, C3, ((0, 1, 2), (0, 2, 1)))
#: The cocycle, a hom, sending the generator of C4 to that of C2.
C2_OVER_C4 = Cocycle(constant_coefficients(C4, C2), (0, 1, 0, 1))


# --- coefficient systems ----------------------------------------------------


def test_action_must_be_automorphisms():
    with pytest.raises(NotAnAction):
        GammaGroup(C2, C3, ((0, 1, 2), (1, 0, 2)))  # swap is not an automorphism of C3


def test_action_rows_must_compose():
    rows = ((0, 1, 2, 3), (0, 3, 2, 1), (0, 1, 2, 3), (0, 1, 2, 3))
    with pytest.raises(NotAnAction):
        GammaGroup(C4, C4, rows)  # 1 acts by inversion but 1*1 acts trivially


def test_identity_must_act_trivially():
    with pytest.raises(NotAnAction):
        GammaGroup(C2, C3, ((0, 2, 1), (0, 1, 2)))


@pytest.mark.parametrize(
    "build, error, needle",
    [
        (lambda: GammaGroup(C2, C3, ((0, 1, 2),)), NotAnAction, "1 rows for a group of order 2"),
        (
            lambda: GammaGroup(C2, C2, ((0, True), (0, 1))),
            NotAnAction,
            "row for 0 entry True is not an integer",
        ),
        (
            lambda: GammaGroup(C2, C2, ((0, 1), (0, 1.0))),
            NotAnAction,
            "row for 1 entry 1.0 is not an integer",
        ),
        (
            lambda: GammaGroup(C2, C2, [(0, 1), (0, 1)]),
            NotAnAction,
            "GammaGroup.action must be a tuple, not",
        ),
        (
            lambda: GammaGroup(C2, C2, ([0, 1], [0, 1])),
            NotAnAction,
            r"row for 0 must be a tuple, not \[0, 1\]",
        ),
        (
            lambda: GammaGroup(C2, C2, ((0, 1), (0, 10**5000))),
            NotAnAction,
            r"row for 1 entry <int of 16610 bits> outside 0\.\.1",
        ),
        (
            lambda: GammaGroup(C2, C3, ((0, 1, 2), (0, 0, 1))),
            NotAnAction,
            "row for 1 is not a permutation of the coefficients",
        ),
        (
            lambda: conjugation_coefficients(image(s3_over_c2().iota), identity_hom(C4)),
            ValidationError,
            "via must land in the subgroup's parent group",
        ),
        (
            lambda: conjugation_coefficients(subgroup_generated(s3(), [1]), identity_hom(s3())),
            NotAnAction,
            "conjugation by image of 2 moves 1 to 5, outside the subgroup",
        ),
        (
            lambda: pullback_coefficients(identity_hom(C3), INVERSION_ON_C3),
            ValidationError,
            "pullback map must land in the acting group",
        ),
        (
            lambda: Cocycle(INVERSION_ON_C3, (0,)),
            NotACocycle,
            "1 values for a group of order 2",
        ),
        (
            lambda: lifts_up_to_conjugacy(c4_over_c2(), identity_hom(C3)),
            ValidationError,
            "the map must land in the extension's base group",
        ),
        (lambda: inner_pullback(C2_OVER_C4, 9), ValidationError, r"element 9 outside 0\.\.3"),
        (lambda: inner_pullback(C2_OVER_C4, "x"), ValidationError, "element 'x' is not an integer"),
        (lambda: inner_pullback(C2_OVER_C4, -1), ValidationError, r"element -1 outside 0\.\.3"),
    ],
    ids=[
        "row-count", "entry-bool", "entry-float", "action-list", "row-list", "entry-huge",
        "row-repeat", "conjugation-via", "conjugation-escapes", "pullback-target",
        "cocycle-length", "lifts-target", "pullback-range", "pullback-str", "pullback-negative",
    ],
)
def test_coefficient_system_rejects_bad_shape(build, error, needle):
    with pytest.raises(error, match=needle):
        build()


def test_conjugation_coefficients_on_kernel():
    ext = s3_over_c2()
    coeff = conjugation_coefficients(image(ext.iota), identity_hom(ext.E))
    assert coeff.M.order == 3
    # a transposition inverts the rotation subgroup
    assert coeff.action[1] == (0, 2, 1)


# --- cocycles and classes ----------------------------------------------------


def test_cocycle_validation():
    with pytest.raises(NotACocycle):
        Cocycle(INVERSION_ON_C3, (1, 0))
    with pytest.raises(NotACocycle):
        Cocycle(constant_coefficients(C2, C3), (0, 1))  # not a hom C2 -> C3
    for values in ((0, 3), (0, -1), (0, 10**5000)):
        with pytest.raises(NotACocycle, match=r"outside 0\.\.2"):
            Cocycle(constant_coefficients(C2, C3), values)
    for values in ((0, True), (0, 1.0), (0, "1")):
        with pytest.raises(NotACocycle, match=f"value {values[1]!r} is not an integer"):
            Cocycle(constant_coefficients(C2, C2), values)
    with pytest.raises(NotACocycle, match="must be a tuple"):
        Cocycle(constant_coefficients(C2, C2), [0, 1])


def test_frozen_counts_inversion_on_c3():
    cocs = enumerate_cocycles(INVERSION_ON_C3)
    assert [c.values for c in cocs] == [(0, 0), (0, 1), (0, 2)]
    classes = h1(INVERSION_ON_C3)
    assert classes.class_count == 1
    assert classes.representatives[0].values == (0, 0)


def test_frozen_counts_trivial_and_c4_inversion():
    triv = constant_coefficients(C2, C2)
    assert len(enumerate_cocycles(triv)) == 2
    assert h1(triv).class_count == 2
    inv4 = GammaGroup(C2, C4, ((0, 1, 2, 3), (0, 3, 2, 1)))
    assert len(enumerate_cocycles(inv4)) == 4
    assert h1(inv4).class_count == 2


@pytest.mark.parametrize(
    "coeff",
    [
        INVERSION_ON_C3,
        constant_coefficients(C2, C2),
        constant_coefficients(C3, C3),
        GammaGroup(C2, C4, ((0, 1, 2, 3), (0, 3, 2, 1))),
        constant_coefficients(direct_product(C2, C2), C2),
    ],
)
def test_cocycles_match_bruteforce_oracle(coeff):
    got = [c.values for c in enumerate_cocycles(coeff)]
    want = oracle_cocycles(
        [list(r) for r in coeff.gamma.table],
        [list(r) for r in coeff.M.table],
        [list(r) for r in coeff.action],
    )
    assert got == [tuple(w) for w in want]
    assert h1(coeff).class_count == oracle_h1_class_count(
        [list(r) for r in coeff.gamma.table],
        [list(r) for r in coeff.M.table],
        [list(r) for r in coeff.action],
    )


def test_nonabelian_conjugation_cocycles_match_oracle():
    grp = s3()
    coeff = conjugation_coefficients(
        subgroup_generated(grp, [3]), identity_hom(grp)
    )
    got = [c.values for c in enumerate_cocycles(coeff)]
    want = oracle_cocycles(
        [list(r) for r in grp.table],
        [list(r) for r in coeff.M.table],
        [list(r) for r in coeff.action],
    )
    assert len(got) == 9
    assert got == [tuple(w) for w in want]


def test_classes_partition_and_lex_least_representatives():
    coeff = conjugation_coefficients(
        subgroup_generated(s3(), [3]), identity_hom(s3())
    )
    classes = h1(coeff)
    covered = sorted(i for cls in classes.classes for i in cls)
    assert covered == list(range(len(classes.cocycles)))
    for cls, rep in zip(classes.classes, classes.representatives):
        assert rep.values == min(classes.cocycles[i].values for i in cls)


def test_cohomologous_is_symmetric_and_reflexive():
    cocs = enumerate_cocycles(INVERSION_ON_C3)
    for a in cocs:
        assert cohomologous(a, a) is not None
        for b in cocs:
            assert (cohomologous(a, b) is None) == (cohomologous(b, a) is None)
    other = Cocycle(constant_coefficients(C2, C3), (0, 0))
    with pytest.raises(ValidationError):
        cohomologous(cocs[0], other)


# --- conjugation pullback ----------------------------------------------------


def test_inner_pullback_is_cohomologous_everywhere():
    grp = s3()
    coeff = conjugation_coefficients(subgroup_generated(grp, [3]), identity_hom(grp))
    for a in enumerate_cocycles(coeff):
        for g in grp.elements:
            b = inner_pullback(a, g)  # validates the explicit coboundary inside
            assert cohomologous(a, b) is not None


def test_inner_pullback_trivial_for_central_elements():
    a = enumerate_cocycles(INVERSION_ON_C3)[1]
    assert inner_pullback(a, 0).values == a.values
    # gamma abelian: conjugation only twists through the action
    b = inner_pullback(a, 1)
    assert cohomologous(a, b) is not None


# --- the lifting dictionary --------------------------------------------------


def test_lifts_frozen_counts():
    assert lifts_up_to_conjugacy(c4_over_c2(), identity_hom(C2)) == ()
    classes = lifts_up_to_conjugacy(s3_over_c2(), identity_hom(C2))
    assert len(classes) == 1
    assert len(classes[0]) == 3


def test_lifts_through_trivial_base_are_conjugacy_classes_of_homs():
    grp = s3()
    triv = cyclic_group(1)
    ext = Extension(identity_hom(grp), GroupHom(grp, triv, (0,) * 6))
    classes = lifts_up_to_conjugacy(ext, GroupHom(C2, triv, (0, 0)))
    assert len(classes) == 2  # trivial map; the three transposition embeddings
    assert sorted(len(c) for c in classes) == [1, 3]


def test_lift_classes_match_cocycle_classes_on_more_bases():
    ext = s3_over_c2()
    for base in (C2, C4, direct_product(C2, C2)):
        for phibar in enumerate_homs(base, ext.Gamma):
            classes = lifts_up_to_conjugacy(ext, phibar)
            if classes:
                coeff = conjugation_coefficients(image(ext.iota), classes[0][0])
                assert len(classes) == h1(coeff).class_count


def test_pullback_coefficients_compose():
    grp = s3()
    sign = enumerate_homs(grp, C2)[1]
    pulled = pullback_coefficients(sign, INVERSION_ON_C3)
    assert pulled.gamma == grp
    assert pulled.action[1] == (0, 2, 1)  # transpositions invert
    assert pulled.action[3] == (0, 1, 2)  # rotations act trivially


@pytest.mark.parametrize("first", ["enumerate_cocycles", "h1"])
def test_cocycles_and_h1_search_each_system_once(first, monkeypatch):
    """The census reads enumerate_cocycles and then h1; either order, from
    cold caches, runs the cocycle search once per system, and the records
    are h1's own."""
    systems = [
        coeff
        for name in ("C4", "S3", "D4")
        for coeff in coefficient_catalog(preset_group(name), 4)
    ]
    searched = []
    search = cohomology._derivation_search

    def counting(gamma, m, rows, choices=None):
        searched.append((gamma, m, rows))
        return search(gamma, m, rows, choices)

    h1.cache_clear()
    enumerate_cocycles.cache_clear()
    monkeypatch.setattr(cohomology, "_derivation_search", counting)
    for coeff in systems:
        if first == "h1":
            classes, cocycles = h1(coeff), enumerate_cocycles(coeff)
        else:
            cocycles, classes = enumerate_cocycles(coeff), h1(coeff)
        assert len(cocycles) == len(classes.values)
        assert all(a is b for a, b in zip(cocycles, classes.cocycles))
    assert len(searched) == len(set(searched)) == len(set(systems))
