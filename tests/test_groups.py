"""Table groups, homomorphism enumeration, conjugacy, quotients."""

from __future__ import annotations

import pytest

from oracles import (
    oracle_conjugacy_classes,
    oracle_homs,
    oracle_perm_closure,
    oracle_subgroups,
    oracle_union_of_conjugates,
)
from seclab.errors import (
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
from seclab.groups import (
    GroupHom,
    Subgroup,
    all_normal_subgroups,
    all_normal_subgroups_between,
    all_subgroups,
    automorphisms,
    compose,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    element_order,
    enumerate_homs,
    generating_set,
    group_from_permutations,
    group_from_table,
    hom_from_generator_images,
    identity_hom,
    image,
    inner_automorphism,
    is_class_preserving,
    is_injective,
    is_normal,
    is_surjective,
    kernel,
    partition_by_conjugation,
    quotient,
    subgroup,
    subgroup_as_group,
    subgroup_generated,
    trivial_subgroup,
    union_of_conjugates,
)

S3_GENS = [(1, 0, 2), (1, 2, 0)]


def s3():
    return group_from_permutations(3, S3_GENS, label="S3")[0]


def d4():
    return group_from_permutations(4, [(1, 2, 3, 0), (2, 1, 0, 3)], label="D4")[0]


# --- table validation -------------------------------------------------------


def test_from_table_cyclic():
    c3 = cyclic_group(3)
    assert c3.order == 3
    assert c3.identity == 0
    assert c3.inverse == (0, 2, 1)


def test_no_identity():
    with pytest.raises(NoIdentity):
        group_from_table([[0, 0], [0, 0]])


def test_no_inverse():
    with pytest.raises(NoInverse):
        group_from_table([[0, 1], [1, 1]])


def test_not_associative_names_witness():
    with pytest.raises(NotAssociative) as err:
        group_from_table([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    assert "*" in str(err.value)


def test_entry_out_of_range():
    with pytest.raises(Exception, match="outside"):
        group_from_table([[0, 7], [1, 0]])


# --- permutation input ------------------------------------------------------


def test_perm_closure_matches_naive_oracle():
    grp, perms = group_from_permutations(3, S3_GENS)
    assert grp.order == 6
    assert list(perms) == oracle_perm_closure(3, S3_GENS)
    # table agrees with composition of the listed permutations
    for a in grp.elements:
        for b in grp.elements:
            composed = tuple(perms[a][perms[b][i]] for i in range(3))
            assert perms[grp.mul(a, b)] == composed


def test_perm_identity_is_element_zero():
    grp, perms = group_from_permutations(4, [(1, 2, 3, 0)])
    assert perms[grp.identity] == (0, 1, 2, 3)
    assert grp.identity == 0


def test_not_a_permutation():
    with pytest.raises(NotAPermutation):
        group_from_permutations(3, [(0, 0, 1)])


def test_closure_bound_exceeded():
    with pytest.raises(ClosureBoundExceeded):
        group_from_permutations(3, S3_GENS, closure_bound=4)


# --- homomorphisms ----------------------------------------------------------


def test_hom_counts_frozen():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    maps = [h.map for h in enumerate_homs(c2, c4)]
    assert maps == [(0, 0), (0, 2)]  # frozen: brute-force over all 16 maps
    assert len(enumerate_homs(c2, s3())) == 4
    assert len(enumerate_homs(s3(), s3())) == 10
    assert len(enumerate_homs(s3(), c2)) == 2


@pytest.mark.parametrize(
    "src,tgt",
    [
        (cyclic_group(2), cyclic_group(4)),
        (cyclic_group(4), cyclic_group(2)),
        (cyclic_group(6), cyclic_group(6)),
        (s3(), cyclic_group(2)),
        (cyclic_group(3), s3()),
        (s3(), s3()),
        (direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(2)),
    ],
)
def test_homs_match_bruteforce_oracle(src, tgt):
    got = [h.map for h in enumerate_homs(src, tgt)]
    want = oracle_homs([list(r) for r in src.table], [list(r) for r in tgt.table])
    assert got == [tuple(m) for m in want]


def test_hom_validation_rejects_non_hom():
    c4 = cyclic_group(4)
    with pytest.raises(NotAHomomorphism):
        GroupHom(c4, c4, (0, 2, 1, 3))


def test_hom_from_generator_images():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    h = hom_from_generator_images(c4, c2, [1])
    assert h.map == (0, 1, 0, 1)
    with pytest.raises(NotAHomomorphism):
        hom_from_generator_images(c2, c4, [1])  # 1 has order 4, too big


def test_compose_kernel_image():
    grp = s3()
    sign = enumerate_homs(grp, cyclic_group(2))[1]
    assert is_surjective(sign)
    assert kernel(sign).elements == (0, 3, 4)
    emb = enumerate_homs(cyclic_group(2), grp)[1]
    back = compose(sign, emb)
    assert back.map == (0, 1)
    assert image(emb).order == 2
    assert is_injective(emb)


def test_generating_set_greedy_is_small():
    assert generating_set(cyclic_group(12)) == (1,)
    assert len(generating_set(s3())) == 2
    assert len(generating_set(direct_product(cyclic_group(2), cyclic_group(2)))) == 2
    assert generating_set(cyclic_group(1)) == ()


def test_element_order():
    assert element_order(cyclic_group(12), 1) == 12
    assert element_order(s3(), 3) == 3
    assert element_order(s3(), 1) == 2


# --- subgroups --------------------------------------------------------------


def test_subgroup_validation():
    grp = s3()
    with pytest.raises(NotASubgroup):
        Subgroup(grp, (0, 1, 3))  # not closed
    with pytest.raises(NotASubgroup):
        Subgroup(grp, (1,))  # missing identity
    assert subgroup(grp, [0, 1]).order == 2


def test_subgroup_generated():
    grp = s3()
    assert subgroup_generated(grp, [3]).elements == (0, 3, 4)
    assert subgroup_generated(grp, [1, 3]).order == 6
    assert subgroup_generated(grp, []).elements == (0,)
    for bad in (-1, 6):
        with pytest.raises(NotASubgroup, match=f"element {bad} outside"):
            subgroup_generated(grp, [bad])


def test_subgroup_as_group_roundtrip():
    grp = s3()
    a3, incl = subgroup_as_group(subgroup_generated(grp, [3]))
    assert a3.order == 3
    assert incl.map == (0, 3, 4)
    assert is_injective(incl)


def test_all_subgroups_match_subset_oracle():
    for grp in (s3(), d4(), cyclic_group(8)):
        got = [s.elements for s in all_subgroups(grp)]
        want = oracle_subgroups([list(r) for r in grp.table])
        assert got == want


def test_s4_subgroup_census():
    s4 = group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)], label="S4")[0]
    subs = all_subgroups(s4)
    assert len(subs) == 30  # standard census of S4
    assert len(all_normal_subgroups(s4)) == 4  # 1, V4, A4, S4


def test_normal_subgroups_between():
    grp = d4()
    center = next(
        s for s in all_subgroups(grp) if s.order == 2 and is_normal(grp, s)
    )
    everything = all_normal_subgroups_between(center, grp)
    assert [s.order for s in everything] == [1, 2]


# --- conjugacy and the covering estimate ------------------------------------


def test_conjugacy_classes_frozen():
    assert conjugacy_classes(s3()) == ((0,), (1, 2, 5), (3, 4))
    assert sorted(len(c) for c in conjugacy_classes(d4())) == [1, 1, 2, 2, 2]


def test_conjugacy_matches_oracle():
    for grp in (s3(), d4(), cyclic_group(6)):
        got = sorted(conjugacy_classes(grp))
        want = [tuple(c) for c in oracle_conjugacy_classes([list(r) for r in grp.table])]
        assert got == want


def test_union_of_conjugates_s3():
    grp = s3()
    a3 = subgroup_generated(grp, [3])
    cover = union_of_conjugates(grp, a3)
    assert sorted(cover.union) == [0, 3, 4]
    assert cover.triple() == (6, 2, 3)
    assert cover.bound == 5
    assert not cover.covers
    # a single transposition meets the estimate exactly: 6 - 3 + 1 = 4
    t = union_of_conjugates(grp, subgroup(grp, [0, 2]))
    assert sorted(t.union) == oracle_union_of_conjugates(
        [list(r) for r in grp.table], [0, 2]
    )
    assert len(t.union) == t.bound == 4
    assert not t.covers


def test_union_of_conjugates_proper_never_covers():
    for grp in (s3(), d4()):
        for sub in all_subgroups(grp):
            cover = union_of_conjugates(grp, sub)
            assert len(cover.union) <= cover.bound
            assert cover.covers == (sub.order == grp.order)


def test_class_preserving():
    grp = s3()
    assert is_class_preserving(identity_hom(grp))
    assert is_class_preserving(inner_automorphism(grp, 3))
    # collapse onto a transposition kills the 3-cycles' class
    collapse = compose(enumerate_homs(cyclic_group(2), grp)[1], enumerate_homs(grp, cyclic_group(2))[1])
    assert not is_class_preserving(collapse)


def test_class_preserving_implies_bijective_small():
    for grp in (s3(), d4(), cyclic_group(6)):
        for h in enumerate_homs(grp, grp):
            if is_class_preserving(h):
                assert len(set(h.map)) == grp.order


# --- quotients --------------------------------------------------------------


def test_quotient_s3_by_a3():
    grp = s3()
    quot, proj = quotient(grp, subgroup_generated(grp, [3]))
    assert quot.order == 2
    assert proj.map == (0, 1, 1, 0, 0, 1)
    assert kernel(proj).elements == (0, 3, 4)


def test_quotient_rejects_non_normal():
    grp = s3()
    with pytest.raises(NotNormal) as err:
        quotient(grp, subgroup(grp, [0, 2]))
    assert "escapes" in str(err.value)


def test_quotient_by_trivial_is_isomorphic():
    grp = d4()
    quot, proj = quotient(grp, trivial_subgroup(grp))
    assert quot.order == grp.order
    assert is_injective(proj)


def test_automorphisms_s3_all_inner():
    grp = s3()
    autos = automorphisms(grp)
    assert len(autos) == 6
    inner = {inner_automorphism(grp, g).map for g in grp.elements}
    assert {a.map for a in autos} == inner


# --- conjugation partitions ---------------------------------------------------


def test_partition_by_conjugation_needs_a_subgroup_of_conjugators():
    grp = s3()
    homs = enumerate_homs(cyclic_group(2), grp)
    # conjugating by the 3-cycles joins the three transpositions' homs
    assert partition_by_conjugation(homs, [0, 3, 4]) == ((0,), (1, 2, 3))
    with pytest.raises(ValidationError) as err:
        partition_by_conjugation(homs, [0, 1, 2])
    assert "do not form a subgroup: 3 is in their span" in str(err.value)
    with pytest.raises(ValidationError):
        partition_by_conjugation(homs, [3, 4])
