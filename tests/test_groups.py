"""Table groups, homomorphism enumeration, conjugacy, quotients."""

from __future__ import annotations

import copy
import functools
import pickle
import re

import pytest

from oracles import (
    oracle_conjugacy_classes,
    oracle_generating_set,
    oracle_homs,
    oracle_identity,
    oracle_is_subgroup,
    oracle_normality_witness,
    oracle_perm_closure,
    oracle_subgroups,
    oracle_union_of_conjugates,
)
from seclab import groups
from seclab.catalog import (
    alternating_group,
    coefficient_catalog,
    dicyclic_group,
    dihedral_group,
    metacyclic_group,
    preset_extensions,
    preset_groups,
    seeded_instances,
    seeded_transport_pairs,
    symmetric_group,
)
from seclab.cohomology import Cocycle, GammaGroup, constant_coefficients, enumerate_cocycles, h1
from seclab.errors import (
    BoundExceeded,
    InvariantViolation,
    ManifestSyntaxError,
    NoIdentity,
    NoInverse,
    NotACocycle,
    NotAHomomorphism,
    NotAnAction,
    NotAPermutation,
    NotAssociative,
    NotASubgroup,
    NotNormal,
    ValidationError,
)
from seclab.extensions import enumerate_sections
from seclab.groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _derivation,
    _derivation_search,
    _factor,
    _identity_rows,
    all_normal_subgroups,
    all_normal_subgroups_between,
    all_subgroups,
    automorphism_group,
    automorphisms,
    compose,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    element_order,
    enumerate_homs,
    full_subgroup,
    generating_set,
    group_from_permutations,
    group_from_table,
    hom_from_generator_images,
    identity_hom,
    image,
    inverse_hom,
    is_bijective,
    is_class_preserving,
    is_normal,
    is_surjective,
    partition_by_conjugation,
    quotient,
    subgroup,
    subgroup_as_group,
    subgroup_generated,
    trivial_subgroup,
    union_of_conjugates,
)
from seclab.localglobal import (
    pushout_tower,
    standard_corpus,
    tower_limit_sections,
    verify_equivalences,
)
from seclab.manifest import generate_corpus, parse_manifest, run_program

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
    with pytest.raises(NoIdentity, match="empty table has no identity element"):
        group_from_table([])


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
    """S8's two generators close past the bound before any table is built."""
    with pytest.raises(
        BoundExceeded, match="permutation closure size 10081 is over the bound of 10080"
    ):
        group_from_permutations(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)])


def test_permutation_tables_compose_each_element_with_each_generator_once(monkeypatch):
    """D32 (degree 32, 2 generators, order 64) is tabulated along its
    Cayley graph: at most 2·n·|gens| compositions, not all n² pairs.  No
    preset goes through the table validator."""
    composed = []
    compose_perms = groups._compose_perms

    def counting_compose(p, q):
        composed.append(p)
        return compose_perms(p, q)

    monkeypatch.setattr(groups, "_compose_perms", counting_compose)
    assert dihedral_group(32).order == 64
    assert 0 < len(composed) <= 2 * 64 * 2

    validated = []
    validate = groups.group_from_table

    def recording_validate(table, label=None):
        validated.append(label)
        return validate(table, label)

    monkeypatch.setattr(groups, "group_from_table", recording_validate)
    presets = preset_groups.__wrapped__(64)  # past the cache, so every preset is built
    assert [g.label for g in presets] == [g.label for g in preset_groups(64)]
    assert validated == []


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


def test_derivation_tree_and_closing_edges_cover_every_edge_once():
    """The layers' trees write each non-identity element once as x*g, or as
    the layer's generator itself; the closing edges are exactly the
    |G|·(|gens| - 1) + 1 edges left; each layer's edges lie inside the
    subgroup its generators span and are new there; and each layer carries
    its generator's order."""
    for grp in preset_groups(24):
        gens = generating_set(grp)
        layers = _derivation(grp)
        assert [g for g, _, _, _ in layers] == list(gens)
        assert [k for _, k, _, _ in layers] == [element_order(grp, g) for g in gens]
        tree = [edge for _, _, t, _ in layers for edge in t]
        closing = [edge for _, _, _, c in layers for edge in c]
        written = [y for y, _, _ in tree] + list(gens)
        assert sorted(written) == [g for g in grp.elements if g != grp.identity]
        assert all(grp.mul(x, g) == y for y, x, g in tree)
        assert len(closing) == grp.order * (len(gens) - 1) + 1
        assert all(grp.mul(s, g) == sg for s, g, sg in closing)
        edges = (
            {(grp.identity, g) for g in gens}
            | {(x, g) for _, x, g in tree}
            | {(s, g) for s, g, _ in closing}
        )
        assert len(edges) == len(gens) + len(tree) + len(closing)
        assert edges == {(s, g) for s in grp.elements for g in gens}
        below = frozenset([grp.identity])
        for j, (g, _, layer_tree, layer_closing) in enumerate(layers):
            span = subgroup_generated(grp, gens[: j + 1]).elements
            layer = [(grp.identity, g)] + [(x, t) for _, x, t in layer_tree]
            layer += [(s, t) for s, t, _ in layer_closing]
            for s, t in layer:
                assert s in span and t in gens[: j + 1]
                assert s not in below or t == g
            assert all(y in span and y not in below for y, _, _ in layer_tree)
            below = frozenset(span)


def test_search_rejects_a_failed_prefix_before_trying_its_completions():
    """A value of g₁ that breaks a relation inside ⟨g₁⟩ is rejected in
    layer 1: no value of a later generator is tried with it."""
    gamma, m = direct_product(cyclic_group(2), cyclic_group(2)), cyclic_group(4)
    reads = []

    class CountingRows(tuple):
        def __getitem__(self, x):
            reads.append(x)
            return tuple.__getitem__(self, x)

    rows = CountingRows(_identity_rows(gamma, m))
    (g, k, tree, closing), _ = _derivation(gamma)
    assert k == element_order(gamma, g)
    # 1 has order 4 in C4, so g₁ ↦ 1 breaks g₁² = e
    assert _derivation_search(gamma, m, rows, [(1,), m.elements]) == ()
    assert 0 < len(reads) <= len(tree) + len(closing)


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
    for image in (True, 1.0, "1"):
        with pytest.raises(NotAHomomorphism, match="is not an integer"):
            hom_from_generator_images(c4, c2, [image])


def test_compose_kernel_image():
    grp = s3()
    sign = enumerate_homs(grp, cyclic_group(2))[1]
    assert is_surjective(sign)
    assert [g for g, x in enumerate(sign.map) if x == 0] == [0, 3, 4]
    emb = enumerate_homs(cyclic_group(2), grp)[1]
    back = compose(sign, emb)
    assert back.map == (0, 1)
    assert image(emb).order == 2
    assert len(set(emb.map)) == emb.source.order


def test_generating_set_greedy_is_small():
    assert generating_set(cyclic_group(12)) == (1,)
    assert len(generating_set(s3())) == 2
    assert len(generating_set(direct_product(cyclic_group(2), cyclic_group(2)))) == 2
    assert generating_set(cyclic_group(1)) == ()


def _quotients_of_preset_extensions(max_order):
    """The coset-numbered quotients E/N of the middle groups of the preset
    extensions, each distinct table once."""
    return tuple(dict.fromkeys(
        quotient(ext.E, n)[0]
        for _, ext in preset_extensions(max_order)
        for n in all_normal_subgroups(ext.E)
    ))


def test_generating_set_matches_the_unpruned_greedy_oracle():
    """Skipping the elements inside a span already tried changes no choice."""
    for grp in preset_groups(64) + _quotients_of_preset_extensions(16):
        assert generating_set(grp) == oracle_generating_set([list(r) for r in grp.table]), grp


def test_identity_and_inverse_match_the_all_pairs_oracle():
    """Every builder's group reads its identity and inverses off its table,
    and they agree with a scan of all pairs: each preset, quotient, subgroup
    table and automorphism table, and each preset of order at most 12
    renamed by x -> n-1-x, which moves its identity from 0 to n-1."""
    def renamed(grp):
        top = grp.order - 1
        return group_from_table([[top - grp.table[top - a][top - b] for b in grp.elements]
                                 for a in grp.elements])

    groups = (
        preset_groups(24)
        + _quotients_of_preset_extensions(16)
        + tuple(subgroup_as_group(sub)[0] for g in preset_groups(12) for sub in all_subgroups(g))
        + tuple(automorphism_group(m)[0] for m in preset_groups(8))
        + tuple(map(renamed, preset_groups(12)))
    )
    for grp in groups:
        table = grp.table
        e = oracle_identity(table)
        assert grp.identity == e, grp
        elems = grp.elements
        pairs = {(g, x) for g in elems for x in elems if table[g][x] == e == table[x][g]}
        assert set(enumerate(grp.inverse)) == pairs, grp
    assert renamed(cyclic_group(5)).identity == 4


def test_element_order():
    assert element_order(cyclic_group(12), 1) == 12
    assert element_order(s3(), 3) == 3
    assert element_order(s3(), 1) == 2


def test_a_table_that_is_not_a_group_breaks_an_invariant_instead_of_hanging():
    # element 1 squares to itself, so no power of it is the identity
    bad = FiniteGroup(((0, 1), (1, 1)))
    with pytest.raises(InvariantViolation, match="element 1 "):
        element_order(bad, 1)
    with pytest.raises(InvariantViolation, match="element 1 "):
        enumerate_homs(bad, cyclic_group(2))


C2, C4 = cyclic_group(2), cyclic_group(4)

# Each caller of the one entry check, groups._check_indices, given a bool, a
# float, -1, the order 2 and an int too long for repr.  The two manifest
# sites read the value as text, where only -1 and 2 parse as integers.
ENTRY_SITES = {
    "table": (ValidationError, lambda v: group_from_table([[0, 1], [1, v]])),
    "perm": (NotAPermutation, lambda v: group_from_permutations(2, [(v, 0)])),
    "element": (ValidationError, lambda v: element_order(C2, v)),
    "hom": (NotAHomomorphism, lambda v: GroupHom(C2, C2, (0, v))),
    "images": (NotAHomomorphism, lambda v: hom_from_generator_images(C2, C2, (v,))),
    "subgroup": (NotASubgroup, lambda v: Subgroup(C2, (0, v))),
    "generated": (NotASubgroup, lambda v: subgroup_generated(C2, (v,))),
    "action": (NotAnAction, lambda v: GammaGroup(C2, C2, ((0, 1), (0, v)))),
    "cocycle": (NotACocycle, lambda v: Cocycle(constant_coefficients(C2, C2), (0, v))),
}
MANIFEST_ENTRY_SITES = {
    "gens": lambda t: run_program(
        parse_manifest(f"group G table [[0,1],[1,0]]\njob jordan G gens=0,{t}\n")
    ),
    "cycle": lambda t: parse_manifest(f"group G perm 2 (0,{t})\n"),
}
BAD_ENTRIES = {  # name: (value, as a message shows it, as manifest text)
    "bool": (True, "True", "True"),
    "float": (1.5, "1.5", "1.5"),
    "negative": (-1, "-1", "-1"),
    "order": (2, "2", "2"),
    "huge": (10**5000, "<int of 16610 bits>", "1" + "0" * 5000),
}
ENTRY_CASES = {
    **{
        f"entry-{site}-{name}": (functools.partial(build, value), error, re.escape(shown))
        for site, (error, build) in ENTRY_SITES.items()
        for name, (value, shown, _) in BAD_ENTRIES.items()
    },
    **{
        f"entry-{site}-{name}": (
            functools.partial(build, text), ManifestSyntaxError, re.escape(text)
        )
        for site, build in MANIFEST_ENTRY_SITES.items()
        for name, (_, _, text) in BAD_ENTRIES.items()
    },
}


@pytest.mark.parametrize(
    "build, error, needle",
    [
        (lambda: GroupHom(C2, C2, (0,)), NotAHomomorphism, "map has 1 entries"),
        (lambda: GroupHom(C2, C2, (0, 2)), NotAHomomorphism, "image 2 outside"),
        (lambda: GroupHom(C2, C2, (0, True)), NotAHomomorphism, "image True is not an integer"),
        (lambda: GroupHom(C2, C2, (0, "1")), NotAHomomorphism, "image '1' is not an integer"),
        (lambda: GroupHom(C2, C2, [0, 1]), NotAHomomorphism, "must be a tuple"),
        (
            lambda: GroupHom(C2, C2, 10**5000),
            NotAHomomorphism,
            "GroupHom.map must be a tuple, not <int of 16610 bits>",
        ),
        (lambda: compose(identity_hom(C2), identity_hom(C4)), ValidationError, "mismatch"),
        (lambda: inverse_hom(GroupHom(C2, C2, (0, 0))), ValidationError, "only bijective"),
        (lambda: Subgroup(C4, (2, 0)), NotASubgroup, "not sorted"),
        (lambda: Subgroup(C4, (0, 4)), NotASubgroup, "element 4 outside"),
        (lambda: Subgroup(C2, (0, True)), NotASubgroup, "element True is not an integer"),
        (lambda: Subgroup(C4, (0, 2.0)), NotASubgroup, "element 2.0 is not an integer"),
        (lambda: Subgroup(C4, (0, "2")), NotASubgroup, "element '2' is not an integer"),
        (lambda: subgroup_generated(C2, [True]), NotASubgroup, "True is not an integer"),
        (lambda: subgroup_generated(C2, [1.0]), NotASubgroup, "1.0 is not an integer"),
        (
            lambda: group_from_permutations(2, [[True, False]]),
            NotAPermutation,
            "permutation entry True is not an integer",
        ),
        (
            lambda: group_from_permutations(3, [[1, 2, 0.0]]),
            NotAPermutation,
            "permutation entry 0.0 is not an integer",
        ),
        (
            lambda: group_from_permutations("3", [[1, 2, 0]]),
            ValidationError,
            "degree '3' is not an integer",
        ),
        (lambda: element_order(C2, 5), ValidationError, r"element 5 outside 0\.\.1"),
        (lambda: element_order(C2, 1.0), ValidationError, "element 1.0 is not an integer"),
        (lambda: element_order(C2, True), ValidationError, "element True is not an integer"),
        (
            lambda: group_from_permutations(3, [5]),
            NotAPermutation,
            "permutation 5 is not a sequence",
        ),
        (
            lambda: group_from_permutations(3, 7),
            NotAPermutation,
            "generator list 7 is not a sequence",
        ),
        (lambda: subgroup_generated(C2, 5), NotASubgroup, "generator list 5 is not a sequence"),
        (lambda: subgroup(C4, None), NotASubgroup, "element list None is not a sequence"),
        (lambda: subgroup(C4, 5), NotASubgroup, "element list 5 is not a sequence"),
        (lambda: subgroup(C4, [[0]]), NotASubgroup, r"element \[0\] is not an integer"),
        (lambda: subgroup(C4, [0, "a"]), NotASubgroup, "element 'a' is not an integer"),
        (
            lambda: hom_from_generator_images(C2, C2, None),
            NotAHomomorphism,
            "image list None is not a sequence",
        ),
        (
            lambda: is_class_preserving(GroupHom(C2, C4, (0, 2))),
            ValidationError,
            "class preservation is only defined for endomorphisms",
        ),
        (
            lambda: quotient(C4, full_subgroup(C2)),
            NotASubgroup,
            "subgroup belongs to a different parent group",
        ),
        *ENTRY_CASES.values(),
    ],
    ids=[
        "hom-length", "hom-range", "hom-bool", "hom-str", "hom-list", "hom-huge-map",
        "compose", "inverse", "subgroup-order", "subgroup-range",
        "subgroup-bool", "subgroup-float", "subgroup-str",
        "generated-bool", "generated-float", "perm-bool", "perm-float",
        "perm-degree-str", "order-range", "order-float", "order-bool",
        "perm-int", "perm-generators-int",
        "generated-int", "subgroup-none", "subgroup-int", "subgroup-nested",
        "subgroup-mixed", "images-none", "class-preserving-endo", "quotient-parent",
        *ENTRY_CASES,
    ],
)
def test_hom_and_subgroup_constructors_reject_bad_input(build, error, needle):
    with pytest.raises(error, match=needle):
        build()


@pytest.mark.parametrize(
    "build, needle",
    [
        (lambda: cyclic_group(True), "cyclic group order True is not an integer"),
        (lambda: cyclic_group(2.5), "cyclic group order 2.5 is not an integer"),
        (lambda: cyclic_group("3"), "cyclic group order '3' is not an integer"),
        (lambda: cyclic_group(0), "cyclic group order 0 is below 1"),
        (lambda: dihedral_group(3.0), "dihedral group n 3.0 is not an integer"),
        (lambda: dicyclic_group(2.0), "dicyclic group n 2.0 is not an integer"),
        (lambda: symmetric_group("4"), "symmetric group degree '4' is not an integer"),
        (lambda: alternating_group(4.0), "alternating group degree 4.0 is not an integer"),
        (lambda: metacyclic_group(5, 4.0, 2), "metacyclic group n 4.0 is not an integer"),
        (lambda: metacyclic_group(0, 1, 1), "metacyclic group m 0 is below 1"),
        (lambda: preset_groups(10.5), "max_order 10.5 is not an integer"),
        (lambda: preset_groups("8"), "max_order '8' is not an integer"),
        (lambda: preset_groups([8]), r"max_order \[8\] is not an integer"),
        (
            lambda: preset_groups(10**5000),
            "preset catalog order <int of 16610 bits> is over the bound of 64",
        ),
        (lambda: preset_extensions([8]), r"max_order \[8\] is not an integer"),
        (lambda: generate_corpus([8], 0), r"max_order \[8\] is not an integer"),
        (lambda: generate_corpus(8, [1]), r"seed \[1\] is not an integer"),
        (lambda: seeded_instances(None, None), "seed None is not an integer"),
        (lambda: seeded_instances(1, None), "count None is not an integer"),
        (lambda: parse_manifest(None), "manifest text must be a str, not None"),
        (lambda: cyclic_group(-(10**5000)), "order <int of 16610 bits> is below 1"),
        (lambda: cyclic_group(10**30), f"order {10**30} is over the bound of 10080"),
        (lambda: group_from_permutations(-(10**5000), []), "degree <int of 16610 bits> is below 0"),
        (lambda: dihedral_group(-(10**5000)), "n <int of 16610 bits> is below 3"),
        (lambda: dicyclic_group(-(10**5000)), "n <int of 16610 bits> is below 2"),
        (lambda: symmetric_group(-(10**5000)), "degree <int of 16610 bits> is below 2"),
        (lambda: alternating_group(-(10**5000)), "degree <int of 16610 bits> is below 3"),
        (lambda: metacyclic_group(-(10**5000), 1, 1), "m <int of 16610 bits> is below 1"),
        (lambda: metacyclic_group(7, 2, 10**5000), r"got <int of 16610 bits>\^2 mod 7"),
        (lambda: coefficient_catalog(C2, []), r"max_m \[\] is not an integer"),
        (lambda: coefficient_catalog(C2, None), "max_m None is not an integer"),
        (lambda: coefficient_catalog([], 8), r"gamma must be a FiniteGroup, not \[\]"),
        (lambda: seeded_transport_pairs(None, None), "seed None is not an integer"),
        (lambda: seeded_transport_pairs(1, None), "count None is not an integer"),
        (lambda: direct_product(C2, 3), "factor 2 must be a FiniteGroup, not 3"),
        (lambda: group_from_table(10**5000), "not <int of 16610 bits>"),
        (lambda: group_from_table([[0, 1], 10**5000]), "not <int of 16610 bits>"),
        (
            lambda: seeded_transport_pairs(1, 1, 1),
            "no nontrivial preset group of order at most 1",
        ),
        (
            lambda: direct_product(cyclic_group(101), cyclic_group(101)),
            "direct product order 10201 is over the bound of 10080",
        ),
        (lambda: dihedral_group(5041), "dihedral group order 10082 is over the bound of 10080"),
        (lambda: dicyclic_group(2521), "dicyclic group order 10084 is over the bound of 10080"),
        (
            lambda: metacyclic_group(10081, 1, 1),
            "metacyclic group order 10081 is over the bound of 10080",
        ),
        (
            lambda: group_from_permutations(10**9, []),
            "permutation degree 1000000000 is over the bound of 10080",
        ),
        (lambda: symmetric_group(8), "symmetric group degree 8 is over the bound of 7"),
        (
            lambda: alternating_group(10**5000),
            "alternating group degree <int of 16610 bits> is over the bound of 7",
        ),
        (lambda: seeded_instances(1, 2, "x"), "max_middle 'x' is not an integer"),
        (lambda: dihedral_group(2), "dihedral group n 2 is below 3"),
        (lambda: dicyclic_group(1), "dicyclic group n 1 is below 2"),
        (lambda: symmetric_group(1), "symmetric group degree 1 is below 2"),
        (lambda: alternating_group(2), "alternating group degree 2 is below 3"),
        (lambda: metacyclic_group(1, 0, 1), "metacyclic group n 0 is below 1"),
        (lambda: group_from_permutations(-1, []), "degree -1 is below 0"),
    ],
    ids=[
        "cyclic-bool", "cyclic-float", "cyclic-str", "cyclic-zero", "dihedral-float",
        "dicyclic-float", "symmetric-str", "alternating-float", "metacyclic-float",
        "metacyclic-zero", "presets-float", "presets-str", "presets-list", "presets-huge",
        "extensions-list", "corpus-list", "corpus-seed-list",
        "instances-none", "instances-count-none", "manifest-none", "cyclic-huge",
        "cyclic-over-bound",
        "perm-degree-huge", "dihedral-huge", "dicyclic-huge", "symmetric-huge",
        "alternating-huge", "metacyclic-huge", "metacyclic-r-huge", "catalog-list",
        "catalog-none", "catalog-gamma", "transport-none", "transport-count-none", "product-int",
        "table-huge", "table-row-huge", "transport-empty", "product-over-bound",
        "dihedral-over-bound", "dicyclic-over-bound", "metacyclic-over-bound",
        "perm-over-bound", "symmetric-over-bound", "alternating-over-bound",
        "instances-middle-str", "dihedral-below", "dicyclic-below", "symmetric-below",
        "alternating-below", "metacyclic-below", "perm-degree-below",
    ],
)
def test_group_constructors_reject_bad_orders(build, needle):
    with pytest.raises(ValidationError, match=needle):
        build()


@pytest.mark.parametrize(
    "build, order",
    [
        (lambda: cyclic_group(1), 1),
        (lambda: dihedral_group(3), 6),
        (lambda: dicyclic_group(2), 8),
        (lambda: symmetric_group(2), 2),
        (lambda: alternating_group(3), 3),
        (lambda: metacyclic_group(1, 1, 1), 1),
        (lambda: group_from_permutations(0, [])[0], 1),
    ],
    ids=["cyclic", "dihedral", "dicyclic", "symmetric", "alternating", "metacyclic", "perm"],
)
def test_group_constructors_build_at_their_least_size(build, order):
    """Each floor of ``_check_int`` admits its least value; the rows ending
    in ``-below`` above reject the value one under it."""
    assert build().order == order


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


def test_subgroup_generated_passes_the_check_it_skips():
    """``subgroup_generated`` trusts its closure; each cyclic subgroup of
    every preset group up to order 16 is a subgroup by the oracle."""
    for grp in preset_groups(16):
        for g in grp.elements:
            sub = subgroup_generated(grp, [g])
            assert oracle_is_subgroup(grp.table, sub.elements), (grp.label, g)


def test_image_passes_the_check_it_skips():
    """``image`` trusts its output; the image of every hom between preset
    groups up to order 8 is a subgroup by the oracle."""
    groups_8 = preset_groups(8)
    for src in groups_8:
        for dst in groups_8:
            for hom in enumerate_homs(src, dst):
                assert oracle_is_subgroup(dst.table, image(hom).elements), (src.label, hom.map)


def test_subgroup_as_group_roundtrip():
    grp = s3()
    a3, incl = subgroup_as_group(subgroup_generated(grp, [3]))
    assert a3.order == 3
    assert incl.map == (0, 3, 4)


def test_all_subgroups_match_subset_oracle():
    """Every subgroup, and the normal subgroups inside each subgroup, are the
    subsets the oracle finds closed, and closed under every conjugation."""
    for grp in (s3(), d4(), cyclic_group(8), *preset_groups(12)):
        table = [list(r) for r in grp.table]
        want = oracle_subgroups(table)
        assert [s.elements for s in all_subgroups(grp)] == want
        normal = [t for t in want if oracle_normality_witness(table, t) is None]
        assert [s.elements for s in all_normal_subgroups(grp)] == normal
        for sub in all_subgroups(grp):
            inside = [t for t in normal if set(t) <= set(sub.elements)]
            assert [n.elements for n in all_normal_subgroups_between(sub)] == inside


def test_s4_subgroup_census():
    s4 = group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)], label="S4")[0]
    subs = all_subgroups(s4)
    assert len(subs) == 30  # standard census of S4
    assert len(all_normal_subgroups(s4)) == 4  # 1, V4, A4, S4


def test_normal_subgroups_between():
    grp = d4()
    center = next(
        s for s in all_subgroups(grp) if s.order == 2 and is_normal(s)
    )
    everything = all_normal_subgroups_between(center)
    assert [s.order for s in everything] == [1, 2]
    # each reads its group off the subgroup; a transposition's is not normal in S3
    assert not is_normal(subgroup_generated(s3(), [1]))
    assert union_of_conjugates(subgroup_generated(s3(), [1])).triple() == (6, 3, 4)


def test_normality_on_generators_matches_the_all_pairs_scan():
    """is_normal, which asks whether the conjugacy classes a subgroup meets
    hold no more elements than it has, agrees with the scan over every
    pair, and quotient names the scan's first failing pair; on the presets
    and on the coset-numbered quotients of the preset extensions."""
    for grp in preset_groups(24) + _quotients_of_preset_extensions(16):
        table = [list(r) for r in grp.table]
        for sub in all_subgroups(grp):
            witness = oracle_normality_witness(table, sub.elements)
            assert is_normal(sub) == (witness is None)
            if witness is not None:
                g, h = witness
                with pytest.raises(NotNormal) as err:
                    quotient(grp, sub)
                assert str(err.value) == (
                    f"conjugate {g}*{h}*{g}^-1 = {grp.conj(g, h)} escapes the subgroup"
                )


# --- hashes -----------------------------------------------------------------


def test_hashes_agree_for_equal_groups_and_systems():
    """Equal groups and coefficient systems hash alike: across labels,
    between built-unchecked and validated copies, and after pickle and copy,
    whether or not the hash was taken before."""
    grp = s3()
    relabelled = group_from_table(grp.table, "other")
    assert relabelled == grp and hash(relabelled) == hash(grp)
    quot, _ = quotient(grp, subgroup_generated(grp, [3]))
    part, _ = subgroup_as_group(subgroup_generated(grp, [3]))
    constant = constant_coefficients(grp, quot)
    for built in (quot, part):
        checked = group_from_table(built.table)
        assert built == checked and hash(built) == hash(checked)
    checked = GammaGroup(grp, quot, constant.action)
    assert constant == checked and hash(constant) == hash(checked)
    for obj in (grp, quot, part, constant):
        fresh = [pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)]
        hashed = hash(obj)
        fresh += [pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)]
        for twin in fresh:
            assert twin == obj and hash(twin) == hashed and repr(twin) == repr(obj)


#: The compared fields of every record class, in declaration order.
RECORD_FIELDS = {
    "FiniteGroup": ("table",),
    "GroupHom": ("source", "target", "map"),
    "Subgroup": ("parent", "elements"),
    "JordanCover": ("union", "group_order", "index"),
    "GammaGroup": ("gamma", "M", "action"),
    "Cocycle": ("parent", "values"),
    "H1Classes": ("parent", "values", "classes"),
    "Extension": ("iota", "pi"),
    "SectionReport": ("sections", "classes_mod_A"),
    "LocalFamily": ("gamma", "thetas"),
    "LocalSections": ("ext", "sections"),
    "CorpusEntry": ("coeff", "provenance"),
    "DescentCheck": ("failing_entry", "failing_class", "classes_checked"),
    "EquivalenceReport": ("density", "split", "a", "a_prime", "a_doubleprime", "b", "c"),
    "TowerResult": ("level_sizes", "chain"),
    "Job": ("line", "command", "variant", "target", "options"),
}

#: Record classes that print themselves in their own format.
OWN_REPR = {"FiniteGroup", "GroupHom", "Subgroup", "GammaGroup", "Cocycle", "Extension"}


def _one_record_of_each_class():
    ls = next(ls for ls in seeded_instances(1, 20) if ls.sections)
    ext = ls.ext
    entry = standard_corpus(ls)[0]
    coeff = entry.coeff
    classes = h1(coeff)
    program = parse_manifest(
        "group C2 table [[0,1],[1,0]]\nhom id C2 C2 [1]\njob jordan C2 gens=1\n"
    )
    records = [
        ext.E, ls.sections[0], image(ext.iota),
        union_of_conjugates(image(ext.iota)), coeff, enumerate_cocycles(coeff)[0],
        classes, ext, enumerate_sections(ext), ls.family, ls, entry,
        verify_equivalences(ls).a, verify_equivalences(ls),
        tower_limit_sections(*pushout_tower(ext, [full_subgroup(ext.A)]), ls),
        program.jobs[0],
    ]
    return {type(r).__name__: r for r in records}


def test_record_classes_are_frozen_values_that_hash_their_compared_fields():
    """Every record class compares and hashes the tuple of its compared
    fields, refuses assignment, prints in the dataclass format unless it has
    its own, and survives pickle and copy."""
    records = _one_record_of_each_class()
    assert set(records) == set(RECORD_FIELDS)
    for name, obj in records.items():
        fields = RECORD_FIELDS[name]
        key = tuple(getattr(obj, f) for f in fields)
        assert obj.__eq__(object()) is NotImplemented, name
        assert obj.__eq__(key) is NotImplemented, name
        if name not in OWN_REPR:
            shown = ", ".join(f"{f}={getattr(obj, f)!r}" for f in fields)
            assert repr(obj) == f"{name}({shown})", name
        assert hash(obj) == hash(key), name
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(obj, f, getattr(obj, f))
            with pytest.raises(AttributeError):
                delattr(obj, f)
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj, name
            assert repr(twin) == repr(obj), name
            assert hash(twin) == hash(obj), name


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
    cover = union_of_conjugates(a3)
    assert sorted(cover.union) == [0, 3, 4]
    assert cover.triple() == (6, 2, 3)
    assert cover.bound == 5
    assert not cover.covers
    # a single transposition meets the estimate exactly: 6 - 3 + 1 = 4
    t = union_of_conjugates(subgroup(grp, [0, 2]))
    assert sorted(t.union) == oracle_union_of_conjugates(
        [list(r) for r in grp.table], [0, 2]
    )
    assert len(t.union) == t.bound == 4
    assert not t.covers


def test_union_of_conjugates_matches_the_all_conjugates_oracle():
    for grp in preset_groups(64):
        table = [list(r) for r in grp.table]
        for sub in all_subgroups(grp):
            got = union_of_conjugates(sub).union
            assert sorted(got) == oracle_union_of_conjugates(table, sub.elements), (
                grp.label,
                sub.elements,
            )


def test_union_of_conjugates_proper_never_covers():
    for grp in (s3(), d4()):
        for sub in all_subgroups(grp):
            cover = union_of_conjugates(sub)
            assert len(cover.union) <= cover.bound
            assert cover.covers == (sub.order == grp.order)


def test_class_preserving():
    grp = s3()
    assert is_class_preserving(identity_hom(grp))
    inner = GroupHom(grp, grp, tuple(grp.conj(3, x) for x in grp.elements))
    assert is_class_preserving(inner)
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
    assert [g for g, x in enumerate(proj.map) if x == quot.identity] == [0, 3, 4]


def test_quotient_rejects_non_normal():
    grp = s3()
    with pytest.raises(NotNormal) as err:
        quotient(grp, subgroup(grp, [0, 2]))
    assert "escapes" in str(err.value)


def test_quotient_by_trivial_is_isomorphic():
    grp = d4()
    quot, proj = quotient(grp, trivial_subgroup(grp))
    assert quot.order == grp.order
    assert is_bijective(proj)


def test_a_map_not_constant_on_the_fibres_does_not_factor():
    v4 = direct_product(C2, C2)
    _, q = quotient(v4, subgroup(v4, [0, 1]))
    assert q.map == (0, 0, 1, 1)
    assert _factor(q, GroupHom(v4, C2, (0, 0, 1, 1))).map == (0, 1)
    # read off the least preimages 0 and 2, h is the trivial hom: a valid
    # hom, but h∘q is not f
    with pytest.raises(InvariantViolation, match="does not factor"):
        _factor(q, GroupHom(v4, C2, (0, 1, 0, 1)))


def test_automorphisms_s3_all_inner():
    grp = s3()
    autos = automorphisms(grp)
    assert len(autos) == 6
    inner = {tuple(grp.conj(g, x) for x in grp.elements) for g in grp.elements}
    assert {a.map for a in autos} == inner


def test_automorphism_group_table_composes_its_automorphisms():
    for grp in preset_groups(24):
        aut, auts = automorphism_group(grp)
        assert [a.map for a in auts] == [
            h.map for h in enumerate_homs(grp, grp) if is_bijective(h)
        ], grp.label
        index = {a.map: i for i, a in enumerate(auts)}
        for i, a in enumerate(auts):
            for j, b in enumerate(auts):
                assert aut.mul(i, j) == index[compose(a, b).map], (grp.label, i, j)


def test_automorphism_group_refuses_an_oversize_aut_up_front(monkeypatch):
    """C3xC3xC3 has 11,232 automorphisms, over the closure bound: refused
    before any permutation closure is tried."""
    c3 = cyclic_group(3)
    grp = direct_product(direct_product(c3, c3), c3)
    closures = []
    monkeypatch.setattr(groups, "group_from_permutations", lambda *a: closures.append(a))
    with pytest.raises(
        BoundExceeded, match="automorphism group order 11232 is over the bound of 10080"
    ):
        automorphism_group(grp)
    assert closures == []


def test_a_refused_aut_leaves_nothing_cached():
    """The bound is checked on the bijective tuples, before any record is
    built, so a refused group leaves no entry in the automorphism cache."""
    c3 = cyclic_group(3)
    grp = direct_product(direct_product(c3, c3), c3)
    before = automorphisms.cache_info().currsize
    with pytest.raises(
        BoundExceeded, match="automorphism group order 11232 is over the bound of 10080"
    ):
        automorphism_group(grp)
    assert automorphisms.cache_info().currsize == before
    with pytest.raises(BoundExceeded, match="automorphism group order 11232"):
        automorphisms(grp)


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
    # the raw lists are read like any other element list; the homs must
    # have distinct maps and one target, or some index is in no class
    into_s3 = homs[1]
    homs = enumerate_homs(cyclic_group(2), C4)
    for hom_list, bad, needle in (
        (homs, [0, 7], "conjugator 7 outside 0..3"),
        (homs, [10**5000], "conjugator <int of 16610 bits> outside 0..3"),
        (homs, [0, -1], "conjugator -1 outside 0..3"),
        (homs, None, "conjugators None is not a sequence"),
        (homs, ["a"], "conjugator 'a' is not an integer"),
        ([homs[1], homs[1], homs[0]], C4.elements, "hom 1 repeats hom 0's map (0, 2)"),
        ([into_s3, homs[1]], [0], f"hom 1's target {homs[1].target!r} differs from hom 0's"),
        (None, None, "homs None is not a sequence"),
        ([homs[0], None], [0], "hom 1 must be a GroupHom, not None"),
    ):
        with pytest.raises(ValidationError, match=re.escape(needle)):
            partition_by_conjugation(hom_list, bad)
    assert partition_by_conjugation([], None) == ()
