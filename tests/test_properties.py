"""Property-based checks drawn from the preset catalog."""

from __future__ import annotations

import functools
import itertools
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_cocycles,
    oracle_conjugation_classes,
    oracle_h1_class_count,
    oracle_h1_classes,
    oracle_homs,
    oracle_identity,
    oracle_is_action,
    oracle_is_cocycle,
    oracle_is_group,
    oracle_is_hom,
    oracle_is_subgroup,
)
from seclab.catalog import (
    coefficient_catalog,
    preset_extensions,
    preset_group,
    preset_groups,
    preset_names,
    seeded_instances,
)
from seclab.cohomology import (
    Cocycle,
    GammaGroup,
    cohomologous,
    constant_coefficients,
    enumerate_cocycles,
    h1,
    pullback_coefficients,
)
from seclab.errors import (
    NoIdentity,
    NoInverse,
    NotACocycle,
    NotAHomomorphism,
    NotAnAction,
    NotASubgroup,
    NotAssociative,
)
from seclab.extensions import enumerate_sections
from seclab.groups import (
    GroupHom,
    Subgroup,
    all_normal_subgroups,
    all_subgroups,
    element_order,
    enumerate_homs,
    generating_set,
    group_from_table,
    hom_from_generator_images,
    quotient,
    union_of_conjugates,
)
from seclab.localglobal import verify_equivalences
from seclab.manifest import ManifestBuilder, generate_corpus, parse_manifest


def _drawn_from(build):
    """A strategy drawing from ``build()``, which runs at the first draw.

    The coefficient pools go through the validators under test, so they
    are not built at import: a validator that wrongly rejects a pool member
    then fails each property that draws from it, not the whole module.
    """
    return st.deferred(lambda: st.sampled_from(build()))


SmallNames = st.sampled_from(preset_names(10))
MediumGroups = st.sampled_from(preset_groups(16))
Extensions = st.sampled_from([ext for _, ext in preset_extensions(12)])
Seeds = st.integers(min_value=0, max_value=2**16)

#: Most total maps an oracle may enumerate: |target|^|source| for homs,
#: |M|^|gamma| for cocycles.
ORACLE_BUDGET = 20000
HOM_PAIRS = [
    (src, tgt)
    for src in preset_groups(8)
    for tgt in preset_groups(8)
    if tgt.order ** src.order <= ORACLE_BUDGET
]


@functools.lru_cache(maxsize=None)
def systems():
    """Catalog systems small enough for the oracles."""
    return [
        coeff
        for gamma in preset_groups(8)
        for coeff in coefficient_catalog(gamma, 4)
        if coeff.M.order ** gamma.order <= ORACLE_BUDGET
    ]


Systems = _drawn_from(systems)


def _norm_drops_a_value(coeff):
    """Does some generator g of order k have a value c whose twisted norm
    ``c * g(c) * ... * g^(k-1)(c)`` is not the identity?"""
    gamma, m = coeff.gamma, coeff.M
    for g in generating_set(gamma):
        for c in m.elements:
            norm, power = m.identity, gamma.identity
            for _ in range(element_order(gamma, g)):
                norm = m.mul(norm, coeff.action[power][c])
                power = gamma.mul(power, g)
            if norm != m.identity:
                return True
    return False


@functools.lru_cache(maxsize=None)
def twisted_systems():
    """Nontrivial actions on which the search's candidate filter has work to do."""
    return [
        coeff
        for coeff in systems()
        if any(row != tuple(coeff.M.elements) for row in coeff.action)
        and _norm_drops_a_value(coeff)
    ]


TwistedSystems = _drawn_from(twisted_systems)


@given(SmallNames, st.data())
@settings(deadline=None)
def test_twisting_is_symmetric(name, data):
    """
    Whenever ``a`` twists into ``b``, ``b`` twists back into ``a``.
    """
    coeffs = coefficient_catalog(preset_group(name), 4)
    assume(coeffs)
    coeff = data.draw(st.sampled_from(coeffs))
    cocycles = enumerate_cocycles(coeff)
    a = data.draw(st.sampled_from(cocycles))
    b = data.draw(st.sampled_from(cocycles))
    assert cohomologous(a, a) is not None
    forward = cohomologous(a, b)
    backward = cohomologous(b, a)
    assert (forward is None) == (backward is None)


@given(SmallNames, st.data())
@settings(deadline=None)
def test_class_representatives_are_canonical(name, data):
    """
    Class representatives are pairwise inequivalent and index their own class.
    """
    coeffs = coefficient_catalog(preset_group(name), 4)
    assume(coeffs)
    classes = h1(data.draw(st.sampled_from(coeffs)))
    reps = classes.representatives
    for i, rep in enumerate(reps):
        assert classes.class_of(rep) == i
        for other in reps[i + 1:]:
            assert cohomologous(rep, other) is None


@given(Systems, st.data())
@settings(deadline=None)
def test_class_numbers_agree_with_twisting(coeff, data):
    """
    Two cocycles get the same class number exactly when one twists into the
    other.
    """
    classes = h1(coeff)
    a = data.draw(st.sampled_from(classes.cocycles))
    for b in classes.cocycles:
        same = classes.class_of(a) == classes.class_of(b)
        assert same == (cohomologous(a, b) is not None), (a, b)


@given(Extensions)
@settings(deadline=None)
def test_enumerated_sections_are_sections(ext):
    """
    Every enumerated section splits the projection, and the kernel-conjugacy
    partition refines the full one.
    """
    report = enumerate_sections(ext)
    for s in report.sections:
        assert ext.is_section(s)
    coarse = [set(cls) for cls in report.classes_mod_E]
    for cls in report.classes_mod_A:
        assert any(set(cls) <= big for big in coarse)


@given(Seeds)
@settings(deadline=None, max_examples=12)
def test_seeded_instance_implications_hold(seed):
    """
    Every verified implication holds on a freshly drawn instance.
    """
    ls = seeded_instances(seed, 1, 16)[0]
    report = verify_equivalences(ls)
    assert report.all_implications_hold
    assert report.holds_b == (report.b is not None)
    assert report.holds_c == (report.c is not None)


@given(MediumGroups, st.data())
@settings(deadline=None)
def test_conjugate_unions_respect_the_index_bound(group, data):
    """
    The pooled conjugates of a subgroup cover the group only at index one.
    """
    sub = data.draw(st.sampled_from(all_subgroups(group)))
    cover = union_of_conjugates(group, sub)
    assert len(cover.union) <= cover.bound
    assert cover.covers == (cover.index == 1)


@given(st.sampled_from(preset_names(12)))
def test_manifest_group_roundtrip(name):
    """
    A group declared by the builder parses back to the same table.
    """
    group = preset_group(name)
    builder = ManifestBuilder()
    declared = builder.add_group(group)
    program = parse_manifest(builder.text())
    assert program.groups[declared].table == group.table


@given(Seeds)
@settings(deadline=None, max_examples=10)
def test_corpus_generation_is_reproducible(seed):
    """
    The generated corpus depends only on its bound and seed.
    """
    assert generate_corpus(8, seed) == generate_corpus(8, seed)


@given(st.sampled_from(HOM_PAIRS))
@settings(deadline=None)
def test_hom_search_matches_the_oracle(pair):
    """
    The derivation search finds exactly the oracle's homomorphisms.
    """
    src, tgt = pair
    found = [h.map for h in enumerate_homs(src, tgt)]
    assert found == oracle_homs(src.table, tgt.table)


def test_twisted_pool_is_populated():
    assert twisted_systems() and len(twisted_systems()) < len(systems())


@given(st.one_of(TwistedSystems, Systems))
@settings(deadline=None)
def test_cocycle_search_and_h1_match_the_oracles(coeff):
    """
    Cocycles and class counts agree with total enumeration, also where the
    twisted-norm filter drops candidates.
    """
    tables = (coeff.gamma.table, coeff.M.table, coeff.action)
    assert [a.values for a in enumerate_cocycles(coeff)] == oracle_cocycles(*tables)
    assert h1(coeff).class_count == oracle_h1_class_count(*tables)


@given(st.sampled_from(HOM_PAIRS))
@settings(deadline=None)
def test_generator_images_extend_exactly_for_homs(pair):
    """
    Generator images extend to a hom exactly when some enumerated hom has
    them; every other assignment is refused.
    """
    src, tgt = pair
    gens = generating_set(src)
    homs = {tuple(h.map[g] for g in gens): h for h in enumerate_homs(src, tgt)}
    for images in itertools.product(tgt.elements, repeat=len(gens)):
        if images in homs:
            assert hom_from_generator_images(src, tgt, images) == homs[images]
        else:
            with pytest.raises(NotAHomomorphism):
                hom_from_generator_images(src, tgt, images)


# --- generator-local validators against all-pairs oracles -------------------
#
# Each validator checks a law on generators only.  Here it must accept
# exactly the inputs its brute-force oracle accepts, and every rejection
# must name a pair or triple on which the law really fails.

Groups16 = st.sampled_from(preset_groups(16))
#: Validator inputs need no total enumeration, so these pools are wider
#: than the oracle-budgeted ones above.
VALIDATOR_PAIRS = [(src, tgt) for src in preset_groups(12) for tgt in preset_groups(8)]
Actions = _drawn_from(
    lambda: [coeff for gamma in preset_groups(12) for coeff in coefficient_catalog(gamma, 4)]
)


def _draw_element(data, group):
    """An element, drawn from the canonical generators half of the time:
    the cases a check that skipped some generators would get wrong."""
    gens = generating_set(group)
    if gens and data.draw(st.booleans()):
        return data.draw(st.sampled_from(gens))
    return data.draw(st.integers(0, group.order - 1))


def _ints(pattern, err):
    found = re.search(pattern, str(err))
    assert found, f"no witness in {err}"
    return [int(x) for x in found.groups()]


def _check_table_rejection(table, err):
    n = len(table)
    if isinstance(err, NotAssociative):
        a, b, c = _ints(r"\((\d+)\*(\d+)\)\*(\d+) = ", err)
        assert table[table[a][b]][c] != table[a][table[b][c]], err
    elif isinstance(err, NoIdentity):
        assert not any(
            all(table[e][g] == g and table[g][e] == g for g in range(n)) for e in range(n)
        ), err
    else:
        assert isinstance(err, NoInverse), err
        (g,) = _ints(r"element (\d+) has no", err)
        e = oracle_identity(table)
        assert not any(table[g][h] == e and table[h][g] == e for h in range(n)), err


def _validate_table(table):
    try:
        group_from_table(table)
    except (NoIdentity, NotAssociative, NoInverse) as err:
        _check_table_rejection(table, err)
        return False
    return True


@given(Groups16, st.data())
@settings(deadline=None)
def test_light_test_matches_the_all_triples_oracle(group, data):
    """
    A preset table, relabelled, is accepted; a copy with one entry changed
    is judged as the all-triples oracle judges it.
    """
    n = group.order
    perm = data.draw(st.permutations(range(n)))
    back = {p: i for i, p in enumerate(perm)}
    relabelled = [[back[group.table[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
    assert oracle_is_group(relabelled) and _validate_table(relabelled)
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    changed = [list(row) for row in relabelled]
    changed[a][b] = data.draw(st.integers(0, n - 1))
    assert _validate_table(changed) == oracle_is_group(changed)


@st.composite
def _small_magmas(draw):
    """Tables of order 1-4 with identity 0 and free entries elsewhere:
    groups, monoids that are not groups, and non-associative tables."""
    n = draw(st.integers(1, 4))
    table = [list(range(n))] + [[a] + [0] * (n - 1) for a in range(1, n)]
    for a in range(1, n):
        for b in range(1, n):
            table[a][b] = draw(st.integers(0, n - 1))
    return table


@given(_small_magmas())
@settings(deadline=None, max_examples=300)
def test_light_test_matches_the_oracle_on_small_magmas(table):
    """
    On tables with an identity, Light's test decides associativity and
    the inverse check groups, exactly as total enumeration does.
    """
    assert _validate_table(table) == oracle_is_group(table)


def _validate_hom(src, tgt, f):
    try:
        GroupHom(src, tgt, tuple(f))
    except NotAHomomorphism as err:
        if "not the identity" in str(err):
            assert f[src.identity] != tgt.identity, err
        else:
            a, b = _ints(r"f\((\d+)\*(\d+)\) = ", err)
            assert f[src.mul(a, b)] != tgt.mul(f[a], f[b]), err
        return False
    return True


def _cyclic_coset(group, x, g):
    """The left coset x<g>."""
    coset, power = [], group.identity
    while True:
        coset.append(group.mul(x, power))
        power = group.mul(power, g)
        if power == group.identity:
            return coset


@given(st.sampled_from(VALIDATOR_PAIRS), st.data())
@settings(deadline=None, max_examples=300)
def test_hom_validator_matches_the_all_pairs_oracle(pair, data):
    """
    An enumerated hom is accepted.  A copy with one image changed, or with
    the images on one left coset x<g> multiplied by one target element, is
    judged as the all-pairs oracle judges it.  The coset copy keeps
    ``f(a*g) = f(a)*f(g)`` for every a, so a check that tried only some
    generators could pass it.
    """
    src, tgt = pair
    f = list(data.draw(st.sampled_from(enumerate_homs(src, tgt))).map)
    assert _validate_hom(src, tgt, f)
    n, m = src.order, tgt.order
    if data.draw(st.booleans()):
        f[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, m - 1))
    else:
        x, g, t = data.draw(st.integers(0, n - 1)), _draw_element(data, src), data.draw(
            st.integers(0, m - 1)
        )
        for y in _cyclic_coset(src, x, g):
            f[y] = tgt.mul(t, f[y])
    assert _validate_hom(src, tgt, f) == oracle_is_hom(src.table, tgt.table, f)


def _validate_action(gamma, m, action):
    try:
        GammaGroup(gamma, m, action)
    except NotAnAction as err:
        text = str(err)
        if "not a permutation" in text:
            (g,) = _ints(r"row for (\d+) ", err)
            assert sorted(action[g]) != list(m.elements), err
        elif "automorphism" in text:
            g, a, b = _ints(r"element (\d+) does not .* breaks at (\d+)\*(\d+)", err)
            row = action[g]
            assert row[m.mul(a, b)] != m.mul(row[a], row[b]), err
        elif "trivially" in text:
            assert action[gamma.identity] != tuple(m.elements), err
        else:
            x, g = _ints(r"rows for (\d+)\*(\d+) do not compose", err)
            composed = tuple(action[x][action[g][y]] for y in m.elements)
            assert action[gamma.mul(x, g)] != composed, err
        return False
    return True


@given(Actions, st.data())
@settings(deadline=None, max_examples=300)
def test_action_validator_matches_the_all_pairs_oracle(coeff, data):
    """
    A catalog action is accepted.  A copy with two entries of one row
    swapped, one row replaced by another row, or the rows on one left
    coset x<g> composed after another row, is judged as the oracle judges
    it.  The coset copy still composes with g.
    """
    gamma, m = coeff.gamma, coeff.M
    assert _validate_action(gamma, m, coeff.action)
    rows = [list(row) for row in coeff.action]
    n = gamma.order
    g = _draw_element(data, gamma)
    how = data.draw(st.sampled_from(("swap", "row", "coset")))
    if how == "swap":
        i, j = data.draw(st.integers(0, m.order - 1)), data.draw(st.integers(0, m.order - 1))
        rows[g][i], rows[g][j] = rows[g][j], rows[g][i]
    elif how == "row":
        rows[g] = list(coeff.action[data.draw(st.integers(0, n - 1))])
    else:
        x, z = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        for y in _cyclic_coset(gamma, x, g):
            rows[y] = [coeff.action[z][v] for v in coeff.action[y]]
    action = tuple(tuple(row) for row in rows)
    assert _validate_action(gamma, m, action) == oracle_is_action(gamma.table, m.table, action)


def _validate_cocycle(coeff, values):
    gamma, m, act = coeff.gamma, coeff.M, coeff.action
    try:
        Cocycle(coeff, tuple(values))
    except NotACocycle as err:
        if "not the identity" in str(err):
            assert values[gamma.identity] != m.identity, err
        else:
            s, t = _ints(r"a_\((\d+)\*(\d+)\) = ", err)
            assert values[gamma.mul(s, t)] != m.mul(values[s], act[s][values[t]]), err
        return False
    return True


@given(st.one_of(TwistedSystems, Systems), st.data())
@settings(deadline=None, max_examples=300)
def test_cocycle_validator_matches_the_all_pairs_oracle(coeff, data):
    """
    An enumerated cocycle is accepted.  A copy with one value changed, or
    with the values on one left coset x<g> multiplied on the left by one
    element of M, is judged as the all-pairs oracle judges it.  When g is
    outside the coset, that copy keeps ``a_{s*g} = a_s * s(a_g)`` for every
    s, so a check that tried only some pairs could pass it.
    """
    gamma, m = coeff.gamma, coeff.M
    a = list(data.draw(st.sampled_from(enumerate_cocycles(coeff))).values)
    assert _validate_cocycle(coeff, a)
    if data.draw(st.booleans()):
        a[data.draw(st.integers(0, gamma.order - 1))] = data.draw(st.integers(0, m.order - 1))
    else:
        x, g, c = data.draw(st.integers(0, gamma.order - 1)), _draw_element(data, gamma), data.draw(
            st.integers(0, m.order - 1)
        )
        for y in _cyclic_coset(gamma, x, g):
            a[y] = m.mul(c, a[y])
    assert _validate_cocycle(coeff, a) == oracle_is_cocycle(gamma.table, m.table, coeff.action, a)


def _validate_subgroup(group, elems):
    try:
        Subgroup(group, elems)
    except NotASubgroup as err:
        if "missing" in str(err):
            assert group.identity not in elems, err
        else:
            a, b, p = _ints(r"product (\d+)\*(\d+) = (\d+) escapes", err)
            assert a in elems and b in elems and p == group.mul(a, b) and p not in elems, err
        return False
    return True


@given(Groups16, st.data())
@settings(deadline=None)
def test_subgroup_validator_matches_the_oracle(group, data):
    """
    A subgroup from the lattice is accepted; a copy with one element added
    or removed is judged as the oracle judges it.
    """
    sub = data.draw(st.sampled_from(all_subgroups(group))).elements
    assert _validate_subgroup(group, sub)
    elems = tuple(sorted(set(sub) ^ {data.draw(st.integers(0, group.order - 1))}))
    assert _validate_subgroup(group, elems) == oracle_is_subgroup(group.table, elems)


@given(st.sampled_from(HOM_PAIRS))
@settings(deadline=None)
def test_search_output_equals_validated_homs(pair):
    """
    Homs built by the search, unchecked, equal and hash like the same maps
    built through the validating constructor.
    """
    for h in enumerate_homs(*pair):
        checked = GroupHom(h.source, h.target, h.map)
        assert h == checked and hash(h) == hash(checked)


@given(st.one_of(TwistedSystems, Systems))
@settings(deadline=None)
def test_search_output_equals_validated_cocycles(coeff):
    """
    Cocycles built by the search, unchecked, equal and hash like the same
    values built through the validating constructor.
    """
    for a in enumerate_cocycles(coeff):
        checked = Cocycle(coeff, a.values)
        assert a == checked and hash(a) == hash(checked)


# --- orbit partitions on generators against all-element oracles -------------


@given(st.one_of(TwistedSystems, Systems))
@settings(deadline=None)
def test_h1_classes_match_the_all_twists_oracle(coeff):
    """
    h1 twists generator values by generators of M; its classes must be the
    oracle's, which twists full value tuples by every element of M.
    """
    tables = (coeff.gamma.table, coeff.M.table, coeff.action)
    assert list(h1(coeff).classes) == oracle_h1_classes(*tables)


def test_section_partitions_match_the_all_conjugators_oracle():
    """
    Both section partitions, found from generators of the conjugators,
    equal the partitions that try every conjugator.
    """
    for _, ext in preset_extensions(12):
        report = enumerate_sections(ext)
        maps = [s.map for s in report.sections]
        table = ext.E.table
        assert list(report.classes_mod_A) == oracle_conjugation_classes(
            table, maps, ext.iota.map
        )
        assert list(report.classes_mod_E) == oracle_conjugation_classes(
            table, maps, ext.E.elements
        )


# --- derived objects built unchecked against their validators ---------------


def test_quotients_equal_validated_groups():
    """
    Every quotient of a preset group, built without validation, equals the
    group validated from its own table, and its projection is a valid hom.
    """
    for group in preset_groups(24):
        for sub in all_normal_subgroups(group):
            quot, proj = quotient(group, sub)
            checked = group_from_table(quot.table)
            assert quot == checked and hash(quot) == hash(checked)
            assert proj == GroupHom(group, quot, proj.map)


@given(Actions, st.sampled_from(preset_groups(8)), st.data())
@settings(deadline=None)
def test_pulled_back_coefficients_equal_validated_systems(coeff, src, data):
    """
    A system pulled back along a hom into its base, built without
    validation, equals the validated system with the same rows; so does a
    constant system.
    """
    homs = enumerate_homs(src, coeff.gamma)
    theta = data.draw(st.sampled_from(homs))
    pulled = pullback_coefficients(theta, coeff)
    checked = GammaGroup(src, coeff.M, pulled.action, embed=coeff.embed)
    assert pulled == checked and hash(pulled) == hash(checked)
    constant = constant_coefficients(src, coeff.M)
    assert constant == GammaGroup(src, coeff.M, constant.action)
