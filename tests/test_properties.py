"""Property-based checks drawn from the preset catalog."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_cocycles, oracle_h1_class_count, oracle_homs
from seclab.catalog import (
    coefficient_catalog,
    preset_extensions,
    preset_group,
    preset_groups,
    preset_names,
    seeded_instances,
)
from seclab.cohomology import cohomologous, enumerate_cocycles, h1
from seclab.errors import NotAHomomorphism
from seclab.extensions import enumerate_sections
from seclab.groups import (
    all_subgroups,
    element_order,
    enumerate_homs,
    generating_set,
    hom_from_generator_images,
    union_of_conjugates,
)
from seclab.localglobal import verify_equivalences
from seclab.manifest import ManifestBuilder, generate_corpus, parse_manifest

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
SYSTEMS = [
    coeff
    for gamma in preset_groups(8)
    for coeff in coefficient_catalog(gamma, 4)
    if coeff.M.order ** gamma.order <= ORACLE_BUDGET
]


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


#: Nontrivial actions on which the search's candidate filter has work to do.
TWISTED_SYSTEMS = [
    coeff
    for coeff in SYSTEMS
    if any(row != tuple(coeff.M.elements) for row in coeff.action)
    and _norm_drops_a_value(coeff)
]


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
    assert TWISTED_SYSTEMS and len(TWISTED_SYSTEMS) < len(SYSTEMS)


@given(st.one_of(st.sampled_from(TWISTED_SYSTEMS), st.sampled_from(SYSTEMS)))
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
