"""Preset constructors, the catalog listings, seeded instance generators."""

from __future__ import annotations

import pytest

from seclab import catalog, groups
from seclab.catalog import (
    MAX_PRESET_ORDER,
    alternating_group,
    coefficient_catalog,
    dicyclic_group,
    dihedral_group,
    metacyclic_group,
    preset_extensions,
    preset_group,
    preset_groups,
    seeded_instances,
    seeded_transport_pairs,
    symmetric_group,
)
from seclab.cohomology import GammaGroup, conjugation_coefficients
from seclab.errors import BoundExceeded, UnknownName, ValidationError
from seclab.groups import (
    all_normal_subgroups,
    all_subgroups,
    automorphism_group,
    cyclic_group,
    element_order,
    enumerate_homs,
    group_from_table,
    identity_hom,
    image,
    is_normal,
)
from seclab.localglobal import check_density
from seclab.manifest import ManifestBuilder, parse_manifest


def _abelian(g):
    """A table is abelian exactly when it equals its transpose."""
    return g.table == tuple(zip(*g.table))


def test_dihedral_group_shape():
    d4 = dihedral_group(4)
    assert d4.order == 8 and not _abelian(d4)
    with pytest.raises(ValidationError):
        dihedral_group(2)


def test_quaternions_have_all_subgroups_normal():
    q8 = dicyclic_group(2)
    assert q8.order == 8
    subs = all_subgroups(q8)
    assert len(subs) == 6
    assert all(is_normal(s) for s in subs)


def test_dicyclic_groups_have_one_involution():
    for n in (2, 3, 4):
        g = dicyclic_group(n)
        assert g.order == 4 * n
        involutions = [x for x in g.elements if element_order(g, x) == 2]
        assert len(involutions) == 1


def test_metacyclic_presets():
    f20 = metacyclic_group(5, 4, 2)
    f21 = metacyclic_group(7, 3, 2)
    assert f20.order == 20 and not _abelian(f20)
    assert f21.order == 21 and not _abelian(f21)
    with pytest.raises(ValidationError):
        metacyclic_group(5, 3, 2)  # 2^3 is not 1 mod 5
    # r acts through r mod m, so an exponent too long to print is valid
    huge = metacyclic_group(3, 2, 10**5000)
    assert huge == metacyclic_group(3, 2, 1) and huge.label == "C3:C2r<int of 16610 bits>"


def test_alternating_group_a4():
    a4 = alternating_group(4)
    assert a4.order == 12
    # the classic failure of the converse of Lagrange's theorem
    assert [len(s.elements) for s in all_subgroups(a4)].count(6) == 0


def test_odd_degree_alternating_groups_are_groups():
    """A3 and A5 take the n-cycle branch; each table passes the validator."""
    for n, order in ((3, 3), (5, 60)):
        an = alternating_group(n)
        assert an.order == order
        assert an == group_from_table(an.table)


def test_symmetric_group_s4():
    s4 = symmetric_group(4)
    assert s4.order == 24 and not _abelian(s4)


def test_preset_listing_is_sorted_and_bounded():
    names = tuple(g.label for g in preset_groups(12))
    assert names == (
        "C2", "C3", "C2xC2", "C4", "C5", "C6", "D3", "S3", "C7",
        "C2xC2xC2", "C2xC4", "C8", "D4", "Q8", "C3xC3", "C9", "C10",
        "D5", "C11", "A4", "C12", "C2xC6", "D6", "Dic3",
    )
    orders = [g.order for g in preset_groups(12)]
    assert orders == sorted(orders)
    with pytest.raises(BoundExceeded):
        preset_groups(65)


def test_preset_lookup():
    assert preset_group("Q16").order == 16
    with pytest.raises(UnknownName):
        preset_group("M11")


def test_preset_extensions_cover_every_normal_subgroup():
    exts = preset_extensions(16)
    assert len(exts) == 173
    names = [n for n, _ in exts]
    assert len(names) == len(set(names))
    s3_shapes = {
        (e.A.order, e.Gamma.order) for n, e in exts if n.startswith("S3/")
    }
    assert s3_shapes == {(1, 6), (3, 2), (6, 1)}


def _empty_caches():
    for module in (groups, catalog):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def test_preset_extensions_name_their_own_preset():
    """
    S3 is D3's table under another name, so a cached subgroup search on
    D3 hands its subgroups to S3.  Each extension is still named after its
    own preset: its kernel, middle group and base labels begin with it,
    whichever group was searched first.
    """
    _empty_caches()
    try:
        all_normal_subgroups(dihedral_group(3))
        exts = preset_extensions(6)
        assert any(name.startswith("S3/") for name, _ in exts)
        for name, ext in exts:
            preset = name.rsplit("/n", 1)[0]
            for group in (ext.A, ext.E, ext.Gamma):
                assert group.label.startswith(preset), (name, ext)
    finally:
        _empty_caches()


def test_coefficient_catalog_counts():
    cat = coefficient_catalog(cyclic_group(2), 4)
    # actions on C2, C3, C2xC2, C4: 1 + 2 + 4 + 2
    assert len(cat) == 9
    constants = [c for c in cat if all(r == tuple(c.M.elements) for r in c.action)]
    assert len(constants) == 4


# --- derived objects built without a second check ----------------------------


def test_catalog_systems_pass_the_validator_they_skip():
    for gamma in preset_groups(12):
        for c in coefficient_catalog(gamma, 8):
            assert c == GammaGroup(c.gamma, c.M, c.action), (gamma.label, c.M.label)


def test_identity_homs_pass_the_validator_they_skip():
    for g in preset_groups(MAX_PRESET_ORDER):
        identity_hom(g).__post_init__()


def test_conjugation_systems_pass_the_validator_they_skip():
    """Every system criterion 02 builds: the embedded kernel of a preset
    extension, acted on through the first lift of each map into the base
    that has one, which is the first hom into the middle group above it."""
    built = 0
    for _, ext in preset_extensions(24):
        kernel = image(ext.iota)
        for delta in preset_groups(8):
            first_lifts = {}
            for h in enumerate_homs(delta, ext.E):
                first_lifts.setdefault(tuple(ext.pi.map[x] for x in h.map), h)
            for lift in first_lifts.values():
                conjugation_coefficients(kernel, lift).__post_init__()
            built += len(first_lifts)
    assert built == 16962


def test_automorphism_tables_pass_the_validator_they_skip():
    for m in preset_groups(16):
        aut, _ = automorphism_group(m)
        checked = group_from_table(aut.table, label=aut.label)
        assert (aut.table, aut.identity, aut.inverse) == (
            checked.table,
            checked.identity,
            checked.inverse,
        ), m.label


def test_coefficient_catalog_matches_its_record_based_definition():
    """Each system is a hom into Aut(M)'s table read through its list:
    the catalog's direct read of the search gives the same 6,635 actions."""
    built = 0
    for gamma in preset_groups(12):
        want = []
        for m in preset_groups(8):
            aut, auts = automorphism_group(m)
            for phi in enumerate_homs(gamma, aut):
                want.append((m, tuple(auts[phi.map[g]].map for g in gamma.elements)))
        got = [(c.M, c.action) for c in coefficient_catalog(gamma, 8)]
        assert got == want, gamma.label
        assert all(c.gamma == gamma for c in coefficient_catalog(gamma, 8))
        built += len(got)
    assert built == 6635


def test_manifest_coefficient_systems_pass_the_validator_they_skip():
    systems = coefficient_catalog(preset_group("D4"), 8)
    b = ManifestBuilder()
    names = [b.add_coeff(c) for c in systems]
    program = parse_manifest(b.text())
    for name, c in zip(names, systems):
        parsed = program.names[name]
        assert parsed == GammaGroup(parsed.gamma, parsed.M, parsed.action) == c, name


def test_seeded_instances_are_reproducible():
    a = seeded_instances(5, 15)
    b = seeded_instances(5, 15)
    assert a == b
    assert len(a) == 15
    # a different seed gives a different draw somewhere
    assert a != seeded_instances(6, 15)


def test_seeded_transport_pairs_are_dense_and_reproducible():
    pairs = seeded_transport_pairs(9, 8)
    assert pairs == seeded_transport_pairs(9, 8)
    assert len(pairs) == 8
    for fam, sub in pairs:
        assert check_density(fam)
        assert set(sub.elements) <= set(fam.gamma.elements)
