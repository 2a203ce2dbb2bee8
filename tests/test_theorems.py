"""Theorems of group cohomology and group theory, checked on the catalog.

Each check relates outputs of the library to a classical theorem instead of
to a brute-force oracle over the same tables, so it shares no enumeration
with the code it checks.  Only test-side code is used: fixed points, norms
and twists are computed here from the raw tables.
"""

from __future__ import annotations

from math import gcd

from seclab.catalog import coefficient_catalog, preset_extensions, preset_groups
from seclab.cohomology import GammaGroup, h1, pullback_coefficients
from seclab.extensions import enumerate_sections
from seclab.groups import (
    all_normal_subgroups,
    cyclic_group,
    enumerate_homs,
    quotient,
    subgroup,
    subgroup_as_group,
)


def _is_abelian(m) -> bool:
    return all(m.mul(a, b) == m.mul(b, a) for a in m.elements for b in m.elements)


def test_herbrand_quotient_of_cyclic_groups_is_one():
    """For cyclic Γ acting on a finite abelian M, the Herbrand quotient is 1,
    so |H¹(Γ, M)| = |Ĥ⁰(Γ, M)| = |M^Γ : N(M)|, with N(m) the product of
    g·m over all g in Γ (Serre, *Local Fields*, GTM 67, ch. VIII §4;
    Brown, *Cohomology of Groups*, GTM 87, 1982).  Checked for
    Γ = C2..C12 on every abelian system of ``coefficient_catalog(Γ, 8)``.
    """
    checked = 0
    for k in range(2, 13):
        gamma = cyclic_group(k)
        for coeff in coefficient_catalog(gamma, 8):
            m, action = coeff.M, coeff.action
            if not _is_abelian(m):
                continue
            fixed = {x for x in m.elements if all(row[x] == x for row in action)}
            norms = set()
            for x in m.elements:
                n = m.identity
                for row in action:
                    n = m.mul(n, row[x])
                norms.add(n)
            assert norms <= fixed, coeff
            assert h1(coeff).class_count * len(norms) == len(fixed), coeff
            checked += 1
    assert checked == 762


def test_h1_class_count_is_burnside_orbit_count():
    """H¹(Γ, M) is the orbit set of Z¹(Γ, M) under M acting by twisting,
    a·c with s ↦ c⁻¹·a_s·s(c) (Serre, *Galois Cohomology*, ch. I §5.1).
    By Burnside's orbit-counting lemma (Burnside, *Theory of Groups of
    Finite Order*, 2nd ed., 1911), |H¹|·|M| = Σ_c |{a ∈ Z¹ : a·c = a}|.
    Full value tuples are twisted by every element of M, so the count goes
    through neither ``_orbit_partition`` nor the twist generators that
    ``h1`` keeps.  Checked for Γ in ``preset_groups(6)`` on every system of
    ``coefficient_catalog(Γ, 6)``; at 8 it is too slow for tier-1.
    """
    checked = 0
    for gamma in preset_groups(6):
        for coeff in coefficient_catalog(gamma, 6):
            m, action = coeff.M, coeff.action
            classes = h1(coeff)
            fixed = 0
            for c in m.elements:
                ci = m.inverse[c]
                for a in classes.values:
                    twisted = tuple(m.mul(m.mul(ci, v), row[c]) for v, row in zip(a, action))
                    fixed += twisted == a
            assert classes.class_count * m.order == fixed, coeff
            checked += 1
    assert checked == 218


def test_frobenius_counts_of_kth_roots_of_unity():
    """The number of x in G with x^k = 1 is a multiple of gcd(k, |G|)
    (Frobenius, *Verallgemeinerung des Sylow'schen Satzes*, Sitzungsber.
    Preuss. Akad. Wiss. Berlin, 1895).  Homs C_k → G are those x, read as
    ``len(enumerate_homs(C_k, G))``.  Checked for G in ``preset_groups(16)``
    and k = 1..12.
    """
    checked = 0
    for group in preset_groups(16):
        for k in range(1, 13):
            count = len(enumerate_homs(cyclic_group(k), group))
            assert count % gcd(k, group.order) == 0, (group, k, count)
            checked += 1
    assert checked == 396


def _class_of(classes) -> dict:
    """Each cocycle's value tuple to its class number."""
    return {classes.values[j]: i for i, cls in enumerate(classes.classes) for j in cls}


def test_inflation_restriction_is_exact():
    """For N normal in Γ acting on M, M nonabelian too, the sequence of
    pointed sets 1 → H¹(Γ/N, M^N) → H¹(Γ, M) → H¹(N, M) is exact:
    inflation is injective, and its image is the set of classes whose
    restriction to N is the trivial class (Serre, *Galois Cohomology*,
    ch. I §5.8).  M^N, the action of Γ/N on it through any preimage, and
    the inflated cocycles a(g) = b(gN) are built here.  Checked for Γ in
    ``preset_groups(12)``, every normal N, and every system of
    ``coefficient_catalog(Γ, 6)``.
    """
    checked = 0
    for gamma in preset_groups(12):
        for coeff in coefficient_catalog(gamma, 6):
            m, action = coeff.M, coeff.action
            on_gamma = _class_of(h1(coeff))
            for n in all_normal_subgroups(gamma):
                q, proj = quotient(gamma, n)
                fixed = [x for x in m.elements if all(action[g][x] == x for g in n.elements)]
                m_n, emb = subgroup_as_group(subgroup(m, fixed))
                index = {x: i for i, x in enumerate(emb.map)}
                preimage = {proj.map[g]: g for g in gamma.elements}
                rows = tuple(
                    tuple(index[action[preimage[c]][x]] for x in emb.map) for c in q.elements
                )
                inflation = {}
                for b, i in _class_of(h1(GammaGroup(q, m_n, rows))).items():
                    a = tuple(emb.map[b[proj.map[g]]] for g in gamma.elements)
                    inflation.setdefault(i, set()).add(on_gamma[a])
                assert all(len(image) == 1 for image in inflation.values()), (coeff, n)
                image = set().union(*inflation.values())
                assert len(image) == len(inflation), (coeff, n)  # injective
                n_group, inc = subgroup_as_group(n)
                on_n = _class_of(h1(pullback_coefficients(inc, coeff)))
                trivial = on_n[(m.identity,) * n_group.order]
                kernel = {
                    j for a, j in on_gamma.items()
                    if on_n[tuple(a[x] for x in inc.map)] == trivial
                }
                assert image == kernel, (coeff, n)
                checked += 1
    assert checked == 5199


def test_schur_zassenhaus_coprime_extensions_split_with_conjugate_sections():
    """When |A| and |Γ| are coprime, 1 → A → E → Γ → 1 splits, and all its
    sections are conjugate under A (Schur–Zassenhaus; Gorenstein, *Finite
    Groups*, 1968, ch. 6 §2).  Conjugacy needs A or Γ solvable: one of
    them has odd order, so is solvable by Feit–Thompson.  Checked on the
    128 entries of ``preset_extensions(64)`` with a nontrivial kernel and
    base of coprime orders: each has a section, and its sections form one
    class modulo conjugation by the kernel.
    """
    checked = 0
    for name, ext in preset_extensions(64):
        if 1 in (ext.A.order, ext.Gamma.order) or gcd(ext.A.order, ext.Gamma.order) != 1:
            continue
        report = enumerate_sections(ext)
        assert report.count > 0, name
        assert len(report.classes_mod_A) == 1, name
        checked += 1
    assert checked == 128


def test_twisting_by_a_cocycle_is_a_bijection_on_h1():
    """For a cocycle a of Γ in M, let ₐM be M with s acting as
    m ↦ a_s·s(m)·a_s⁻¹.  Then b ↦ (s ↦ b_s·a_s) is a bijection
    Z¹(Γ, ₐM) → Z¹(Γ, M) that induces a bijection H¹(Γ, ₐM) → H¹(Γ, M)
    sending the neutral class to the class of a (Serre, *Galois
    Cohomology*, ch. I §5.3).  The existing twisting properties test only
    ``cohomologous``; this relates two ``h1`` partitions over different
    actions, and is the first check here for nonabelian M.  Checked for
    each Γ of ``preset_groups(6)``, each system of
    ``coefficient_catalog(Γ, 8)`` with nonabelian M, and each class
    representative a; ₐM is built through the validating constructor.
    """
    systems = twists = 0
    for gamma in dict.fromkeys(preset_groups(6)):
        for coeff in coefficient_catalog(gamma, 8):
            m = coeff.M
            if _is_abelian(m):
                continue
            classes = h1(coeff)
            class_of = {classes.values[j]: i for i, cls in enumerate(classes.classes) for j in cls}
            for i, a in enumerate(classes.representative_values):
                rows = tuple(
                    tuple(m.mul(m.mul(a_s, row[x]), m.inverse[a_s]) for x in m.elements)
                    for a_s, row in zip(a, coeff.action)
                )
                twisted = h1(GammaGroup(gamma, m, rows))
                shift = [tuple(map(m.mul, b, a)) for b in twisted.values]
                assert len(set(shift)) == len(shift) and set(shift) == set(class_of), (coeff, a)
                assert twisted.class_count == classes.class_count, (coeff, a)
                images = [{class_of[shift[j]] for j in cls} for cls in twisted.classes]
                assert all(len(image) == 1 for image in images), (coeff, a)
                assert len(set().union(*images)) == classes.class_count, (coeff, a)
                neutral = twisted.values.index((m.identity,) * gamma.order)
                k = next(k for k, cls in enumerate(twisted.classes) if neutral in cls)
                assert images[k] == {i}, (coeff, a)
                twists += 1
            systems += 1
    assert (systems, twists) == (272, 778)
