"""Theorems of group cohomology and group theory, checked on the catalog.

Each check relates outputs of the library to a classical theorem instead of
to a brute-force oracle over the same tables, so it shares no enumeration
with the code it checks.  Only test-side code is used: fixed points, norms
and twists are computed here from the raw tables.
"""

from __future__ import annotations

from math import gcd

from seclab.catalog import coefficient_catalog, preset_groups
from seclab.cohomology import h1
from seclab.groups import cyclic_group, enumerate_homs


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
