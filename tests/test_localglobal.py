"""Local families, the five interpolation properties, density, towers."""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, combinations_with_replacement, product
from pathlib import Path

import pytest

from oracles import (
    oracle_density,
    oracle_in_diagonal_image,
    oracle_interpolates,
    oracle_interpolating_homs,
    oracle_is_cocycle,
    oracle_pullback,
    oracle_restrict,
    oracle_sections,
)
from seclab import cohomology, localglobal
from seclab.catalog import (
    coefficient_catalog,
    preset_extensions,
    preset_group,
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
from seclab.errors import IncompatibleTower, ValidationError
from seclab.extensions import Extension, _sections, enumerate_sections
from seclab.groups import (
    FiniteGroup,
    GroupHom,
    _lifts_through,
    all_normal_subgroups,
    all_subgroups,
    cyclic_group,
    direct_product,
    enumerate_homs,
    full_subgroup,
    generating_set,
    group_from_permutations,
    identity_hom,
    image,
    is_bijective,
    quotient,
    subgroup,
    subgroup_as_group,
    subgroup_generated,
    trivial_group,
    trivial_subgroup,
)
from seclab.localglobal import (
    A_QUOTIENT_SECTION,
    CONSTANT_QUOTIENT,
    USER_SUPPLIED,
    CorpusEntry,
    DescentCheck,
    EquivalenceReport,
    LocalFamily,
    LocalSections,
    TowerResult,
    check_density,
    decide_a,
    decide_a_doubleprime,
    decide_a_prime,
    decide_b,
    decide_c,
    diagonal_fibre,
    interpolating_homs,
    interpolating_section_from_hom,
    pushout_tower,
    standard_corpus,
    tower_limit_sections,
    transport_family,
    verify_equivalences,
)
from seclab.manifest import ManifestBuilder

GOLDEN = Path(__file__).parent / "golden"
C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)
V4 = direct_product(C2, C2)
S3 = group_from_permutations(3, [(1, 0, 2), (1, 2, 0)], label="S3")[0]
SIGN = GroupHom(S3, C2, (0, 1, 1, 0, 0, 1))


def c4_instance():
    """Z/4 over Z/2 with a single trivial local: no sections, yet (b) holds."""
    ext = Extension(GroupHom(C2, C4, (0, 2)), GroupHom(C4, C2, (0, 1, 0, 1)))
    return LocalSections(ext, (GroupHom(trivial_group(), C4, (0,)),))


def v4_instance():
    """V4 over C2 with two non-conjugate local sections: everything fails."""
    ext = Extension(GroupHom(C2, V4, (0, 1)), GroupHom(V4, C2, (0, 0, 1, 1)))
    return LocalSections(ext, (GroupHom(C2, V4, (0, 2)), GroupHom(C2, V4, (0, 3))))


def s3_twisted_instance():
    """S3 over C2 with the local section twisted by a rotation."""
    ext = Extension(GroupHom(C3, S3, (0, 3, 4)), SIGN)
    s0 = GroupHom(C2, S3, (0, 2))
    s1 = GroupHom(C2, S3, tuple(S3.conj(3, s0.map[x]) for x in C2.elements))
    return LocalSections(ext, (s1,))


def s3xc2_dense_instance():
    """Split central extension of S3 with locals on both cyclic subgroup types."""
    e = direct_product(S3, C2)
    pi = GroupHom(e, S3, tuple(x // 2 for x in e.elements))
    ext = Extension(GroupHom(C2, e, (0, 1)), pi)
    s0 = GroupHom(S3, e, tuple(2 * g for g in S3.elements))
    sections = []
    for gen in (2, 3):
        g_i, inc = subgroup_as_group(subgroup_generated(S3, [gen]))
        sections.append(GroupHom(g_i, e, tuple(s0.map[t] for t in inc.map)))
    return LocalSections(ext, tuple(sections))


def s3_family():
    thetas = []
    for gen in (2, 3):
        sub = subgroup_generated(S3, [gen])
        g_i, inc = subgroup_as_group(sub)
        thetas.append(GroupHom(g_i, S3, inc.map))
    return LocalFamily(S3, tuple(thetas))


# ---------------------------------------------------------------------------
# containers


def test_local_family_rejects_wrong_target():
    with pytest.raises(ValidationError):
        LocalFamily(C2, (identity_hom(C3),))


def test_local_sections_derive_their_family():
    """Each local map is the projection of its section, from the section's
    own source group into the extension's base."""
    for ls in seeded_instances(20260822, 200, 24):
        pm = ls.ext.pi.map
        assert ls.family.gamma == ls.ext.Gamma
        assert len(ls.family.thetas) == len(ls.sections)
        for theta, s in zip(ls.family.thetas, ls.sections):
            assert theta.map == tuple(pm[v] for v in s.map)
            assert theta.source is s.source
            assert theta.target == ls.ext.Gamma
        assert ls.family is ls.family  # built once and kept


def _split_v4_over_c2():
    return Extension(GroupHom(C2, V4, (0, 1)), GroupHom(V4, C2, (0, 0, 1, 1)))


@pytest.mark.parametrize(
    "build, needle",
    [
        (lambda: LocalFamily(C2, (0,)), "local map 0 must be a GroupHom, not 0"),
        (
            lambda: LocalFamily(C2, (identity_hom(C2), None)),
            "local map 1 must be a GroupHom, not None",
        ),
        (
            lambda: LocalSections(_split_v4_over_c2(), (0,)),
            "local section 0 must be a GroupHom, not 0",
        ),
        (
            lambda: LocalSections(_split_v4_over_c2(), (C2,)),
            "local section 0 must be a GroupHom, not <C2: order 2>",
        ),
    ],
    ids=["family-int", "family-none", "sections-int", "sections-group"],
)
def test_local_containers_reject_items_that_are_not_homs(build, needle):
    with pytest.raises(ValidationError, match=needle):
        build()


def test_corpus_entry_rejects_unknown_tag():
    coeff = constant_coefficients(C2, C2)
    with pytest.raises(ValidationError):
        CorpusEntry(coeff, "folklore")


# ---------------------------------------------------------------------------
# density


def test_density_frozen_cases():
    assert check_density(s3_family())
    # a single transposition subgroup covers only 4 of the 6 elements
    sub = subgroup_generated(S3, [2])
    g_t, inc = subgroup_as_group(sub)
    assert not check_density(LocalFamily(S3, (GroupHom(g_t, S3, inc.map),)))
    # no locals never covers, even over the trivial group
    assert not check_density(LocalFamily(trivial_group(), ()))
    t = trivial_group()
    assert check_density(LocalFamily(t, (identity_hom(t),)))


def test_density_matches_oracle():
    fam = s3_family()
    images = [sorted(image(theta).elements) for theta in fam.thetas]
    assert check_density(fam) == oracle_density(S3.table, images)
    sub = subgroup_generated(S3, [1])
    g_t, inc = subgroup_as_group(sub)
    solo = LocalFamily(S3, (GroupHom(g_t, S3, inc.map),))
    assert check_density(solo) == oracle_density(S3.table, [sorted(sub.elements)])


# ---------------------------------------------------------------------------
# transport


def test_transport_to_index_two_subgroup():
    fam = s3_family()
    a3 = subgroup_generated(S3, [3])
    out = transport_family(fam, a3)
    # two locals times two coset representatives
    assert len(out.thetas) == 4
    assert out.gamma.order == 3
    assert check_density(out)
    # the transposition local meets A3 only in the identity
    orders = sorted(theta.source.order for theta in out.thetas)
    assert orders == [1, 1, 3, 3]


def test_transport_rejects_foreign_subgroup():
    fam = s3_family()
    with pytest.raises(ValidationError):
        transport_family(fam, subgroup(C4, (0, 2)))


# ---------------------------------------------------------------------------
# diagonal fibres


def test_diagonal_fibre_sign_class():
    fam = s3_family()
    coeff = constant_coefficients(S3, C2)
    alpha = Cocycle(coeff, SIGN.map)
    fib = diagonal_fibre(alpha, fam)
    # the transposition local pins the restriction, only the sign class fits
    assert len(fib) == 1
    assert fib[0].values == SIGN.map


def test_diagonal_fibre_rotation_only_family():
    sub = subgroup_generated(S3, [3])
    g_r, inc = subgroup_as_group(sub)
    fam = LocalFamily(S3, (GroupHom(g_r, S3, inc.map),))
    coeff = constant_coefficients(S3, C2)
    alpha = Cocycle(coeff, SIGN.map)
    # sign dies on rotations, so the trivial class joins the fibre
    assert len(diagonal_fibre(alpha, fam)) == 2


def test_with_no_locals_every_class_shares_one_label():
    """No locals give every class the empty label: the fibre is every
    class, and (a) passes after checking every class of the corpus."""
    coeff = constant_coefficients(S3, C2)
    fib = diagonal_fibre(Cocycle(coeff, SIGN.map), LocalFamily(S3, ()))
    assert [c.values for c in fib] == list(h1(coeff).representative_values)
    ls = LocalSections(s3_twisted_instance().ext, ())
    corpus = standard_corpus(ls)
    total = sum(h1(pullback_coefficients(ls.ext.pi, e.coeff)).class_count for e in corpus)
    check = decide_a(ls, corpus)
    assert check.holds and check.classes_checked == total > 0


def test_diagonal_fibre_rejects_wrong_base():
    fam = s3_family()
    alpha = Cocycle(constant_coefficients(C2, C2), (0, 0))
    with pytest.raises(ValidationError):
        diagonal_fibre(alpha, fam)


# ---------------------------------------------------------------------------
# properties (b) and (c)


def test_c4_instance_has_hom_but_no_section():
    ls = c4_instance()
    assert enumerate_sections(ls.ext).count == 0
    homs = [u.map for u in interpolating_homs(ls)]
    assert homs == [(0, 0), (0, 2)]
    assert decide_b(ls).map == (0, 0)
    assert decide_c(ls) is None


def test_interpolating_homs_match_oracle():
    for ls in (c4_instance(), v4_instance(), s3_twisted_instance()):
        got = [u.map for u in interpolating_homs(ls)]
        want = oracle_interpolating_homs(
            ls.ext.Gamma.table,
            ls.ext.E.table,
            [t.map for t in ls.family.thetas],
            [s.map for s in ls.sections],
        )
        assert got == want


def test_density_b_and_c_match_the_oracles_on_seeded_instances():
    """Density on every seeded instance; (b) and (c), whose oracles try
    every map from the base, where |E|^|Gamma| <= 20,000."""
    small = 0
    for ls in seeded_instances(20260822, 200, 24):
        gam, mid, pi = ls.ext.Gamma, ls.ext.E, ls.ext.pi.map
        images = [sorted(set(t.map)) for t in ls.family.thetas]
        assert check_density(ls.family) == oracle_density(gam.table, images)
        if mid.order**gam.order > 20_000:
            continue
        small += 1
        thetas, sections = [t.map for t in ls.family.thetas], [s.map for s in ls.sections]
        want_b = oracle_interpolating_homs(gam.table, mid.table, thetas, sections)
        assert [u.map for u in interpolating_homs(ls)] == want_b
        passing = [
            f
            for f in oracle_sections(gam.table, mid.table, pi)
            if oracle_interpolates(mid.table, pi, f, sections, ls.ext.iota.map)
        ]
        c = decide_c(ls)
        assert (c.map if c else None) == next(iter(passing), None)
    assert small == 114


def test_conjugators_match_an_all_elements_scan(acceptance_instances):
    """_conjugator compares ``u∘theta`` with ``e·t·e⁻¹`` on the generators of
    theta's source only.  For every (b) candidate with all of E as the pool
    and every (c) candidate with the embedded kernel, and each local, it
    finds the e that comparing on every element finds, or None with it."""
    results = Counter()
    for ls in acceptance_instances:
        ext = ls.ext
        searches = (
            (enumerate_homs(ext.Gamma, ext.E), ext.E.elements),
            (_sections(ext), ext.iota.map),
        )
        for candidates, pool in searches:
            for u, (theta, t) in product(candidates, zip(ls.family.thetas, ls.sections)):
                want = next(
                    (
                        e
                        for e in pool
                        if all(
                            u.map[theta.map[x]] == ext.E.conj(e, t.map[x])
                            for x in theta.source.elements
                        )
                    ),
                    None,
                )
                assert localglobal._conjugator(u, theta, t, ext.E, pool) == want
                results[len(generating_set(theta.source)), want is None] += 1
    assert {(2, True), (2, False)} <= set(results), results


def test_v4_instance_fails_b_and_c():
    ls = v4_instance()
    assert decide_b(ls) is None
    assert decide_c(ls) is None


def test_twisted_local_recovered_with_kernel_conjugator():
    ls = s3_twisted_instance()
    wit = decide_c(ls)
    assert wit is not None
    assert ls.ext.pi.map[wit.map[1]] == 1  # really a section


# ---------------------------------------------------------------------------
# corpora and the descent checks


def test_standard_corpus_shape():
    ls = s3_twisted_instance()
    corpus = standard_corpus(ls)
    tags = [e.provenance for e in corpus]
    # quotients of S3 by 1, A3, S3 and kernel quotients by 1, A3
    assert tags.count(CONSTANT_QUOTIENT) == 3
    assert tags.count(A_QUOTIENT_SECTION) == 2
    # a caller's own system is decided after the standard corpus
    user = CorpusEntry(constant_coefficients(C2, C3), USER_SUPPLIED)
    standard, with_user = decide_a(ls, corpus), decide_a(ls, corpus + (user,))
    assert standard.holds and with_user.holds
    assert with_user.classes_checked == standard.classes_checked + 1


def test_descent_checks_on_failing_instance():
    ls = v4_instance()
    a = decide_a(ls, standard_corpus(ls))
    assert not a.holds
    assert a.failing_entry.provenance == CONSTANT_QUOTIENT
    assert a.failing_class is not None
    assert not decide_a_prime(ls).holds
    assert not decide_a_doubleprime(ls).holds


def test_descent_checks_on_good_instances():
    for ls in (c4_instance(), s3_twisted_instance(), s3xc2_dense_instance()):
        assert decide_a(ls, standard_corpus(ls)).holds
        assert decide_a_prime(ls).holds
        assert decide_a_doubleprime(ls).holds


def test_d4_instance_fails_a_over_a_twisted_system():
    """The standard corpus suffices for the diagram, not for (a) over every
    action of the base.  D4 over its centre, with two locals over the same
    C2 lifted to two non-conjugate reflections, holds (a) over the standard
    corpus and over every system on a group of order 2, but fails once the
    catalog reaches order 4: at C2xC2 with the base swapping two of its
    involutions.  A brute-force twist search confirms the failing class."""
    ls = seeded_instances(7, 200, 32)[8]
    ext = ls.ext
    assert ext.E == preset_group("D4") and ext.Gamma == preset_group("C2xC2")
    assert ext.iota.map == (0, 5)
    assert [t.map for t in ls.family.thetas] == [(0, 1), (0, 1)]
    assert [s.map for s in ls.sections] == [(0, 1), (0, 4)]
    report = verify_equivalences(ls)
    assert not report.split and not report.density
    assert report.a.holds and report.a_prime.holds and report.a_doubleprime.holds
    assert report.holds_b and not report.holds_c

    def widened(max_m):
        extra = (CorpusEntry(c, USER_SUPPLIED) for c in coefficient_catalog(ext.Gamma, max_m))
        return decide_a(ls, standard_corpus(ls) + tuple(extra))

    assert widened(2).holds
    assert len(coefficient_catalog(ext.Gamma, 4)) == 19
    check = widened(4)
    assert not check.holds and check.classes_checked == 66
    coeff = check.failing_entry.coeff
    assert check.failing_entry.provenance == USER_SUPPLIED
    assert coeff.M == V4
    assert coeff.action == ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3, 2), (0, 1, 3, 2))
    alpha = check.failing_class.values
    assert alpha == (0, 2, 0, 3, 3, 1, 2, 1)
    e_action = [coeff.action[y] for y in ext.pi.map]
    assert oracle_is_cocycle(ext.E.table, coeff.M.table, e_action, alpha)
    locals_ = [(t.map, s.map) for t, s in zip(ls.family.thetas, ls.sections)]
    assert not oracle_in_diagonal_image(ext.Gamma.table, coeff.M.table, coeff.action, locals_, alpha)
    # every class of this system gets the oracle's verdict, and some pass
    _over, classes, verdicts = localglobal._diagonal(ls, coeff)
    assert alpha in classes and True in verdicts
    assert list(verdicts) == [
        oracle_in_diagonal_image(ext.Gamma.table, coeff.M.table, coeff.action, locals_, v)
        for v in classes
    ]


def test_decide_a_rejects_foreign_corpus():
    ls = c4_instance()
    corpus = (CorpusEntry(constant_coefficients(C3, C2), USER_SUPPLIED),)
    with pytest.raises(ValidationError):
        decide_a(ls, corpus)


def _with_user(systems):
    """The standard corpus followed by ``systems`` as user-supplied entries."""
    return lambda ls: standard_corpus(ls) + tuple(CorpusEntry(c, USER_SUPPLIED) for c in systems)


@pytest.mark.parametrize(
    "corpus, needle",
    [
        (lambda ls: None, "is not a sequence"),
        (_with_user([None]), "CorpusEntry.coeff must be a GammaGroup, not None"),
        (_with_user(["x"]), "CorpusEntry.coeff must be a GammaGroup, not 'x'"),
        (
            _with_user([constant_coefficients(cyclic_group(5), C2)]),
            "does not act through the base group",
        ),
    ],
    ids=["no-sequence", "none", "string", "foreign-base"],
)
def test_corpus_entries_are_checked_before_deciding(acceptance_instances, corpus, needle):
    holding = next(ls for ls in acceptance_instances if decide_a_prime(ls).holds)
    failing = next(ls for ls in acceptance_instances if not decide_a_prime(ls).holds)
    for ls in (holding, failing):
        with pytest.raises(ValidationError, match=needle):
            decide_a(ls, corpus(ls))


@pytest.mark.parametrize(
    "entries, needle",
    [
        (None, "is not a sequence"),
        ((constant_coefficients(C2, C2),), "entry 0 must be a CorpusEntry, not <coeff"),
    ],
    ids=["no-sequence", "bare-system"],
)
def test_coefficient_corpus_rejects_bad_entries(entries, needle):
    with pytest.raises(ValidationError, match=needle):
        decide_a(c4_instance(), entries)


def test_coefficient_corpus_keeps_any_iterable_as_a_tuple():
    ls = c4_instance()
    corpus = standard_corpus(ls)
    assert type(corpus) is tuple
    assert decide_a(ls, list(corpus)) == decide_a(ls, iter(corpus)) == decide_a(ls, corpus)


# ---------------------------------------------------------------------------
# the equivalence report


def test_report_on_c4_instance():
    rep = verify_equivalences(c4_instance())
    assert (rep.a.holds, rep.a_prime.holds, rep.a_doubleprime.holds) == (
        True,
        True,
        True,
    )
    assert rep.holds_b and not rep.holds_c
    assert not rep.split and not rep.density
    assert rep.all_implications_hold


def test_report_on_failing_instance():
    rep = verify_equivalences(v4_instance())
    assert not any(
        (rep.a.holds, rep.a_prime.holds, rep.a_doubleprime.holds, rep.holds_b, rep.holds_c)
    )
    assert rep.split
    assert rep.all_implications_hold


def test_report_on_dense_instances():
    for ls in (s3_twisted_instance(), s3xc2_dense_instance()):
        rep = verify_equivalences(ls)
        assert rep.density
        assert rep.a.holds and rep.a_prime.holds and rep.a_doubleprime.holds
        assert rep.holds_b and rep.holds_c
        assert rep.all_implications_hold


def test_implication_labels_are_stable():
    rep = verify_equivalences(c4_instance())
    assert [name for name, _ in rep.implications] == [
        "c=>a",
        "a=>a'",
        "a=>a''",
        "b=>a'",
        "a'=>b",
        "split&a''=>c",
        "density=>abc-agree",
    ]


def test_implications_follow_the_verdicts_in_every_pattern():
    """All 2**7 patterns of (density, split, a, a', a'', b, c), the ones no
    instance produces included: a report built from holding and failing
    checks and from a hom or None reads the diagram off its verdicts."""
    ls = c4_instance()
    entry = standard_corpus(ls)[0]
    failing = DescentCheck(entry, enumerate_cocycles(entry.coeff)[0], 1)
    check = {True: DescentCheck(None, None, 0), False: failing}
    hom = {True: ls.sections[0], False: None}
    for density, split, a, a1, a2, b, c in product((False, True), repeat=7):
        rep = EquivalenceReport(density, split, check[a], check[a1], check[a2], hom[b], hom[c])
        assert (rep.a.holds, rep.a_prime.holds, rep.a_doubleprime.holds) == (a, a1, a2)
        diagram = (
            ("c=>a", not c or a),
            ("a=>a'", not a or a1),
            ("a=>a''", not a or a2),
            ("b=>a'", not b or a1),
            ("a'=>b", not a1 or b),
            ("split&a''=>c", not (split and a2) or c),
            ("density=>abc-agree", not density or a == a1 == b == c),
        )
        assert rep.implications == diagram
        assert rep.all_implications_hold is all(v for _, v in diagram)


def test_records_read_derived_values_and_refuse_to_store_them():
    """``holds``, ``implications``, ``empty_levels`` and a group's
    ``identity`` and ``inverse`` are read off the other fields: they cannot
    be assigned, and a value passed for one is an extra value.  The fields
    that remain cannot contradict each other either."""
    ls = c4_instance()
    entry = standard_corpus(ls)[0]
    failing_class = enumerate_cocycles(entry.coeff)[0]
    rep = verify_equivalences(ls)
    fields = (rep.density, rep.split, rep.a, rep.a_prime, rep.a_doubleprime, rep.b, rep.c)
    tower = TowerResult((0, 1), None)
    assert tower.empty_levels == (0,)
    derived = (
        (rep.a, "holds"), (rep, "implications"), (tower, "empty_levels"),
        (C3, "identity"), (C3, "inverse"),
    )
    for obj, name in derived:
        assert isinstance(getattr(type(obj), name), (property, cached_property))
        assert name not in type(obj)._fields
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    hom = ls.sections[0]
    both_or_neither = "^DescentCheck needs both a failing entry and class, or neither$"
    per_level = (
        r"^TowerResult level sizes \({}\) must be counts, with one chain map per level"
        " exactly when none is 0$"
    )
    contradictions = [
        (
            lambda: DescentCheck(True, entry, failing_class, 5),
            "^DescentCheck takes at most 3 values$",
        ),
        (
            lambda: EquivalenceReport(*fields, (("c=>a", False),)),
            "^EquivalenceReport takes at most 7 values$",
        ),
        (lambda: TowerResult((0, 1), None, ()), "^TowerResult takes at most 2 values$"),
        (lambda: FiniteGroup(C3.table, 0, (0, 1, 2)), "^FiniteGroup takes at most 2 values$"),
        (lambda: FiniteGroup(C3.table, 5, C3.inverse), "^FiniteGroup takes at most 2 values$"),
        (lambda: DescentCheck(None, failing_class, 5), both_or_neither),
        (lambda: DescentCheck(entry, None, 5), both_or_neither),
        (lambda: TowerResult((0, 1), (hom,)), per_level.format("0, 1")),
        (lambda: TowerResult((1, 1), (hom,)), per_level.format("1, 1")),
        (lambda: TowerResult((1,), None), per_level.format("1,")),
        (lambda: TowerResult((-1,), (hom,)), per_level.format("-1,")),
        (lambda: TowerResult((True,), (hom,)), per_level.format("True,")),
        (lambda: TowerResult(("x",), None), "^TowerResult level size 0 must be an int, not 'x'$"),
        (
            lambda: TowerResult((1,), ("x",)),
            "^TowerResult chain map 0 must be a GroupHom, not 'x'$",
        ),
    ]
    for build, message in contradictions:
        with pytest.raises(ValidationError, match=message):
            build()


# ---------------------------------------------------------------------------
# the constructive section


def test_section_from_hom_with_nontrivial_conjugator():
    ls = s3_twisted_instance()
    u = GroupHom(C2, S3, (0, 2))  # interpolates only up to a rotation
    s, conjs = interpolating_section_from_hom(ls, u)
    assert s.map == (0, 2)
    assert len(conjs) == 1
    assert conjs[0] in {3, 4}  # a genuine rotation, inside the kernel image


def test_section_from_hom_rejects_non_bijective_composite():
    ls = c4_instance()
    with pytest.raises(ValidationError):
        interpolating_section_from_hom(ls, GroupHom(C2, C4, (0, 2)))


def test_section_from_hom_on_conjugate_local_sections():
    ls = s3_twisted_instance()
    # every transposition of S3 is conjugate, so a second local section
    # through another one is coherent with the first
    other = LocalSections(ls.ext, (ls.sections[0], GroupHom(C2, S3, (0, 5))))
    rep = verify_equivalences(other)
    assert rep.all_implications_hold
    # each hom with bijective projection interpolates both local sections,
    # up to conjugators in the embedded kernel
    homs = [u for u in enumerate_homs(C2, S3) if SIGN.map[u.map[1]] == 1]
    found = []
    for u in homs:
        s, conjs = interpolating_section_from_hom(other, u)
        assert other.ext.is_section(s)
        assert set(conjs) <= {0, 3, 4}
        found.append(conjs)
    assert found == [(0, 4), (4, 3), (3, 0)]


# ---------------------------------------------------------------------------
# towers


def test_tower_with_empty_top_level():
    e2 = direct_product(C3, C3)
    pi = GroupHom(e2, C3, tuple(x // 3 for x in e2.elements))
    ext = Extension(GroupHom(C3, e2, (0, 1, 2)), pi)
    ls = LocalSections(ext, (GroupHom(C3, e2, (0, 3, 6)), GroupHom(C3, e2, (0, 4, 8))))
    levels, maps = pushout_tower(ext, [full_subgroup(C3)])
    res = tower_limit_sections(levels, maps, ls)
    assert res.level_sizes == (0, 1)
    assert res.empty_levels == (0,)
    assert res.chain is None


def test_tower_chain_on_split_instance():
    ls = s3_twisted_instance()
    levels, maps = pushout_tower(
        ls.ext, [trivial_subgroup(C3), full_subgroup(C3)]
    )
    res = tower_limit_sections(levels, maps, ls)
    assert len(res.level_sizes) == 3
    assert res.empty_levels == ()
    assert res.chain is not None and len(res.chain) == 3
    for q, u, v in zip(maps, res.chain, res.chain[1:]):
        assert tuple(q.map[x] for x in u.map) == v.map


def test_tower_through_two_equal_subgroups():
    """A chain may repeat a subgroup: the two equal levels are joined by a
    bijection, and the witness chain passes through it."""
    ls = s3_twisted_instance()
    levels, maps = pushout_tower(
        ls.ext, [trivial_subgroup(C3), trivial_subgroup(C3), full_subgroup(C3)]
    )
    assert len(levels) == 4 and len(maps) == 3
    assert maps[1].source.order == 6 and is_bijective(maps[1])
    res = tower_limit_sections(levels, maps, ls)
    assert res.empty_levels == ()
    assert res.chain is not None and len(res.chain) == 4
    for q, u, v in zip(maps, res.chain, res.chain[1:]):
        assert tuple(q.map[x] for x in u.map) == v.map


def test_pushout_tower_rejects_descending_chain():
    ls = s3_twisted_instance()
    with pytest.raises(ValidationError):
        pushout_tower(ls.ext, [full_subgroup(C3), trivial_subgroup(C3)])


def test_tower_rejects_wrong_map_count():
    ls = s3_twisted_instance()
    levels, maps = pushout_tower(ls.ext, [full_subgroup(C3)])
    with pytest.raises(IncompatibleTower):
        tower_limit_sections(levels, (), ls)


def test_tower_rejects_foreign_local_sections():
    ls = s3_twisted_instance()
    levels, maps = pushout_tower(ls.ext, [full_subgroup(C3)])
    with pytest.raises(IncompatibleTower):
        tower_limit_sections(levels[1:], (), ls)


def _bad_input(case):
    ls = v4_instance()
    th = identity_hom(C2)
    (top, bottom), (q,) = pushout_tower(ls.ext, [full_subgroup(C2)])
    over_c3 = Extension(GroupHom(trivial_group(), C3, (0,)), identity_hom(C3))
    builds = {
        "family": lambda: LocalFamily(C2, (identity_hom(C4),)),
        "sections-target": lambda: LocalSections(top, (th,)),
        "transport": lambda: transport_family(ls.family, full_subgroup(V4)),
        "tower-base": lambda: tower_limit_sections((top, over_c3), (q,), ls),
        "tower-join": lambda: tower_limit_sections((top, bottom), (th,), ls),
        "tower-surjective": lambda: tower_limit_sections(
            (top, bottom), (GroupHom(V4, bottom.E, (0, 0, 0, 0)),), ls
        ),
        "tower-commute": lambda: tower_limit_sections(
            (top, bottom), (GroupHom(V4, bottom.E, (0, 1, 0, 1)),), ls
        ),
        "tower-kernel": lambda: pushout_tower(ls.ext, [full_subgroup(V4)]),
        "tower-top-none": lambda: pushout_tower(None, ()),
        "tower-subs-none": lambda: pushout_tower(ls.ext, None),
        "tower-subs-int": lambda: pushout_tower(ls.ext, 5),
        "tower-subs-str": lambda: pushout_tower(ls.ext, "ab"),
        "tower-sub-none": lambda: pushout_tower(ls.ext, [None]),
        "tower-maps-none": lambda: tower_limit_sections((top, bottom), None, ls),
        "tower-levels-none": lambda: tower_limit_sections(None, (), ls),
        "tower-ls-none": lambda: tower_limit_sections((top,), (), None),
        "section-maps": lambda: interpolating_section_from_hom(ls, th),
        # V4 is abelian, so only s_0 = (0, 2) is conjugate to u on its local
        "section-local": lambda: interpolating_section_from_hom(ls, GroupHom(C2, V4, (0, 2))),
    }
    return builds[case]


@pytest.mark.parametrize(
    "case, error, needle",
    [
        ("family", ValidationError, "local map 0 does not land in the base group"),
        ("sections-target", ValidationError, "local section 0 does not land in the middle group"),
        ("transport", ValidationError, "transport target must be a subgroup of the base"),
        ("tower-base", IncompatibleTower, "level 1 has a different base group"),
        ("tower-join", IncompatibleTower, "connecting map 0 does not join its levels"),
        ("tower-surjective", IncompatibleTower, "connecting map 0 is not surjective"),
        ("tower-commute", IncompatibleTower, "connecting map 0 does not commute"),
        ("tower-kernel", ValidationError, "tower subgroup 0 does not live in the kernel group"),
        ("tower-top-none", ValidationError, "tower top must be an Extension, not None"),
        ("tower-subs-none", ValidationError, "tower subgroups None is not a sequence"),
        ("tower-subs-int", ValidationError, "tower subgroups 5 is not a sequence"),
        ("tower-subs-str", ValidationError, "tower subgroup 0 must be a Subgroup, not 'a'"),
        ("tower-sub-none", ValidationError, "tower subgroup 0 must be a Subgroup, not None"),
        ("tower-maps-none", ValidationError, "connecting maps None is not a sequence"),
        ("tower-levels-none", ValidationError, "tower levels None is not a sequence"),
        ("tower-ls-none", ValidationError, "local sections must be a LocalSections, not None"),
        ("section-maps", ValidationError, "must map the base into the middle group"),
        ("section-local", ValidationError, "does not interpolate a local section"),
    ],
)
def test_families_sections_transport_and_towers_reject_bad_input(case, error, needle):
    build = _bad_input(case)
    with pytest.raises(error, match=needle):
        build()


# ---------------------------------------------------------------------------
# the descent deciders against a per-class-pair reference


def _restrict(theta, a):
    """The oracle's restriction of ``a`` along ``theta``, as a validated
    cocycle over the pulled-back system."""
    return Cocycle(pullback_coefficients(theta, a.parent), oracle_restrict(theta.map, a.values))


def _representatives(coeff):
    """Each H^1 class's least cocycle, built through the validator."""
    return [Cocycle(coeff, v) for v in h1(coeff).representative_values]


def _reference_failure(ls, coeff, class_filter=None):
    """The diagonal test as first written: every pullback rebuilt per pair."""
    coeff_e = pullback_coefficients(ls.ext.pi, coeff)
    checked = 0
    for alpha in _representatives(coeff_e):
        if class_filter is not None and not class_filter(alpha):
            continue
        checked += 1
        pulls = [
            Cocycle(
                pullback_coefficients(s, coeff_e),
                oracle_pullback(s.map, alpha.values, coeff_e.action, ls.ext.iota.map),
            )
            for s in ls.sections
        ]
        if not any(
            all(
                cohomologous(_restrict(theta, beta), pulls[i]) is not None
                for i, theta in enumerate(ls.family.thetas)
            )
            for beta in _representatives(coeff)
        ):
            return alpha, checked
    return None, checked


def _reference_check(ls, entries, class_filter=None):
    total = 0
    for entry in entries:
        bad, checked = _reference_failure(ls, entry.coeff, class_filter)
        total += checked
        if bad is not None:
            return DescentCheck(entry, bad, total)
    return DescentCheck(None, None, total)


def _reference_fibre(alpha, family):
    target = [_restrict(theta, alpha) for theta in family.thetas]
    return tuple(
        beta
        for beta in _representatives(alpha.parent)
        if all(
            cohomologous(_restrict(theta, beta), target[i]) is not None
            for i, theta in enumerate(family.thetas)
        )
    )


def _assert_same_check(got, want):
    assert (got.holds, got.failing_entry, got.failing_class, got.classes_checked) == (
        want.holds,
        want.failing_entry,
        want.failing_class,
        want.classes_checked,
    )


#: A slice of the acceptance-seed instances: the first twenty, plus five
#: on which (a), (a') and (a'') all fail.
REFERENCE_SLICE = tuple(range(20)) + (52, 53, 84, 101, 113)


@pytest.fixture(scope="module")
def acceptance_instances():
    return seeded_instances(20260822, 120, 16)


def _twisted_system(gamma):
    """The first catalog system over gamma with a nontrivial action, if any."""
    return next(
        (
            coeff
            for coeff in coefficient_catalog(gamma, 8)
            if any(row != tuple(coeff.M.elements) for row in coeff.action)
        ),
        None,
    )


def test_deciders_agree_with_the_per_pair_reference(acceptance_instances):
    failed = {"a": 0, "a'": 0, "a''": 0}
    twisted = 0
    for k in REFERENCE_SLICE:
        ls = acceptance_instances[k]
        user = _twisted_system(ls.ext.Gamma)
        extra = () if user is None else (CorpusEntry(user, USER_SUPPLIED),)
        twisted += bool(extra)
        corpus = standard_corpus(ls)
        with_extra = corpus + extra
        constant = tuple(e for e in corpus if e.provenance == CONSTANT_QUOTIENT)
        kernel_entries = tuple(e for e in corpus if e.provenance == A_QUOTIENT_SECTION)
        kernel_image = image(ls.ext.iota).elements

        def on_kernel(alpha):
            return len({alpha.values[e] for e in kernel_image}) == alpha.parent.M.order

        split = bool(enumerate_sections(ls.ext).sections)
        want = {
            "a": _reference_check(ls, corpus),
            "a'": _reference_check(ls, constant),
            "a''": _reference_check(ls, kernel_entries if split else constant, on_kernel),
        }
        got = {
            "a": decide_a(ls, corpus),
            "a'": decide_a_prime(ls),
            "a''": decide_a_doubleprime(ls),
        }
        report = verify_equivalences(ls)
        reported = {"a": report.a, "a'": report.a_prime, "a''": report.a_doubleprime}
        for name, check in reported.items():
            _assert_same_check(got[name], want[name])
            _assert_same_check(check, want[name])
            failed[name] += not want[name].holds
        want_extra = _reference_check(ls, with_extra)
        _assert_same_check(decide_a(ls, with_extra), want_extra)
        for entry in with_extra:
            for alpha in _representatives(entry.coeff):
                assert diagonal_fibre(alpha, ls.family) == _reference_fibre(alpha, ls.family)
    assert all(failed.values()), failed
    assert twisted >= len(REFERENCE_SLICE) // 2, twisted


def test_descent_builds_each_pulled_system_once_per_entry(acceptance_instances, monkeypatch):
    ls = acceptance_instances[74]
    original = GammaGroup.__post_init__
    built = []

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GammaGroup, "__post_init__", counting)
    check = decide_a_prime(ls)
    monkeypatch.undo()
    per_entry = 2 + len(ls.family.thetas) + len(ls.sections)
    assert check.holds and check.classes_checked > 100
    assert len(built) <= len(all_normal_subgroups(ls.ext.E)) * per_entry


def test_verify_enumerates_sections_once(acceptance_instances, monkeypatch):
    """verify_equivalences reads the sections once, through the private
    helper, and builds neither of enumerate_sections' partitions."""
    calls, partitions = [], []

    def counting(ext):
        calls.append(ext)
        return _sections(ext)

    monkeypatch.setattr("seclab.localglobal._sections", counting)
    monkeypatch.setattr(
        "seclab.extensions.partition_by_conjugation", lambda *args: partitions.append(args)
    )
    for ls in acceptance_instances[:20]:
        calls.clear()
        verify_equivalences(ls)
        assert calls == [ls.ext]
    assert partitions == []


def test_verify_decides_a_prime_through_the_public_decider(acceptance_instances, monkeypatch):
    """A wrapper around decide_a_prime, as a profiler or tracer installs,
    sees verify_equivalences' (a') decision and its class count."""
    seen = []

    def watching(ls, **kwargs):
        result = decide_a_prime(ls, **kwargs)
        seen.append(result)
        return result

    monkeypatch.setattr("seclab.localglobal.decide_a_prime", watching)
    for ls in acceptance_instances[:20]:
        seen.clear()
        report = verify_equivalences(ls)
        assert seen == [report.a_prime]
        assert report.a_prime == decide_a_prime(ls)


def test_decide_a_prime_reads_no_sections(acceptance_instances, monkeypatch):
    """(a') is read off the constant quotients alone, so the standalone
    decider never searches for a section, and it agrees with verify."""

    def refusing(ext):
        raise AssertionError("decide_a_prime searched for sections")

    for ls in acceptance_instances[:20]:
        want = verify_equivalences(ls).a_prime
        with monkeypatch.context() as patch:
            patch.setattr("seclab.localglobal._sections", refusing)
            assert decide_a_prime(ls) == want


def test_verify_builds_each_quotient_and_diagonal_once(acceptance_instances, monkeypatch):
    """Exactly one quotient per normal subgroup of E, which the constant and
    the kernel quotients share, and at most one pullback per local map and
    one along the projection for each distinct coefficient system, over
    split and non-split instances."""
    quotients, pullbacks = [], []

    def counting_quotient(group, sub):
        quotients.append(sub)
        return quotient(group, sub)

    def counting_pullback(along, coeff):
        pullbacks.append(coeff)
        return pullback_coefficients(along, coeff)

    monkeypatch.setattr("seclab.localglobal.quotient", counting_quotient)
    monkeypatch.setattr("seclab.localglobal.pullback_coefficients", counting_pullback)
    kinds = set()
    for ls in acceptance_instances:
        quotients.clear()
        pullbacks.clear()
        verify_equivalences(ls)
        split = bool(enumerate_sections(ls.ext).sections)
        kinds.add(split)
        assert quotients == list(all_normal_subgroups(ls.ext.E))
        per_system = Counter(pullbacks)
        assert max(per_system.values()) <= len(ls.family.thetas) + 1
    assert kinds == {True, False}


def test_verify_builds_no_cocycle_record_per_class(acceptance_instances, monkeypatch):
    """The deciders label classes by their value tuples: from cold caches,
    verify_equivalences never enumerates cocycle records and builds one
    cocycle for each failing check's reported class, none for the rest."""
    enumerated, built = [], []
    trusted, enumerate_cocycles = cohomology._trusted, cohomology.enumerate_cocycles

    def counting_trusted(cls, *values):
        if cls is Cocycle:
            built.append(values)
        return trusted(cls, *values)

    def counting_enumerate(coeff):
        enumerated.append(coeff)
        return enumerate_cocycles(coeff)

    monkeypatch.setattr(cohomology, "_trusted", counting_trusted)
    monkeypatch.setattr(localglobal, "_trusted", counting_trusted)
    monkeypatch.setattr(cohomology, "enumerate_cocycles", counting_enumerate)
    failing = 0
    for ls in acceptance_instances:
        h1.cache_clear()
        enumerate_cocycles.cache_clear()
        built.clear()
        report = verify_equivalences(ls)
        checks = {id(c): c for c in (report.a, report.a_prime, report.a_doubleprime)}
        fails = sum(not c.holds for c in checks.values())
        assert enumerated == []
        assert len(built) <= fails, (len(built), fails)
        failing += fails
    assert failing > 0


# ---------------------------------------------------------------------------
# the verdict census


def _census_instances():
    """Every instance of the census space, in a fixed order.

    The extensions are those of ``preset_extensions(16)`` with a
    nontrivial kernel and base, each equal ``(iota, pi)`` once.  The
    locals are one or two inclusions of nontrivial subgroups of the base
    that have a lift, drawn with repetition and without order, and each
    combination of their lifts is one instance.
    """
    exts = dict.fromkeys(
        ext for _, ext in preset_extensions(16) if ext.A.order > 1 and ext.Gamma.order > 1
    )
    for ext in exts:
        inclusions = (
            subgroup_as_group(sub)[1] for sub in all_subgroups(ext.Gamma) if len(sub.elements) > 1
        )
        lifted = [lifts for lifts in (_lifts_through(ext.pi, t) for t in inclusions) if lifts]
        for locals_ in chain(*(combinations_with_replacement(lifted, k) for k in (1, 2))):
            for sections in product(*locals_):
                yield LocalSections(ext, sections)


def _pattern_manifest(least):
    """The manifest of ``tests/golden/census-patterns.manifest``: each
    pattern's instance, in pattern order, as ``sections p<PATTERN>`` with
    one ``verify`` job and every ``decide`` job."""
    b = ManifestBuilder()
    b.comment("the least census instance of each verdict pattern (dense, split, a, a', a'', b, c)")
    for pattern, ls in sorted(least.items()):
        name = b.add_sections(ls, f"p{pattern}")
        b.add_job("verify", name)
        for variant in ("a", "a'", "a''", "b", "c"):
            b.add_job("decide", name, variant)
    return b.text()


def test_verdict_census_over_inclusion_locals():
    """
    Every instance of the census space satisfies the implication diagram,
    and the space shows exactly these verdict patterns, each the tuple
    (dense, split, a, a', a'', b, c), with these instance counts.  The
    instance of each pattern with the least middle group, the first in
    census order among ties, is pinned in
    ``tests/golden/census-patterns.manifest`` by :func:`_pattern_manifest`.

    The group space is the presets up to order 16.  They hold every group
    up to order 15 but only 5 of the 14 groups of order 16, so the pattern
    set is complete for middle groups up to order 15 only.
    """
    patterns = Counter()
    least = {}
    for ls in _census_instances():
        report = verify_equivalences(ls)
        assert report.all_implications_hold, ls
        verdicts = (
            report.density, report.split, report.a.holds, report.a_prime.holds,
            report.a_doubleprime.holds, report.holds_b, report.holds_c,
        )
        pattern = "".join("FT"[v] for v in verdicts)
        patterns[pattern] += 1
        if pattern not in least or ls.ext.E.order < least[pattern].ext.E.order:
            least[pattern] = ls
    assert dict(patterns) == {
        "FFFFFFF": 6,
        "FFFFTFF": 86,
        "FFTTTTF": 146,
        "FTFFFFF": 102,
        "FTTTTTT": 304,
        "TTFFFFF": 502,
        "TTTTTTT": 752,
    }
    assert _pattern_manifest(least) == (GOLDEN / "census-patterns.manifest").read_text()
