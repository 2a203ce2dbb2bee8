"""Property-based checks drawn from the preset catalog."""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import random
import re
import typing
from pathlib import Path

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
    oracle_interpolates,
    oracle_is_action,
    oracle_is_cocycle,
    oracle_is_group,
    oracle_is_hom,
    oracle_is_subgroup,
    oracle_perm_closure,
    oracle_perm_table,
    relabel,
    relabel_table,
)
import seclab
from seclab import catalog, localglobal
from seclab.catalog import (
    coefficient_catalog,
    preset_extensions,
    preset_group,
    preset_groups,
    seeded_instances,
    seeded_transport_pairs,
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
    ValidationError,
)
from seclab.extensions import Extension, enumerate_sections, lifts_up_to_conjugacy
from seclab.groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _derivation_search,
    _extension_group,
    _Record,
    all_normal_subgroups,
    all_subgroups,
    automorphism_group,
    compose,
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
    quotient,
    subgroup_as_group,
    trivial_group,
    union_of_conjugates,
)
from seclab.localglobal import (
    A_QUOTIENT_SECTION,
    LocalFamily,
    LocalSections,
    _corpora,
    diagonal_fibre,
    verify_equivalences,
)
from seclab.manifest import ManifestBuilder, generate_corpus, parse_manifest, run_program


def _drawn_from(build):
    """A strategy drawing from ``build()``, which runs at the first draw.

    The coefficient pools go through the validators under test, so they
    are not built at import: a validator that wrongly rejects a pool member
    then fails each property that draws from it, not the whole module.
    """
    return st.deferred(lambda: st.sampled_from(build()))


SmallNames = st.sampled_from([g.label for g in preset_groups(10)])
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


@functools.lru_cache(maxsize=None)
def nonabelian_systems():
    """Constant systems over the nonabelian presets S3, D4 and Q8, for every
    preset base small enough for the oracles.  Twisting by a generator of M
    outside its centre moves some key, so h1 must search orbits here."""
    return [
        constant_coefficients(gamma, preset_group(name))
        for name in ("S3", "D4", "Q8")
        for gamma in preset_groups(8)
        if preset_group(name).order ** gamma.order <= ORACLE_BUDGET
    ]


NonabelianSystems = _drawn_from(nonabelian_systems)


def _identity_twist_moves(coeff):
    """For each generator c of M, does ``a -> c^-1 * a * g(c)`` fix every a,
    for every generator g of gamma?"""
    m = coeff.M
    return [
        all(
            m.mul(m.mul(m.inv(c), a), coeff.action[g][c]) == a
            for g in generating_set(coeff.gamma)
            for a in m.elements
        )
        for c in generating_set(m)
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


def _key(coeff, values):
    """A cocycle's key in ``h1(coeff).class_by_key``: its values on the
    generators of gamma, bare for one generator and ``()`` for none."""
    key = tuple(values[g] for g in generating_set(coeff.gamma))
    return key[0] if len(key) == 1 else key


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
        assert classes.class_by_key[_key(rep.parent, rep.values)] == i
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
        index = classes.class_by_key
        same = index[_key(coeff, a.values)] == index[_key(coeff, b.values)]
        assert same == (cohomologous(a, b) is not None), (a, b)


@given(Extensions)
@settings(deadline=None)
def test_enumerated_sections_are_sections(ext):
    """
    Every enumerated section splits the projection, and the kernel-conjugacy
    classes partition the sections.
    """
    report = enumerate_sections(ext)
    for s in report.sections:
        assert ext.is_section(s)
    assert sorted(j for cls in report.classes_mod_A for j in cls) == list(range(report.count))


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


@functools.lru_cache(maxsize=None)
def _descent_instances():
    return seeded_instances(20260822, 200, 24)


def _moved(group, perm):
    return group_from_table(relabel_table(group.table, perm))


def _verdicts(report):
    return (
        report.density, report.split, report.a.holds, report.a_prime.holds,
        report.a_doubleprime.holds, report.holds_b, report.holds_c, report.implications,
    )


def _class_counts(ext):
    report = enumerate_sections(ext)
    return report.count, len(report.classes_mod_A)


@given(st.integers(0, 199), st.data())
@settings(deadline=None, max_examples=200)
def test_descent_verdicts_do_not_depend_on_the_numbering(i, data):
    """
    A seeded instance with E, the base, A and every local source renamed
    by drawn permutations has the same verdicts, implication tuple,
    section class counts and number of lift classes of each local map, and
    its old (b) and (c) witnesses, renamed, are witnesses of the new
    instance by the definitions.  ``classes_checked`` is left out: the
    corpus dedupes systems by table, which the numbering moves.
    """
    ls = _descent_instances()[i]
    ext = ls.ext
    p_a, p_e, p_gamma = (data.draw(st.permutations(g.elements)) for g in (ext.A, ext.E, ext.Gamma))
    a, e, gamma = _moved(ext.A, p_a), _moved(ext.E, p_e), _moved(ext.Gamma, p_gamma)
    moved_ext = Extension(
        GroupHom(a, e, relabel(ext.iota.map, p_a, p_e)),
        GroupHom(e, gamma, relabel(ext.pi.map, p_e, p_gamma)),
    )
    sections = []
    for s in ls.sections:
        p_s = data.draw(st.permutations(s.source.elements))
        sections.append(GroupHom(_moved(s.source, p_s), e, relabel(s.map, p_s, p_e)))
    moved = LocalSections(moved_ext, tuple(sections))
    before, after = verify_equivalences(ls), verify_equivalences(moved)
    assert _verdicts(after) == _verdicts(before)
    assert _class_counts(moved_ext) == _class_counts(ext)
    for theta, moved_theta in zip(ls.family.thetas, moved.family.thetas):
        assert len(lifts_up_to_conjugacy(moved_ext, moved_theta)) == len(
            lifts_up_to_conjugacy(ext, theta)
        )
    pi, locs = moved_ext.pi.map, [t.map for t in sections]
    if before.b is not None:
        u = relabel(before.b.map, p_gamma, p_e)
        assert oracle_is_hom(gamma.table, e.table, u)
        assert oracle_interpolates(e.table, pi, u, locs, e.elements)
    if before.c is not None:
        u = relabel(before.c.map, p_gamma, p_e)
        assert oracle_is_hom(gamma.table, e.table, u)
        assert all(pi[u[x]] == x for x in gamma.elements)
        assert oracle_interpolates(e.table, pi, u, locs, moved_ext.iota.map)


@given(st.sampled_from(preset_groups(8)), st.sampled_from(preset_groups(8)), st.data())
@settings(deadline=None, max_examples=100)
def test_counts_and_fibres_do_not_depend_on_the_numbering(gamma, m, data):
    """
    Renaming the elements of the base, of a target group, of a system's
    coefficient group and of each local source by drawn permutations keeps
    the number of homomorphisms, the number of H^1 classes, and the size of
    a drawn class's diagonal fibre over a drawn family of inclusions.
    """
    perm = lambda group: data.draw(st.permutations(group.elements))
    p_gamma, p_m = perm(gamma), perm(m)
    moved_gamma = _moved(gamma, p_gamma)
    assert len(enumerate_homs(moved_gamma, _moved(m, p_m))) == len(enumerate_homs(gamma, m))
    coeff = data.draw(st.sampled_from(coefficient_catalog(gamma, 4)))
    p_c = perm(coeff.M)
    rows = tuple(relabel(coeff.action[old], p_c, p_c) for old in p_gamma)
    moved_coeff = GammaGroup(moved_gamma, _moved(coeff.M, p_c), rows)
    over, moved_over = h1(coeff), h1(moved_coeff)
    assert moved_over.class_count == over.class_count
    subs = data.draw(st.lists(st.sampled_from(all_subgroups(gamma)), max_size=3))
    thetas, moved_thetas = [], []
    for sub in subs:
        theta = subgroup_as_group(sub)[1]
        p_s = perm(theta.source)
        thetas.append(theta)
        moved_thetas.append(
            GroupHom(_moved(theta.source, p_s), moved_gamma, relabel(theta.map, p_s, p_gamma))
        )
    alpha = data.draw(st.sampled_from(over.representatives))
    moved_alpha = Cocycle(moved_coeff, relabel(alpha.values, p_gamma, p_c))
    fibre = diagonal_fibre(alpha, LocalFamily(gamma, tuple(thetas)))
    moved_family = LocalFamily(moved_gamma, tuple(moved_thetas))
    assert len(diagonal_fibre(moved_alpha, moved_family)) == len(fibre)


class _Renamed:
    """Declared objects with each group's elements renamed by a seeded
    permutation, one per group: new element i is old element ``perm[i]``."""

    def __init__(self, seed: int) -> None:
        self.rnd = random.Random(seed)
        self.perms = {}

    def perm(self, group):
        if group not in self.perms:
            perm = list(group.elements)
            self.rnd.shuffle(perm)
            self.perms[group] = perm, group_from_table(relabel_table(group.table, perm), group.label)
        return self.perms[group][0]

    def elements(self, group, value: str) -> str:
        """A ``gens=`` list of elements of ``group``, renamed."""
        back = {old: new for new, old in enumerate(self.perm(group))}
        return ",".join(str(back[int(x)]) for x in value.split(",")) if value else value

    def __call__(self, obj):
        if isinstance(obj, GroupHom):
            src, tgt = obj.source, obj.target
            return GroupHom(self(src), self(tgt), relabel(obj.map, self.perm(src), self.perm(tgt)))
        if isinstance(obj, GammaGroup):
            p_m = self.perm(obj.M)
            rows = tuple(relabel(obj.action[old], p_m, p_m) for old in self.perm(obj.gamma))
            return GammaGroup(self(obj.gamma), self(obj.M), rows)
        if isinstance(obj, Extension):
            return Extension(self(obj.iota), self(obj.pi))
        if isinstance(obj, LocalFamily):
            return LocalFamily(self(obj.gamma), tuple(map(self, obj.thetas)))
        if isinstance(obj, LocalSections):
            return LocalSections(self(obj.ext), tuple(map(self, obj.sections)))
        self.perm(obj)
        return self.perms[obj][1]


def _renamed_manifest(text: str, seed: int) -> str:
    """The manifest's jobs, rewritten by ``ManifestBuilder`` over renamed
    copies of their objects, with element-valued options renamed too."""
    program, renamed, b = parse_manifest(text), _Renamed(seed), ManifestBuilder()
    adders = {
        FiniteGroup: b.add_group, GroupHom: b.add_hom, Extension: b.add_extension,
        GammaGroup: b.add_coeff, LocalFamily: b.add_family, LocalSections: b.add_sections,
    }

    def add(name: str) -> str:
        obj = program.names[name]
        return adders[type(obj)](renamed(obj))

    for job in program.jobs:
        target, options = program.names[job.target], dict(job.options)
        for key in ("exts", "maps", "coeff"):
            if key in options:
                options[key] = ",".join(map(add, options[key].split(",")))
        if "gens" in options:
            group = target.A if isinstance(target, Extension) else target
            options["gens"] = renamed.elements(group, options["gens"])
        if "alpha" in options:
            coeff = program.names[job.option("coeff")]
            values = [int(x) for x in options["alpha"].split(",")]
            moved = relabel(values, renamed.perm(coeff.gamma), renamed.perm(coeff.M))
            options["alpha"] = ",".join(map(str, moved))
        b.add_job(job.command, add(job.target), job.variant, **options)
    return b.text()


#: Report fields that name elements, or a system or class met first in an
#: order the numbering sets: a failing descent reports the first failing
#: system of its corpus and that system's least failing class.
_NUMBERED = {
    "target", "line", "witness", "representatives", "failing_provenance",
    "failing_module_order", "failing_class",
}


def _numbering_free(result):
    """A job report's verdicts, counts and orders: ``_NUMBERED`` fields
    dropped, a partition read as its class sizes and a list as its length."""
    free = {}
    for key, value in result.items():
        if key in _NUMBERED:
            continue
        if key == "classes_mod_kernel":
            value = sorted(map(len, value))
        elif key in ("classes", "chain") and isinstance(value, list):
            value = len(value)
        free[key] = value
    return free


@pytest.mark.parametrize("seed", (20260822, 7))
def test_gen_reports_do_not_depend_on_the_numbering(seed):
    """
    ``gen --max-order 12`` rebuilt with every group renamed by a seeded
    permutation gives, job by job, the golden report's verdicts, counts
    and orders.
    """
    golden = Path(__file__).parent / "golden" / f"gen-max12-seed{seed}"
    text = _renamed_manifest(golden.with_suffix(".manifest").read_text(), seed)
    assert text != golden.with_suffix(".manifest").read_text()
    results, code = run_program(parse_manifest(text), timing=False)
    want = json.loads(golden.with_suffix(".json").read_text())["jobs"]
    assert code == 0
    assert [_numbering_free(r) for r in results] == [_numbering_free(r) for r in want]


@given(MediumGroups, st.data())
@settings(deadline=None)
def test_conjugate_unions_respect_the_index_bound(group, data):
    """
    The pooled conjugates of a subgroup cover the group only at index one.
    """
    sub = data.draw(st.sampled_from(all_subgroups(group)))
    cover = union_of_conjugates(sub)
    assert len(cover.union) <= cover.bound
    assert cover.covers == (cover.index == 1)


@given(st.sampled_from([g.label for g in preset_groups(12)]))
def test_manifest_group_roundtrip(name):
    """
    A group declared by the builder parses back to the same table.
    """
    group = preset_group(name)
    builder = ManifestBuilder()
    declared = builder.add_group(group)
    program = parse_manifest(builder.text())
    assert program.names[declared].table == group.table


@given(Seeds)
@settings(deadline=None, max_examples=10)
def test_corpus_generation_is_reproducible(seed):
    """
    The generated corpus depends only on its bound and seed.
    """
    assert generate_corpus(8, seed) == generate_corpus(8, seed)


@given(st.one_of(TwistedSystems, Systems))
@settings(deadline=None)
def test_h1_value_table_and_its_views(coeff):
    """
    h1 keeps the oracle's cocycle value tuples; its class map holds exactly
    one key per oracle cocycle, its values on the generators of gamma, and
    sends it to the class that holds that cocycle; its representative
    records equal cocycles built through the validator.
    """
    classes = h1(coeff)
    tables = (coeff.gamma.table, coeff.M.table, coeff.action)
    oracle = oracle_cocycles(*tables)
    assert list(classes.values) == oracle
    index = classes.class_by_key
    assert set(index) == {_key(coeff, v) for v in oracle} and len(index) == len(oracle)
    for j, v in enumerate(oracle):
        assert j in classes.classes[index[_key(coeff, v)]]
    reps = classes.representatives
    assert len(reps) == len(classes.representative_values) == classes.class_count
    for rep, v in zip(reps, classes.representative_values):
        checked = Cocycle(coeff, v)
        assert rep == checked and hash(rep) == hash(checked)


@given(st.sampled_from(HOM_PAIRS))
@settings(deadline=None)
def test_hom_search_matches_the_oracle(pair):
    """
    The derivation search finds exactly the oracle's homomorphisms.
    """
    src, tgt = pair
    found = [h.map for h in enumerate_homs(src, tgt)]
    assert found == oracle_homs(src.table, tgt.table)


def test_hom_search_into_automorphism_groups_matches_the_oracle():
    """
    The search finds exactly the oracle's homomorphisms into every Aut(M)
    table, as the census set-up uses them, wherever the oracle can afford
    it: 104 pairs, 40 with a source of two or more generators, where 258
    of their 471 candidates are rejected.
    """
    pairs = [
        (gamma, automorphism_group(m)[0])
        for gamma in preset_groups(8)
        for m in preset_groups(8)
        if automorphism_group(m)[0].order ** gamma.order <= ORACLE_BUDGET
    ]
    assert len(pairs) == 104
    assert sum(len(generating_set(gamma)) >= 2 for gamma, _ in pairs) == 40
    for gamma, aut in pairs:
        found = [h.map for h in enumerate_homs(gamma, aut)]
        assert found == oracle_homs(gamma.table, aut.table), (gamma, aut)


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


@given(st.one_of(TwistedSystems, Systems))
@settings(deadline=None)
def test_closing_edges_accept_exactly_the_oracle_cocycles(coeff):
    """
    Propagating generator values and checking only the closing edges
    accepts exactly the assignments that extend to a cocycle, without the
    search's twisted-norm filter in front of it.
    """
    gamma, m = coeff.gamma, coeff.M
    gens = generating_set(gamma)
    want = {
        tuple(a[g] for g in gens): a
        for a in oracle_cocycles(gamma.table, m.table, coeff.action)
    }
    for images in itertools.product(m.elements, repeat=len(gens)):
        found = _derivation_search(gamma, m, coeff.action, [(c,) for c in images])
        assert found == ((want[images],) if images in want else ())


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
    relabelled = relabel_table(group.table, data.draw(st.permutations(range(n))))
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


def test_pools_hold_every_kind_of_twist_system():
    """
    Across the pools some system has every twist move the identity (h1's
    singleton branch), some has none and some has a mix; on the nonabelian
    pool the singleton branch never fires.
    """
    kinds = {
        (all(moves), any(moves))
        for moves in map(_identity_twist_moves, systems() + nonabelian_systems())
    }
    assert kinds == {(True, True), (False, False), (False, True)}
    assert nonabelian_systems()
    assert not any(all(_identity_twist_moves(coeff)) for coeff in nonabelian_systems())


@given(st.one_of(TwistedSystems, Systems, NonabelianSystems))
@settings(deadline=None)
def test_h1_classes_match_the_all_twists_oracle(coeff):
    """
    h1 twists generator values by generators of M; its classes must be the
    oracle's, which twists full value tuples by every element of M.
    """
    tables = (coeff.gamma.table, coeff.M.table, coeff.action)
    assert list(h1(coeff).classes) == oracle_h1_classes(*tables)


def _every_generator_classes(coeff):
    """The classes of h1's cocycles, found by twisting each cocycle's key,
    its values on the generators of gamma, by every generator of M, none
    dropped, and closing under those twists."""
    m, mt, gens = coeff.M, coeff.M.table, generating_set(coeff.gamma)
    keys = [tuple(v[g] for g in gens) for v in h1(coeff).values]
    index = {key: i for i, key in enumerate(keys)}
    # twists[k][i][a] is c^-1 * a * g_i(c), for c the k-th generator of M
    twists = [
        [[mt[m.inverse[c]][mt[a][coeff.action[g][c]]] for a in m.elements] for g in gens]
        for c in generating_set(m)
    ]
    classes, classed = [], set()
    for key in keys:
        if index[key] in classed:
            continue
        orbit, frontier = {key}, [key]
        while frontier:
            nxt = []
            for k in frontier:
                for tw in twists:
                    moved = tuple(row[a] for row, a in zip(tw, k))
                    if moved not in orbit:
                        orbit.add(moved)
                        nxt.append(moved)
            frontier = nxt
        members = sorted(index[k] for k in orbit)
        classed.update(members)
        classes.append(tuple(members))
    return tuple(classes)


def test_h1_classes_match_the_every_generator_partition():
    """
    h1 builds twist rows only for the generators of M that move some key:
    none over the trivial base or for a trivial action on an abelian M.
    Its classes must be those that twisting by every generator of M gives,
    over every catalog system with |M| <= 8 on the trivial base and on each
    preset base up to order 8: trivial and nontrivial bases, abelian and
    nonabelian M, trivial and nontrivial actions.
    """
    kinds = set()
    for gamma in (trivial_group(), *preset_groups(8)):
        for coeff in coefficient_catalog(gamma, 8):
            assert h1(coeff).classes == _every_generator_classes(coeff), coeff
            mt, ident = coeff.M.table, tuple(coeff.M.elements)
            trivial_action = all(row == ident for row in coeff.action)
            kinds.add((gamma.order > 1, mt == tuple(zip(*mt)), trivial_action))
    assert kinds == {
        (False, True, True), (False, False, True),
        (True, True, True), (True, True, False), (True, False, True), (True, False, False),
    }


def test_section_partitions_match_the_all_conjugators_oracle():
    """
    The section partition, found from generators of the kernel, equals
    the partitions that try every conjugator in the kernel and in E.  The
    second is the theorem in ``SectionReport``'s docstring: conjugating by
    E gives no class that conjugating by the kernel does not.
    """
    for _, ext in preset_extensions(24):
        report = enumerate_sections(ext)
        maps = [s.map for s in report.sections]
        table = ext.E.table
        assert list(report.classes_mod_A) == oracle_conjugation_classes(
            table, maps, ext.iota.map
        )
        assert list(report.classes_mod_A) == oracle_conjugation_classes(
            table, maps, ext.E.elements
        )


# --- derived objects built unchecked against their validators ---------------


def test_composites_equal_validated_homs():
    """
    Every composite of two searched homs between groups of order at most
    6, built without validation, passes the validating constructor.
    """
    groups = preset_groups(6)
    for a, b, c in itertools.product(groups, repeat=3):
        for inner in enumerate_homs(a, b):
            for outer in enumerate_homs(b, c):
                h = compose(outer, inner)
                checked = GroupHom(a, c, h.map)
                assert h == checked and hash(h) == hash(checked)


@pytest.mark.parametrize("seed", [20260822, 7, 1])
def test_seeded_lifts_pass_the_hom_validator(seed):
    """
    Every local section of a seeded instance, built without validation,
    passes the hom validator.
    """
    instances = seeded_instances(seed, 120, 24)
    for ls in instances:
        for s in ls.sections:
            s.__post_init__()
    assert sum(len(ls.sections) for ls in instances) > 100


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


def test_preset_tables_equal_validated_groups():
    """
    Every preset group, and the direct product of each pair of presets up
    to order 24, built without validation, equals the group validated from
    its own table.
    """
    presets = preset_groups(64)
    pairs = [(g, h) for g in presets for h in presets if g.order * h.order <= 24]
    for group in (*presets, *itertools.starmap(direct_product, pairs)):
        checked = group_from_table(group.table)
        assert group == checked and hash(group) == hash(checked), group.label


def _pairs_as_extension(group, m, gamma):
    """``group`` on pairs x + |m|·g read as an extension of gamma by m:
    iota(x) = x + |m|·e and pi(x) = x // |m|."""
    size = m.order
    iota = GroupHom(m, group, tuple(x + size * gamma.identity for x in m.elements))
    return Extension(iota, GroupHom(group, gamma, tuple(x // size for x in group.elements)))


def test_extension_law_sections_number_h1_classes():
    """
    The split group the extension law builds from each coefficient system
    over a preset of order at most 6 equals the group validated from its
    own table, and its sections up to conjugation by M are as many as the
    classes of H^1, M abelian or not (Serre, *Galois Cohomology*, I §5).
    So do C2³ acting trivially on C2³ and on C2⁴, with 512 and 4,096
    classes in split groups of order 64 and 128.  The sweep stays at 6:
    at 8 it takes about 10 s and 140 MB, too slow for tier-1.
    Each dicyclic preset, read through the same maps over C2, has no
    section: its factor set is not a coboundary.
    """
    c2_3 = preset_group("C2xC2xC2")
    systems = [coeff for gamma in preset_groups(6) for coeff in coefficient_catalog(gamma, 6)]
    systems += [constant_coefficients(c2_3, m) for m in (c2_3, direct_product(c2_3, cyclic_group(2)))]
    for coeff in systems:
        gamma, m = coeff.gamma, coeff.M
        trivial = ((m.identity,) * gamma.order,) * gamma.order
        split = _extension_group(m, gamma, coeff.action, trivial, None)
        checked = group_from_table(split.table)
        assert split == checked and hash(split) == hash(checked)
        ext = _pairs_as_extension(split, m, gamma)
        assert len(enumerate_sections(ext).classes_mod_A) == h1(coeff).class_count
    assert [h1(coeff).class_count for coeff in systems[-2:]] == [512, 4096]
    for n in (2, 3, 4, 6):
        dic = catalog.dicyclic_group(n)
        assert dic in preset_groups(64)
        ext = _pairs_as_extension(dic, cyclic_group(2 * n), cyclic_group(2))
        assert not enumerate_sections(ext).sections, dic.label


def test_subgroups_as_groups_equal_validated_groups():
    """
    Every subgroup of a preset group, re-tabulated without validation,
    equals the group validated from its own table, and its inclusion is a
    valid hom.
    """
    for group in preset_groups(24):
        for sub in all_subgroups(group):
            grp, incl = subgroup_as_group(sub)
            checked = group_from_table(grp.table)
            assert grp == checked and hash(grp) == hash(checked)
            assert incl == GroupHom(grp, group, sub.elements)


def _check_permutation_group(degree, gens):
    """The group and perms built from the closure's Cayley graph are the
    all-pairs oracle's, and the group is the one validated from its table."""
    group, perms = group_from_permutations(degree, gens)
    assert list(perms) == oracle_perm_closure(degree, gens)
    table = oracle_perm_table(degree, gens)
    assert [list(row) for row in group.table] == table
    assert oracle_is_group(table)
    checked = group_from_table(table)
    assert group == checked and hash(group) == hash(checked)
    assert (group.identity, group.inverse) == (checked.identity, checked.inverse)
    return group


def test_permutation_presets_equal_the_all_pairs_oracles(monkeypatch):
    """
    Every permutation preset, tabulated without validation along its
    closure, has the oracle's elements and table and is a group.
    """
    calls = []
    build = catalog.group_from_permutations

    def recording_build(degree, gens, label=None):
        calls.append((degree, gens, label))
        return build(degree, gens, label)

    monkeypatch.setattr(catalog, "group_from_permutations", recording_build)
    catalog.preset_groups.__wrapped__(64)  # past the cache, so every preset is built
    assert {label[0] for _, _, label in calls} == {"A", "D", "S"}
    for degree, gens, label in calls:
        group = _check_permutation_group(degree, gens)
        assert group == preset_group(label)


@st.composite
def _permutation_generators(draw):
    """A degree 0-6 and up to four generators, sometimes with the identity
    and a repeated generator among them."""
    degree = draw(st.integers(0, 6))
    perm = st.permutations(range(degree)).map(tuple)
    gens = draw(st.lists(perm, max_size=3))
    if gens and draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), draw(st.sampled_from(gens)))
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), tuple(range(degree)))
    return degree, gens


@given(_permutation_generators())
@settings(deadline=None)
def test_drawn_permutation_groups_equal_the_all_pairs_oracles(drawn):
    """
    A closure of drawn generators, tabulated without validation, has the
    oracle's elements and table and is a group.  Closures over 60
    elements are left out: the all-triples oracle is cubic.
    """
    degree, gens = drawn
    assume(group_from_permutations(degree, gens)[0].order <= 60)
    _check_permutation_group(degree, gens)


def test_cyclic_groups_equal_validated_groups():
    """
    Each cyclic group, built as rotations of its elements without
    validation, equals the group validated from the (a + b) mod n table.
    """
    for n in range(1, 65):
        group = cyclic_group(n)
        checked = group_from_table([[(a + b) % n for b in range(n)] for a in range(n)])
        assert group == checked and hash(group) == hash(checked)
        assert group.label == f"C{n}"


def test_kernel_quotient_systems_equal_validated_systems():
    """
    Every kernel-quotient system of a preset extension, built without
    validation, equals the validated system with the same rows.
    """
    built = 0
    for _, ext in preset_extensions(16):
        for entry in _corpora(ext, enumerate_sections(ext).sections)[1]:
            if entry.provenance != A_QUOTIENT_SECTION:
                continue
            coeff = entry.coeff
            checked = GammaGroup(coeff.gamma, coeff.M, coeff.action)
            assert coeff == checked and hash(coeff) == hash(checked)
            built += 1
    assert built > 0


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
    checked = GammaGroup(src, coeff.M, pulled.action)
    assert pulled == checked and hash(pulled) == hash(checked)
    constant = constant_coefficients(src, coeff.M)
    assert constant == GammaGroup(src, coeff.M, constant.action)


RECORD_CLASSES = [
    obj
    for obj in map(vars(seclab).get, seclab.__all__)
    if isinstance(obj, type) and issubclass(obj, _Record)
]


def _records_of_each_kind():
    c2 = cyclic_group(2)
    v4 = direct_product(c2, c2)
    coeff = constant_coefficients(c2, c2)
    ext = Extension(GroupHom(c2, v4, (0, 1)), GroupHom(v4, c2, (0, 0, 1, 1)))
    family = LocalFamily(c2, (identity_hom(c2),))
    return [c2, v4, identity_hom(c2), coeff, Cocycle(coeff, (0, 0)), ext, family]


Junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.integers()
    | st.just(5000).map(lambda digits: 10**digits)  # just(10**5000) has no printable repr
    | st.floats()
    | st.text(max_size=3)
    | _drawn_from(_records_of_each_kind),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


ENTRY_POINTS = [
    obj
    for obj in map(vars(localglobal).get, localglobal.__all__)
    if callable(obj) and not isinstance(obj, type)
]


@functools.lru_cache(maxsize=None)
def _entry_arguments():
    """Valid arguments for every entry point of ``localglobal``, by parameter name."""
    ls = seeded_instances(20260822, 1, 16)[0]
    gamma = ls.ext.Gamma
    levels, maps = localglobal.pushout_tower(ls.ext, [full_subgroup(ls.ext.A)])
    alpha = h1(constant_coefficients(gamma, cyclic_group(2))).representatives[0]
    return {
        "family": ls.family, "sub": full_subgroup(gamma), "alpha": alpha, "ls": ls,
        "u": ls.ext.iota, "corpus": (), "ext": ls.ext, "subs": (), "levels": levels,
        "maps": maps,
    }


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda entry: entry.__name__)
@given(st.integers())
@settings(deadline=None, max_examples=10)
def test_localglobal_entry_points_end_junk_records_in_a_validation_error(entry, number):
    """
    Every function of ``localglobal.__all__``, called with valid arguments
    but one record argument (a parameter annotated with a record class),
    which is None, an int or a record of another kind, raises the
    ValidationError that names the record class.  No function is exempt.
    """
    valid = _entry_arguments()
    hints = typing.get_type_hints(entry)
    params = [p.name for p in inspect.signature(entry).parameters.values() if p.default is p.empty]
    records = [n for n in params if isinstance(hints[n], type) and issubclass(hints[n], _Record)]
    assert records, entry
    for name in records:
        other = next(r for r in (valid["ls"], valid["family"]) if not isinstance(r, hints[name]))
        for junk in (None, number, other):
            args = {n: junk if n == name else valid[n] for n in params}
            with pytest.raises(ValidationError, match=f" must be an? {hints[name].__name__}, "):
                entry(**args)


#: Builders that take raw values: a size, a seed, a name, a base group or manifest text.
BUILDERS = [
    preset_group,
    preset_groups,
    preset_extensions,
    coefficient_catalog,
    seeded_instances,
    seeded_transport_pairs,
    generate_corpus,
    parse_manifest,
]


@given(st.sampled_from(RECORD_CLASSES + BUILDERS), st.data())
@settings(deadline=None, max_examples=300)
def test_record_constructors_end_junk_in_a_validation_error(build, data):
    """
    Every record class in the public API, called with 0 to one more than
    its number of fields of nested junk and records of the wrong kind,
    either builds a record or raises a ValidationError; so does each
    builder of raw values, at every arity its signature binds.  A
    builder's arguments hold no int above 4 at the top: there it is a
    size or a count, which the builder honours, only slowly.
    """
    if isinstance(build, type):
        args = data.draw(st.lists(Junk, max_size=len(build._fields) + 1))
    else:
        params = inspect.signature(build).parameters.values()
        required = sum(p.default is p.empty for p in params)
        small = Junk.filter(lambda v: type(v) is not int or v <= 4)
        args = data.draw(st.lists(small, min_size=required, max_size=len(params)))
    try:
        build(*args)
    except ValidationError:
        pass
