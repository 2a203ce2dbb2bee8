"""Independent brute-force oracles used to freeze expected test values.

Everything here works on raw multiplication tables (lists of lists) and
enumerates total maps with no pruning, sharing no code with the package
under test.  Only usable for very small inputs, which is the point.
"""

from __future__ import annotations

import itertools


def oracle_identity(table):
    n = len(table)
    for e in range(n):
        if all(table[e][g] == g and table[g][e] == g for g in range(n)):
            return e
    raise AssertionError("oracle: no identity")


def relabel(values, src, tgt):
    """A map read between renamed copies of its groups.  ``src`` and ``tgt``
    rename the source and the target: new element i is old element
    ``src[i]`` or ``tgt[i]``.  Entry i of the result is the new name of
    ``values[src[i]]``."""
    back = {old: new for new, old in enumerate(tgt)}
    return tuple(back[values[old]] for old in src)


def relabel_table(table, perm):
    """A multiplication table with element ``perm[i]`` renamed i."""
    return tuple(relabel(table[old], perm, perm) for old in perm)


def oracle_interpolates(e_table, pi, u, sections, pool):
    """Does some g in ``pool`` give ``u(pi(t(x))) = g t(x) g^-1`` for every x,
    for each local section t?  With every element of E as the pool this is
    (b) for a hom u from the base, and with the kernel's image it is (c)
    for a section u."""
    e = oracle_identity(e_table)
    inv = [row.index(e) for row in e_table]
    return all(
        any(all(u[pi[y]] == e_table[e_table[g][y]][inv[g]] for y in t) for g in pool)
        for t in sections
    )


def oracle_homs(src, tgt):
    """All homomorphism image-tuples, by enumerating every total map."""
    n, m = len(src), len(tgt)
    out = []
    for f in itertools.product(range(m), repeat=n):
        if all(f[src[a][b]] == tgt[f[a]][f[b]] for a in range(n) for b in range(n)):
            out.append(f)
    return sorted(out)


def oracle_perm_closure(degree, gens):
    """Fixpoint of pairwise composition, as a sorted list of tuples."""
    elems = {tuple(range(degree))}
    elems.update(tuple(g) for g in gens)
    while True:
        new = set()
        for p in elems:
            for q in elems:
                c = tuple(p[q[i]] for i in range(degree))
                if c not in elems:
                    new.add(c)
        if not new:
            return sorted(elems)
        elems |= new


def oracle_perm_table(degree, gens):
    """Every product of two closure elements, looked up in the closure:
    entry [a][b] indexes p∘q for the a-th and b-th elements of
    :func:`oracle_perm_closure`."""
    elems = oracle_perm_closure(degree, gens)
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[q[i]] for i in range(degree))] for q in elems] for p in elems]


def oracle_conjugacy_classes(table):
    n = len(table)
    inv = {}
    e = oracle_identity(table)
    for g in range(n):
        for h in range(n):
            if table[g][h] == e and table[h][g] == e:
                inv[g] = h
    classes = []
    left = set(range(n))
    while left:
        g = min(left)
        orbit = {table[table[h][g]][inv[h]] for h in range(n)}
        classes.append(tuple(sorted(orbit)))
        left -= orbit
    return sorted(classes)


def oracle_union_of_conjugates(table, sub_elements):
    n = len(table)
    e = oracle_identity(table)
    inv = {g: next(h for h in range(n) if table[g][h] == e) for g in range(n)}
    return sorted({table[table[g][h]][inv[g]] for g in range(n) for h in sub_elements})


def oracle_subgroups(table):
    """All subgroups by testing every subset containing the identity."""
    n = len(table)
    e = oracle_identity(table)
    out = []
    rest = [g for g in range(n) if g != e]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            elems = set(extra) | {e}
            if all(table[a][b] in elems for a in elems for b in elems):
                out.append(tuple(sorted(elems)))
    return sorted(out, key=lambda t: (len(t), t))


def oracle_generating_set(table):
    """Greedy generators: each round adds the element outside the span so
    far whose span with the generators before it is largest, ties going to
    the least index.  Every such element is tried, with no pruning."""
    n = len(table)
    e = oracle_identity(table)

    def span(gens):
        elems = {e}
        while True:
            grown = elems | {table[a][g] for a in elems for g in gens}
            if grown == elems:
                return elems
            elems = grown

    gens, current = [], {e}
    while len(current) < n:
        sizes = {g: len(span(gens + [g])) for g in range(n) if g not in current}
        gens.append(max(sizes, key=lambda g: (sizes[g], -g)))
        current = span(gens)
    return tuple(gens)


def oracle_normality_witness(table, sub_elements):
    """The first (g, h), g over the group and h over the subgroup in
    increasing order, whose conjugate g*h*g^-1 leaves the subgroup; None
    when every conjugate stays inside."""
    n = len(table)
    e = oracle_identity(table)
    inv = {g: next(h for h in range(n) if table[g][h] == e) for g in range(n)}
    elems = set(sub_elements)
    for g in range(n):
        for h in sub_elements:
            if table[table[g][h]][inv[g]] not in elems:
                return g, h
    return None


def oracle_sections(gamma_table, e_table, pi_map):
    """All homomorphic sections of pi, by enumerating every total map."""
    homs = oracle_homs(gamma_table, e_table)
    return [f for f in homs if all(pi_map[f[g]] == g for g in range(len(gamma_table)))]


def oracle_cocycles(gamma_table, m_table, action):
    """All cocycle value-tables for a given action, by total enumeration."""
    n, m = len(gamma_table), len(m_table)
    em = oracle_identity(m_table)
    eg = oracle_identity(gamma_table)
    out = []
    for a in itertools.product(range(m), repeat=n):
        if a[eg] != em:
            continue
        if all(
            a[gamma_table[s][t]] == m_table[a[s]][action[s][a[t]]]
            for s in range(n)
            for t in range(n)
        ):
            out.append(a)
    return sorted(out)


def oracle_restrict(theta_map, values):
    """A cocycle's values read along a map into its acting group:
    ``s -> a_theta(s)``."""
    return tuple(values[y] for y in theta_map)


def oracle_pullback(section_map, values, action, kernel_image):
    """:func:`oracle_restrict` along a section of an extension.  The kernel,
    given by its image in the middle group, must act trivially, or the
    result would depend on conjugating the section by kernel elements."""
    for e in kernel_image:
        row = tuple(action[e])
        assert row == tuple(range(len(row))), f"oracle: kernel element {e} acts nontrivially"
    return oracle_restrict(section_map, values)


def oracle_in_diagonal_image(gamma_table, m_table, action, locals_, alpha):
    """Is some cocycle b over gamma, read along each local map theta, a
    twist of ``alpha`` read along that local's section s?  ``locals_``
    holds (theta, s) map pairs with theta = pi∘s, and ``alpha`` is a
    cocycle over the middle group acting through pi.  Every cocycle b and
    every twist ``c^-1 * a_x * theta(x)(c)`` is tried; no class label is
    read."""
    em = oracle_identity(m_table)
    inv = [row.index(em) for row in m_table]
    twists = [
        {
            tuple(
                m_table[inv[c]][m_table[alpha[s[x]]][action[theta[x]][c]]]
                for x in range(len(theta))
            )
            for c in range(len(m_table))
        }
        for theta, s in locals_
    ]
    return any(
        all(oracle_restrict(theta, b) in twisted for (theta, _), twisted in zip(locals_, twists))
        for b in oracle_cocycles(gamma_table, m_table, action)
    )


def oracle_h1_class_count(gamma_table, m_table, action):
    """Number of cocycle classes under b_s = c^-1 * a_s * s(c)."""
    n, m = len(gamma_table), len(m_table)
    em = oracle_identity(m_table)
    inv = {x: next(y for y in range(m) if m_table[x][y] == em) for x in range(m)}
    cocs = oracle_cocycles(gamma_table, m_table, action)
    index = {a: i for i, a in enumerate(cocs)}
    seen = set()
    count = 0
    for a in cocs:
        if index[a] in seen:
            continue
        count += 1
        for c in range(m):
            b = tuple(m_table[inv[c]][m_table[a[s]][action[s][c]]] for s in range(n))
            seen.add(index[b])
    return count


def oracle_h1_classes(gamma_table, m_table, action):
    """The cocycle classes under b_s = c^-1 * a_s * s(c), as sorted index
    tuples into the sorted cocycle list, ordered by least member.  Every
    full value tuple is twisted by every c over all of gamma."""
    n, m = len(gamma_table), len(m_table)
    em = oracle_identity(m_table)
    inv = {x: next(y for y in range(m) if m_table[x][y] == em) for x in range(m)}
    cocs = oracle_cocycles(gamma_table, m_table, action)
    index = {a: i for i, a in enumerate(cocs)}
    classes = []
    seen = set()
    for i, a in enumerate(cocs):
        if i in seen:
            continue
        orbit = {
            index[tuple(m_table[inv[c]][m_table[a[s]][action[s][c]]] for s in range(n))]
            for c in range(m)
        }
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def oracle_conjugation_classes(table, maps, conjugators):
    """Maps into a group partitioned by pointwise conjugation, trying every
    listed conjugator: sorted index tuples, ordered by least member."""
    n = len(table)
    e = oracle_identity(table)
    inv = {g: next(h for h in range(n) if table[g][h] == e) for g in range(n)}
    index = {tuple(f): i for i, f in enumerate(maps)}
    classes = []
    seen = set()
    for i, f in enumerate(maps):
        if i in seen:
            continue
        orbit = {i}
        for c in conjugators:
            moved = tuple(table[table[c][v]][inv[c]] for v in f)
            if moved in index:
                orbit.add(index[moved])
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def oracle_density(gamma_table, image_sets):
    """Union of all conjugates of each image, compared against the whole group."""
    n = len(gamma_table)
    e = oracle_identity(gamma_table)
    inv = {x: next(y for y in range(n) if gamma_table[x][y] == e) for x in range(n)}
    covered = set()
    for img in image_sets:
        for g in range(n):
            covered |= {gamma_table[gamma_table[g][x]][inv[g]] for x in img}
    return len(covered) == n


def oracle_interpolating_homs(gamma_table, e_table, theta_maps, section_maps):
    """All homs into the middle table matching each local section up to
    conjugation, found by filtering the total hom enumeration."""
    n = len(e_table)
    e = oracle_identity(e_table)
    inv = {x: next(y for y in range(n) if e_table[x][y] == e) for x in range(n)}
    out = []
    for u in oracle_homs(gamma_table, e_table):
        ok = True
        for theta, s in zip(theta_maps, section_maps):
            if not any(
                all(
                    u[theta[x]] == e_table[e_table[g][s[x]]][inv[g]]
                    for x in range(len(theta))
                )
                for g in range(n)
            ):
                ok = False
                break
        if not ok:
            continue
        out.append(u)
    return out


def oracle_is_group(table):
    """Square table of in-range ints with an identity, associative on every
    triple, and a two-sided inverse for every element."""
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        return False
    if any(type(v) is not int or not 0 <= v < n for row in table for v in row):
        return False
    ids = [e for e in range(n) if all(table[e][g] == g and table[g][e] == g for g in range(n))]
    if not ids:
        return False
    e = ids[0]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    return all(any(table[g][h] == e and table[h][g] == e for h in range(n)) for g in range(n))


def oracle_is_hom(src, tgt, f):
    """f preserves every product (which forces identity to identity)."""
    n, m = len(src), len(tgt)
    if len(f) != n or any(not 0 <= v < m for v in f):
        return False
    return all(f[src[a][b]] == tgt[f[a]][f[b]] for a in range(n) for b in range(n))


def oracle_is_action(gamma, m_table, action):
    """Every row an automorphism, the identity acting trivially, and rows
    composing on every pair."""
    n, m = len(gamma), len(m_table)
    if len(action) != n:
        return False
    for row in action:
        if sorted(row) != list(range(m)) or not oracle_is_hom(m_table, m_table, row):
            return False
    if tuple(action[oracle_identity(gamma)]) != tuple(range(m)):
        return False
    return all(
        tuple(action[gamma[g][h]]) == tuple(action[g][action[h][x]] for x in range(m))
        for g in range(n)
        for h in range(n)
    )


def oracle_is_cocycle(gamma, m_table, action, a):
    """One in-range value per element of gamma, with ``a_{st} = a_s * s(a_t)``
    on every pair (which forces the identity to the identity)."""
    n, m = len(gamma), len(m_table)
    if len(a) != n or any(not 0 <= v < m for v in a):
        return False
    return all(
        a[gamma[s][t]] == m_table[a[s]][action[s][a[t]]] for s in range(n) for t in range(n)
    )


def oracle_is_subgroup(table, elements):
    """A sorted, duplicate-free, in-range set holding the identity, every
    product of two members and every inverse."""
    n = len(table)
    elems = set(elements)
    if list(elements) != sorted(elems) or any(not 0 <= g < n for g in elems):
        return False
    e = oracle_identity(table)
    if e not in elems:
        return False
    if any(table[a][b] not in elems for a in elems for b in elems):
        return False
    return all(any(table[g][h] == e for h in elems) for g in elems)
