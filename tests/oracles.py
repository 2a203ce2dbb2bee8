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
