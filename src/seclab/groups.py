"""Finite groups as dense multiplication tables over element indices.

Elements of a group of order n are the integers 0..n-1; the whole structure
is the n-by-n table.  Permutation input is converted to a table at the
boundary, read off the closure's Cayley graph: n·|gens| compositions plus
n² table reads.  Constructors validate their input completely and raise the
errors from :mod:`seclab.errors` with explicit witnesses, but they check a
law on generators wherever that decides it: a table's associativity by
Light's test, a homomorphism's products, a subgroup's closure.  The
elements that pass such a check are closed under products, so the
generators decide it.  Search output is verified by the search itself and
not checked a second time.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import prod
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Hashable, Iterable, Optional, Sequence, Tuple

from .errors import (
    BoundExceeded,
    InvariantViolation,
    NoIdentity,
    NoInverse,
    NotAHomomorphism,
    NotAPermutation,
    NotAssociative,
    NotASubgroup,
    NotNormal,
    ValidationError,
)

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "GroupHom",
    "JordanCover",
    "group_from_table",
    "group_from_permutations",
    "trivial_group",
    "cyclic_group",
    "direct_product",
    "generating_set",
    "element_order",
    "enumerate_homs",
    "hom_from_generator_images",
    "identity_hom",
    "compose",
    "image",
    "is_surjective",
    "is_bijective",
    "inverse_hom",
    "subgroup",
    "subgroup_generated",
    "trivial_subgroup",
    "full_subgroup",
    "subgroup_as_group",
    "is_normal",
    "conjugacy_classes",
    "class_index",
    "union_of_conjugates",
    "is_class_preserving",
    "quotient",
    "all_subgroups",
    "all_normal_subgroups",
    "all_normal_subgroups_between",
    "automorphisms",
    "automorphism_group",
    "partition_by_conjugation",
]

#: Default bound of :func:`_check_order`; generous for the supported corpus.
DEFAULT_CLOSURE_BOUND = 10080
#: Bound on the candidate tuples of one :func:`_derivation_search` call.
DEFAULT_CANDIDATE_BOUND = 2**20


class _Record:
    """An immutable value: a plain class whose fields are declared once, in
    ``_fields``, a mapping from each name, in order, to its type.

    A type is a class or a tuple such as ``(str, type(None))``.  From the
    mapping each record class gets the tuples ``_names`` and ``_types``,
    which everything else reads.  The one ``__init__`` pads missing
    trailing values with None, checks the types and raises the class's
    ``_error`` (``ValidationError`` by default) naming the field and the
    value; then it sets the fields and calls ``__post_init__``, which
    checks entries, ranges and laws.  :func:`_trusted` skips both checks.
    The base refuses assignment and deletion, prints as
    ``Name(field=value, ...)``, and compares and hashes the tuple of the
    compared fields: all of them, unless the class sets its own ``_key``.
    The hash is computed on first use and kept on the instance as
    ``_hash``, which is not a field.  An object of another class compares
    as ``NotImplemented``.
    """

    _fields: Dict[str, object] = {}
    _names: Tuple[str, ...] = ()
    _types: Tuple[object, ...] = ()
    _error: type = ValidationError
    _hash = None  # not a field: set on the instance by __hash__

    def __init_subclass__(cls) -> None:
        cls._names, cls._types = tuple(cls._fields), tuple(cls._fields.values())
        if "_key" not in cls.__dict__:
            cls._key = attrgetter(*cls._names)

    def __init__(self, *values: object) -> None:
        names = self._names
        if len(values) != len(names) or not all(map(isinstance, values, self._types)):
            if len(values) > len(names):
                raise self._error(f"{type(self).__name__} takes at most {len(names)} values")
            values += (None,) * (len(names) - len(values))
            _check_types(values, self._types, self._error, type(self).__name__ + ".{}", names)
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check what the field types do not decide; nothing by default."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return self is other or key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({shown})"


def _check_types(
    values: Iterable[object], types: Iterable[object], error: type, where: str, keys: Iterable
) -> None:
    """Raise ``error`` naming ``where.format(key)`` for the first of ``values``
    that is not an instance of its entry in ``types``.

    One pass of ``isinstance`` in C decides; the offender is looked for only
    when it fails.  Validators check the items of a tuple field with it,
    through ``itertools.repeat`` types and ``itertools.count`` keys.
    """
    if all(map(isinstance, values, types)):
        return
    for key, value, kind in zip(keys, values, types):
        if not isinstance(value, kind):
            kinds = kind if type(kind) is tuple else (kind,)
            name = " or ".join("None" if t is type(None) else t.__name__ for t in kinds)
            article = "an" if name[0] in "AEIOUaeiou" else "a"
            raise error(f"{where.format(key)} must be {article} {name}, not {_show(value)}")


def _check_indices(values: Iterable[object], n: int, error: type, what: str) -> None:
    """Raise ``error`` naming ``what`` and the first of ``values`` that is
    not an int in 0..n-1, shown by :func:`_show`."""
    for v in values:
        if type(v) is not int:
            raise error(f"{what} {_show(v)} is not an integer")
        if not 0 <= v < n:
            raise error(f"{what} {_show(v)} outside 0..{n - 1}")


def _show(value: object) -> str:
    """``repr(value)``; an int too long for it is shown by its bit length."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits(), maybe nested
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} too long to print>"


def _trusted(cls: type, *values: object):
    """A record built from its field values without its checks.

    Only for values already known to pass them: output a search has verified
    in full, such as that of :func:`_derivation_search`, or an object
    derived from validated ones by a construction that keeps the law, such
    as a quotient's projection.  The values follow ``cls._names``.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls._names, values):
        object.__setattr__(obj, name, value)
    return obj


class FiniteGroup(_Record):
    """A finite group: its full multiplication table, and a label.

    ``table[a][b]`` is the index of the product ``a*b``.  ``label`` is
    cosmetic and ignored by equality so that structurally equal groups
    compare (and hash) equal.  ``identity`` and ``inverse`` are read off
    the table when first used: in a group only e has 0*e = 0, and only
    g^-1 has g*g^-1 = e.  The constructor checks the field types only:
    :func:`group_from_table` checks the group laws, and the other builders
    keep them by construction.
    """

    _fields = {"table": tuple, "label": (str, type(None))}
    _key = staticmethod(lambda group: (group.table,))

    @cached_property
    def identity(self) -> int:
        return self.table[0].index(0)

    @cached_property
    def inverse(self) -> Tuple[int, ...]:
        return tuple(row.index(self.identity) for row in self.table)

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def elements(self) -> range:
        return range(len(self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        t = self.table
        return t[t[g][x]][self.inverse[g]]

    def __repr__(self) -> str:
        name = self.label or "group"
        return f"<{name}: order {self.order}>"


def group_from_table(
    table: Sequence[Sequence[int]], label: Optional[str] = None
) -> FiniteGroup:
    """Validate a multiplication table and wrap it as a :class:`FiniteGroup`.

    Checks, in order: shape (a list of lists of ints), entry range, a
    two-sided identity, associativity, and a two-sided inverse for every
    element.  Associativity is Light's test (Clifford & Preston, vol. 1,
    §1.2): ``(a*b)*c = a*(b*c)`` for every a and c but only for b in a
    set S that generates the table.  The b that pass for all a and c are
    closed under products and include the identity, so they are every
    element once they include S.  S comes from :func:`_greedy_generators`,
    so the test costs O(n²·|S|) with |S| <= log2(n) for a group.
    """
    _check_types((table,), ((list, tuple),), ValidationError, "{}", ("table",))
    n = len(table)
    if n == 0:
        raise NoIdentity("empty table has no identity element")
    _check_types(table, ((list, tuple),) * n, ValidationError, "row {}", range(n))
    rows = tuple(tuple(row) for row in table)
    for a, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"row {a} has length {len(row)}, expected {n}")
        _check_indices(row, n, ValidationError, f"row {a} entry")
    ident = tuple(range(n))
    identity = next((e for e in ident if rows[e] == ident == tuple(r[e] for r in rows)), None)
    if identity is None:
        raise NoIdentity(f"no two-sided identity among {n} elements")
    gens, _ = _greedy_generators(rows, identity, range(n))
    for b in gens:
        rb = rows[b]
        right = itemgetter(*rb)  # right(ra)[c] is a*(b*c); n > 1 here, so a tuple
        for a in range(n):
            ra = rows[a]
            left = rows[ra[b]]
            if left != right(ra):
                c = next(c for c in range(n) if left[c] != ra[rb[c]])
                raise NotAssociative(
                    f"({a}*{b})*{c} = {left[c]} but {a}*({b}*{c}) = {ra[rb[c]]}"
                )
    for g, row in enumerate(rows):
        # in a finite monoid a one-sided inverse is two-sided and unique
        if identity not in row or rows[row.index(identity)][g] != identity:
            raise NoInverse(f"element {g} has no two-sided inverse")
    return FiniteGroup(rows, label)


def _close_elements(
    table: Sequence[Sequence[int]], identity: int, seed: Iterable[int]
) -> frozenset:
    """Everything reached from the identity by right multiplication with
    seed elements: for a group, the subgroup the seed generates.

    Costs O(|closure|·|seed|).  Only products are taken, so it also serves
    tables not yet known to be groups.
    """
    gens = tuple(seed)
    elems = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gens:
                z = row[g]
                if z not in elems:
                    elems.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(elems)


def _greedy_generators(
    table: Sequence[Sequence[int]],
    identity: int,
    elements: Iterable[int],
    within: Optional[frozenset] = None,
) -> Tuple[list, frozenset]:
    """Generators taken from ``elements`` in order, each one that is not yet
    in the span of those before it; returned with their span.

    For a group each one at least doubles the span, so there are at most
    log2(order) of them.  Given ``within``, stops as soon as the span
    leaves it.
    """
    gens: list[int] = []
    span = frozenset([identity])
    for x in elements:
        if x not in span:
            gens.append(x)
            span = _close_elements(table, identity, gens)
            if within is not None and not span <= within:
                break
    return gens, span


def _compose_perms(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """Left-to-right as maps: (p*q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def _check_int(value: object, what: str, least: Optional[int] = None) -> None:
    """The one int check: ``value`` is an int, and not below ``least``."""
    if type(value) is not int:
        raise ValidationError(f"{what} {_show(value)} is not an integer")
    if least is not None and value < least:
        raise ValidationError(f"{what} {_show(value)} is below {least}")


def _as_tuple(values: object, error: type, what: str) -> tuple:
    """``tuple(values)``, or ``error`` naming ``values`` if they are not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{what} {_show(values)} is not a sequence") from None


def _check_permutation(perm: Sequence[int], degree: int) -> Tuple[int, ...]:
    p = _as_tuple(perm, NotAPermutation, "permutation")
    _check_indices(p, degree, NotAPermutation, "permutation entry")
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise NotAPermutation(f"{p!r} is not a permutation of 0..{degree - 1}")
    return p


def group_from_permutations(
    degree: int,
    generators: Iterable[Sequence[int]],
    label: Optional[str] = None,
) -> Tuple[FiniteGroup, Tuple[Tuple[int, ...], ...]]:
    """Close permutation generators under composition and tabulate the result.

    Returns the group together with the element-to-permutation dictionary
    (a tuple indexed by element).  Elements are sorted lexicographically as
    permutation tuples, which places the identity at index 0.

    The table is read off the closure's Cayley graph, as an orbit with a
    Schreier vector (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, §4.1).  The closure composes each element p with each
    generator g_k once, and records the (p, k) that first reached each new
    element q = p*g_k.  Then ``x*q = (x*p)*g_k``, so column q of the table
    is column p read through right multiplication by g_k.  The cost is
    n·|gens| compositions plus n² table reads, not n² compositions.  The
    table is not checked again: composition of permutations is associative,
    and the closure holds every product and inverse.
    """
    _check_int(degree, "degree", 0)
    _check_order(degree, "permutation degree")
    idp = tuple(range(degree))
    gens = [
        _check_permutation(p, degree)
        for p in _as_tuple(generators, NotAPermutation, "generator list")
    ]
    reached = {idp: None}  # element -> (element, generator index) that first reached it
    steps = {}  # element -> its products with each generator
    frontier = [idp]
    while frontier:
        nxt = []
        for p in frontier:
            steps[p] = row = []
            for k, g in enumerate(gens):
                q = _compose_perms(p, g)
                if q not in reached:
                    reached[q] = (p, k)
                    _check_order(len(reached), "permutation closure size")
                    nxt.append(q)
                row.append(q)
        frontier = nxt
    perms = tuple(sorted(reached))
    index = {p: i for i, p in enumerate(perms)}
    # right[k][x] is the index of perms[x]*g_k
    right = tuple(zip(*(map(index.__getitem__, steps[p]) for p in perms)))
    columns = {idp: tuple(range(len(perms)))}
    for q, via in reached.items():  # in closure order, so p comes before q
        if via is not None:
            p, k = via
            columns[q] = tuple(map(right[k].__getitem__, columns[p]))
    table = tuple(zip(*map(columns.__getitem__, perms)))
    return FiniteGroup(table, label), perms


def trivial_group() -> FiniteGroup:
    return group_from_table(((0,),), "1")


def _check_order(order: int, what: str, bound: int = DEFAULT_CLOSURE_BOUND) -> None:
    """The one size check: :class:`BoundExceeded` for ``what`` over ``bound``."""
    if order > bound:
        raise BoundExceeded(f"{what} {_show(order)} is over the bound of {bound}")


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n: row a is ``range(n)`` rotated by a, trusted without a check."""
    _check_int(n, "cyclic group order", 1)
    _check_order(n, "cyclic group order")
    elems = tuple(range(n))
    table = tuple(elems[a:] + elems[:a] for a in elems)
    return FiniteGroup(table, f"C{n}")


def _extension_group(
    m: FiniteGroup, gamma: FiniteGroup, rows: Sequence, factors: Sequence, label: Optional[str]
) -> FiniteGroup:
    """Pairs (x, g) numbered x + |m|·g under Schreier's law (x, g)(y, h) =
    (x·g(y)·f(g, h), gh), with g(y) = ``rows[g][y]`` and f(g, h) =
    ``factors[g][h]`` (Brown, *Cohomology of Groups*, ch. IV).  Trusted: the
    callers pass an action and a normalised factor set."""
    mt, size = m.table, m.order
    table = []
    for g, grow in enumerate(gamma.table):
        act, fac = rows[g], factors[g]
        for x in m.elements:
            xg = tuple(map(mt[x].__getitem__, act))  # x·g(y) for every y
            table.append(tuple(
                mt[xy][fac[h]] + size * gh for h, gh in enumerate(grow) for xy in xg
            ))
    return FiniteGroup(tuple(table), label)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G × H on pairs encoded as a*|h| + b: the extension of g by h with
    the trivial action and the trivial factor set."""
    _check_types((g, h), (FiniteGroup, FiniteGroup), ValidationError, "factor {}", (1, 2))
    _check_order(g.order * h.order, "direct product order")
    trivial = ((h.identity,) * g.order,) * g.order
    label = f"{g.label}x{h.label}" if g.label and h.label else None
    return _extension_group(h, g, _identity_rows(g, h), trivial, label)


# ---------------------------------------------------------------------------
# generation, element orders, homomorphisms


def element_order(group: FiniteGroup, g: int) -> int:
    """The least k with g^k the identity; in a group it is at most |G|."""
    _check_indices((g,), group.order, ValidationError, "element")
    k, x = 1, g
    while x != group.identity:
        if k == group.order:
            raise InvariantViolation(
                f"element {g} has no power equal to the identity within {k} steps:"
                f" the table of {group!r} is not a group"
            )
        x = group.mul(x, g)
        k += 1
    return k


@lru_cache(maxsize=None)
def generating_set(group: FiniteGroup) -> Tuple[int, ...]:
    """A small generating set, chosen greedily for maximal span growth.

    Each round adds the element whose span with the generators so far is
    largest; ties go to the smallest element index, so the result is
    deterministic.  A round skips every element inside a span it has
    already tried.  Such an x lies in ``⟨gens, g⟩`` for a g tried before
    it, so ``⟨gens, x⟩ ⊆ ⟨gens, g⟩`` spans no more than g did, and x, the
    larger index, cannot win a tie against it.
    """
    span = frozenset([group.identity])
    gens: list[int] = []
    while len(span) < group.order:
        best_g, best_span = None, None
        tried = set(span)
        for g in group.elements:
            if g in tried:
                continue
            cand = _close_elements(group.table, group.identity, (*gens, g))
            tried |= cand
            if best_span is None or len(cand) > len(best_span):
                best_g, best_span = g, cand
        gens.append(best_g)
        span = best_span
    return tuple(gens)


@lru_cache(maxsize=None)
def _derivation(
    group: FiniteGroup,
) -> Tuple[Tuple[int, int, tuple, tuple], ...]:
    """The Cayley graph on ``generating_set(group)``, cut into one layer per
    generator along the subgroup chain ⟨g₁⟩ ⊂ ⟨g₁,g₂⟩ ⊂ … ⊂ group.

    Layer j is ``(gⱼ, k, tree, closing)``, with k the order of gⱼ, read
    once here by :func:`element_order`, so a table that is not a group
    breaks its invariant here.  Its tree is a tuple of
    ``(y, x, g)``, in BFS order, writing y as ``x * g`` for a generator g
    among g₁..gⱼ; its y are the elements of ⟨g₁..gⱼ⟩ not in ⟨g₁..gⱼ₋₁⟩,
    except gⱼ itself, reached by the implicit edge ``(gⱼ, e, gⱼ)``.  Its
    closing edges are the triples ``(s, gᵢ, s*gᵢ)``, i <= j, with s new in
    this layer or i = j, that are not tree edges.  Every edge of layer j
    stays inside ⟨g₁..gⱼ⟩, and every pair (s, g) is an edge of exactly one
    layer; |group|·(|gens| - 1) + 1 of them are closing edges.  Each gives
    one Schreier generator of the trivial subgroup, a relation among the
    generators (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, 2005, ch. 5).
    """
    gens, table = generating_set(group), group.table
    seen, order, layers = {group.identity}, [group.identity], []
    for j, g in enumerate(gens):
        old = len(order)
        tree, closing = [], []
        for k, x in enumerate(order):
            # the old elements are closed under g₁..gⱼ₋₁, so only g leads out of them
            for t in (g,) if k < old else gens[: j + 1]:
                y = table[x][t]
                if y in seen:
                    closing.append((x, t, y))
                else:
                    seen.add(y)
                    order.append(y)
                    tree.append((y, x, t))
        layers.append((g, element_order(group, g), tuple(tree[1:]), tuple(closing)))
    return tuple(layers)


class GroupHom(_Record):
    """A homomorphism stored as the full image tuple ``map[x]``.

    Validated on construction: the map is a tuple of integer images in the
    target, identity goes to identity and every product is preserved.
    Products are checked as ``f(a*g) = f(a)*f(g)`` for every a and each
    generator g of the source (see :func:`_derivation_failure`).
    """

    _fields = {"source": FiniteGroup, "target": FiniteGroup, "map": tuple}
    _error = NotAHomomorphism

    def __post_init__(self) -> None:
        m, n = self.map, self.target.order
        if len(m) != self.source.order:
            raise NotAHomomorphism(
                f"map has {len(m)} entries for a source of order {self.source.order}"
            )
        _check_indices(m, n, NotAHomomorphism, "image")
        if m[self.source.identity] != self.target.identity:
            raise NotAHomomorphism(
                f"identity {self.source.identity} maps to {m[self.source.identity]}, not the identity"
            )
        src, tgt = self.source, self.target
        broken = _derivation_failure(src, tgt, _identity_rows(src, tgt), m, generating_set(src))
        if broken is not None:
            a, g = broken
            raise NotAHomomorphism(
                f"f({a}*{g}) = {m[self.source.mul(a, g)]} but f({a})*f({g}) = "
                f"{self.target.mul(m[a], m[g])}"
            )

    def __repr__(self) -> str:
        return f"<hom {self.source.label or '?'} -> {self.target.label or '?'}: {self.map}>"


def _derivation_failure(
    gamma: FiniteGroup,
    m: FiniteGroup,
    rows: Sequence[Sequence[int]],
    v: Sequence[int],
    ts: Iterable[int],
) -> Optional[Tuple[int, int]]:
    """The first pair ``(s, t)``, t in ``ts``, with ``v[s*t] != v[s] * s(v[t])``.

    ``rows[s]`` is the image tuple of s acting on m; with identity rows the
    law says that v is a homomorphism.  None means the law holds for every
    s and every t in ``ts``.  When ``rows`` is an action by automorphisms,
    the t that pass for every s are closed under products, since
    ``v[s*t*u] = v[s*t] * st(v[u]) = v[s] * s(v[t] * t(v[u])) = v[s] * s(v[t*u])``.
    So once ``ts`` generates gamma the law holds on all pairs, and then
    v sends the identity to the identity too, except when gamma is trivial
    and has no generators to try.
    """
    gt, mt = gamma.table, m.table
    for t in ts:
        vt = v[t]
        for s, (grow, vs, row) in enumerate(zip(gt, v, rows)):
            if v[grow[t]] != mt[vs][row[vt]]:
                return s, t
    return None


def identity_hom(group: FiniteGroup) -> GroupHom:
    """The identity map, a homomorphism by construction, so not checked."""
    return _trusted(GroupHom, group, group, tuple(group.elements))


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """outer after inner, built without a second check: a composite of
    homomorphisms is one."""
    if inner.target != outer.source:
        raise ValidationError("composition mismatch: inner target differs from outer source")
    return _trusted(GroupHom, inner.source, outer.target, tuple(outer.map[v] for v in inner.map))


def _derivation_search(
    gamma: FiniteGroup, m: FiniteGroup, rows: Sequence[Sequence[int]], choices=None
) -> Tuple[Tuple[int, ...], ...]:
    """Every value tuple ``a`` with ``a_{st} = a_s * s(a_t)``, sorted, whose
    value on the j-th generator gⱼ of ``generating_set(gamma)`` is drawn
    from ``choices[j]``.

    ``rows[x]`` is the image tuple of x acting on m, an action by
    automorphisms; a homomorphism is the case of identity rows.  Without
    ``choices``, a generator g of order k may take the value c only when the
    twisted norm ``c * g(c) * ... * g^(k-1)(c)`` is the identity, which
    for identity rows says that the order of c divides k.  The order k is
    the one :func:`_derivation` keeps in g's layer.  The norms of every c
    are built together, one power of g at a time, by reading ``m.table``
    rows.  Over :data:`DEFAULT_CANDIDATE_BOUND` candidate tuples, the
    product of the choice counts, it raises :class:`BoundExceeded` first.

    The search walks the layers of :func:`_derivation` depth-first,
    writing into one list in place.  For each choice c of gⱼ it sets
    ``a_{gⱼ} = c``, fills in layer j's tree by ``a_{xg} = a_x * x(a_g)``,
    where the law holds by construction, and checks layer j's closing
    edges.  A layer's edges read only values inside ⟨g₁..gⱼ⟩, which the
    choices so far fix, so a failed check rejects every completion of
    them at once.  A tuple that passes every layer satisfies the law for
    every s and each generator t, which decides all pairs (see
    :func:`_derivation_failure`).  It has the identity at the identity and
    every value drawn from m, so it needs no further check (see
    :func:`_trusted`).  The last layer k checks every edge on the coset
    gₖ·⟨g₁..gₖ₋₁⟩, a translate of the earlier layers' edges, and the law on
    the translate implies it on the original; so the earlier checks add
    no soundness, only the pruning.
    """
    gt, mt = gamma.table, m.table
    layers = _derivation(gamma)
    if choices is None:
        choices, e = [], m.identity
        for g, k, _, _ in layers:
            # norms[c] is c * g(c) * ... * p(c), for p the power of g last read
            norms, p = rows[gamma.identity], gamma.identity
            for _ in range(k - 1):
                p = gt[p][g]
                row = rows[p]
                norms = [mt[n][row[c]] for c, n in enumerate(norms)]
            choices.append([c for c, n in enumerate(norms) if n == e])
    count = prod(map(len, choices))
    _check_order(count, f"search {gamma!r} -> {m!r}: candidate count", DEFAULT_CANDIDATE_BOUND)
    v = [m.identity] * gamma.order
    found = []

    def extend(j: int) -> None:
        if j == len(layers):
            found.append(tuple(v))
            return
        g, _, tree, closing = layers[j]
        for c in choices[j]:
            v[g] = c
            for y, x, t in tree:
                v[y] = mt[v[x]][rows[x][v[t]]]
            for s, t, st in closing:
                if v[st] != mt[v[s]][rows[s][v[t]]]:
                    break
            else:
                extend(j + 1)

    extend(0)
    del extend  # its closure holds it, so this frees it without the cycle collector
    return tuple(sorted(found))


def _identity_rows(gamma: FiniteGroup, m: FiniteGroup) -> Tuple[Tuple[int, ...], ...]:
    return (tuple(m.elements),) * gamma.order


def hom_from_generator_images(
    src: FiniteGroup, tgt: FiniteGroup, images: Sequence[int]
) -> GroupHom:
    """The hom sending the canonical generating set to ``images``."""
    gens = generating_set(src)
    images = _as_tuple(images, NotAHomomorphism, "generator image list")
    if len(images) != len(gens):
        raise NotAHomomorphism(
            f"expected {len(gens)} generator images for generators {gens}, got {len(images)}"
        )
    _check_indices(images, tgt.order, NotAHomomorphism, "generator image")
    # the hom search, with one choice per generator
    found = _homs(src, tgt, [(c,) for c in images])
    if not found:
        raise NotAHomomorphism(
            f"generator images {images} do not extend to a homomorphism"
        )
    return found[0]


def _homs(src: FiniteGroup, tgt: FiniteGroup, choices=None) -> Tuple[GroupHom, ...]:
    """The homs src -> tgt, sorted by image tuple, with each generator's image
    drawn from ``choices``: :func:`_derivation_search` with identity rows."""
    found = _derivation_search(src, tgt, _identity_rows(src, tgt), choices)
    return tuple(_trusted(GroupHom, src, tgt, m) for m in found)


@lru_cache(maxsize=None)
def enumerate_homs(src: FiniteGroup, tgt: FiniteGroup) -> Tuple[GroupHom, ...]:
    """Every homomorphism src -> tgt, sorted lexicographically by image tuple."""
    return _homs(src, tgt)


def _lifts_through(pi: GroupHom, theta: GroupHom) -> Tuple[GroupHom, ...]:
    """The homs h from theta's source into pi's source with ``pi∘h = theta``,
    in :func:`enumerate_homs` order.  A hom is fixed by its generators'
    images, so the search draws each generator g's image from pi's fibre
    over ``theta(g)`` and lists no other hom."""
    want = [theta.map[g] for g in generating_set(theta.source)]
    fibres = [[x for x, y in enumerate(pi.map) if y == w] for w in want]
    return _homs(theta.source, pi.source, fibres)


def image(hom: GroupHom) -> "Subgroup":
    """The image of hom, trusted without a check: the image of a
    homomorphism is a subgroup by construction."""
    return _trusted(Subgroup, hom.target, tuple(sorted(set(hom.map))))


def is_surjective(hom: GroupHom) -> bool:
    return len(set(hom.map)) == hom.target.order


def is_bijective(hom: GroupHom) -> bool:
    return hom.source.order == hom.target.order == len(set(hom.map))


def _factor(q: GroupHom, f: GroupHom) -> GroupHom:
    """The hom h on the target of the surjection q with ``h∘q = f``, read
    off the least preimage of each element and validated.  Raises
    InvariantViolation when f is not constant on the fibres of q."""
    least = {}
    for x in q.source.elements:
        least.setdefault(q.map[x], f.map[x])
    h = tuple(least[y] for y in q.target.elements)
    if tuple(h[y] for y in q.map) != f.map:
        raise InvariantViolation("the map does not factor through the quotient")
    return GroupHom(q.target, f.target, h)


def inverse_hom(hom: GroupHom) -> GroupHom:
    if not is_bijective(hom):
        raise ValidationError("only bijective homomorphisms can be inverted")
    return _factor(hom, identity_hom(hom.source))


# ---------------------------------------------------------------------------
# subgroups


class Subgroup(_Record):
    """A validated subgroup: a sorted tuple of integer elements of a parent group.

    Closure is checked on generators: the span of greedy generators
    (:func:`_greedy_generators`) must stay inside the element set.  A
    finite set with the identity that is closed under products holds every
    inverse too.
    """

    _fields = {"parent": FiniteGroup, "elements": tuple}
    _error = NotASubgroup

    def __post_init__(self) -> None:
        elems = self.elements
        _check_indices(elems, self.parent.order, NotASubgroup, "element")
        if tuple(sorted(set(elems))) != elems:
            raise NotASubgroup(f"element list {elems} is not sorted and duplicate-free")
        eset = frozenset(elems)
        e, table = self.parent.identity, self.parent.table
        if e not in eset:
            raise NotASubgroup(f"identity {e} missing from {elems}")
        gens, span = _greedy_generators(table, e, elems, within=eset)
        if not span <= eset:
            # the span is reached from e by steps a -> a*g, so one step leaves
            a, g = next(
                (a, g) for a in sorted(span & eset) for g in gens if table[a][g] not in eset
            )
            raise NotASubgroup(f"product {a}*{g} = {table[a][g]} escapes {elems}")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"<subgroup of {self.parent.label or '?'}: {self.elements}>"


def subgroup(parent: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    elements = _as_tuple(elements, NotASubgroup, "element list")
    _check_indices(elements, parent.order, NotASubgroup, "element")
    return Subgroup(parent, tuple(sorted(set(elements))))


def subgroup_generated(parent: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """The span of ``gens``, trusted without a check: once the generators
    are checked, their closure is a subgroup by construction."""
    gens = _as_tuple(gens, NotASubgroup, "generator list")
    _check_indices(gens, parent.order, NotASubgroup, "element")
    elements = tuple(sorted(_close_elements(parent.table, parent.identity, gens)))
    return _trusted(Subgroup, parent, elements)


def trivial_subgroup(parent: FiniteGroup) -> Subgroup:
    return Subgroup(parent, (parent.identity,))


def full_subgroup(parent: FiniteGroup) -> Subgroup:
    return Subgroup(parent, tuple(parent.elements))


def subgroup_as_group(sub: Subgroup) -> Tuple[FiniteGroup, GroupHom]:
    """Re-tabulate a subgroup as a standalone group plus its inclusion hom.

    The group laws pass from the validated parent to the subgroup, so
    neither the group nor the inclusion is checked again.
    """
    parent, elems = sub.parent, sub.elements
    index = {g: i for i, g in enumerate(elems)}
    ptable = parent.table
    table = tuple(tuple(index[ptable[a][b]] for b in elems) for a in elems)
    label = f"{parent.label}[{len(elems)}]" if parent.label else None
    grp = FiniteGroup(table, label)
    return grp, _trusted(GroupHom, grp, parent, elems)


def _normality_witness(sub: Subgroup) -> Optional[Tuple[int, int]]:
    """The first ``(g, h)``, g in the parent and h in ``sub`` in element
    order, with ``g*h*g^-1`` outside ``sub``; None when ``sub`` is normal.

    A subgroup is normal exactly when it is a union of conjugacy classes
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 2005).
    The classes that ``sub`` meets, read off the cached :func:`class_index`,
    cover it, so they are ``sub`` itself exactly when they hold |sub|
    elements in all.  The scan over all pairs runs only to name the witness.
    """
    parent, elems = sub.parent, sub.elements
    ci, classes = class_index(parent), conjugacy_classes(parent)
    if sum(len(classes[i]) for i in {ci[h] for h in elems}) == len(elems):
        return None
    eset = frozenset(elems)
    return next(
        (g, h) for g in parent.elements for h in elems if parent.conj(g, h) not in eset
    )


def is_normal(sub: Subgroup) -> bool:
    return _normality_witness(sub) is None


# ---------------------------------------------------------------------------
# conjugacy


@lru_cache(maxsize=None)
def conjugacy_classes(group: FiniteGroup) -> Tuple[Tuple[int, ...], ...]:
    """Conjugacy classes as sorted tuples, ordered by least member; each is
    closed under conjugation by greedy generators (:func:`_greedy_generators`)."""
    gens, _ = _greedy_generators(group.table, group.identity, group.elements)
    return _orbit_partition(list(group.elements), lambda x: [group.conj(g, x) for g in gens])


@lru_cache(maxsize=None)
def class_index(group: FiniteGroup) -> Tuple[int, ...]:
    """class_index(G)[g] is the index of g's conjugacy class."""
    idx = [0] * group.order
    for i, cls in enumerate(conjugacy_classes(group)):
        for g in cls:
            idx[g] = i
    return tuple(idx)


class JordanCover(_Record):
    """Union of all conjugates of a subgroup, with the covering estimate.

    ``len(union) <= group_order - index + 1`` always holds; the union is the
    whole group exactly when the subgroup already is.
    """

    _fields = {"union": frozenset, "group_order": int, "index": int}

    @property
    def bound(self) -> int:
        return self.group_order - self.index + 1

    @property
    def covers(self) -> bool:
        return len(self.union) == self.group_order

    def triple(self) -> Tuple[int, int, int]:
        return self.group_order, self.index, len(self.union)


def union_of_conjugates(sub: Subgroup) -> JordanCover:
    """All conjugates of ``sub`` in its parent, pooled, with the Jordan triple.

    The pool is the union of the conjugacy classes that meet ``sub``, read
    off the cached :func:`class_index`.
    """
    group = sub.parent
    ci = class_index(group)
    met = {ci[h] for h in sub.elements}
    union = frozenset(g for g, i in enumerate(ci) if i in met)
    return JordanCover(union, group.order, group.order // sub.order)


def is_class_preserving(hom: GroupHom) -> bool:
    """Does an endomorphism send every element into its own conjugacy class?"""
    if hom.source != hom.target:
        raise ValidationError("class preservation is only defined for endomorphisms")
    ci = class_index(hom.source)
    return all(ci[hom.map[g]] == ci[g] for g in hom.source.elements)


# ---------------------------------------------------------------------------
# quotients and subgroup lattices


def quotient(group: FiniteGroup, sub: Subgroup) -> Tuple[FiniteGroup, GroupHom]:
    """The quotient by a normal subgroup plus the projection hom.

    Cosets are indexed by their least member, in increasing order.  The
    elements are read in increasing order, so each one not yet placed is
    the least member of a new coset, read off its row of ``group.table``.
    ``group`` names the quotient: a cached subgroup's parent may be an
    equal group under another label.
    """
    if sub.parent != group:
        raise NotASubgroup("subgroup belongs to a different parent group")
    witness = _normality_witness(sub)
    if witness is not None:
        g, h = witness
        raise NotNormal(f"conjugate {g}*{h}*{g}^-1 = {group.conj(g, h)} escapes the subgroup")
    gt = group.table
    coset_of = [-1] * group.order
    reps = []
    for g in group.elements:
        if coset_of[g] < 0:
            row = gt[g]
            for h in sub.elements:
                coset_of[row[h]] = len(reps)
            reps.append(g)
    table = tuple(tuple(coset_of[row[b]] for b in reps) for row in map(gt.__getitem__, reps))
    label = f"{group.label}/{sub.order}" if group.label else None
    quot = FiniteGroup(table, label)
    proj = _trusted(GroupHom, group, quot, tuple(coset_of))
    return quot, proj


@lru_cache(maxsize=None)
def all_subgroups(group: FiniteGroup) -> Tuple[Subgroup, ...]:
    """Every subgroup, sorted by order then element tuple.

    Each subgroup H found is kept with the generators that reached it, and
    grows by closing those generators plus one more element g.  Since
    ``<H, g> = <H, h*g>`` for every h in H, only the least element of each
    coset H*g is tried.  A closure is a subgroup, so none is checked again.
    """
    table, e = group.table, group.identity
    trivial = frozenset([e])
    found = {trivial}
    frontier = [((), trivial)]
    while frontier:
        nxt = []
        for gens, base in frontier:
            tried = set(base)
            for g in group.elements:
                if g in tried:
                    continue
                tried.update(table[h][g] for h in base)
                grown = _close_elements(table, e, (*gens, g))
                if grown not in found:
                    found.add(grown)
                    nxt.append(((*gens, g), grown))
        frontier = nxt
    tuples = sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t))
    return tuple(_trusted(Subgroup, group, t) for t in tuples)


@lru_cache(maxsize=None)
def all_normal_subgroups(group: FiniteGroup) -> Tuple[Subgroup, ...]:
    return tuple(filter(is_normal, all_subgroups(group)))


def all_normal_subgroups_between(sub: Subgroup) -> Tuple[Subgroup, ...]:
    """Normal subgroups of ``sub``'s parent contained in ``sub`` (trivial one included)."""
    allowed = frozenset(sub.elements)
    return tuple(n for n in all_normal_subgroups(sub.parent) if allowed.issuperset(n.elements))


@lru_cache(maxsize=None)
def automorphisms(group: FiniteGroup) -> Tuple[GroupHom, ...]:
    """The bijective maps the hom search ``group -> group`` finds, sorted, as
    trusted homs.  Over its candidate budget, or :data:`DEFAULT_CLOSURE_BOUND`
    automorphisms, it raises :class:`BoundExceeded` before building any."""
    found = _derivation_search(group, group, _identity_rows(group, group))
    maps = [m for m in found if len(set(m)) == group.order]
    _check_order(len(maps), "automorphism group order")
    return tuple(_trusted(GroupHom, group, group, m) for m in maps)


@lru_cache(maxsize=None)
def automorphism_group(group: FiniteGroup) -> Tuple[FiniteGroup, Tuple[GroupHom, ...]]:
    """Aut(group) as a permutation group on the elements of ``group``: its
    table and the automorphism list it indexes.  The table is
    :func:`group_from_permutations` on the automorphisms taken greedily from
    the list, each one those before it do not generate.  That builder sorts
    its elements as the list is sorted and multiplies as ``p(q(x))``, so
    entry i*j is auts[i] after auts[j].  :func:`automorphisms` refuses an
    oversize Aut(group) first, so no closure is tried."""
    auts = automorphisms(group)
    label = f"Aut({group.label})" if group.label else None
    gens: list = []
    aut, span = group_from_permutations(group.order, gens, label)
    for a in auts:
        if a.map not in span:
            gens.append(a.map)
            aut, perms = group_from_permutations(group.order, gens, label)
            span = frozenset(perms)
    return aut, auts


def _orbit_partition(
    points: Sequence[Hashable],
    moves: Callable[[Hashable], Iterable[Hashable]],
) -> Tuple[Tuple[int, ...], ...]:
    """Partition points into orbits, each the closure of a point under ``moves``.

    ``moves`` must give a point's images under the generators of a group
    action; the closure under generators is then the whole orbit.  It is
    found by a frontier search, which may pass through images that are not
    points; only the points are kept.  Classes are returned as sorted index
    tuples, ordered by least member.
    """
    index = {p: i for i, p in enumerate(points)}
    classed = [False] * len(points)
    classes = []
    for i, p in enumerate(points):
        if classed[i]:
            continue
        orbit = {p}
        frontier = [p]
        while frontier:
            nxt = []
            for q in frontier:
                for r in moves(q):
                    if r not in orbit:
                        orbit.add(r)
                        nxt.append(r)
            frontier = nxt
        members = sorted(index[q] for q in orbit if q in index)
        for j in members:
            classed[j] = True
        classes.append(tuple(members))
    return tuple(classes)


def partition_by_conjugation(
    homs: Sequence[GroupHom], conjugators: Iterable[int]
) -> Tuple[Tuple[int, ...], ...]:
    """Partition homs with distinct maps and a common target by pointwise
    conjugation.

    ``h ~ h'`` when some listed conjugator c has ``h'(x) = c h(x) c^-1`` for
    all x.  The conjugators must be elements of the target that form a
    subgroup, so that this is an equivalence and their greedy generators
    reach every class; any other list, and a hom list with a repeated map
    or a second target, raises ValidationError.  Classes are returned as
    sorted index tuples, ordered by least member.
    """
    homs = _as_tuple(homs, ValidationError, "homs")
    _check_types(homs, (GroupHom,) * len(homs), ValidationError, "hom {}", range(len(homs)))
    if not homs:
        return ()
    tgt = homs[0].target
    first: Dict[Tuple[int, ...], int] = {}
    for i, h in enumerate(homs):
        if h.target != tgt:
            raise ValidationError(f"hom {i}'s target {h.target!r} differs from hom 0's {tgt!r}")
        j = first.setdefault(h.map, i)
        if j != i:
            raise ValidationError(f"hom {i} repeats hom {j}'s map {h.map}")
    conjs = _as_tuple(conjugators, ValidationError, "conjugators")
    _check_indices(conjs, tgt.order, ValidationError, "conjugator")
    listed = frozenset(conjs)
    gens, span = _greedy_generators(tgt.table, tgt.identity, conjs, within=listed)
    if not span <= listed:
        raise ValidationError(
            f"conjugators do not form a subgroup: {min(span - listed)} is in their span"
        )
    rows = [tuple(tgt.conj(c, y) for y in tgt.elements) for c in gens]
    return _orbit_partition(
        [h.map for h in homs],
        lambda f: [tuple(map(row.__getitem__, f)) for row in rows],
    )
