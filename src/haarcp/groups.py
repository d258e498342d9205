"""Finite groups as dense Cayley tables with element indices 0..n-1.

Everything downstream (commuting probability, isoclinism, classification)
works over this representation: a group is its multiplication table, a
subgroup is a sorted index list into its parent, and a transversal is a
list of coset representatives.  All functions here are pure; groups and
subgroups are treated as immutable after construction.
"""

from __future__ import annotations

from math import isqrt
from operator import eq, getitem, itemgetter
from typing import Callable, Hashable, Iterable, Sequence

from .errors import EmptyGeneratorList, NotNormal, TableBudgetExceeded

TABLE_BUDGET = 2**30  # bytes for one Cayley table, at 8 bytes per entry: order 11585 at most

Perm = tuple[int, ...]


class _Frozen:
    """Read-only slots: fields are set once, in __init__, through object.__setattr__.

    The group classes are slots classes, not NamedTuples like the records
    elsewhere, because kernels read their fields in hot loops (G.mul,
    G.commutes, G.conj), and a slot read is faster than a NamedTuple's
    field property.  They compare and hash by identity.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteGroup(_Frozen):
    """A finite group on element indices 0..order-1 with a full Cayley table."""

    __slots__ = ("order", "mul_table", "identity", "inverse_table", "name")

    def __init__(self, order: int, mul_table: tuple[tuple[int, ...], ...], identity: int,
                 inverse_table: tuple[int, ...], name: str = "G"):
        set_field = object.__setattr__
        set_field(self, "order", order)
        set_field(self, "mul_table", mul_table)
        set_field(self, "identity", identity)
        set_field(self, "inverse_table", inverse_table)
        set_field(self, "name", name)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def conj(self, g: int, x: int) -> int:
        """g^-1 x g."""
        t = self.mul_table
        return t[t[self.inverse_table[g]][x]][g]

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        t = self.mul_table
        return t[t[t[self.inverse_table[x]][self.inverse_table[y]]][x]][y]

    def commutes(self, a: int, b: int) -> bool:
        return self.mul_table[a][b] == self.mul_table[b][a]

    def element_order(self, a: int) -> int:
        n = 1
        x = a
        while x != self.identity:
            x = self.mul_table[x][a]
            n += 1
        return n

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup(_Frozen):
    """A subgroup of a parent group, stored as a sorted index list."""

    __slots__ = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...]):
        set_field = object.__setattr__
        set_field(self, "parent", parent)
        set_field(self, "members", members)

    def __repr__(self) -> str:
        return f"Subgroup(parent={self.parent!r}, members={self.members!r})"

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)


def make_group(table: Sequence[Sequence[int]], name: str = "G", identity: int | None = None,
               inverses: Sequence[int] | None = None) -> FiniteGroup:
    """Build a FiniteGroup from a Cayley table and its identity and inverses.

    Every construction knows its identity and inverses and passes them.  A
    table read from a file comes without them, and they are searched for:
    the identity is the first index whose row and column are the identity
    map, an element's inverse the first h with g*h = h*g = identity.  The
    search raises ValueError for a table with no two-sided identity or an
    element with no two-sided inverse.
    The table must be n rows of n entries in 0..n-1: builders make it so,
    and the `table` spec parser checks tables read from files.
    Associativity is not checked here: verify_axioms does that, and table
    specs read from files go through it.
    """
    rows = tuple(tuple(row) for row in table)
    if identity is None or inverses is None:
        identity, inverses = _search_identity_and_inverses(rows)
    return FiniteGroup(len(rows), rows, identity, tuple(inverses), name)


def _search_identity_and_inverses(rows: tuple[tuple[int, ...], ...]) -> tuple[int, list[int]]:
    """The first two-sided identity of a table, and each element's first
    two-sided inverse: about n^2/2 reads."""
    n = len(rows)
    ident = tuple(range(n))
    identity = next(
        (e for e in range(n)
         if rows[e] == ident and all(map(eq, map(itemgetter(e), rows), ident))),
        None,
    )
    if identity is None:
        raise ValueError("no two-sided identity in table")
    inverses = []
    for g, row in enumerate(rows):
        h = -1
        while True:
            try:
                h = row.index(identity, h + 1)
            except ValueError:
                raise ValueError(f"element {g} has no two-sided inverse") from None
            if rows[h][g] == identity:
                break
        inverses.append(h)
    return identity, inverses


def check_order(n: int, what: str) -> None:
    """Raise TableBudgetExceeded, naming what, when a table of order n would
    pass TABLE_BUDGET at 8 bytes per entry.  Every table, and every input
    that stands for one, is checked here before anything is allocated.
    TABLE_BUDGET is read at each call."""
    need = 8 * n * n
    if need > TABLE_BUDGET:
        raise TableBudgetExceeded(
            f"{what}: a table of order {n} needs {need} bytes, over the budget of {TABLE_BUDGET}")


def verify_axioms(G: FiniteGroup) -> bool:
    """Whether G's table is associative, by Light's test over a generating set.

    The elements g with (x*g)*y = x*(g*y) for all x, y are closed under
    products, so checking them for each g of a generating set decides
    associativity exactly.  For one g the check is a row comparison per x:
    the row of x*g against the row of x gathered through the row of g,
    O(k n^2) in all for k generators.
    """
    t = G.mul_table
    for g in greedy_generators(G.identity, range(G.order), G.mul):
        pick = _picker(t[g])
        for row in t:
            if t[row[g]] != pick(row):
                return False
    return True


# -- closure ---------------------------------------------------------------


def _grow(members: list, index: dict, gens: Sequence, mul: Callable, old: int,
          limit: int | None = None, what: str = "") -> None:
    """Close members, whose first old entries are closed under gens[:-1], under gens.

    index maps each member to its position; both grow in place, in BFS
    order.  From the first old members the walk crosses only x -> x*gens[-1];
    from every later one, each generator.  A fresh closure is the walk from
    [start] with old = 0.  Growing a span of s members by one generator to
    s' members takes s + k*(s' - s) products, so a span of n elements grown
    one generator at a time takes n*k.  Once members would pass limit, the
    order so far, limit + 1, goes to check_order with what.
    """
    edges = gens[-1:]
    for i, x in enumerate(members):  # members grows while it is walked: a FIFO queue
        if i == old:  # from here on every member is new: walk every generator
            edges = gens
        for g in edges:
            y = mul(x, g)
            if y not in index:
                if limit is not None and len(members) >= limit:
                    check_order(len(members) + 1, what)
                index[y] = len(members)
                members.append(y)


def greedy_generators(identity, elements: Iterable[Hashable], mul: Callable) -> list:
    """Members of elements, in their order, that are outside the span of the
    ones before.  Together they generate every element, each as a product
    of generators."""
    gens: list = []
    span, reached = [identity], {identity: 0}
    for x in elements:
        if x not in reached:
            gens.append(x)
            _grow(span, reached, gens, mul, len(span))
    return gens


def table_from_left(left: Sequence[Sequence[int]], identity: int, ids: tuple[int, ...]):
    """Cayley table rows and inverse table from the left-multiplication maps
    of a generating set.

    left[j][x] is the index of g_j * x.  Since (g_j x) b = g_j (x b), the
    row of g_j * x is row x mapped through left[j].  A walk from the
    identity, whose row is ids = (0, ..., n-1), fills every row with one
    C-level gather.  Each y = g_j * x the walk reaches has the inverse
    x^-1 * g_j^-1, and x comes earlier in the walk; left[j] is the row of
    g_j, so g_j^-1 is where it holds the identity.  That gives the inverse
    table in one more pass over the walk, O(n).
    """
    rows: list = [None] * len(ids)
    rows[identity] = ids
    queue = [identity]
    via = []  # (x, g_j^-1) for each y = g_j * x after the first in queue
    steps = [(m, m.index(identity)) for m in left]
    for x in queue:
        pick = _picker(rows[x])
        for m, m_inv in steps:
            y = m[x]
            if rows[y] is None:
                rows[y] = pick(m)
                queue.append(y)
                via.append((x, m_inv))
    inverses = [identity] * len(ids)
    for y, (x, m_inv) in zip(queue[1:], via):
        inverses[y] = rows[inverses[x]][m_inv]
    return rows, inverses


def _compose(p: Perm, q: Perm) -> Perm:
    """(p then q): point i maps to q[p[i]], gathered in one C-level call."""
    return _picker(p)(q)


def close_generators(perms: Sequence[Perm], name: str = "G") -> FiniteGroup:
    """Group generated by permutations, indexed in BFS order from the identity.

    The walk stops at the first element past the largest order the table
    budget admits, so the order its error names is a lower bound."""
    if not perms:
        raise EmptyGeneratorList("need at least one generator")
    degree = len(perms[0])
    for p in perms:
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {p}")
    elements = [tuple(range(degree))]
    index = {elements[0]: 0}
    limit = isqrt(TABLE_BUDGET // 8)  # the largest n with 8 n^2 <= TABLE_BUDGET
    what = f"closure of degree {degree} past order {limit}"
    _grow(elements, index, perms, _compose, 0, limit, what)
    left = [[index[_compose(g, x)] for x in elements] for g in perms]
    rows, inverses = table_from_left(left, 0, tuple(range(len(elements))))
    return make_group(rows, name, identity=0, inverses=inverses)


# -- subgroup machinery ----------------------------------------------------


def generated_subgroup(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Subgroup generated by the given element indices."""
    elements = [G.identity]
    _grow(elements, {G.identity: 0}, list(set(gens)), G.mul, 0)
    return Subgroup(G, tuple(sorted(elements)))


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def center(G: FiniteGroup) -> Subgroup:
    t = G.mul_table
    members = [z for z, row in enumerate(t) if all(map(eq, row, map(itemgetter(z), t)))]
    return Subgroup(G, tuple(members))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    return derived_subgroup_of(whole_subgroup(G))


def derived_subgroup_of(S: Subgroup) -> Subgroup:
    """Derived subgroup of a subgroup, as a subgroup of the same parent.

    S' is the normal closure in S of the commutators of a generating set X
    of S: that closure lies in S', and S modulo it is generated by commuting
    images of X, so it is abelian.  Conjugating by X suffices, since a
    finite subgroup mapped into itself by g is mapped onto itself.
    """
    G = S.parent
    X = greedy_generators(G.identity, S.members, G.mul)
    gens = list({G.commutator(x, y) for i, x in enumerate(X) for y in X[i + 1:]})
    N, index = [G.identity], {G.identity: 0}
    _grow(N, index, gens, G.mul, 0)
    for c in gens:  # gens grows while it is walked: new ones are conjugated too
        for x in X:
            y = G.conj(x, c)
            if y not in index:
                gens.append(y)
                _grow(N, index, gens, G.mul, len(N))
    return Subgroup(G, tuple(sorted(N)))


def conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Conjugation orbits, ordered by smallest member."""
    t = G.mul_table
    inverse_rows = _picker(G.inverse_table)(t)  # the row of g^-1 maps x*g to g^-1 x g
    seen = [False] * G.order
    classes = []
    for x in range(G.order):
        if seen[x]:
            continue
        orbit = sorted(set(map(getitem, inverse_rows, t[x])))
        for y in orbit:
            seen[y] = True
        classes.append(tuple(orbit))
    return classes


def _cosets(H: Subgroup) -> tuple[list[int], list[int]]:
    """(projection, representatives) of the left cosets g*H in H.parent,
    smallest unassigned g first."""
    G = H.parent
    proj = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if proj[g] >= 0:
            continue
        c = len(reps)
        reps.append(g)
        for h in H.members:
            proj[G.mul(g, h)] = c
    return proj, reps


def is_normal(N: Subgroup) -> bool:
    G, mset = N.parent, N.member_set
    return all(G.conj(g, x) in mset for g in range(G.order) for x in N.members)


def is_solvable(G: FiniteGroup) -> bool:
    """True iff the derived series reaches the trivial subgroup."""
    return derived_series(G)[-1].order == 1


def derived_series(G: FiniteGroup) -> list[Subgroup]:
    """G > G' > G'' > ..., ending at the trivial group or where it stabilizes."""
    series = [whole_subgroup(G)]
    while True:
        nxt = derived_subgroup_of(series[-1])
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
        if nxt.order == 1:
            break
    return series


# -- constructions ---------------------------------------------------------


def _picker(idx: Sequence[int]) -> Callable:
    """seq -> tuple(seq[i] for i in idx), as one C-level itemgetter call."""
    if len(idx) < 2:  # itemgetter needs an index, and returns one item bare
        return lambda seq: tuple(seq[i] for i in idx)
    return itemgetter(*idx)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Componentwise product on index pairs, flattened row-major: (g, h) -> g*|H| + h.

    The table is walked from the left maps of (g, 1) and (1, h) for
    generators g of G and h of H.
    """
    n = G.order * H.order
    check_order(n, f"product {G.name} x {H.name}")
    s, t, m = G.mul_table, H.mul_table, H.order
    # every map is cut from the identity row's tuple, so the table holds n int objects
    ids = tuple(range(n))
    blocks = [ids[a * m:a * m + m] for a in range(G.order)]
    left = [[x for c in s[g] for x in blocks[c]]
            for g in greedy_generators(G.identity, range(G.order), G.mul)]
    for h in greedy_generators(H.identity, range(m), H.mul):
        pick = _picker(t[h])
        left.append([x for block in blocks for x in pick(block)])
    identity = G.identity * m + H.identity
    rows, inverses = table_from_left(left, identity, ids)
    return make_group(rows, f"{G.name} x {H.name}", identity=identity, inverses=inverses)


def quotient(N: Subgroup) -> tuple[FiniteGroup, list[int], list[int]]:
    """G/N for G = N.parent, the projection element-index -> coset-index,
    and each coset's smallest member."""
    G = N.parent
    proj, reps = _cosets(N)
    if not is_normal(N):
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    pick = _picker(reps)
    table = tuple(_picker(pick(G.mul_table[r]))(proj) for r in reps)
    inverses = _picker(pick(G.inverse_table))(proj)
    Q = make_group(table, f"{G.name}/N{N.order}", identity=proj[G.identity], inverses=inverses)
    return Q, proj, reps


def subgroup_as_group(S: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Re-index a subgroup as a standalone group; returns (group, embedding).

    embedding[i] is the parent element index of the new group's element i.
    """
    G = S.parent
    emb = list(S.members)
    pos = [-1] * G.order
    for i, g in enumerate(emb):
        pos[g] = i
    pick = _picker(emb)
    table = tuple(_picker(pick(G.mul_table[a]))(pos) for a in emb)
    inverses = _picker(pick(G.inverse_table))(pos)
    return make_group(table, f"{G.name}|{S.order}", identity=pos[G.identity],
                      inverses=inverses), emb
