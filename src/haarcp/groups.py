"""Finite groups as dense Cayley tables with element indices 0..n-1.

Everything downstream (commuting probability, isoclinism, classification)
works over this representation: a group is its multiplication table, a
subgroup is a sorted index list into its parent, and a transversal is a
list of coset representatives.  All functions here are pure; groups and
subgroups are treated as immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ClosureExceedsCap,
    EmptyGeneratorList,
    IndexOutOfRange,
    NotASubgroup,
    NotNormal,
)

DEFAULT_CLOSURE_CAP = 20000

Perm = tuple[int, ...]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on element indices 0..order-1 with a full Cayley table."""

    order: int
    mul_table: tuple[tuple[int, ...], ...]
    identity: int
    inverse_table: tuple[int, ...]
    name: str = "G"

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse_table[a]

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

    def is_abelian(self) -> bool:
        t = self.mul_table
        return all(
            t[a][b] == t[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a parent group, stored as a sorted index list."""

    parent: FiniteGroup
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def __contains__(self, g: int) -> bool:
        return g in self.member_set

    @property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)


@dataclass(frozen=True)
class Transversal:
    """Coset representatives, one per left coset of `subgroup` in its parent."""

    subgroup: Subgroup
    reps: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.reps)


def make_group(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Build a FiniteGroup from a Cayley table, locating identity and inverses.

    Raises ValueError if no two-sided identity or some inverse is missing;
    full associativity checking is deliberately left to verify_axioms (it is
    cubic and belongs in tests, not on every construction).
    """
    n = len(table)
    rows = tuple(tuple(row) for row in table)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not 0 <= v < n:
                raise ValueError(f"table entry {v} out of range 0..{n - 1}")
    identity = None
    for e in range(n):
        if all(rows[e][g] == g and rows[g][e] == g for g in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("no two-sided identity in table")
    inverses = []
    for g in range(n):
        inv = next(
            (h for h in range(n) if rows[g][h] == identity and rows[h][g] == identity),
            None,
        )
        if inv is None:
            raise ValueError(f"element {g} has no two-sided inverse")
        inverses.append(inv)
    return FiniteGroup(n, rows, identity, tuple(inverses), name)


def verify_axioms(G: FiniteGroup, max_exhaustive: int = 512, samples: int = 20000,
                  seed: int = 0) -> bool:
    """Check associativity on all triples (orders <= max_exhaustive) or a sample."""
    import random

    t = G.mul_table
    n = G.order
    if n <= max_exhaustive:
        # numpy makes the cubic check affordable at order 512
        import numpy as np

        a = np.asarray(t, dtype=np.int64)
        for i in range(n):
            if not np.array_equal(a[a[i]], a[i][a]):
                return False
        return True
    rng = random.Random(seed)
    for _ in range(samples):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if t[t[a][b]][c] != t[a][t[b][c]]:
            return False
    return True


# -- closure ---------------------------------------------------------------


def _bfs_closure(start, gens, mul, cap: int | None = None, cap_message: str = ""):
    """Everything reachable from start by right multiplication with gens.

    Returns (elements in BFS order, element -> position).  Raises
    ClosureExceedsCap(cap_message) before the element list passes cap.
    """
    elements = [start]
    index = {start: 0}
    for x in elements:  # the list grows while it is walked: a FIFO queue
        for g in gens:
            y = mul(x, g)
            if y not in index:
                if cap is not None and len(elements) >= cap:
                    raise ClosureExceedsCap(cap_message)
                index[y] = len(elements)
                elements.append(y)
    return elements, index


def _compose(p: Perm, q: Perm) -> Perm:
    """(p then q): point i maps to q[p[i]]."""
    return tuple(q[i] for i in p)


def close_generators(
    perms: Sequence[Perm], cap: int = DEFAULT_CLOSURE_CAP, name: str = "G"
) -> FiniteGroup:
    """Group generated by permutations, indexed in BFS order from the identity."""
    if not perms:
        raise EmptyGeneratorList("need at least one generator")
    degree = len(perms[0])
    for p in perms:
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {p}")
    elements, index = _bfs_closure(
        tuple(range(degree)), perms, _compose, cap,
        f"closure exceeds cap {cap} (degree {degree})",
    )
    n = len(elements)
    table = [[index[_compose(elements[a], elements[b])] for b in range(n)]
             for a in range(n)]
    return make_group(table, name=name)


# -- subgroup machinery ----------------------------------------------------


def subgroup_from_members(G: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Wrap a member set as a Subgroup, verifying closure and inverses."""
    ms = sorted(set(members))
    mset = set(ms)
    if G.identity not in mset:
        raise NotASubgroup("identity not in member set")
    for a in ms:
        if G.inv(a) not in mset:
            raise NotASubgroup(f"inverse of {a} missing")
        for b in ms:
            if G.mul(a, b) not in mset:
                raise NotASubgroup(f"product {a}*{b} escapes member set")
    return Subgroup(G, tuple(ms))


def generated_subgroup(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Subgroup generated by the given element indices."""
    elements, _ = _bfs_closure(G.identity, set(gens), G.mul)
    return Subgroup(G, tuple(sorted(elements)))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (G.identity,))


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def center(G: FiniteGroup) -> Subgroup:
    t = G.mul_table
    members = [
        z for z in range(G.order)
        if all(t[z][g] == t[g][z] for g in range(G.order))
    ]
    return Subgroup(G, tuple(members))


def centralizer(G: FiniteGroup, g: int) -> Subgroup:
    if not 0 <= g < G.order:
        raise IndexOutOfRange(f"element index {g} not in 0..{G.order - 1}")
    t = G.mul_table
    members = [a for a in range(G.order) if t[a][g] == t[g][a]]
    return Subgroup(G, tuple(members))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    return derived_subgroup_of(whole_subgroup(G))


def derived_subgroup_of(S: Subgroup) -> Subgroup:
    """Derived subgroup of a subgroup, as a subgroup of the same parent."""
    G = S.parent
    comms = {G.commutator(x, y) for x in S.members for y in S.members}
    return generated_subgroup(G, comms)


def conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Conjugation orbits, ordered by smallest member."""
    seen = [False] * G.order
    classes = []
    for x in range(G.order):
        if seen[x]:
            continue
        orbit = sorted({G.conj(g, x) for g in range(G.order)})
        for y in orbit:
            seen[y] = True
        classes.append(tuple(orbit))
    return classes


def left_transversal(G: FiniteGroup, H: Subgroup) -> Transversal:
    """One representative per left coset rep*H, smallest unassigned index first."""
    if H.parent is not G:
        raise NotASubgroup("subgroup belongs to a different parent group")
    assigned = [False] * G.order
    reps = []
    for g in range(G.order):
        if assigned[g]:
            continue
        reps.append(g)
        for h in H.members:
            assigned[G.mul(g, h)] = True
    return Transversal(H, tuple(reps))


def is_normal(G: FiniteGroup, N: Subgroup) -> bool:
    mset = N.member_set
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


def direct_product(
    G: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_CLOSURE_CAP, name: str | None = None
) -> FiniteGroup:
    """Componentwise product on index pairs, flattened row-major: (g, h) -> g*|H| + h."""
    n = G.order * H.order
    if n > cap:
        raise ClosureExceedsCap(f"product order {n} exceeds cap {cap}")
    m = H.order
    table = [
        [G.mul_table[a1][a2] * m + H.mul_table[b1][b2] for a2 in range(G.order)
         for b2 in range(m)]
        for a1 in range(G.order)
        for b1 in range(m)
    ]
    return make_group(table, name=name or f"{G.name} x {H.name}")


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """Quotient group G/N plus the projection element-index -> coset-index."""
    if N.parent is not G:
        raise NotASubgroup("subgroup belongs to a different parent group")
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    proj = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if proj[g] >= 0:
            continue
        c = len(reps)
        reps.append(g)
        for h in N.members:
            proj[G.mul(g, h)] = c
    k = len(reps)
    table = [[proj[G.mul(reps[a], reps[b])] for b in range(k)] for a in range(k)]
    Q = make_group(table, name=f"{G.name}/N{N.order}")
    return Q, proj


def subgroup_as_group(S: Subgroup, name: str | None = None) -> tuple[FiniteGroup, list[int]]:
    """Re-index a subgroup as a standalone group; returns (group, embedding).

    embedding[i] is the parent element index of the new group's element i.
    """
    G = S.parent
    emb = list(S.members)
    pos = {g: i for i, g in enumerate(emb)}
    table = [[pos[G.mul(a, b)] for b in emb] for a in emb]
    return make_group(table, name=name or f"{G.name}|{S.order}"), emb


def product_set(G: FiniteGroup, A: Iterable[int], B: Iterable[int]) -> set[int]:
    """The set {a*b : a in A, b in B}."""
    bl = list(B)
    return {G.mul(a, b) for a in A for b in bl}


# -- invariant fingerprints (used for isomorphism screening and is_a5) -----


def element_order_histogram(G: FiniteGroup) -> dict[int, int]:
    hist: dict[int, int] = {}
    for g in range(G.order):
        o = G.element_order(g)
        hist[o] = hist.get(o, 0) + 1
    return hist


def class_size_multiset(G: FiniteGroup) -> tuple[int, ...]:
    return tuple(sorted(len(c) for c in conjugacy_classes(G)))


def is_perfect(G: FiniteGroup) -> bool:
    return derived_subgroup(G).order == G.order


def is_a5(G: FiniteGroup) -> bool:
    """Recognize the alternating group of degree 5 by its class census.

    Order 60 with class sizes {1, 12, 12, 15, 20} and a perfect derived
    subgroup pins down A5 among all order-60 groups; the census test is
    cross-checked against isomorphism search in the test suite.
    """
    if G.order != 60:
        return False
    if class_size_multiset(G) != (1, 12, 12, 15, 20):
        return False
    return is_perfect(G)
