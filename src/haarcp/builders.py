"""Named constructors for the groups the engine ships with."""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Sequence

from .groups import (
    FiniteGroup,
    Perm,
    _compose,
    close_generators,
    greedy_generators,
    make_group,
    table_from_left,
)


def group_from_elements(
    elements: Sequence[Hashable],
    mul: Callable,
    name: str,
) -> FiniteGroup:
    """Cayley table from an element list and a multiplication function.

    Only the left multiplications by a greedy generating set are computed
    with mul; table_from_left gathers the rest of the table from them, and
    the set is the group's generators.
    """
    index = {e: i for i, e in enumerate(elements)}
    identity = next(i for i, e in enumerate(elements) if mul(e, e) == e)
    gens = greedy_generators(elements[identity], elements, mul)
    left = [[index[mul(g, x)] for x in elements] for g in gens]
    rows, inverses = table_from_left(left, identity, tuple(range(len(elements))))
    return make_group(rows, name, identity=identity, inverses=inverses,
                      generators=[index[g] for g in gens])


def trivial() -> FiniteGroup:
    return make_group([[0]], "1", identity=0, inverses=[0], generators=())


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    ints = tuple(range(n))
    return make_group([ints[a:] + ints[:a] for a in range(n)], f"C{n}",
                      identity=0, inverses=ints[:1] + ints[:0:-1],  # -a mod n: 0, n-1, ..., 1
                      generators=ints[1:2])


def klein4() -> FiniteGroup:
    # C2 x C2 with xor multiplication: every element is its own inverse
    table = [[a ^ b for b in range(4)] for a in range(4)]
    return make_group(table, "V4", identity=0, inverses=range(4), generators=(1, 2))


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group D_n of order 2n (symmetries of the n-gon), n >= 1."""
    if n < 1:
        raise ValueError("dihedral parameter must be >= 1")

    # element (r, s): rotation by r composed with s reflections, s in {0, 1}
    def mul(x, y):
        r1, s1 = x
        r2, s2 = y
        if s1 == 0:
            return ((r1 + r2) % n, s2)
        return ((r1 - r2) % n, 1 - s2)

    elems = [(r, s) for s in (0, 1) for r in range(n)]
    return group_from_elements(elems, mul, name=f"D{n}")


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n points as a table over all permutations."""
    if n < 1:
        raise ValueError("symmetric degree must be >= 1")
    perms: list[Perm] = sorted(itertools.permutations(range(n)))
    return group_from_elements(perms, _compose, name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    """Alternating group on n points (even permutations)."""
    if n < 1:
        raise ValueError("alternating degree must be >= 1")
    perms = sorted(p for p in itertools.permutations(range(n)) if _is_even(p))
    return group_from_elements(perms, _compose, name=f"A{n}")


def _is_even(p: Perm) -> bool:
    inv = sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )
    return inv % 2 == 0


def quaternion8() -> FiniteGroup:
    """The quaternion group {±1, ±i, ±j, ±k}."""
    # encode q = (sign, axis) with axis in {1, i, j, k}
    axes = "1ijk"
    mult = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }

    def mul(x, y):
        s1, a1 = x
        s2, a2 = y
        s3, a3 = mult[(a1, a2)]
        return (s1 * s2 * s3, a3)

    elems = [(s, a) for s in (1, -1) for a in axes]
    return group_from_elements(elems, mul, name="Q8")


def extraspecial27_exponent3() -> FiniteGroup:
    """The Heisenberg group over F_3: order 27, exponent 3."""

    def mul(x, y):
        a1, b1, c1 = x
        a2, b2, c2 = y
        return ((a1 + a2) % 3, (b1 + b2) % 3, (c1 + c2 + a1 * b2) % 3)

    elems = list(itertools.product(range(3), repeat=3))
    return group_from_elements(elems, mul, name="ES27+")


def extraspecial27_exponent9() -> FiniteGroup:
    """The group <x, y | x^9 = y^3 = 1, y^-1 x y = x^4>: order 27, exponent 9."""

    # element x^a y^b; y^b x^a' = x^(a' * 4^b) y^b
    def mul(u, v):
        a1, b1 = u
        a2, b2 = v
        return ((a1 + a2 * pow(4, b1, 9)) % 9, (b1 + b2) % 3)

    elems = [(a, b) for a in range(9) for b in range(3)]
    return group_from_elements(elems, mul, name="ES27-")


def sl25() -> FiniteGroup:
    """SL(2, 5) of order 120, acting on the 24 nonzero vectors of F_5^2."""
    points = [(x, y) for x in range(5) for y in range(5) if (x, y) != (0, 0)]
    pos = {v: i for i, v in enumerate(points)}

    def perm_of(matrix) -> Perm:
        a, b, c, d = matrix
        return tuple(
            pos[((a * x + b * y) % 5, (c * x + d * y) % 5)] for (x, y) in points
        )

    gens = [perm_of((1, 1, 0, 1)), perm_of((0, -1 % 5, 1, 0))]
    G = close_generators(gens, name="SL(2,5)")
    assert G.order == 120
    return G
