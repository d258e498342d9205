"""Table construction against direct oracles.

Every builder must give the table a direct construction gives: element
products looked up by index, one entry at a time.  The oracles below are
that construction, kept independent of the library's builders.
"""

import random

import pytest

from haarcp import builders
from haarcp.corpus import builtin_corpus
from haarcp.groups import (
    Subgroup,
    center,
    centralizer,
    close_generators,
    derived_subgroup,
    derived_subgroup_of,
    direct_product,
    generated_subgroup,
    make_group,
    quotient,
    subgroup_as_group,
    whole_subgroup,
)


def oracle_table(elements, mul):
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[mul(a, b)] for b in elements) for a in elements)


def oracle_identity_and_inverses(t):
    n = len(t)
    e = next(e for e in range(n) if all(t[e][g] == g and t[g][e] == g for g in range(n)))
    inv = tuple(next(h for h in range(n) if t[g][h] == e and t[h][g] == e) for g in range(n))
    return e, inv


def compose(p, q):
    return tuple(q[i] for i in p)


def oracle_closure(perms):
    elements = [tuple(range(len(perms[0])))]
    seen = {elements[0]}
    for x in elements:
        for g in perms:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def assert_matches(G, table):
    assert G.order == len(table)
    assert G.mul_table == table
    assert (G.identity, G.inverse_table) == oracle_identity_and_inverses(table)


def right_regular(G, gens):
    return [tuple(G.mul_table[x][g] for x in range(G.order)) for g in gens]


def oracle_derived(G, members):
    """Closure of all commutators of pairs of members."""
    comms = {G.commutator(x, y) for x in members for y in members}
    return generated_subgroup(G, comms).members


S6_GENS = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
A6_GENS = [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]


def random_gens(seed):
    rng = random.Random(seed)
    degree = 4 + seed % 3
    gens = []
    for _ in range(1 + seed % 2):
        p = list(range(degree))
        rng.shuffle(p)
        gens.append(tuple(p))
    return gens


RANDOM_SEEDS = range(9)


@pytest.fixture(scope="module")
def groups():
    """Every builtin up to order 120, S6, A6 and seeded random closures."""
    out = [G for _name, G in builtin_corpus(120)]
    out += [builders.symmetric(6), builders.alternating(6)]
    out += [close_generators(random_gens(s), name=f"R{s}") for s in RANDOM_SEEDS]
    return out


class TestMakeGroupRejects:
    @pytest.mark.parametrize("table, message", [
        ([[0, 1], [1]], "row 1 has length 1, expected 2"),
        ([[0, 1], [1, 2]], "table entry 2 out of range 0..1"),
        ([[0, -1], [1, 0]], "table entry -1 out of range 0..1"),
        ([[0, 1], [0, 1]], "no two-sided identity in table"),
        ([[1, 0], [1, 0]], "no two-sided identity in table"),
        ([[0, 1, 2], [1, 1, 1], [2, 1, 0]], "element 1 has no two-sided inverse"),
    ])
    def test_message(self, table, message):
        with pytest.raises(ValueError) as err:
            make_group(table)
        assert str(err.value) == message

    def test_first_bad_row_reported(self):
        with pytest.raises(ValueError) as err:
            make_group([[0, 1, 2], [1, 5, 9], [2]])
        assert str(err.value) == "table entry 5 out of range 0..2"

    def test_first_two_sided_inverse_taken(self):
        # row 1 holds the identity at 2 and 3, but only 3 is a two-sided inverse
        t = [[0, 1, 2, 3], [1, 1, 0, 0], [2, 2, 0, 1], [3, 0, 1, 0]]
        assert make_group(t).inverse_table == (0, 3, 2, 1)


class TestAgainstOracle:
    def test_close_generators_random(self):
        for s in RANDOM_SEEDS:
            gens = random_gens(s)
            elements = oracle_closure(gens)
            assert_matches(close_generators(gens), oracle_table(elements, compose))

    @pytest.mark.parametrize("gens", [S6_GENS, A6_GENS], ids=["S6", "A6"])
    def test_close_generators_degree_6(self, gens):
        elements = oracle_closure(gens)
        assert len(elements) in (720, 360)
        assert_matches(close_generators(gens), oracle_table(elements, compose))

    def test_close_generators_regular_builtins(self):
        # each builtin as the closure of the right-regular images of three elements
        for name, G in builtin_corpus(32):
            gens = right_regular(G, sorted({1 % G.order, G.order // 2, G.order - 1}))
            elements = oracle_closure(gens)
            assert_matches(close_generators(gens), oracle_table(elements, compose))

    def test_sl25(self, monkeypatch):
        seen = []
        real = builders.close_generators

        def spy(perms, cap, name):
            G = real(perms, cap=cap, name=name)
            seen.append(G)
            assert_matches(G, oracle_table(oracle_closure(perms), compose))
            return G

        monkeypatch.setattr(builders, "close_generators", spy)
        assert builders.sl25().order == 120
        assert len(seen) == 1

    def test_group_from_elements(self, monkeypatch):
        seen = []
        real = builders.group_from_elements

        def spy(elements, mul, name):
            G = real(elements, mul, name)
            seen.append(name)
            assert_matches(G, oracle_table(elements, mul))
            return G

        monkeypatch.setattr(builders, "group_from_elements", spy)
        for n in range(1, 61):
            builders.dihedral(n)
        for n in range(1, 7):
            builders.symmetric(n)
            builders.alternating(n)
        builders.quaternion8()
        builders.extraspecial27_exponent3()
        builders.extraspecial27_exponent9()
        assert len(seen) == 75

    def test_direct_product_both_orders(self, groups):
        small = [G for G in groups if G.order <= 24]
        factors = [builders.trivial(), builders.cyclic(2), builders.symmetric(3)]
        pairs = [(G, H) for G in small for H in factors]
        pairs.append((builders.alternating(5), builders.cyclic(6)))
        pairs.append((builders.symmetric(6), builders.cyclic(2)))
        for G, H in pairs:
            for A, B in ((G, H), (H, G)):
                # (a, b) -> a*|B| + b, so index[(a1, b1) * (a2, b2)] is this sum
                s, t, m = A.mul_table, B.mul_table, B.order
                table = tuple(
                    tuple(s[a1][a2] * m + t[b1][b2] for a2 in range(A.order) for b2 in range(m))
                    for a1 in range(A.order) for b1 in range(m)
                )
                assert_matches(direct_product(A, B), table)

    def test_quotient(self, groups):
        for G in groups:
            for N in (center(G), derived_subgroup(G), whole_subgroup(G)):
                Q, proj = quotient(G, N)
                reps, oracle_proj = [], [-1] * G.order
                for g in range(G.order):
                    if oracle_proj[g] < 0:
                        for h in N.members:
                            oracle_proj[G.mul(g, h)] = len(reps)
                        reps.append(g)
                assert list(proj) == oracle_proj
                table = tuple(tuple(oracle_proj[G.mul(a, b)] for b in reps) for a in reps)
                assert_matches(Q, table)

    def test_subgroup_as_group(self, groups):
        for G in groups:
            subs = [center(G), derived_subgroup(G), centralizer(G, G.order - 1),
                    generated_subgroup(G, [G.order // 2]), whole_subgroup(G)]
            for S in subs:
                K, emb = subgroup_as_group(S)
                assert list(emb) == list(S.members)
                assert_matches(K, oracle_table(S.members, G.mul))


class TestDerivedSubgroup:
    def test_equals_all_pairs_closure_along_series(self, groups):
        for G in groups:
            members = tuple(range(G.order))
            while True:
                expected = oracle_derived(G, members)
                assert derived_subgroup_of(Subgroup(G, members)).members == expected, G.name
                if expected == members:
                    break
                members = expected

    def test_on_centralizers(self, groups):
        # subgroups that are not terms of a derived series
        for G in groups:
            S = centralizer(G, G.order - 1)
            assert derived_subgroup_of(S).members == oracle_derived(G, S.members), G.name
