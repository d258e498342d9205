"""Differential tests against sympy's permutation groups.

sympy computes each invariant by its own algorithms (Schreier-Sims,
conjugacy class enumeration on permutations), not from a Cayley table, so
an agreement here is evidence that does not come from the engine agreeing
with itself.
"""

import functools
import random
from fractions import Fraction

import pytest

from haarcp.classify import Verdict, classify_high_cp
from haarcp.cp import cp_class_count, cp_coset_formula, cp_pair_count
from haarcp.groups import center, close_generators, conjugacy_classes, derived_subgroup

sympy_comb = pytest.importorskip("sympy.combinatorics")


def random_generator_sets(count, seed=20261018):
    """count generator sets: degree 3..6, one to three random permutations."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(3, 6)
        out.append(tuple(tuple(rng.sample(range(degree), degree))
                         for _ in range(rng.randint(1, 3))))
    return out


GENERATOR_SETS = random_generator_sets(40)


@functools.cache
def sympy_invariants(gens):
    """(|G|, k(G), |Z(G)|, |G'|) of the permutation group sympy builds from gens."""
    P = sympy_comb.PermutationGroup([sympy_comb.Permutation(list(g)) for g in gens])
    return P.order(), len(P.conjugacy_classes()), P.center().order(), P.derived_subgroup().order()


@pytest.mark.parametrize("gens", GENERATOR_SETS, ids=[f"R{i}" for i in range(len(GENERATOR_SETS))])
def test_closure_against_sympy(gens):
    order, classes, z, d = sympy_invariants(gens)
    G = close_generators(gens)
    assert (G.order, len(conjugacy_classes(G)), center(G).order, derived_subgroup(G).order) == (
        order, classes, z, d)
    cp = Fraction(classes, order)
    assert cp_pair_count(G) == cp_class_count(G) == cp_coset_formula(G) == cp


def test_sample_covers_orders():
    # the seeded sample reaches the trivial group, abelian groups and S6
    invariants = [sympy_invariants(gens) for gens in GENERATOR_SETS]
    assert min(order for order, *_ in invariants) == 1
    assert any(1 < order == classes for order, classes, *_ in invariants)
    assert max(order for order, *_ in invariants) == 720


def sl25_generators():
    """SL(2,5) on the 24 nonzero vectors of F_5^2, from two matrices."""
    points = [(x, y) for x in range(5) for y in range(5) if (x, y) != (0, 0)]
    return [[points.index(((a * x + b * y) % 5, (c * x + d * y) % 5)) for x, y in points]
            for a, b, c, d in ((1, 1, 0, 1), (0, 4, 1, 0))]


def direct_products():
    """Generator sets of A5 x C2, C3, C4 and SL(2,5) x C2, built by sympy."""
    named = sympy_comb.named_groups
    factors = [(named.AlternatingGroup(5), m) for m in (2, 3, 4)]
    factors.append((sympy_comb.PermutationGroup(
        [sympy_comb.Permutation(g) for g in sl25_generators()]), 2))
    return [tuple(tuple(g.array_form) for g in
                  sympy_comb.group_constructs.DirectProduct(P, named.CyclicGroup(m)).generators)
            for P, m in factors]


@pytest.mark.parametrize("gens", GENERATOR_SETS + direct_products(),
                         ids=[f"R{i}" for i in range(len(GENERATOR_SETS))]
                         + ["A5xC2", "A5xC3", "A5xC4", "SL25xC2"])
def test_a5_times_abelian_against_sympy(gens):
    P = sympy_comb.PermutationGroup([sympy_comb.Permutation(list(g)) for g in gens])
    D = P.derived_subgroup()
    expected = D.order() == 60 and D.is_perfect and 60 * P.center().order() == P.order()
    verdict = classify_high_cp(close_generators(gens)).verdict
    assert (verdict is Verdict.A5_TIMES_ABELIAN) == expected
