import itertools

import pytest

from haarcp import builders, isomorphism
from haarcp.corpus import builtin_corpus
from haarcp.errors import SearchBudgetExceeded
from haarcp.groups import FiniteGroup, direct_product, generated_subgroup, greedy_generators
from haarcp.isomorphism import (
    _close_partial,
    _identity_start,
    find_isomorphism,
    iter_isomorphisms,
)


def _is_isomorphism(G, H, phi):
    return sorted(phi) == list(range(H.order)) and all(
        phi[G.mul(a, b)] == H.mul(phi[a], phi[b])
        for a in range(G.order)
        for b in range(G.order)
    )


def test_c4_vs_klein_distinct():
    assert find_isomorphism(builders.cyclic(4), builders.klein4()) is None


def test_identity_isomorphism(s3):
    phi = find_isomorphism(s3, s3)
    assert phi is not None
    assert _is_isomorphism(s3, s3, phi)


def test_d4_q8_not_isomorphic(d4, q8):
    # different counts of order-2 elements (5 vs 1)
    assert sum(1 for g in range(8) if d4.element_order(g) == 2) == 5
    assert sum(1 for g in range(8) if q8.element_order(g) == 2) == 1
    assert find_isomorphism(d4, q8) is None


def test_same_group_different_presentation():
    c6 = builders.cyclic(6)
    c2xc3 = direct_product(builders.cyclic(2), builders.cyclic(3))
    phi = find_isomorphism(c6, c2xc3)
    assert phi is not None
    assert _is_isomorphism(c6, c2xc3, phi)


def test_dihedral_vs_symmetric_3(s3):
    phi = find_isomorphism(builders.dihedral(3), s3)
    assert phi is not None
    assert _is_isomorphism(builders.dihedral(3), s3, phi)


def test_symmetry_of_search():
    pairs = [
        (builders.cyclic(8), builders.dihedral(4)),
        (builders.dihedral(6), direct_product(builders.dihedral(3), builders.cyclic(2))),
        (builders.quaternion8(), builders.dihedral(4)),
    ]
    for G, H in pairs:
        assert (find_isomorphism(G, H) is None) == (find_isomorphism(H, G) is None)


def test_cap_enforced(a5):
    # order 360: no order cap stops the search, and the first isomorphism
    # is found well within the work budget
    big = direct_product(a5, builders.cyclic(6))
    assert _is_isomorphism(big, big, find_isomorphism(big, big))


def test_budget_stops_a_long_walk():
    # Aut(C2^5) = GL(5, 2) has 9999360 members, and each complete map
    # covers 32 elements: the walk would pass 3 * 10^8 mapped elements
    E = builders.cyclic(2)
    for _ in range(4):
        E = direct_product(E, builders.cyclic(2))
    with pytest.raises(SearchBudgetExceeded, match=(
            f"^search passed its budget of {isomorphism.SEARCH_BUDGET} mapped elements$")):
        for _ in iter_isomorphisms(E, E):
            pass


def test_all_automorphisms_of_klein4():
    V = builders.klein4()
    autos = list(iter_isomorphisms(V, V))
    assert len(autos) == 6  # GL(2, 2)


def test_corpus_self_isomorphism():
    for name, G in builtin_corpus(16):
        phi = find_isomorphism(G, G)
        assert phi is not None, name
        assert _is_isomorphism(G, G, phi), name


def test_screen_rejects_before_search(monkeypatch, d4, q8):
    # each pair differs in its multiset of (element order, class size) keys
    def no_search(*args):
        raise AssertionError("backtracking entered")

    monkeypatch.setattr(isomorphism, "_close_partial", no_search)
    pairs = [
        (builders.cyclic(4), builders.klein4()),
        (d4, q8),
        (builders.cyclic(8), d4),
        (builders.dihedral(6), builders.cyclic(12)),
        (builders.alternating(4), builders.dihedral(6)),
    ]
    for G, H in pairs:
        assert list(iter_isomorphisms(G, H)) == [], (G.name, H.name)


def test_one_class_computation_per_group(monkeypatch, d4, q8):
    real = isomorphism.conjugacy_classes
    calls = []

    def counted(G):
        calls.append(G.name)
        return real(G)

    monkeypatch.setattr(isomorphism, "conjugacy_classes", counted)
    assert find_isomorphism(d4, d4) is not None
    assert find_isomorphism(d4, q8) is None
    assert len(calls) == 4


# -- automorphism counts ------------------------------------------------------


def _c2_cubed():
    c2 = builders.cyclic(2)
    return direct_product(direct_product(c2, c2), c2)


@pytest.mark.parametrize("build, count", [
    (lambda: builders.cyclic(12), 4),
    (builders.klein4, 6),
    (lambda: builders.symmetric(3), 6),
    (lambda: builders.dihedral(4), 8),
    (builders.quaternion8, 24),
    (lambda: builders.alternating(4), 24),
    (lambda: builders.symmetric(4), 24),
    (lambda: builders.dihedral(5), 20),
    (_c2_cubed, 168),  # GL(3, 2)
    (builders.extraspecial27_exponent3, 432),
    (builders.extraspecial27_exponent9, 54),
    (lambda: builders.alternating(5), 120),
    (builders.sl25, 120),
], ids=["C12", "V4", "S3", "D4", "Q8", "A4", "S4", "D5", "C2^3", "ES27+", "ES27-",
        "A5", "SL(2,5)"])
def test_automorphism_count(build, count):
    G = build()
    autos = list(iter_isomorphisms(G, G))
    assert len(autos) == count
    assert len({tuple(phi) for phi in autos}) == count
    for phi in autos:
        assert _is_isomorphism(G, G, phi)


# -- the generator-edge walk --------------------------------------------------


def _extend(G, H, images):
    """Walk G's greedy generators onto images one at a time; the map, or None."""
    gens = greedy_generators(G.identity, range(G.order), G.mul)
    phi, used, dom = _identity_start(G, H)
    for j, h in enumerate(images):
        if not _close_partial(G, H, phi, used, dom, gens[:j + 1], h):
            return None
    return phi


def _all_pairs_extend(G, H, images):
    """The same extension by closing under every product of mapped elements:
    the injective homomorphism on the generated subgroup, or None."""
    gens = greedy_generators(G.identity, range(G.order), G.mul)
    phi = {G.identity: H.identity, **dict(zip(gens, images))}
    if len(set(phi.values())) < len(phi):
        return None
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(list(phi), repeat=2):
            x, v = G.mul(a, b), H.mul(phi[a], phi[b])
            if x in phi:
                if phi[x] != v:
                    return None
            elif v in phi.values():
                return None
            else:
                phi[x] = v
                changed = True
    return [phi.get(x, -1) for x in range(G.order)]


class _CountingRow(tuple):
    reads = 0

    def __getitem__(self, i):
        _CountingRow.reads += 1
        return tuple.__getitem__(self, i)


def _counting(G):
    rows = tuple(_CountingRow(row) for row in G.mul_table)
    return FiniteGroup(G.order, rows, G.identity, G.inverse_table, G.name)


class TestClosePartial:
    def test_rejects_non_injective(self):
        C4 = builders.cyclic(4)
        assert C4.element_order(1) == 4 and C4.element_order(2) == 2
        phi, used, dom = _identity_start(C4, C4)
        assert not _close_partial(C4, C4, phi, used, dom, [1], 2)

    def test_rejects_non_homomorphic(self):
        # the generator of C2 cannot map to an element of order 4
        C2, C4 = builders.cyclic(2), builders.cyclic(4)
        phi, used, dom = _identity_start(C2, C4)
        assert not _close_partial(C2, C4, phi, used, dom, [1], 1)

    def test_returns_the_unique_extension(self):
        # x -> x^5 is an automorphism of C12, and C12's element i is x^i
        C12 = builders.cyclic(12)
        phi, used, dom = _identity_start(C12, C12)
        assert _close_partial(C12, C12, phi, used, dom, [1], 5)
        assert phi == [5 * i % 12 for i in range(12)]
        assert sorted(dom) == list(range(12)) and all(used)

    @pytest.mark.parametrize("G, H", [
        (builders.symmetric(3), builders.symmetric(3)),
        (builders.dihedral(4), builders.quaternion8()),
        (builders.dihedral(4), builders.dihedral(4)),
        (builders.alternating(4), builders.alternating(4)),
        (_c2_cubed(), _c2_cubed()),
        (builders.cyclic(6), direct_product(builders.cyclic(2), builders.cyclic(3))),
    ], ids=["S3", "D4-Q8", "D4", "A4", "C2^3", "C6-C2xC3"])
    def test_agrees_with_all_pairs_closure(self, G, H):
        # every assignment of generator images, accepted or not
        k = len(greedy_generators(G.identity, range(G.order), G.mul))
        for images in itertools.product(range(H.order), repeat=k):
            assert _extend(G, H, images) == _all_pairs_extend(G, H, images), images

    def test_work_is_edges_not_pairs(self, a5):
        # one entry read on each side per generator edge: step j walks the
        # new generator from the |S_j-1| old members and all j generators
        # from the new ones, at most 2|G|k reads in all; closing under all
        # products instead reads about 2|S|^2 entries per step
        gens = greedy_generators(a5.identity, range(a5.order), a5.mul)
        sizes = [generated_subgroup(a5, gens[:j]).order for j in range(len(gens) + 1)]
        edges = sum(sizes[j - 1] + j * (sizes[j] - sizes[j - 1]) for j in range(1, len(sizes)))
        G = _counting(a5)
        phi, used, dom = _identity_start(G, G)
        _CountingRow.reads = 0
        for j, g in enumerate(gens):
            assert _close_partial(G, G, phi, used, dom, gens[:j + 1], g)
        assert phi == list(range(G.order))
        assert _CountingRow.reads == 2 * edges <= 2 * G.order * len(gens)
