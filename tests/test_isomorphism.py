import pytest

from haarcp import builders, isomorphism
from haarcp.corpus import builtin_corpus
from haarcp.errors import SearchCapExceeded
from haarcp.groups import direct_product
from haarcp.isomorphism import find_isomorphism, iter_isomorphisms


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
    big = direct_product(a5, builders.cyclic(6))
    with pytest.raises(SearchCapExceeded):
        find_isomorphism(big, big)


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
