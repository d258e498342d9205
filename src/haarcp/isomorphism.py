"""Isomorphism testing for small finite groups.

Screening by each element's (order, class size) key, compared as a multiset
between the groups, is followed by backtracking over generator images,
each generator trying only the elements with its own key.
A partial map is closed under multiplication as it grows, so inconsistent
candidates die early; a map that covers the whole group is by construction
a bijective homomorphism.
"""

from __future__ import annotations

from typing import Iterator

from .errors import SearchCapExceeded
from .groups import FiniteGroup, conjugacy_classes, greedy_generators

SEARCH_CAP = 256  # largest group order an isomorphism search takes


def _element_keys(G: FiniteGroup) -> list[tuple[int, int]]:
    """(element order, conjugacy class size) of every element; isomorphisms
    preserve both."""
    keys: list = [None] * G.order
    for cls in conjugacy_classes(G):
        for g in cls:
            keys[g] = (G.element_order(g), len(cls))
    return keys


def _close_partial(
    G: FiniteGroup, H: FiniteGroup, phi: dict[int, int], used: set[int], fresh: list[int]
) -> bool:
    """Close a partial map under products starting from freshly added elements.

    Returns False on any homomorphism or injectivity conflict; phi/used are
    mutated in place and only valid when True is returned.
    """
    queue = list(fresh)
    while queue:
        x = queue.pop()
        for a in list(phi):
            for p, q in ((a, x), (x, a)):
                prod = G.mul(p, q)
                img = H.mul(phi[p], phi[q])
                known = phi.get(prod)
                if known is not None:
                    if known != img:
                        return False
                elif img in used:
                    return False
                else:
                    phi[prod] = img
                    used.add(img)
                    queue.append(prod)
    return True


def iter_isomorphisms(G: FiniteGroup, H: FiniteGroup) -> Iterator[list[int]]:
    """Yield every isomorphism G -> H as a list mapping element indices."""
    if max(G.order, H.order) > SEARCH_CAP:
        raise SearchCapExceeded(
            f"order {max(G.order, H.order)} exceeds isomorphism search cap {SEARCH_CAP}"
        )
    if G.order != H.order:
        return
    g_key = _element_keys(G)
    h_key = _element_keys(H)
    if sorted(g_key) != sorted(h_key):
        return
    candidates: dict[tuple[int, int], list[int]] = {}
    for h, key in enumerate(h_key):
        candidates.setdefault(key, []).append(h)

    gens = greedy_generators(G.identity, range(G.order), G.mul)

    def search(idx: int, phi: dict[int, int], used: set[int]) -> Iterator[list[int]]:
        if len(phi) == G.order:
            yield [phi[g] for g in range(G.order)]
            return
        if idx == len(gens):
            return
        g = gens[idx]
        if g in phi:
            yield from search(idx + 1, phi, used)
            return
        for h in candidates[g_key[g]]:
            if h in used:
                continue
            phi2 = dict(phi)
            used2 = set(used)
            phi2[g] = h
            used2.add(h)
            if _close_partial(G, H, phi2, used2, [g]):
                yield from search(idx + 1, phi2, used2)

    yield from search(0, {G.identity: H.identity}, {H.identity})


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> list[int] | None:
    """First isomorphism G -> H found, or None."""
    return next(iter_isomorphisms(G, H), None)
