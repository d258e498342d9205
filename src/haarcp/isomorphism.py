"""Isomorphism testing for small finite groups.

Screening by cheap invariants (order, abelianness, element-order histogram,
class-size histogram) is followed by backtracking over generator images.
A partial map is closed under multiplication as it grows, so inconsistent
candidates die early; a map that covers the whole group is by construction
a bijective homomorphism.
"""

from __future__ import annotations

from typing import Iterator

from .errors import SearchCapExceeded
from .groups import (
    FiniteGroup,
    class_size_multiset,
    conjugacy_classes,
    element_order_histogram,
    greedy_generators,
)

DEFAULT_ISO_CAP = 256


def _class_size_of(G: FiniteGroup) -> list[int]:
    sizes = [0] * G.order
    for cls in conjugacy_classes(G):
        for g in cls:
            sizes[g] = len(cls)
    return sizes


def generating_sequence(G: FiniteGroup) -> list[int]:
    """Small generating sequence, greedily extending by smallest outside index."""
    return greedy_generators(G.identity, range(G.order), G.mul)


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


def iter_isomorphisms(
    G: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_ISO_CAP
) -> Iterator[list[int]]:
    """Yield every isomorphism G -> H as a list mapping element indices."""
    if max(G.order, H.order) > cap:
        raise SearchCapExceeded(
            f"order {max(G.order, H.order)} exceeds isomorphism search cap {cap}"
        )
    if G.order != H.order:
        return
    if G.is_abelian() != H.is_abelian():
        return
    if element_order_histogram(G) != element_order_histogram(H):
        return
    if class_size_multiset(G) != class_size_multiset(H):
        return

    g_class = _class_size_of(G)
    h_class = _class_size_of(H)
    h_order = [H.element_order(h) for h in range(H.order)]
    g_order = [G.element_order(g) for g in range(G.order)]
    candidates: dict[tuple[int, int], list[int]] = {}
    for h in range(H.order):
        candidates.setdefault((h_order[h], h_class[h]), []).append(h)

    gens = generating_sequence(G)

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
        for h in candidates.get((g_order[g], g_class[g]), []):
            if h in used:
                continue
            phi2 = dict(phi)
            used2 = set(used)
            phi2[g] = h
            used2.add(h)
            if _close_partial(G, H, phi2, used2, [g]):
                yield from search(idx + 1, phi2, used2)

    yield from search(0, {G.identity: H.identity}, {H.identity})


def find_isomorphism(
    G: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_ISO_CAP
) -> list[int] | None:
    """First isomorphism G -> H found, or None."""
    return next(iter_isomorphisms(G, H, cap=cap), None)
