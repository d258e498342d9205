"""Isomorphism testing for small finite groups.

Screening by each element's (order, class size) key, compared as a multiset
between the groups, is followed by backtracking over generator images,
each generator trying only the elements with its own key.
Each generator's image is extended along the generator edges of the
subgroup mapped so far (`_close_partial`), the walk that also fills in a
model's action, so inconsistent candidates die early; a map that covers
the whole group is by construction a bijective homomorphism.
"""

from __future__ import annotations

from typing import Iterator

from .errors import SearchBudgetExceeded
from .groups import FiniteGroup, conjugacy_classes, greedy_generators

SEARCH_BUDGET = 10**6  # mapped elements, summed over every candidate one search tries


def _element_keys(G: FiniteGroup) -> list[tuple[int, int]]:
    """(element order, conjugacy class size) of every element; isomorphisms
    preserve both."""
    keys: list = [None] * G.order
    for cls in conjugacy_classes(G):
        for g in cls:
            keys[g] = (G.element_order(g), len(cls))
    return keys


def _identity_start(
    G: FiniteGroup, H: FiniteGroup
) -> tuple[list[int], list[bool], list[int]]:
    """(phi, used, dom) for the map identity -> identity, where every walk starts."""
    phi = [-1] * G.order
    used = [False] * H.order
    phi[G.identity] = H.identity
    used[H.identity] = True
    return phi, used, [G.identity]


def _close_partial(
    G: FiniteGroup,
    H: FiniteGroup,
    phi: list[int],
    used: list[bool],
    dom: list[int],
    gens: list[int],
    h: int,
) -> bool:
    """Extend an injective homomorphism by one generator, along generator edges.

    phi (-1 where unmapped) maps the subgroup S = <gens[:-1]>, whose members
    dom lists with the identity among them, injectively and homomorphically
    into H; used marks its images.  The new generator gens[-1] is to map to
    h.  The walk crosses every edge x -> x*k of <gens> not already inside S:
    x*g for the members x of S and the new generator g, and x*k for every
    generator k from each newly reached x.  Each edge sets or checks
    phi(x*k) = phi(x)*phi(k), and a new image must be unused.  By induction
    on word length that makes phi a homomorphism on <gens>, so it accepts
    exactly the maps that extend to an injective homomorphism, and builds
    the unique extension, at one table read per edge on each side.

    Returns False on a conflict.  phi, used and dom are then left partly
    extended: the members dom gained, dom[len(dom) before the call:], are
    exactly the entries of phi and used the call set, so a caller undoes
    the call by resetting those and truncating dom.
    """
    s, t = G.mul_table, H.mul_table
    old = len(dom)
    edges = [(gens[-1], h)]
    for i, x in enumerate(dom):  # dom grows while it is walked: a FIFO queue
        if i == old:  # from here on every member is new: walk every generator
            edges = [(k, phi[k]) for k in gens]
        sx, tx = s[x], t[phi[x]]
        for k, hk in edges:
            y, v = sx[k], tx[hk]
            known = phi[y]
            if known < 0:
                if used[v]:
                    return False
                phi[y] = v
                used[v] = True
                dom.append(y)
            elif known != v:
                return False
    return True


def iter_isomorphisms(G: FiniteGroup, H: FiniteGroup) -> Iterator[list[int]]:
    """Yield every isomorphism G -> H as a list mapping element indices.

    Raises SearchBudgetExceeded once the candidates tried have covered more
    than SEARCH_BUDGET elements in all, counted after each extension.
    """
    if G.order != H.order:
        return
    g_key = _element_keys(G)
    h_key = _element_keys(H)
    if sorted(g_key) != sorted(h_key):
        return
    candidates: dict[tuple[int, int], list[int]] = {}
    for h, key in enumerate(h_key):
        candidates.setdefault(key, []).append(h)

    # each generator lies outside the span of the ones before, so after idx
    # steps phi maps exactly <gens[:idx]>, and all of G once idx = len(gens)
    gens = greedy_generators(G.identity, range(G.order), G.mul)
    options = [candidates[g_key[g]] for g in gens]
    yield from _extensions(G, H, gens, options, *_identity_start(G, H), [0])


def _extensions(G: FiniteGroup, H: FiniteGroup, gens: list[int], options: list[list[int]],
                phi: list[int], used: list[bool], dom: list[int], work: list[int],
                idx: int = 0) -> Iterator[list[int]]:
    """Every extension of phi, which maps <gens[:idx]>, to an isomorphism,
    each gens[j] from idx on mapping to one of options[j].

    phi, used and dom are extended in place, and each candidate's extension
    is undone after it, so a candidate costs only what its walk maps; each
    complete map is yielded as a copy.  work[0] counts the mapped elements
    of every candidate so far.  The recursion goes through this module-level
    function, not a closure that refers to itself, so a search leaves no
    reference cycle behind.
    """
    if idx == len(gens):
        yield phi[:]
        return
    mapped = gens[:idx + 1]
    for h in options[idx]:
        if used[h]:
            continue
        old = len(dom)
        closed = _close_partial(G, H, phi, used, dom, mapped, h)
        work[0] += len(dom)
        if work[0] > SEARCH_BUDGET:
            raise SearchBudgetExceeded(
                f"search passed its budget of {SEARCH_BUDGET} mapped elements")
        if closed:
            yield from _extensions(G, H, gens, options, phi, used, dom, work, idx + 1)
        for x in dom[old:]:  # take the candidate back
            used[phi[x]] = False
            phi[x] = -1
        del dom[old:]


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> list[int] | None:
    """First isomorphism G -> H found, or None."""
    return next(iter_isomorphisms(G, H), None)
