"""Hall isoclinism: witnesses, verification, search, and stem-group lookup.

Two groups are isoclinic when their central quotients and derived subgroups
are isomorphic by a pair of maps compatible with the commutator map.  The
search enumerates isomorphisms of the central quotients; the derived-side
map is then forced by the commutator correspondence and extended along
generator edges, so a candidate either determines a full witness or dies
on a well-definedness conflict.  The verifier checks a witness against the
tables alone, sharing no coset or quotient code with the search.
"""

from __future__ import annotations

from functools import cached_property
from operator import getitem
from typing import NamedTuple

from .corpus import builtin_entries
from .groups import FiniteGroup, _picker, center, check_order, derived_subgroup, quotient
from .isomorphism import _close_partial, _identity_start, iter_isomorphisms


class IsoclinismWitness(NamedTuple):
    """The pair (alpha, beta) realizing an isoclinism G ~ H, as serialize prints it.

    alpha maps G/Z(G) onto H/Z(H), each side's cosets of the center numbered
    in the order of their smallest members; beta maps element indices of G'
    to element indices of H'.
    """

    alpha: tuple[int, ...]
    beta: dict[int, int]

    def serialize(self) -> str:
        lines = ["quotient-map"]
        lines += [f"{c} -> {self.alpha[c]}" for c in range(len(self.alpha))]
        lines.append("derived-map")
        lines += [f"{g} -> {self.beta[g]}" for g in sorted(self.beta)]
        return "\n".join(lines)


class _Central:
    """A group's isoclinism data, each item worked out once.  Z(G), G', |G:Z(G)|
    and the stem test Z(G) <= G' come first: the order screen and the stem
    search read only these.  G/Z(G) is built on first read."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.center = center(group)
        self.derived = derived_subgroup(group)
        self.index = group.order // self.center.order
        self.is_stem = self.derived.member_set.issuperset(self.center.members)

    @cached_property
    def quotient(self) -> tuple[FiniteGroup, list[int], list[int]]:
        """(G/Z(G), projection, smallest member of each coset), built on first read."""
        return quotient(self.center)

    @cached_property
    def commutators(self) -> tuple[tuple[int, ...], ...]:
        """commutators[c1][c2] = [pre[c1], pre[c2]], built when a search
        first needs it: alpha only permutes these, so every candidate
        alpha reads the same table."""
        t, inv, pre = self.group.mul_table, self.group.inverse_table, self.quotient[2]
        # [x, y] = x^-1 (y^-1 x y), and y^-1 x y is entry x*y of the row of y^-1
        at_pre = _picker(pre)
        inv_rows = [t[inv[y]] for y in pre]
        return tuple(
            _picker(tuple(map(getitem, inv_rows, at_pre(t[x]))))(t[inv[x]]) for x in pre
        )


def _beta_from_alpha(
    g: _Central, h: _Central, alpha: list[int] | tuple[int, ...]
) -> dict[int, int] | None:
    """Derived-subgroup map forced by alpha, or None if it is inconsistent.

    alpha forces beta([x, y]) = [alpha(x), alpha(y)] on every pair of coset
    representatives.  beta starts from identity -> identity and grows by the
    generator-edge walk of `_close_partial`: a forced commutator the walk
    has not reached yet becomes a generator.  Each row of forced values is
    then compared with the walked ones, in one gather per side.  The rows
    hold every commutator, so beta maps all of G' injectively and
    homomorphically into H', and onto it, as the screen gave |G'| = |H'|.
    """
    G, H = g.group, h.group
    beta, used, dom = _identity_start(G, H)
    gens: list[int] = []
    at_alpha = _picker(alpha)
    for a, g_row in zip(alpha, g.commutators):
        h_row = at_alpha(h.commutators[a])
        if len(dom) < g.derived.order:  # the walk may not have reached this row
            for u, v in zip(g_row, h_row):
                if beta[u] < 0:
                    gens.append(u)
                    if not _close_partial(G, H, beta, used, dom, gens, v):
                        return None
        if _picker(g_row)(beta) != h_row:
            return None
    return {x: beta[x] for x in dom}


def _search(g: _Central, h: _Central) -> IsoclinismWitness | None:
    """First witness G ~ H, or None.  The pair is screened on |G:Z(G)| and
    |G'|, and only a pair that passes reads either central quotient.  The
    walk over alpha raises SearchBudgetExceeded past its work budget."""
    if (g.index, g.derived.order) != (h.index, h.derived.order):
        return None
    for alpha in iter_isomorphisms(g.quotient[0], h.quotient[0]):
        beta = _beta_from_alpha(g, h, alpha)
        if beta is not None:
            return IsoclinismWitness(tuple(alpha), beta)
    return None


def find_isoclinism(G: FiniteGroup, H: FiniteGroup) -> IsoclinismWitness | None:
    """Search for an isoclinism witness; None if the groups are not isoclinic."""
    return _search(_Central(G), _Central(H))


def verify_isoclinism(G: FiniteGroup, H: FiniteGroup, w: IsoclinismWitness) -> bool:
    """Whether (alpha, beta) is an isoclinism G ~ H, checked exhaustively.

    Z(G), Z(H), G', H' and both coset numberings are worked out here from
    the tables, apart from the search.  alpha must be a bijective
    homomorphism of the central quotients, beta one of the derived
    subgroups, and the commutator square must commute on coset
    representatives, checked with alpha's law in one pass over coset pairs.
    That is exact: [xz, yz'] = [x, y] for central z, z', so a commutator
    depends only on the cosets of its arguments.  A map with the wrong
    domain is no witness either.
    """
    g_proj, g_reps = _center_cosets(G)
    h_proj, h_reps = _center_cosets(H)
    alpha, beta = w.alpha, w.beta
    if len(h_reps) != len(g_reps) or sorted(alpha) != list(range(len(h_reps))):
        return False
    Dg, Dh = derived_subgroup(G).member_set, derived_subgroup(H).member_set
    if set(beta) != Dg or set(beta.values()) != Dh or len(Dg) != len(Dh):
        return False
    s, t = G.mul_table, H.mul_table
    for x in beta:
        for y in beta:
            if beta[s[x][y]] != t[beta[x]][beta[y]]:
                return False
    for a, x in enumerate(g_reps):
        for b, y in enumerate(g_reps):
            u, v = h_reps[alpha[a]], h_reps[alpha[b]]
            if alpha[g_proj[s[x][y]]] != h_proj[t[u][v]] or (
                    beta[G.commutator(x, y)] != H.commutator(u, v)):
                return False
    return True


def _center_cosets(G: FiniteGroup) -> tuple[list[int], list[int]]:
    """(coset number of each element, smallest member of each coset) for the
    cosets of Z(G), numbered in the order of their smallest members."""
    Z = center(G).members
    proj = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if proj[g] < 0:
            for z in Z:
                proj[G.mul(g, z)] = len(reps)
            reps.append(g)
    return proj, reps


def is_stem_group(G: FiniteGroup) -> bool:
    """True iff Z(G) <= G' (the stem condition)."""
    return _Central(G).is_stem


def find_stem_group(
    F: FiniteGroup, max_order: int
) -> tuple[FiniteGroup, IsoclinismWitness] | None:
    """First builtin group of order <= max_order, by (order, name), that is a
    stem group isoclinic to F.

    Every isoclinism family contains a stem group, but the builtin corpus
    may not; None means "not found here", never "does not exist".  A corpus
    entry is built only when it is tried, and is ordered by its corpus name.

    A stem group H isoclinic to F has H/Z(H) ~ F/Z(F), H' ~ F' and
    Z(H) <= H' (Hall), so |H| = q*m with q = |F:Z(F)| and m = |Z(H)|
    dividing d = |F'|.  So the corpus is read only up to min(max_order, q*d),
    an order that must fit the table budget, candidates of any other order
    are dropped as it is read, and only the ones that pass are sorted.  F's
    central quotient is built once, when a first candidate passes the
    screen, and each search is bounded by its work budget, not by q.
    """
    f = _Central(F)
    q, d = f.index, f.derived.order
    bound = min(max_order, q * d)
    check_order(bound, f"stem candidates up to order {bound}")
    corpus = builtin_entries(bound)
    passed = [c for c in corpus if not (c.order % q or d % (c.order // q))]
    for c in sorted(passed, key=lambda c: (c.order, c.name)):
        h = _Central(c.group())
        if h.is_stem:
            w = _search(f, h)
            if w is not None:
                return h.group, w
    return None
