"""Hall isoclinism: witnesses, verification, search, and stem-group lookup.

Two groups are isoclinic when their central quotients and derived subgroups
are isomorphic by a pair of maps compatible with the commutator map.  The
search enumerates isomorphisms of the central quotients; the derived-side
map is then forced by the commutator correspondence and extended
multiplicatively, so a candidate either determines a full witness or dies
on a well-definedness conflict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainMismatch, SearchCapExceeded
from .groups import FiniteGroup, Subgroup, center, derived_subgroup, quotient
from .isomorphism import DEFAULT_ISO_CAP, _close_partial, iter_isomorphisms


@dataclass(frozen=True)
class IsoclinismWitness:
    """The pair (alpha, beta) realizing an isoclinism G ~ H.

    alpha maps coset indices of G/Z(G) to coset indices of H/Z(H); beta maps
    element indices of G' (as G-elements) to element indices of H' (as
    H-elements).  The quotients, projections and derived subgroups the maps
    refer to are carried along so the witness is self-contained.
    """

    G: FiniteGroup
    H: FiniteGroup
    g_quotient: FiniteGroup
    h_quotient: FiniteGroup
    g_proj: tuple[int, ...]
    h_proj: tuple[int, ...]
    alpha: tuple[int, ...]
    g_derived: Subgroup
    h_derived: Subgroup
    beta: dict[int, int]

    def serialize(self) -> str:
        lines = ["quotient-map"]
        lines += [f"{c} -> {self.alpha[c]}" for c in range(len(self.alpha))]
        lines.append("derived-map")
        lines += [f"{g} -> {self.beta[g]}" for g in sorted(self.beta)]
        return "\n".join(lines)


class _Central(NamedTuple):
    """A group's isoclinism data: G/Z(G) with its projection, coset
    representatives (the smallest member of each coset) and G'."""

    group: FiniteGroup
    quotient: FiniteGroup
    proj: tuple[int, ...]
    pre: tuple[int, ...]
    derived: Subgroup


def _central_data(
    G: FiniteGroup, Z: Subgroup | None = None, D: Subgroup | None = None
) -> _Central:
    """Isoclinism data of G, reusing Z(G) and G' when the caller has them."""
    Z = center(G) if Z is None else Z
    Q, proj = quotient(G, Z)
    pre = [0] * Q.order
    for g in reversed(range(G.order)):
        pre[proj[g]] = g
    D = derived_subgroup(G) if D is None else D
    return _Central(G, Q, tuple(proj), tuple(pre), D)


def _beta_from_alpha(
    g: _Central, h: _Central, alpha: list[int] | tuple[int, ...]
) -> dict[int, int] | None:
    """Derived-subgroup map forced by alpha, or None if it is inconsistent."""
    G, H = g.group, h.group
    m = len(alpha)
    beta: dict[int, int] = {}
    for c1 in range(m):
        for c2 in range(m):
            u = G.commutator(g.pre[c1], g.pre[c2])
            v = H.commutator(h.pre[alpha[c1]], h.pre[alpha[c2]])
            if beta.setdefault(u, v) != v:
                return None
    # extend multiplicatively from commutators to all of G'
    used = set(beta.values())
    if len(used) != len(beta) or not _close_partial(G, H, beta, used, list(beta)):
        return None
    if set(beta) != g.derived.member_set or used != h.derived.member_set:
        return None
    return beta


def _search(
    g: _Central, H: FiniteGroup, cap: int,
    Z: Subgroup | None = None, D: Subgroup | None = None,
) -> IsoclinismWitness | None:
    """First witness G ~ H, or None.  The cap is judged from the orders of
    both central quotients; H's quotient is built only when |H/Z(H)| and
    |H'| match G's."""
    Z = center(H) if Z is None else Z
    D = derived_subgroup(H) if D is None else D
    if max(g.quotient.order, H.order // Z.order) > cap:
        raise SearchCapExceeded(f"central quotient order exceeds search cap {cap}")
    if (g.quotient.order, g.derived.order) != (H.order // Z.order, D.order):
        return None
    h = _central_data(H, Z, D)
    for alpha in iter_isomorphisms(g.quotient, h.quotient, cap=cap):
        beta = _beta_from_alpha(g, h, alpha)
        if beta is not None:
            return IsoclinismWitness(
                g.group, H, g.quotient, h.quotient, g.proj, h.proj,
                tuple(alpha), g.derived, D, beta,
            )
    return None


def find_isoclinism(
    G: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_ISO_CAP
) -> IsoclinismWitness | None:
    """Search for an isoclinism witness; None if the groups are not isoclinic."""
    return _search(_central_data(G), H, cap)


def verify_isoclinism(G: FiniteGroup, H: FiniteGroup, w: IsoclinismWitness) -> bool:
    """Check a witness against the groups themselves, exhaustively.

    Z(G), Z(H), G' and H' are recomputed from the tables, never taken from
    the witness.  Each projection must be a homomorphism onto its quotient
    with kernel exactly the center, and each derived subgroup must be the
    recomputed one.  Then alpha and beta must be isomorphisms and the
    commutator square must commute on canonical coset preimages.  That is
    exact: [xz, yz'] = [x, y] for central z, z', so a commutator depends
    only on the cosets of its arguments.
    """
    Qg, Qh = w.g_quotient, w.h_quotient
    if Qg.order != Qh.order or len(w.alpha) != Qg.order:
        raise DomainMismatch("alpha does not map G/Z(G) onto H/Z(H)")
    g_reps = _central_reps(G, Qg, w.g_proj)
    h_reps = _central_reps(H, Qh, w.h_proj)
    if g_reps is None or h_reps is None:
        return False
    if (w.g_derived.member_set != derived_subgroup(G).member_set
            or w.h_derived.member_set != derived_subgroup(H).member_set):
        return False
    if sorted(w.alpha) != list(range(Qh.order)):
        return False
    if set(w.beta) != w.g_derived.member_set:
        raise DomainMismatch("beta is not defined on exactly G'")
    image = set(w.beta.values())
    if image != w.h_derived.member_set or len(image) != len(w.beta):
        return False
    # alpha is a homomorphism of the quotients
    for a in range(Qg.order):
        for b in range(Qg.order):
            if w.alpha[Qg.mul(a, b)] != Qh.mul(w.alpha[a], w.alpha[b]):
                return False
    # beta is a homomorphism of the derived subgroups
    for a in w.g_derived.members:
        for b in w.g_derived.members:
            if w.beta[G.mul(a, b)] != H.mul(w.beta[a], w.beta[b]):
                return False
    # commutator compatibility over all coset pairs
    for c1 in range(Qg.order):
        for c2 in range(Qg.order):
            u = G.commutator(g_reps[c1], g_reps[c2])
            v = H.commutator(h_reps[w.alpha[c1]], h_reps[w.alpha[c2]])
            if w.beta[u] != v:
                return False
    return True


def _central_reps(
    G: FiniteGroup, Q: FiniteGroup, proj: tuple[int, ...]
) -> list[int] | None:
    """The smallest member of each fibre of proj, if proj is a homomorphism
    of G onto Q with kernel exactly Z(G); else None.

    proj must be constant on the cosets of Z(G), with every fibre nonempty
    and the identity's fibre equal to Z(G).  Then proj(x z) = proj(x) for
    central z, so it is a homomorphism once it is one on the smallest
    member of each fibre.
    """
    if len(proj) != G.order or not all(0 <= c < Q.order for c in proj):
        return None
    pre: list[list[int]] = [[] for _ in range(Q.order)]
    for g, c in enumerate(proj):
        pre[c].append(g)
    Z = center(G).members
    if not all(pre) or tuple(pre[Q.identity]) != Z:
        return None
    if any(proj[G.mul(g, z)] != c for g, c in enumerate(proj) for z in Z):
        return None
    reps = [fibre[0] for fibre in pre]
    for a, x in enumerate(reps):
        for b, y in enumerate(reps):
            if proj[G.mul(x, y)] != Q.mul(a, b):
                return None
    return reps


def is_stem_group(G: FiniteGroup) -> bool:
    """True iff Z(G) <= G' (the stem condition)."""
    return center(G).member_set <= derived_subgroup(G).member_set


def find_stem_group(
    F: FiniteGroup,
    corpus: list[FiniteGroup],
    cap: int = DEFAULT_ISO_CAP,
) -> tuple[FiniteGroup, IsoclinismWitness] | None:
    """First corpus group (order-ascending) that is a stem group isoclinic to F.

    Every isoclinism family contains a stem group, but the corpus may not;
    None means "not found here", never "does not exist".  F's data is built
    once, and each candidate's center and derived subgroup serve both the
    stem test and the search.
    """
    f = _central_data(F)
    for H in sorted(corpus, key=lambda g: (g.order, g.name)):
        Z, D = center(H), derived_subgroup(H)
        if Z.member_set <= D.member_set:
            w = _search(f, H, cap, Z, D)
            if w is not None:
                return H, w
    return None

