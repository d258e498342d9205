"""Exact commuting probability of finite groups, three independent ways.

All values are `fractions.Fraction` in lowest terms; floating point never
enters these code paths.  The pair-counting loop is the ground truth, the
class-counting identity and the central-coset formula cross-check it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CenterMismatch
from .groups import FiniteGroup, Transversal, center, conjugacy_classes, left_transversal


def _symmetric_entries(t, idx) -> int:
    """Number of (a, b) in idx x idx with t[a][b] == t[b][a], read off t in
    place over the triangle above the diagonal.  A plain loop: the
    interpreter's inline int compare beats a C-level map(operator.eq, row,
    column), which calls eq once per entry."""
    idx = list(idx)  # list slices iterate faster than range slices
    count = len(idx)  # the diagonal
    for i, a in enumerate(idx):
        row = t[a]
        count += 2 * sum(1 for b in idx[i + 1:] if row[b] == t[b][a])
    return count


def cp_pair_count(G: FiniteGroup) -> Fraction:
    """|{(x, y) : xy = yx}| / |G|^2, counted directly over the Cayley table."""
    return Fraction(_symmetric_entries(G.mul_table, range(G.order)), G.order ** 2)


def cp_class_count(G: FiniteGroup) -> Fraction:
    """k(G)/|G| where k(G) is the number of conjugacy classes."""
    return Fraction(len(conjugacy_classes(G)), G.order)


def cp_coset_formula(G: FiniteGroup, transversal: Transversal | None = None) -> Fraction:
    """(sum of commutation indicators) / |G:Z|^2 over a central transversal.

    The value is independent of the transversal choice: central shifts of
    representatives never change whether two of them commute.  A supplied
    transversal must be one of the center: its subgroup is Z(G) and its
    representatives meet every coset of Z(G) exactly once.
    """
    Z = center(G)
    index = G.order // Z.order
    T = transversal if transversal is not None else left_transversal(G, Z)
    if T.subgroup.parent is not G or T.subgroup.members != Z.members:
        raise CenterMismatch("transversal is not over the center of G")
    covered = sorted(G.mul(r, z) for r in T.reps if 0 <= r < G.order for z in Z.members)
    if len(T.reps) != index or covered != list(range(G.order)):
        raise CenterMismatch("representatives do not meet each coset of the center once")
    return Fraction(_symmetric_entries(G.mul_table, T.reps), index * index)


def format_rational(x: Fraction) -> str:
    """Serialize as "p/q" in lowest terms, or "p" for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p"; rejects decimal notation to preserve exactness."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"decimal notation rejected, use an exact fraction: {text!r}")
    if "/" in text:
        num, den = text.split("/", 1)
        p, q = int(num), int(den)
        if q == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(p, q)
    return Fraction(int(text))
