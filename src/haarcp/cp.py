"""Exact commuting probability of finite groups, three independent ways.

All values are `fractions.Fraction` in lowest terms; floating point never
enters these code paths.  The pair-counting loop is the ground truth, the
class-counting identity and the central-coset formula cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CenterMismatch, CenterNotContained, NotASubgroup
from .groups import (
    FiniteGroup,
    Subgroup,
    Transversal,
    center,
    conjugacy_classes,
    left_transversal,
)


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


@dataclass(frozen=True)
class CommutationMatrix:
    """0/1 commutation indicators over a central transversal."""

    dimension: int
    entries: tuple[tuple[int, ...], ...]

    def total(self) -> int:
        return sum(sum(row) for row in self.entries)

    def serialize(self) -> str:
        lines = [str(self.dimension)]
        lines += ["".join(str(v) for v in row) for row in self.entries]
        return "\n".join(lines)


def commutation_matrix(G: FiniteGroup, Z: Subgroup, T: Transversal) -> CommutationMatrix:
    """entries[i][j] = 1 iff transversal representatives i and j commute in G."""
    if Z.parent is not G or Z.members != center(G).members:
        raise CenterMismatch("supplied subgroup is not the center of G")
    reps = T.reps
    m = len(reps)
    entries = tuple(
        tuple(1 if G.commutes(reps[i], reps[j]) else 0 for j in range(m))
        for i in range(m)
    )
    return CommutationMatrix(m, entries)


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


def cp_fc_reduction(G: FiniteGroup, F: Subgroup) -> Fraction:
    """cp(F as a group) / |G:F|^2, counted as F's commuting pairs over |G|^2.

    Equals cp(G) when F is the FC-center (here: F = G for finite groups, or
    the finite shadow a compact model supplies).  For an arbitrary subgroup
    containing the center the value can differ from cp(G); the engine does
    not hide that, it only requires Z(G) <= F.
    """
    if F.parent is not G:
        raise NotASubgroup("subgroup belongs to a different parent group")
    if not center(G).member_set <= F.member_set:
        raise CenterNotContained("subgroup does not contain the center")
    return Fraction(_symmetric_entries(G.mul_table, F.members), G.order ** 2)


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
        return Fraction(int(num), int(den))
    return Fraction(int(text))
