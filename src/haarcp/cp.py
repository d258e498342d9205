"""Exact commuting probability of finite groups, three independent ways.

All values are `fractions.Fraction` in lowest terms; floating point never
enters these code paths.  The direct pair count is the ground truth, the
class-counting identity and the central-coset formula cross-check it.  The
pair count has its own kernel, which reads the table once per pair of
inverse classes {x, x^-1}.  The coset formula, and the semi-analytic model
route in `compact`, use the plain triangle loop `_symmetric_entries`.  The
two kernels share no code, so a bug in either shows up as a disagreement
between routes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import CenterMismatch
from .groups import FiniteGroup, center, conjugacy_classes, left_transversal


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
    """|{(x, y) : xy = yx}| / |G|^2, counted directly over the Cayley table.

    x commutes with y exactly when it commutes with y^-1, so commuting is
    constant on each block {x, x^-1} x {y, y^-1}.  The count reads one
    entry pair per pair of inverse classes, represented by the x with
    x^-1 >= x: a class of weight w (1 if x = x^-1, else 2) adds w^2 for its
    diagonal block, and two commuting classes r < s add 2 w_r w_s.  The
    self-inverse representatives come first, so each row's later
    representatives split into a weight-1 run and a weight-2 run.  Exact,
    and it uses neither Z(G) nor the classes.
    """
    t, inv = G.mul_table, G.inverse_table
    ones = [x for x in range(G.order) if inv[x] == x]
    twos = [x for x in range(G.order) if inv[x] > x]
    count = len(ones) + 4 * len(twos)
    for i, a in enumerate(ones):
        row = t[a]
        count += 2 * sum(1 for b in ones[i + 1:] if row[b] == t[b][a])
        count += 4 * sum(1 for b in twos if row[b] == t[b][a])
    for i, a in enumerate(twos):
        row = t[a]
        count += 8 * sum(1 for b in twos[i + 1:] if row[b] == t[b][a])
    return Fraction(count, G.order ** 2)


def cp_class_count(G: FiniteGroup) -> Fraction:
    """k(G)/|G| where k(G) is the number of conjugacy classes."""
    return Fraction(len(conjugacy_classes(G)), G.order)


def cp_coset_formula(G: FiniteGroup, reps: Sequence[int] | None = None) -> Fraction:
    """(sum of commutation indicators) / |G:Z|^2 over representatives of Z(G).

    The value is independent of the representatives chosen: central shifts
    of representatives never change whether two of them commute.  Supplied
    representatives must meet every coset of Z(G) exactly once; the default
    ones, from left_transversal, do by construction.
    """
    Z = center(G)
    index = G.order // Z.order
    if reps is None:
        reps = left_transversal(G, Z)
    else:
        covered = sorted(G.mul(r, z) for r in reps if 0 <= r < G.order for z in Z.members)
        if len(reps) != index or covered != list(range(G.order)):
            raise CenterMismatch("representatives do not meet each coset of the center once")
    return Fraction(_symmetric_entries(G.mul_table, reps), index * index)


def format_rational(x: Fraction) -> str:
    """Serialize as "p/q" in lowest terms, or "p" for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _ints(text: str) -> tuple[int, ...]:
    """The integers of an ASCII text, each a -?[0-9]+ token; ValueError
    otherwise.  Every number in a spec, in --threshold and in the integer
    options of the CLI is read through it.  int() alone also reads '٣', '2_0' and '+2'; on ASCII text
    without '_' and '+' it reads exactly -?[0-9]+.  The checks are C-level
    scans: a regex match per token made a 360-row table spec about 20 ms
    slower to read."""
    if not text.isascii() or "_" in text or "+" in text:
        raise ValueError(text)
    return tuple(map(int, text.split()))


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p", each an integer as _ints reads it; rejects decimal
    notation to preserve exactness."""
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"decimal notation rejected, use an exact fraction: {text!r}")
    num, slash, den = text.partition("/")
    try:
        (p,), (q,) = _ints(num), _ints(den if slash else "1")
    except ValueError:
        raise ValueError(f"not an integer fraction: {text!r}") from None
    if q == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(p, q)
