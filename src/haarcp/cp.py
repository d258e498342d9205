"""Exact commuting probability of finite groups, three independent ways.

All values are `fractions.Fraction` in lowest terms; floating point never
enters these code paths.  The direct pair count is the ground truth, the
class-counting identity and the central-coset formula cross-check it.
Commuting pairs are counted by three kernels that share no code:
  * the pair count reads the table once per pair of inverse classes
    {x, x^-1} of G;
  * the coset formula reads it once per pair of cyclic classes of G/Z
    (`_cyclic_classes`, then `_class_entries`);
  * the semi-analytic model route in `compact` reads the plain triangle
    over the action kernel (`_symmetric_entries`).
So a bug in any one of them shows up as a disagreement between routes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .groups import FiniteGroup, _cosets, center, conjugacy_classes


def _symmetric_entries(t, idx) -> int:
    """Number of (a, b) in idx x idx with t[a][b] == t[b][a], read off t in
    place over the triangle above the diagonal: the kernel of the
    semi-analytic model route, apart from the other two routes' kernels.
    A plain loop: the interpreter's inline int compare beats a C-level
    map(operator.eq, row, column), which calls eq once per entry."""
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


def _cyclic_classes(t, proj: Sequence[int], reps: Sequence[int], zc: int) -> dict[int, list[int]]:
    """The cyclic classes of G/Z, as {weight: their representatives}.

    proj maps each element to its coset number, reps[c] lies in coset c and
    zc is the number of Z itself.  For m = ord(rZ), the class of rZ is
    {r^k Z : gcd(k, m) = 1}, of weight phi(m), and every element of it has
    the centralizer of r: some k' = k mod m is prime to ord(r), and r^k'
    lies in r^k Z and generates <r>.  A walk over the powers of each
    unclassed representative, read off t, ends where a power lands in Z.
    """
    classed = [False] * len(reps)
    runs: dict[int, list[int]] = {}
    for c, r in enumerate(reps):
        if classed[c]:
            continue
        powers = []  # the cosets of r, r^2, ..., r^(m-1)
        x = r
        while proj[x] != zc:
            powers.append(proj[x])
            x = t[x][r]
        m = len(powers) + 1
        members = [p for k, p in enumerate(powers, 1) if gcd(k, m) == 1] or [c]
        for p in members:
            classed[p] = True
        runs.setdefault(len(members), []).append(r)
    return runs


def _class_entries(t, runs: dict[int, list[int]]) -> int:
    """The number of commuting coset pairs, from the cyclic classes of G/Z.

    Commuting is constant on each block A x B of two classes, so the count
    is sum w_A^2 + 2 sum_{A<B} w_A w_B [r_A r_B = r_B r_A], with one entry
    pair read per pair of classes, a row's later representatives taken run
    by run of equal weight.
    """
    runs = list(runs.items())
    count = 0
    for j, (w, reps) in enumerate(runs):
        count += w * w * len(reps)
        for i, a in enumerate(reps):
            row = t[a]
            count += 2 * w * w * sum(1 for b in reps[i + 1:] if row[b] == t[b][a])
            for v, later in runs[j + 1:]:
                count += 2 * w * v * sum(1 for b in later if row[b] == t[b][a])
    return count


def cp_coset_formula(G: FiniteGroup) -> Fraction:
    """(number of commuting coset pairs) / |G:Z|^2 over the cosets of Z(G).

    Whether x and y commute depends only on xZ and yZ, so any member of a
    coset may stand for it: the representatives are those of the one
    coset pass.
    """
    Z = center(G)
    index = G.order // Z.order
    proj, reps = _cosets(Z)
    t = G.mul_table
    runs = _cyclic_classes(t, proj, reps, proj[G.identity])
    return Fraction(_class_entries(t, runs), index * index)


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
