"""Classification of groups and models against the cp thresholds.

Exact rational comparisons throughout: the thresholds 5/8, 1/4 and 3/40
are stored as fractions and never approximated.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .compact import CompactModel, cp_semianalytic, cp_theorem1, fc_center, finite_shadow
from .cp import cp_pair_count, format_rational
from .groups import FiniteGroup, center, derived_series
from .isoclinism import find_stem_group

FINITENESS_THRESHOLD = Fraction(1, 4)
SOLVABILITY_THRESHOLD = Fraction(3, 40)
STEM_MAX_ORDER = 32  # check_theorem1 searches builtin stem groups up to this order


class Verdict(str, enum.Enum):
    ABELIAN = "Abelian"
    SOLVABLE_NONABELIAN = "SolvableNonabelian"
    A5_TIMES_ABELIAN = "A5TimesAbelian"
    NONSOLVABLE_BELOW_THRESHOLD = "NonsolvableBelowThreshold"
    THEOREM_VIOLATION = "THEOREM VIOLATION"

    def __str__(self) -> str:
        return self.value

    @property
    def solvable(self) -> bool:
        """Whether the groups with this verdict are solvable."""
        return self in (Verdict.ABELIAN, Verdict.SOLVABLE_NONABELIAN)


class ClassificationResult(NamedTuple):
    verdict: Verdict
    cp_value: Fraction


def classify_high_cp(G: FiniteGroup) -> ClassificationResult:
    """Exact cp plus the solvable / A5-times-abelian trichotomy verdict.

    G is A5 times an abelian group iff the last term P of its derived series
    has order 60 and |G| = 60|Z(G)|.  P is perfect, and every group of order
    60 other than A5 is solvable, so P = A5.  P meets Z(G) inside Z(P) = 1,
    so |P Z(G)| = 60|Z(G)| = |G| and G = P x Z(G).  Conversely A5 x T has
    center T and series G > A5 = A5'.  The derived series is worked out
    once and serves both the solvability test and the A5 test.

    A THEOREM_VIOLATION verdict means a non-solvable group above 3/40 that
    is not A5 times abelian; no such group exists, so any occurrence is an
    engine bug surfaced loudly.
    """
    cp = cp_pair_count(G)
    if cp == 1:
        return ClassificationResult(Verdict.ABELIAN, cp)
    series = derived_series(G)
    if series[-1].order == 1:
        return ClassificationResult(Verdict.SOLVABLE_NONABELIAN, cp)
    if series[-1].order == 60 and G.order == 60 * center(G).order:
        return ClassificationResult(Verdict.A5_TIMES_ABELIAN, cp)
    if cp <= SOLVABILITY_THRESHOLD:
        return ClassificationResult(Verdict.NONSOLVABLE_BELOW_THRESHOLD, cp)
    return ClassificationResult(Verdict.THEOREM_VIOLATION, cp)


class Theorem2Part1Report(NamedTuple):
    cp_value: Fraction
    passed: bool
    notes: tuple[str, ...]


def check_theorem2_part1(x: FiniteGroup | CompactModel) -> Theorem2Part1Report:
    """cp > 1/4 forces a finite central quotient and derived subgroup.

    Vacuous for finite inputs.  For models the check is: cp > 1/4 implies
    the whole acting group fixes the torus (FC index 1), which makes both
    G' and G/Z(G) finite.  The circle-reflection model sits exactly at 1/4
    with infinite derived subgroup, so the strict inequality is sharp.
    """
    if isinstance(x, FiniteGroup):
        cp = cp_pair_count(x)
        return Theorem2Part1Report(cp, True, ("finite group: conclusion vacuous",))
    cp = cp_semianalytic(x)
    fc = fc_center(x)
    if cp > FINITENESS_THRESHOLD:
        ok = fc.index == 1
        notes = (f"cp = {format_rational(cp)} > 1/4: FC index must be 1",)
        return Theorem2Part1Report(cp, ok, notes)
    notes = (f"cp = {format_rational(cp)} <= 1/4: nothing asserted",)
    if cp == FINITENESS_THRESHOLD and fc.index > 1:
        notes += ("sharpness: cp exactly 1/4 with infinite derived subgroup",)
    return Theorem2Part1Report(cp, True, notes)


class Theorem1Report(NamedTuple):
    cp_direct: Fraction
    cp_reduced: Fraction
    stem_name: str | None
    stem_cp_equal: bool | None
    notes: tuple[str, ...]

    @property
    def equal(self) -> bool:
        return self.cp_direct == self.cp_reduced

    @property
    def passed(self) -> bool:
        return self.equal and self.stem_cp_equal is not False


def check_theorem1(model: CompactModel) -> Theorem1Report:
    """Assert the two cp routes agree, and realize the stem clause.

    The stem clause looks for a builtin group H of order at most
    STEM_MAX_ORDER with Z(H) <= H' isoclinic to the finite shadow
    and compares cp values.  A missing stem is reported softly (the corpus
    is finite, existence is not in question); an engine error in the search,
    such as SearchBudgetExceeded, reaches the caller.
    """
    direct = cp_semianalytic(model)
    fc = fc_center(model)
    shadow = finite_shadow(model, fc)
    reduced = cp_theorem1(shadow, fc.index)
    found = find_stem_group(shadow, STEM_MAX_ORDER)
    if found is None:
        return Theorem1Report(direct, reduced, None, None, ("stem not in corpus (soft report)",))
    H, _w = found
    # cp(shadow) = reduced * index^2: the shadow's pairs are counted once
    stem_cp_equal = reduced * fc.index**2 == cp_pair_count(H)
    return Theorem1Report(direct, reduced, H.name, stem_cp_equal, ())


class CensusRow(NamedTuple):
    name: str
    order: int
    cp_value: Fraction
    verdict: Verdict

    def machine_line(self) -> str:
        return "|".join(
            [
                self.name,
                str(self.order),
                format_rational(self.cp_value),
                "1" if self.verdict.solvable else "0",
                str(self.verdict),
            ]
        )


def scan_corpus(
    corpus: list[tuple[str, FiniteGroup]],
    threshold: Fraction = SOLVABILITY_THRESHOLD,
) -> list[CensusRow]:
    """Per-group census, rows sorted by (order, name).  A group above the
    threshold outside the theorem's three families is a THEOREM_VIOLATION
    (the only other verdict outside them is NONSOLVABLE_BELOW_THRESHOLD)."""
    rows: list[CensusRow] = []
    for name, G in corpus:
        result = classify_high_cp(G)
        verdict = result.verdict
        if result.cp_value > threshold and verdict is Verdict.NONSOLVABLE_BELOW_THRESHOLD:
            verdict = Verdict.THEOREM_VIOLATION
        rows.append(CensusRow(name, G.order, result.cp_value, verdict))
    rows.sort(key=lambda r: (r.order, r.name))
    return rows


def census_table(rows: list[CensusRow]) -> str:
    """Aligned plain-text table for human consumption."""
    header = ("name", "order", "cp", "solvable", "verdict")
    data = [
        (r.name, str(r.order), format_rational(r.cp_value),
         "yes" if r.verdict.solvable else "no", str(r.verdict))
        for r in rows
    ]
    widths = [max(len(h), *(len(d[i]) for d in data)) if data else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for d in data:
        lines.append("  ".join(c.ljust(w) for c, w in zip(d, widths)))
    return "\n".join(lines)
