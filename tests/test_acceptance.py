"""Acceptance gate: one test per criterion, printed pass/fail per line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Every tolerance is exact rational equality unless a criterion is
explicitly statistical.
"""

import random
import time
from fractions import Fraction

from haarcp import builders, groups
from haarcp.classify import Verdict, scan_corpus
from haarcp.compact import (
    build_model,
    cp_monte_carlo,
    cp_semianalytic,
    cp_theorem1,
    fc_center,
    finite_shadow,
    standard_model_battery,
)
from haarcp.corpus import builtin_corpus
from haarcp.cp import (
    cp_class_count,
    cp_coset_formula,
    cp_pair_count,
)
from haarcp.errors import TableBudgetExceeded
from haarcp.groups import (
    center,
    close_generators,
    derived_subgroup,
    direct_product,
)
from haarcp.isoclinism import (
    find_isoclinism,
    find_stem_group,
    verify_isoclinism,
)


def _report(criterion: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}")
    assert ok, criterion


def test_criterion_1_cp_a5_three_ways():
    start = time.time()
    a5 = builders.alternating(5)
    values = (cp_pair_count(a5), cp_class_count(a5), cp_coset_formula(a5))
    elapsed = time.time() - start
    ok = all(v == Fraction(1, 12) for v in values) and elapsed < 1.0
    _report("criterion 1: cp(A5) = 1/12 by all three algorithms in < 1 s", ok)


def test_criterion_2_five_eighths_census():
    start = time.time()
    bound = Fraction(5, 8)
    attained = set()
    ok = True
    for name, G in builtin_corpus(64):
        cp = cp_pair_count(G)
        if cp == 1:
            continue
        if cp > bound:
            ok = False
        if cp == bound:
            attained.add(name)
    elapsed = time.time() - start
    ok = ok and attained == {"dihedral 4", "quaternion8"} and elapsed < 30.0
    _report(
        "criterion 2: cp <= 5/8 for all non-abelian builtins <= 64,"
        " equality exactly at D4 and Q8, in < 30 s",
        ok,
    )


def test_criterion_3_theorem1_equality_on_battery():
    start = time.time()
    models = standard_model_battery()
    ok = len(models) >= 20
    for m in models:
        fc = fc_center(m)
        if cp_semianalytic(m) != cp_theorem1(finite_shadow(m, fc), fc.index):
            ok = False
    o2 = build_model(1, builders.cyclic(2), {1: ((-1,),)}, name="o2")
    rotation_q8 = build_model(
        2, builders.cyclic(4), {1: ((0, -1), (1, 0))}, builders.quaternion8()
    )
    ok = ok and cp_semianalytic(o2) == Fraction(1, 4)
    ok = ok and cp_semianalytic(rotation_q8) == Fraction(5, 128)
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _report(
        "criterion 3: cp_semianalytic = cp_theorem1 on the model battery"
        " (incl. O(2) = 1/4 and T2xC4 x Q8 = 5/128), in < 60 s",
        ok,
    )


def test_criterion_4_threshold_classification(classification_landmarks):
    rows = scan_corpus(
        builtin_corpus(64) + classification_landmarks, threshold=Fraction(3, 40)
    )
    ok = all(r.verdict is not Verdict.THEOREM_VIOLATION for r in rows)
    allowed_above = (
        Verdict.ABELIAN,
        Verdict.SOLVABLE_NONABELIAN,
        Verdict.A5_TIMES_ABELIAN,
    )
    for r in rows:
        if r.cp_value > Fraction(3, 40) and r.verdict not in allowed_above:
            ok = False
    sl25 = next(r for r in rows if r.name == "sl25")
    ok = ok and sl25.cp_value == Fraction(3, 40)
    ok = ok and sl25.verdict is Verdict.NONSOLVABLE_BELOW_THRESHOLD
    _report(
        "criterion 4: 3/40 classification corpus-wide, SL(2,5) sharp at 3/40",
        ok,
    )


def test_criterion_5_isoclinism_invariance():
    def commutation_sum(G):
        return cp_coset_formula(G) * (G.order // center(G).order) ** 2

    d4, q8 = builders.dihedral(4), builders.quaternion8()
    w = find_isoclinism(d4, q8)
    ok = w is not None and verify_isoclinism(d4, q8, w)
    ok = ok and commutation_sum(d4) == commutation_sum(q8) == 10
    ok = ok and cp_pair_count(d4) == cp_pair_count(q8) == Fraction(5, 8)
    e3 = builders.extraspecial27_exponent3()
    e9 = builders.extraspecial27_exponent9()
    w2 = find_isoclinism(e3, e9)
    ok = ok and w2 is not None and verify_isoclinism(e3, e9, w2)
    ok = ok and commutation_sum(e3) == commutation_sum(e9)
    ok = ok and cp_pair_count(e3) == cp_pair_count(e9) == Fraction(11, 27)
    _report(
        "criterion 5: D4 ~ Q8 with sum(c) = 10 and cp = 5/8 both sides;"
        " extraspecial order-27 pair agrees at 11/27",
        ok,
    )


def test_criterion_6_stem_groups():
    cases = [
        direct_product(builders.dihedral(4), builders.cyclic(2)),
        direct_product(builders.alternating(5), builders.cyclic(6)),
        builders.cyclic(20),
    ]
    ok = True
    for F in cases:
        found = find_stem_group(F, 64)
        if found is None:
            ok = False
            continue
        H, w = found
        stem_cond = center(H).member_set <= derived_subgroup(H).member_set
        ok = ok and stem_cond
        ok = ok and verify_isoclinism(F, H, w)
        ok = ok and cp_pair_count(F) == cp_pair_count(H)
    _report(
        "criterion 6: verified stem groups for D4 x C2, A5 x C6 and abelian,"
        " with Z(H) <= H' and cp(F) = cp(H)",
        ok,
    )


def test_criterion_7_random_group_agreement(relabel, monkeypatch):
    start = time.time()
    rng = random.Random(20240824)
    ok = True
    produced = 0
    monkeypatch.setattr(groups, "TABLE_BUDGET", 8 * 360 * 360)  # closures past order 360 stop
    while produced < 200:
        degree = rng.randint(3, 6)
        gens = [
            tuple(rng.sample(range(degree), degree)) for _ in range(2)
        ]
        try:
            G = close_generators(gens)
        except TableBudgetExceeded:
            continue
        produced += 1
        pair = cp_pair_count(G)
        if pair != cp_class_count(G) or pair != cp_coset_formula(G):
            ok = False
        # a relabelling moves the coset representatives and their numbering
        for _ in range(5):
            if cp_coset_formula(relabel(G, rng)) != pair:
                ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    _report(
        "criterion 7: three-way agreement and transversal invariance on 200"
        f" random closures in < 120 s (took {elapsed:.1f} s)",
        ok,
    )


def test_criterion_8_monte_carlo_convergence():
    o2 = build_model(1, builders.cyclic(2), {1: ((-1,),)}, name="o2")
    rotation = build_model(2, builders.cyclic(4), {1: ((0, -1), (1, 0))}, name="t2c4")
    ok = True
    for model, exact in ((o2, 0.25), (rotation, 1 / 16)):
        misses = 0
        for seed in range(100):
            est = cp_monte_carlo(model, 100000, seed)
            if abs(est.estimate - exact) > 4 * est.stderr:
                misses += 1
        if misses > 1:  # >= 99 of 100 seeds must land within 4 sigma
            ok = False
    _report(
        "criterion 8: Monte Carlo within 4 stderr of exact for >= 99/100 seeds"
        " at 1e5 samples (O(2) and T2 x C4)",
        ok,
    )
