import sys
from fractions import Fraction

import pytest

from haarcp import builders
from haarcp.classify import (
    Verdict,
    census_table,
    check_theorem1,
    check_theorem2_part1,
    classify_high_cp,
    scan_corpus,
)
from haarcp.compact import build_model, fc_center, finite_shadow, standard_model_battery
from haarcp.cp import cp_pair_count
from haarcp.corpus import builtin_corpus
from haarcp.groups import center, derived_series, direct_product, make_group


class TestClassify:
    def test_s4_solvable_nonabelian(self, s4):
        result = classify_high_cp(s4)
        assert result.verdict is Verdict.SOLVABLE_NONABELIAN
        assert result.cp_value == Fraction(5, 24)

    def test_a5_x_c2(self, a5):
        result = classify_high_cp(direct_product(a5, builders.cyclic(2)))
        assert result.verdict is Verdict.A5_TIMES_ABELIAN
        assert result.cp_value == Fraction(1, 12)

    def test_sl25_sharp_at_3_40(self):
        result = classify_high_cp(builders.sl25())
        assert result.verdict is Verdict.NONSOLVABLE_BELOW_THRESHOLD
        assert result.cp_value == Fraction(3, 40)

    def test_abelian_iff_cp_one(self):
        for name, G in builtin_corpus(16):
            result = classify_high_cp(G)
            assert (result.verdict is Verdict.ABELIAN) == (result.cp_value == 1), name


def is_a5_x_abelian(G) -> bool:
    return classify_high_cp(G).verdict is Verdict.A5_TIMES_ABELIAN


class TestDetectA5:
    def test_a5_itself(self, a5):
        assert is_a5_x_abelian(a5) is True

    def test_a5_x_c4(self, a5):
        assert is_a5_x_abelian(direct_product(a5, builders.cyclic(4))) is True

    def test_s5_rejected(self):
        assert is_a5_x_abelian(builders.symmetric(5)) is False

    @pytest.mark.parametrize("build", [
        builders.sl25,  # |G:Z| = 60, but the perfect core SL(2,5) has order 120
        lambda: direct_product(builders.sl25(), builders.cyclic(2)),
        lambda: direct_product(builders.symmetric(3), builders.dihedral(5)),  # order 60
        lambda: direct_product(builders.alternating(5), builders.symmetric(3)),
    ], ids=["sl25", "sl25 x c2", "s3 x d5", "a5 x s3"])
    def test_negatives(self, build):
        assert is_a5_x_abelian(build()) is False

    def test_agrees_with_isomorphism_search(self, a5):
        from haarcp.groups import subgroup_as_group
        from haarcp.isomorphism import find_isomorphism

        for T in (builders.trivial(), builders.cyclic(2), builders.cyclic(3)):
            G = direct_product(a5, T)
            detected = is_a5_x_abelian(G)
            Zg, _ = subgroup_as_group(center(G))
            searched = find_isomorphism(G, direct_product(a5, Zg)) is not None
            assert detected == searched

    def test_builds_no_table(self, monkeypatch, a5):
        groups = [builders.symmetric(5), builders.cyclic(60), builders.alternating(6),
                  direct_product(a5, builders.cyclic(4)), builders.sl25()]
        built = []

        def spy(table, name="G"):
            built.append(name)
            return make_group(table, name)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "haarcp" and getattr(module, "make_group", None) is make_group:
                monkeypatch.setattr(module, "make_group", spy)
        assert [is_a5_x_abelian(G) for G in groups] == [False, False, False, True, False]
        assert built == []

    @pytest.mark.parametrize("build, verdict", [
        (lambda: direct_product(builders.alternating(5), builders.cyclic(6)),
         Verdict.A5_TIMES_ABELIAN),
        (lambda: builders.symmetric(5), Verdict.NONSOLVABLE_BELOW_THRESHOLD),
    ], ids=["a5 x c6", "s5"])
    def test_one_derived_series_per_classification(self, monkeypatch, build, verdict):
        # the series serves both the solvability test and the A5 test
        G = build()
        calls = []

        def counted(H):
            calls.append(H)
            return derived_series(H)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "haarcp"
                    and getattr(module, "derived_series", None) is derived_series):
                monkeypatch.setattr(module, "derived_series", counted)
        assert classify_high_cp(G).verdict is verdict
        assert calls == [G]


class TestTheorem2Part1:
    def test_finite_group_vacuous(self, q8):
        report = check_theorem2_part1(q8)
        assert report.passed
        assert report.notes == ("finite group: conclusion vacuous",)

    def test_trivial_action_q8_model(self, q8):
        m = build_model(1, builders.trivial(), {}, q8)
        report = check_theorem2_part1(m)
        assert report.notes == ("cp = 5/8 > 1/4: FC index must be 1",)
        assert fc_center(m).index == 1
        assert report.passed

    def test_o2_sharpness(self):
        m = build_model(1, builders.cyclic(2), {1: ((-1,),)}, name="o2")
        report = check_theorem2_part1(m)
        assert report.cp_value == Fraction(1, 4)
        assert report.notes[0] == "cp = 1/4 <= 1/4: nothing asserted"
        assert report.passed
        assert any("sharpness" in n for n in report.notes)


class TestTheorem1Check:
    def test_o2(self):
        m = build_model(1, builders.cyclic(2), {1: ((-1,),)}, name="o2")
        report = check_theorem1(m)
        assert report.equal
        assert report.cp_direct == Fraction(1, 4)
        assert report.stem_name is not None
        assert report.stem_cp_equal

    def test_o2_times_s3(self, s3):
        m = build_model(1, builders.cyclic(2), {1: ((-1,),)}, s3)
        report = check_theorem1(m)
        assert report.equal
        assert report.cp_direct == Fraction(1, 8)
        assert report.stem_name in ("D3", "S3")  # S3 (= D3) is its own stem
        assert report.stem_cp_equal

    def test_rotation_times_q8(self, q8):
        m = build_model(2, builders.cyclic(4), {1: ((0, -1), (1, 0))}, q8)
        report = check_theorem1(m)
        assert report.equal
        assert report.cp_direct == Fraction(5, 128)
        assert finite_shadow(m, fc_center(m)).order == 8
        assert report.stem_name in ("D4", "Q8")
        assert report.stem_cp_equal

    def test_stem_not_in_corpus_is_soft(self, a5):
        # the shadow A5 is its own stem, and it is above STEM_MAX_ORDER
        m = build_model(0, builders.trivial(), {}, a5)
        report = check_theorem1(m)
        assert report.equal
        assert report.stem_name is None
        assert report.passed
        assert any("stem" in n for n in report.notes)

    def test_battery(self):
        for m in standard_model_battery():
            report = check_theorem1(m)
            assert report.passed, m.name

    def test_shadow_built_and_counted_once(self, monkeypatch, s3):
        from haarcp import classify, compact

        m = build_model(1, builders.cyclic(2), {1: ((-1,),)}, s3, name="o2 x s3")
        calls = {"finite_shadow": 0, "direct_product": 0, "shadow_pair_count": 0}
        shadows = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if name == "finite_shadow":
                    shadows.append(result)
                return result
            return wrapper

        def spy_pair_count(G):
            calls["shadow_pair_count"] += any(G is S for S in shadows)
            return cp_pair_count(G)

        shadow_spy = spy("finite_shadow", compact.finite_shadow)
        monkeypatch.setattr(classify, "finite_shadow", shadow_spy)
        monkeypatch.setattr(compact, "finite_shadow", shadow_spy)
        monkeypatch.setattr(compact, "direct_product", spy("direct_product", direct_product))
        monkeypatch.setattr(classify, "cp_pair_count", spy_pair_count)
        monkeypatch.setattr(compact, "cp_pair_count", spy_pair_count)
        report = check_theorem1(m)
        assert calls == {"finite_shadow": 1, "direct_product": 1, "shadow_pair_count": 1}
        assert report.cp_direct == report.cp_reduced == Fraction(1, 8)
        assert finite_shadow(m, fc_center(m)).order == 6
        assert report.stem_name == "D3" and report.stem_cp_equal


class TestScan:
    def test_empty_corpus(self):
        assert scan_corpus([]) == []

    def test_no_violations_on_classification_corpus(self, classification_landmarks):
        rows = scan_corpus(builtin_corpus(64) + classification_landmarks)
        assert all(r.verdict is not Verdict.THEOREM_VIOLATION for r in rows)

    def test_five_eighths_bound(self):
        rows = scan_corpus(builtin_corpus(64))
        bound = Fraction(5, 8)
        nonabelian = [r for r in rows if r.cp_value < 1]
        assert all(r.cp_value <= bound for r in nonabelian)
        attained = sorted(r.name for r in nonabelian if r.cp_value == bound)
        assert attained == ["dihedral 4", "quaternion8"]

    def test_rows_sorted_and_machine_format(self):
        rows = scan_corpus(builtin_corpus(12))
        keys = [(r.order, r.name) for r in rows]
        assert keys == sorted(keys)
        line = rows[0].machine_line()
        assert line.count("|") == 4

    def test_above_threshold_verdicts(self, a5):
        corpus = [
            ("alternating 5", a5),
            ("symmetric 5", builders.symmetric(5)),
            ("sl25", builders.sl25()),
            ("alternating 5 x cyclic 2", direct_product(a5, builders.cyclic(2))),
        ]
        rows = scan_corpus(corpus, threshold=Fraction(3, 40))
        by_name = {r.name: r for r in rows}
        assert by_name["alternating 5"].verdict is Verdict.A5_TIMES_ABELIAN
        assert by_name["symmetric 5"].verdict is Verdict.NONSOLVABLE_BELOW_THRESHOLD
        assert by_name["sl25"].verdict is Verdict.NONSOLVABLE_BELOW_THRESHOLD
        assert (
            by_name["alternating 5 x cyclic 2"].verdict is Verdict.A5_TIMES_ABELIAN
        )

    def test_census_table_renders(self):
        rows = scan_corpus(builtin_corpus(8))
        text = census_table(rows)
        assert "verdict" in text.splitlines()[0]
        assert len(text.splitlines()) == len(rows) + 1


class TestMonotoneSanity:
    def test_abelian_factor_keeps_solvability_verdict(self, s3):
        base = classify_high_cp(s3)
        enlarged = classify_high_cp(direct_product(s3, builders.cyclic(4)))
        assert base.verdict.solvable == enlarged.verdict.solvable
