import random
import tracemalloc
from fractions import Fraction

import pytest

from haarcp import builders
from haarcp.corpus import builtin_corpus
from haarcp.cp import (
    _symmetric_entries,
    cp_class_count,
    cp_coset_formula,
    cp_pair_count,
    format_rational,
    parse_rational,
)
from haarcp.errors import CenterMismatch
from haarcp.groups import (
    Transversal,
    center,
    direct_product,
    generated_subgroup,
    left_transversal,
    whole_subgroup,
)


class TestPairCount:
    def test_trivial_group(self):
        assert cp_pair_count(builders.trivial()) == 1

    def test_s3(self, s3):
        # 18 commuting pairs of 36
        assert cp_pair_count(s3) == Fraction(1, 2)

    def test_q8(self, q8):
        # 40 commuting pairs of 64
        assert cp_pair_count(q8) == Fraction(5, 8)

    def test_abelian_is_one(self):
        assert cp_pair_count(builders.cyclic(17)) == 1


class TestClassCount:
    def test_abelian(self):
        assert cp_class_count(builders.cyclic(9)) == 1

    def test_a5(self, a5):
        assert cp_class_count(a5) == Fraction(1, 12)

    def test_s4(self, s4):
        assert cp_class_count(s4) == Fraction(5, 24)


class TestCosetFormula:
    def test_abelian(self):
        assert cp_coset_formula(builders.cyclic(6)) == 1

    def test_s3(self, s3):
        assert cp_coset_formula(s3) == Fraction(1, 2)

    # the sum of the commutation indicators over a central transversal is
    # cp_coset_formula(G) * |G:Z|^2
    def test_s3_sum_is_18(self, s3):
        assert cp_coset_formula(s3) * (s3.order // center(s3).order) ** 2 == 18

    def test_q8_sum_is_10(self, q8):
        assert cp_coset_formula(q8) * (q8.order // center(q8).order) ** 2 == 10

    def test_a5_sum_is_300(self, a5):
        assert cp_coset_formula(a5) * (a5.order // center(a5).order) ** 2 == 300
        assert cp_coset_formula(a5) == Fraction(300, 3600) == Fraction(1, 12)

    def test_transversal_independence(self, q8):
        rng = random.Random(5)
        Z = center(q8)
        base = left_transversal(q8, Z)
        for _ in range(10):
            reps = tuple(
                q8.mul(r, rng.choice(Z.members)) for r in base.reps
            )
            value = cp_coset_formula(q8, Transversal(Z, reps))
            assert value == Fraction(5, 8)

    def test_transversal_of_non_center_rejected(self, s3):
        # a transversal of the whole group is not one of Z(S3)
        with pytest.raises(CenterMismatch):
            cp_coset_formula(s3, left_transversal(s3, whole_subgroup(s3)))

    def test_transversal_missing_cosets_rejected(self, q8):
        # one representative repeated: three of the four cosets are missed
        with pytest.raises(CenterMismatch):
            cp_coset_formula(q8, Transversal(center(q8), (0, 0, 0, 0)))

    def test_reads_the_table_in_place(self):
        # with a trivial center every element is a representative; a copied
        # reps x reps subtable would be 720^2 pointers, over 4 MB
        s6 = builders.symmetric(6)
        tracemalloc.start()
        try:
            assert cp_coset_formula(s6) == Fraction(11, 720)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestThreeWayAgreement:
    def test_corpus_agreement(self):
        for name, G in builtin_corpus(32):
            pair = cp_pair_count(G)
            assert pair == cp_class_count(G), name
            assert pair == cp_coset_formula(G), name
            assert pair.denominator <= G.order**2
            assert (pair == 1) == (center(G).order == G.order), name

    def test_multiplicativity(self, s3, q8):
        for G, H in [(s3, q8), (q8, q8), (s3, builders.cyclic(4))]:
            P = direct_product(G, H)
            assert cp_pair_count(P) == cp_pair_count(G) * cp_pair_count(H)

    def test_nonabelian_bound(self):
        bound = Fraction(5, 8)
        for name, G in builtin_corpus(32):
            if cp_pair_count(G) != 1:
                assert cp_pair_count(G) <= bound, name


class TestSymmetricEntries:
    def test_matches_brute_force_on_fc_reduction_subgroups(self, s3, d4):
        d6 = builders.dihedral(6)
        rotation = next(g for g in range(12) if d6.element_order(g) == 6)
        reflection = next(
            g for g in range(8)
            if d4.element_order(g) == 2 and g not in center(d4).member_set
        )
        for S in (
            whole_subgroup(s3),
            generated_subgroup(d6, [rotation]),
            generated_subgroup(d4, [reflection]),
        ):
            t, idx = S.parent.mul_table, S.members
            brute = sum(1 for a in idx for b in idx if t[a][b] == t[b][a])
            assert _symmetric_entries(t, idx) == brute, (S.parent.name, idx)


class TestRationalFormat:
    def test_round_trip(self):
        for text in ["3/40", "5/8", "1", "0", "7/3"]:
            assert format_rational(parse_rational(text)) == text

    def test_integer_form(self):
        assert format_rational(Fraction(4, 4)) == "1"

    def test_decimals_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("0.075")

    @pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0"])
    def test_zero_denominator_rejected(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)
