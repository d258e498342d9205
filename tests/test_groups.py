import random

import pytest

from haarcp import builders, groups
from haarcp.classify import Verdict, classify_high_cp
from haarcp.corpus import builtin_corpus, builtin_entries
from haarcp.errors import (
    EmptyGeneratorList,
    NotNormal,
    TableBudgetExceeded,
)
from haarcp.groups import (
    Subgroup,
    center,
    close_generators,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    is_solvable,
    make_group,
    quotient,
    subgroup_as_group,
    verify_axioms,
    whole_subgroup,
)


class TestClosure:
    def test_single_3_cycle_gives_c3(self):
        G = close_generators([(1, 2, 0)])
        assert G.order == 3

    def test_standard_a5_generators(self):
        # (1 2 3 4 5) and (1 2 3) in 0-based form
        five = (1, 2, 3, 4, 0)
        three = (1, 2, 0, 3, 4)
        G = close_generators([five, three])
        assert G.order == 60
        assert classify_high_cp(G).verdict is Verdict.A5_TIMES_ABELIAN

    def test_cap_exceeded(self, monkeypatch):
        # a budget of one entry admits the trivial group only: the walk
        # stops at C2's second element
        monkeypatch.setattr(groups, "TABLE_BUDGET", 8)
        with pytest.raises(TableBudgetExceeded, match=(
                "^closure of degree 2 past order 1: a table of order 2 needs 32 bytes, "
                "over the budget of 8$")):
            close_generators([(1, 0)])

    def test_empty_generators(self):
        with pytest.raises(EmptyGeneratorList):
            close_generators([])

    def test_indices_in_bfs_order(self):
        G = close_generators([(1, 2, 3, 0)])
        assert G.identity == 0
        assert G.mul(1, 1) == 2  # generator discovered first, then its square


class TestCenterAndCentralizer:
    def test_abelian_center_is_whole_group(self):
        G = builders.cyclic(12)
        assert center(G).order == 12

    def test_s3_center_trivial(self, s3):
        assert center(s3).members == (s3.identity,)

    def test_q8_center_order_2(self, q8):
        assert center(q8).order == 2


class TestDerivedAndSolvable:
    def test_abelian_derived_trivial(self):
        assert derived_subgroup(builders.cyclic(9)).order == 1

    def test_s3_derived_has_order_3(self, s3):
        assert derived_subgroup(s3).order == 3

    def test_a5_perfect(self, a5):
        assert derived_subgroup(a5).order == 60

    def test_s4_solvable(self, s4):
        assert is_solvable(s4)

    def test_a5_not_solvable(self, a5):
        assert not is_solvable(a5)

    def test_abelian_solvable(self):
        assert is_solvable(builders.cyclic(30))


class TestConjugacyClasses:
    def test_abelian_all_singletons(self):
        G = builders.cyclic(7)
        assert all(len(c) == 1 for c in conjugacy_classes(G))

    def test_s3_class_sizes(self, s3):
        assert sorted(len(c) for c in conjugacy_classes(s3)) == [1, 2, 3]

    def test_a5_class_sizes(self, a5):
        assert sorted(len(c) for c in conjugacy_classes(a5)) == [1, 12, 12, 15, 20]

    def test_sizes_partition_group(self, q8):
        classes = conjugacy_classes(q8)
        assert sum(len(c) for c in classes) == q8.order
        assert all(q8.order % len(c) == 0 for c in classes)


class TestTransversalAndQuotient:
    def test_whole_group_transversal(self, s3):
        t = quotient(whole_subgroup(s3))[2]
        assert t == [s3.identity]

    def test_index_two(self, s3):
        H = derived_subgroup(s3)
        assert len(quotient(H)[2]) == 2

    def test_q8_center_transversal(self, q8):
        assert len(quotient(center(q8))[2]) == 4

    def test_transversal_sizes_multiply(self, d4):
        for sub in (center(d4), derived_subgroup(d4), whole_subgroup(d4)):
            t = quotient(sub)[2]
            assert len(t) * sub.order == d4.order

    def test_quotient_by_trivial(self, s3):
        Q, proj, reps = quotient(Subgroup(s3, (s3.identity,)))
        assert Q.order == s3.order
        assert proj == reps == list(range(s3.order))

    def test_q8_mod_center_is_klein(self, q8):
        Q, _, _ = quotient(center(q8))
        assert Q.order == 4
        assert all(Q.element_order(g) <= 2 for g in range(4))

    def test_s3_mod_a3(self, s3):
        Q, _, _ = quotient(derived_subgroup(s3))
        assert Q.order == 2

    def test_non_normal_rejected(self, s3):
        from haarcp.groups import generated_subgroup
        transposition = next(g for g in range(s3.order) if s3.element_order(g) == 2)
        H = generated_subgroup(s3, [transposition])
        with pytest.raises(NotNormal):
            quotient(H)

    def test_quotient_by_center_never_nontrivial_cyclic(self):
        for name, G in builtin_corpus(24):
            Q, _, _ = quotient(center(G))
            if Q.order > 1:
                # cyclic iff some element generates everything
                assert not any(
                    Q.element_order(g) == Q.order for g in range(Q.order)
                ), name


class TestProducts:
    def test_product_with_trivial(self, s3):
        P = direct_product(s3, builders.trivial())
        assert P.order == s3.order
        from haarcp.isomorphism import find_isomorphism
        assert find_isomorphism(P, s3) is not None

    def test_klein_four(self):
        P = direct_product(builders.cyclic(2), builders.cyclic(2))
        assert P.order == 4
        assert all(P.element_order(g) <= 2 for g in range(4))

    def test_a5_x_c2_derived(self, a5):
        P = direct_product(a5, builders.cyclic(2))
        assert P.order == 120
        assert derived_subgroup(P).order == 60

    def test_cap(self, a5, monkeypatch):
        monkeypatch.setattr(groups, "TABLE_BUDGET", 8 * 100 * 100)
        with pytest.raises(TableBudgetExceeded, match=(
                "^product A5 x A5: a table of order 3600 needs 103680000 bytes, "
                "over the budget of 80000$")):
            direct_product(a5, a5)


class TestIsA5:
    def test_a5_true(self, a5):
        assert classify_high_cp(a5).verdict is Verdict.A5_TIMES_ABELIAN

    def test_c60_false(self):
        assert classify_high_cp(builders.cyclic(60)).verdict is not Verdict.A5_TIMES_ABELIAN

    def test_d30_false(self):
        D = builders.dihedral(30)
        assert D.order == 60
        assert classify_high_cp(D).verdict is not Verdict.A5_TIMES_ABELIAN
        assert is_solvable(D)


def associative_by_triples(G):
    """Brute-force oracle: (ab)c = a(bc) for every triple."""
    t, n = G.mul_table, G.order
    return all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


class TestAxioms:
    @pytest.mark.parametrize("max_order", [64])
    def test_corpus_axioms_exhaustive(self, max_order):
        for name, G in builtin_corpus(max_order):
            assert verify_axioms(G), name

    def test_sl25_axioms(self):
        assert verify_axioms(builders.sl25())

    def test_agrees_with_triple_oracle_on_builtins(self):
        for name, G in builtin_corpus(32):
            assert verify_axioms(G) and associative_by_triples(G), name

    @pytest.mark.parametrize("rows", [
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
        # generated by 1 and 2; every triple (x, 1, y) associates, so only the
        # second generator exposes the failure
        [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
         [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]],
    ], ids=["loop5", "loop6"])
    def test_non_associative_loop(self, rows):
        L = make_group(rows)
        assert verify_axioms(L) is associative_by_triples(L) is False

    def test_agrees_with_triple_oracle_on_perturbed_tables(self):
        # change one product of a group table, keeping the identity's row and
        # column, so make_group accepts the result; count both verdicts
        rng = random.Random(5)
        verdicts = []
        for name, G in builtin_corpus(12):
            if G.order < 3:
                continue
            for _ in range(4):
                rows = [list(r) for r in G.mul_table]
                a, b = rng.sample([g for g in range(G.order) if g != G.identity], 2)
                rows[a][b] = rng.randrange(G.order)
                try:
                    H = make_group(rows)
                except ValueError:
                    continue
                verdicts.append(verify_axioms(H))
                assert verdicts[-1] == associative_by_triples(H), name
        assert True in verdicts and False in verdicts

    def test_subgroup_as_group_preserves_structure(self, s4):
        D = derived_subgroup(s4)
        A4, emb = subgroup_as_group(D)
        assert A4.order == 12
        for a in range(12):
            for b in range(12):
                assert emb[A4.mul(a, b)] == s4.mul(emb[a], emb[b])


class TestCorpusListing:
    def test_entries_list_the_built_corpus(self):
        # an entry's order comes from its name alone; building must agree
        for max_order in range(121):
            built = [(name, G.order) for name, G in builtin_corpus(max_order)]
            assert [(e.name, e.order) for e in builtin_entries(max_order)] == built


class TestReadOnly:
    def test_group_and_subgroup_fields_cannot_change(self):
        G = builders.cyclic(3)
        Z = center(G)
        for obj, field in [(G, "order"), (G, "mul_table"), (G, "name"), (Z, "parent"), (Z, "members")]:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
        with pytest.raises(AttributeError):
            G.note = "a slots class has no other attributes"
        assert (G.order, G.name, Z.members) == (3, "C3", (0, 1, 2))

    def test_records_cannot_change(self):
        result = classify_high_cp(builders.cyclic(3))
        with pytest.raises(AttributeError):
            result.verdict = Verdict.THEOREM_VIOLATION
        assert result.verdict is Verdict.ABELIAN
