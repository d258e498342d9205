import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from haarcp import builders, cp
from haarcp.cli import main
from haarcp.compact import build_model, cp_semianalytic
from haarcp.corpus import builtin_corpus
from haarcp.cp import (
    _class_entries,
    _cyclic_classes,
    _symmetric_entries,
    cp_class_count,
    cp_coset_formula,
    cp_pair_count,
    format_rational,
    parse_rational,
)
from haarcp.groups import (
    FiniteGroup,
    _cosets,
    center,
    direct_product,
    generated_subgroup,
    make_group,
    whole_subgroup,
)


def brute_commuting_pairs(G) -> int:
    """The number of ordered pairs (a, b) with ab = ba, checked one by one."""
    t, n = G.mul_table, G.order
    return sum(1 for a in range(n) for b in range(n) if t[a][b] == t[b][a])


@pytest.fixture(scope="module")
def corpus_120():
    return builtin_corpus(120)


def plant(monkeypatch, name, fake):
    """Put `fake` in place of the kernel cp.<name> in every haarcp module
    that holds it, as a bug in its body would reach every caller."""
    real = getattr(cp, name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("haarcp") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, fake)


def coset_order(t, proj, r, zc) -> int:
    """The order of rZ, by walking the powers of r."""
    m, x = 1, r
    while proj[x] != zc:
        x, m = t[x][r], m + 1
    return m


def wrong_weights(real):
    """real, with weight m - 1 in place of phi(m) for the class of an rZ of order m."""
    def classes(t, proj, reps, zc):
        runs = {}
        for rs in real(t, proj, reps, zc).values():
            for r in rs:
                runs.setdefault(coset_order(t, proj, r, zc) - 1, []).append(r)
        return runs
    return classes


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


class TestPairCountOracle:
    """n^2 * cp_pair_count(G) against the all-pairs count above, on groups
    that stress the inverse-class reduction."""

    def test_builtins_up_to_120(self, corpus_120):
        for name, G in corpus_120:
            assert cp_pair_count(G) * G.order**2 == brute_commuting_pairs(G), name

    @pytest.mark.parametrize("left, right", [
        (lambda: builders.dihedral(4), lambda: builders.cyclic(3)),
        (lambda: builders.alternating(5), lambda: builders.cyclic(6)),
    ], ids=["d4-c3", "a5-c6"])
    def test_products_in_both_factor_orders(self, left, right):
        G, H = left(), right()
        for P in (direct_product(G, H), direct_product(H, G)):
            assert cp_pair_count(P) * P.order**2 == brute_commuting_pairs(P), P.name

    def test_every_element_self_inverse(self):
        # C2 x C2 x C2: every inverse class is a singleton, 64 commuting pairs
        c2 = builders.cyclic(2)
        G = direct_product(direct_product(c2, c2), c2)
        assert all(G.inverse_table[x] == x for x in range(G.order))
        assert cp_pair_count(G) * 64 == brute_commuting_pairs(G) == 64

    @pytest.mark.parametrize("make", [
        lambda: builders.cyclic(27),
        builders.extraspecial27_exponent3,
        builders.extraspecial27_exponent9,
    ], ids=["c27", "es27-exp3", "es27-exp9"])
    def test_odd_order(self, make):
        # only the identity is its own inverse
        G = make()
        assert [x for x in range(G.order) if G.inverse_table[x] == x] == [G.identity]
        assert cp_pair_count(G) * G.order**2 == brute_commuting_pairs(G)

    def test_relabelled_s4(self, s4):
        t, perm = s4.mul_table, list(range(24))
        random.Random(13).shuffle(perm)
        inv = sorted(range(24), key=perm.__getitem__)
        G = make_group([[perm[t[inv[x]][inv[y]]] for y in range(24)] for x in range(24)])
        # inverse pairs land on non-adjacent indices
        assert any(abs(G.inverse_table[x] - x) > 1 for x in range(G.order))
        assert cp_pair_count(G) * 576 == brute_commuting_pairs(G) == 120


class TestKernelIndependence:
    """The three kernels share no code: a bug in any one of them shows up
    as a disagreement between routes."""

    @pytest.mark.parametrize("name, fake, line", [
        ("_class_entries", lambda real: lambda t, runs: real(t, runs) + 2,
         "coset-formula: 421/7200"),  # (840 + 2) / 120^2
        ("_cyclic_classes", wrong_weights, "coset-formula: 137/1800"),
    ], ids=["off-by-two-count", "weight-m-minus-1"])
    def test_planted_coset_kernel_bug_is_caught(self, monkeypatch, tmp_path, capsys, name,
                                                fake, line):
        plant(monkeypatch, name, fake(getattr(cp, name)))
        assert main(["cp", "s5"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "pair-count:    7/120",
            "class-count:   7/120",
            line,
            "FAIL disagreement between algorithms",
        ]
        # the model routes do not read the coset kernel
        f = tmp_path / "trivial-s3-q8.model"
        f.write_text("torus_rank 2\nacting_group s3\nextra_factor q8\n")
        assert main(["verify-t1", str(f)]) == 0

    def test_off_by_two_triangle_loop_is_caught(self, monkeypatch, tmp_path, capsys):
        real = cp._symmetric_entries
        plant(monkeypatch, "_symmetric_entries", lambda t, idx: real(t, idx) + 2)
        # trivial action of S3: the kernel is all of S3, and the
        # semi-analytic route counts its pairs with the triangle loop
        f = tmp_path / "trivial-s3-q8.model"
        f.write_text("torus_rank 2\nacting_group s3\nextra_factor q8\n")
        assert main(["verify-t1", str(f)]) == 1
        assert capsys.readouterr().out.startswith(
            "FAIL cp equality: direct 25/72 vs reduced 5/16\n")
        # the finite routes do not read the triangle loop
        assert main(["cp", "s5"]) == 0

    def test_pair_count_does_not_call_the_triangle_loop(self, monkeypatch, corpus_120):
        def broken(name):
            def kernel(*args):
                raise AssertionError(f"{name} called")
            return kernel

        kernels = ("_symmetric_entries", "_cyclic_classes", "_class_entries")
        for name in kernels:
            plant(monkeypatch, name, broken(name))
        with pytest.raises(AssertionError, match="_cyclic_classes called"):
            cp_coset_formula(builders.symmetric(3))
        with pytest.raises(AssertionError, match="_symmetric_entries called"):
            cp_semianalytic(build_model(1, builders.symmetric(3), {}))
        for name, G in corpus_120:
            assert cp_pair_count(G) == cp_class_count(G), name


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

    def test_transversal_independence(self, q8, relabel):
        # each relabelling changes which member of a coset of Z stands for
        # it and how the cosets are numbered
        rng = random.Random(5)
        for _ in range(10):
            assert cp_coset_formula(relabel(q8, rng)) == Fraction(5, 8)

    def test_default_reps_made_in_one_coset_pass(self, monkeypatch):
        # the coset pass makes one product per element, and its
        # representatives are not checked again
        G = direct_product(builders.symmetric(4), builders.cyclic(2))
        expected = cp_pair_count(G)
        mul, calls = FiniteGroup.mul, []

        def counting(self, a, b):
            calls.append(a)
            return mul(self, a, b)

        monkeypatch.setattr(FiniteGroup, "mul", counting)
        assert cp_coset_formula(G) == expected
        assert center(G).order == 2 and len(calls) == G.order

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


def smallest_coset_members(G) -> list[int]:
    """The smallest member of each coset g*Z(G), each coset listed once."""
    Z = center(G).members
    return sorted({min(G.mul(g, z) for z in Z) for g in range(G.order)})


def brute_commuting_cosets(G) -> int:
    """The number of ordered pairs of cosets of Z(G) whose representatives
    commute, checked one by one."""
    t, reps = G.mul_table, smallest_coset_members(G)
    return sum(1 for a in reps for b in reps if t[a][b] == t[b][a])


PRODUCT_FACTORS = {
    "q8-c6": (builders.quaternion8, lambda: builders.cyclic(6)),
    "d4-c3": (lambda: builders.dihedral(4), lambda: builders.cyclic(3)),
    "s4-c2": (lambda: builders.symmetric(4), lambda: builders.cyclic(2)),
    "a5-c6": (lambda: builders.alternating(5), lambda: builders.cyclic(6)),
    "es27exp9-c2": (builders.extraspecial27_exponent9, lambda: builders.cyclic(2)),
}


class TestCosetFormulaOracle:
    """|G:Z|^2 * cp_coset_formula(G) against the coset pairs counted one by
    one, on groups that stress the cyclic-class reduction of G/Z."""

    @staticmethod
    def check(G):
        Z = center(G)
        index = G.order // Z.order
        assert cp_coset_formula(G) * index**2 == brute_commuting_cosets(G), G.name
        proj, reps = _cosets(Z)
        runs = _cyclic_classes(G.mul_table, proj, reps, proj[G.identity])
        assert sum(w * len(rs) for w, rs in runs.items()) == index, G.name

    def test_builtins_up_to_120(self, corpus_120):
        for _name, G in corpus_120:
            self.check(G)

    @pytest.mark.parametrize("factors", PRODUCT_FACTORS.values(), ids=PRODUCT_FACTORS.keys())
    def test_products_in_both_factor_orders(self, factors):
        G, H = (make() for make in factors)
        self.check(direct_product(G, H))
        self.check(direct_product(H, G))

    @pytest.mark.parametrize("factors", PRODUCT_FACTORS.values(), ids=PRODUCT_FACTORS.keys())
    def test_shifted_and_shuffled_reps(self, factors):
        # any member of a coset may stand for it, in any coset order: the
        # kernels read the representatives and the projection they are given
        G = direct_product(*(make() for make in factors))
        Z, t = center(G), G.mul_table
        expected = brute_commuting_cosets(G)
        rng = random.Random(G.order)
        for _ in range(3):
            reps = [G.mul(r, rng.choice(Z.members)) for r in smallest_coset_members(G)]
            rng.shuffle(reps)
            proj = [-1] * G.order
            for c, r in enumerate(reps):
                for z in Z.members:
                    proj[G.mul(r, z)] = c
            assert -1 not in proj
            runs = _cyclic_classes(t, proj, reps, proj[G.identity])
            assert _class_entries(t, runs) == expected, G.name


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
