import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from haarcp import builders, groups, isoclinism, isomorphism
from haarcp.cli import main
from haarcp.corpus import builtin_corpus, builtin_entries, builtin_group
from haarcp.cp import cp_coset_formula, cp_pair_count
from haarcp.errors import SearchBudgetExceeded
from haarcp.groups import (
    Subgroup,
    center,
    derived_subgroup,
    direct_product,
    make_group,
    quotient,
)
from haarcp.isoclinism import (
    IsoclinismWitness,
    _Central,
    _beta_from_alpha,
    find_isoclinism,
    find_stem_group,
    is_stem_group,
    verify_isoclinism,
)
from haarcp.isomorphism import iter_isomorphisms


def _central_product(d4):
    """D4 x D4, the central product D4 o D4 = (D4 x D4)/<(z, z)>, and the
    quotient map between them."""
    G = direct_product(d4, d4)
    z = next(g for g in center(d4).members if g != d4.identity)
    zz = z * d4.order + z  # (z, z), in the product's row-major indexing
    H, pi, _ = quotient(Subgroup(G, tuple(sorted((G.identity, zz)))))
    return G, H, pi


class TestVerify:
    def test_identity_witness(self, q8):
        # the search finds the identity map first
        w = find_isoclinism(q8, q8)
        assert w.alpha == tuple(range(4))
        assert all(u == v for u, v in w.beta.items())
        assert verify_isoclinism(q8, q8, w)

    def test_d4_q8_witness(self, d4, q8):
        w = find_isoclinism(d4, q8)
        assert w is not None
        assert verify_isoclinism(d4, q8, w)

    def test_tampered_witness_fails(self, d4, q8):
        w = find_isoclinism(d4, q8)
        alpha = list(w.alpha)
        # sending the identity coset elsewhere cannot be a homomorphism
        alpha[0], alpha[1] = alpha[1], alpha[0]
        assert not verify_isoclinism(d4, q8, IsoclinismWitness(tuple(alpha), w.beta))

    def test_genuine_witnesses_pass_without_rechecks(self, d4, q8):
        e3 = builders.extraspecial27_exponent3()
        e9 = builders.extraspecial27_exponent9()
        for G, H in [(d4, q8), (q8, d4), (e3, e9), (builders.cyclic(2), builders.cyclic(4))]:
            assert verify_isoclinism(G, H, find_isoclinism(G, H))

    def test_witness_is_the_two_printed_maps(self):
        assert IsoclinismWitness._fields == ("alpha", "beta")

    def test_cosets_numbered_by_smallest_member(self, d4, q8):
        # D4 relabelled so that its center cosets hold the pairs {0, 5},
        # {1, 2}, {3, 4} and {6, 7}: numbered by smallest member, they come
        # in that order; by largest member, {0, 5} would come third
        Z = center(d4).members
        cosets = sorted({tuple(sorted(d4.mul(g, z) for z in Z)) for g in range(d4.order)})
        labels = [0] * d4.order
        for coset, new in zip(cosets, [(0, 5), (1, 2), (3, 4), (6, 7)]):
            for g, label in zip(coset, new):
                labels[g] = label
        table = [[0] * d4.order for _ in range(d4.order)]
        for a in range(d4.order):
            for b in range(d4.order):
                table[labels[a]][labels[b]] = labels[d4.mul(a, b)]
        G = make_group(table, name="D4'")
        assert sorted(center(G).members) == [0, 5]
        for X, Y in [(G, q8), (q8, G), (G, d4)]:
            assert verify_isoclinism(X, Y, find_isoclinism(X, Y)), (X.name, Y.name)

    # Each forged witness below must be rejected.

    def test_beta_not_matching_commutators_rejected(self):
        # ES27 ~ ES27 with alpha the identity and beta inversion on G' = C3:
        # both are isomorphisms, but beta([x, y]) = [x, y]^-1 != [x, y]
        e3 = builders.extraspecial27_exponent3()
        w = find_isoclinism(e3, e3)
        assert w.alpha == tuple(range(9))
        forged = w._replace(beta={u: e3.inverse_table[u] for u in w.beta})
        assert forged.beta != w.beta
        assert not verify_isoclinism(e3, e3, forged)

    def test_alpha_from_a_smaller_quotient_rejected(self, d4):
        # D4 -> D4 x 1 -> D4 o D4 maps D4/Z(D4) = V4 isomorphically into
        # (D4 o D4)/Z = C2^4, and G' = C2 onto H' = C2 compatibly: a
        # witness in every check but that |G/Z(G)| = 4 and |H/Z(H)| = 16
        _G, H, pi = _central_product(d4)
        _Qh, h_proj, _ = quotient(center(H))
        _Qg, g_proj, _ = quotient(center(d4))
        into = [h_proj[pi[g_proj.index(c) * d4.order + d4.identity]] for c in range(4)]
        alpha = tuple(into + sorted(set(range(16)) - set(into)))
        beta = {u: pi[u * d4.order + d4.identity] for u in derived_subgroup(d4).members}
        assert set(beta.values()) == set(derived_subgroup(H).members)
        assert not verify_isoclinism(d4, H, IsoclinismWitness(alpha, beta))

    def test_non_injective_beta_rejected(self, d4):
        # D4 x D4 and its central product D4 o D4 (extraspecial of order 32)
        # have the same central quotient and compatible commutator maps, but
        # |G'| = 4 and |H'| = 2: the quotient map sends G' onto H', 2 to 1
        G, H, pi = _central_product(d4)
        Qg, g_proj, _ = quotient(center(G))
        Qh, h_proj, _ = quotient(center(H))
        g_reps = [g_proj.index(c) for c in range(Qg.order)]
        Dg, Dh = derived_subgroup(G), derived_subgroup(H)
        assert (Qg.order, Qh.order, Dg.order, Dh.order) == (16, 16, 4, 2)
        alpha = tuple(h_proj[pi[x]] for x in g_reps)
        assert sorted(alpha) == list(range(16))
        forged = IsoclinismWitness(alpha, {u: pi[u] for u in Dg.members})
        assert not verify_isoclinism(G, H, forged)

    def test_forged_derived_subgroup_rejected(self, d4):
        # D4 ~ D4 with beta the identity on all of D4, as if G' = D4
        w = find_isoclinism(d4, d4)
        forged = w._replace(beta={g: g for g in range(d4.order)})
        assert not verify_isoclinism(d4, d4, forged)

    def test_forged_trivial_quotients_rejected(self, d4, s3):
        # "D4 ~ S3" with trivial quotients and derived subgroups, beta = {e -> e}
        forged = IsoclinismWitness((0,), {d4.identity: s3.identity})
        assert not verify_isoclinism(d4, s3, forged)

    @pytest.mark.parametrize("alpha", [(0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 4), (0, 1, 2, -1)],
                             ids=["short", "long", "out-of-range", "negative"])
    def test_alpha_with_wrong_domain_rejected(self, alpha, d4, q8):
        w = find_isoclinism(d4, q8)
        assert not verify_isoclinism(d4, q8, w._replace(alpha=alpha))

    def test_beta_with_wrong_domain_rejected(self, d4, q8):
        w = find_isoclinism(d4, q8)
        outside = next(g for g in range(d4.order) if g not in w.beta)
        for beta in ({d4.identity: q8.identity}, w.beta | {outside: outside}):
            assert not verify_isoclinism(d4, q8, w._replace(beta=beta))

    def test_swapped_beta_rejected(self, d4, q8):
        w = find_isoclinism(d4, q8)
        beta = dict(w.beta)
        ks = sorted(beta)
        beta[ks[0]], beta[ks[1]] = beta[ks[1]], beta[ks[0]]
        assert not verify_isoclinism(d4, q8, w._replace(beta=beta))

    def test_verifier_keeps_its_own_coset_numbering(self, d4, q8, monkeypatch):
        # witness checking stays apart from witness search: with the coset
        # pass and the quotient of groups broken in every module, the
        # verifier still accepts real witnesses and rejects a swapped beta
        e3, e9 = builders.extraspecial27_exponent3(), builders.extraspecial27_exponent9()
        cases = [(d4, q8, find_isoclinism(d4, q8)), (e3, e9, find_isoclinism(e3, e9))]
        originals = [groups._cosets, groups.quotient]

        def broken(*args):
            raise AssertionError("coset code of groups called")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "haarcp":
                for attr, value in list(vars(module).items()):
                    if any(value is fn for fn in originals):
                        monkeypatch.setattr(module, attr, broken)
        with pytest.raises(AssertionError):
            find_isoclinism(d4, q8)  # the search does read them
        for G, H, w in cases:
            assert verify_isoclinism(G, H, w), G.name
            beta = dict(w.beta)
            ks = sorted(beta)
            beta[ks[0]], beta[ks[1]] = beta[ks[1]], beta[ks[0]]
            assert not verify_isoclinism(G, H, w._replace(beta=beta)), G.name

    def test_non_bijective_alpha_rejected(self, d4, q8):
        w = find_isoclinism(d4, q8)
        forged = w._replace(alpha=(0,) * len(w.alpha))
        assert not verify_isoclinism(d4, q8, forged)

    def test_non_homomorphic_beta_rejected(self, d4, q8):
        w = find_isoclinism(d4, q8)
        e, z = derived_subgroup(d4).members  # G' = {e, r^2}: beta = {e -> z, z -> e}
        forged = w._replace(beta={e: w.beta[z], z: w.beta[e]})
        assert not verify_isoclinism(d4, q8, forged)

    def test_c2_c4_trivially_isoclinic(self):
        # abelian groups all lie in one isoclinism family
        w = find_isoclinism(builders.cyclic(2), builders.cyclic(4))
        assert w is not None
        assert w.alpha == (0,)


class TestBetaFromAlpha:
    """Which maps alpha of the central quotients extend to an isoclinism.

    In both groups below G/Z(G) = C2^4, so alpha runs over all 20160 maps
    of GL(4, 2), and the commutator map is built from symplectic forms.
    """

    @staticmethod
    def _extending(G):
        g = _Central(G)
        alphas = list(iter_isomorphisms(g.quotient[0], g.quotient[0]))
        assert len(alphas) == 20160
        found = [(a, b) for a in alphas if (b := _beta_from_alpha(g, g, a)) is not None]
        for a, b in found:
            assert verify_isoclinism(G, G, IsoclinismWitness(tuple(a), b))
        return len(found)

    def test_d4_x_d4(self, d4):
        # one form per factor, valued in G' = C2^2: alpha must keep or swap
        # the two factors, (S3 x S3) : C2, of order 72
        assert self._extending(direct_product(d4, d4)) == 72

    def test_central_product_d4_o_d4(self, d4):
        # one nondegenerate form valued in G' = C2: Sp(4, 2) = S6, order 720
        assert self._extending(_central_product(d4)[1]) == 720


class TestFind:
    def test_abelian_pair(self):
        w = find_isoclinism(builders.cyclic(6), builders.klein4())
        assert w is not None

    def test_s3_c6_not_isoclinic(self, s3):
        assert find_isoclinism(s3, builders.cyclic(6)) is None

    def test_extraspecial_27(self):
        e3 = builders.extraspecial27_exponent3()
        e9 = builders.extraspecial27_exponent9()
        w = find_isoclinism(e3, e9)
        assert w is not None
        assert verify_isoclinism(e3, e9, w)

    def test_witness_symmetric(self, d4, q8):
        assert (find_isoclinism(d4, q8) is None) == (find_isoclinism(q8, d4) is None)

    def test_cap(self):
        # |A6/Z(A6)| = 360: no order cap stops the search, and its budget
        # is not reached on the way to the first witness
        a6 = builders.alternating(6)
        w = find_isoclinism(a6, a6)
        assert w is not None and verify_isoclinism(a6, a6, w)

    def test_isoclinic_implies_equal_cp(self):
        # spot-check across the small corpus: whenever a witness is found,
        # cp agrees exactly
        groups = [G for _n, G in builtin_corpus(16)]
        for i, G in enumerate(groups):
            for H in groups[i + 1:]:
                w = find_isoclinism(G, H)
                if w is not None:
                    assert cp_pair_count(G) == cp_pair_count(H), (G.name, H.name)


def _commutation_sum(G):
    """The commutation indicators summed over a central transversal."""
    return cp_coset_formula(G) * (G.order // center(G).order) ** 2


class TestInvariance:
    def test_d4_q8_sums_and_cp(self, d4, q8):
        w = find_isoclinism(d4, q8)
        assert verify_isoclinism(d4, q8, w)
        assert _commutation_sum(d4) == _commutation_sum(q8) == 10
        assert cp_pair_count(d4) == cp_pair_count(q8) == Fraction(5, 8)

    def test_extraspecial_27_cp(self):
        e3 = builders.extraspecial27_exponent3()
        e9 = builders.extraspecial27_exponent9()
        w = find_isoclinism(e3, e9)
        assert verify_isoclinism(e3, e9, w)
        assert _commutation_sum(e3) == _commutation_sum(e9)
        assert cp_pair_count(e3) == cp_pair_count(e9) == Fraction(11, 27)


def _reference_stem(F, groups):
    """The unscreened stem search: center and derived subgroup of every
    candidate, in (order, name) order, and a full search on each stem group."""
    for H in sorted(groups, key=lambda g: (g.order, g.name)):
        if is_stem_group(H):
            w = find_isoclinism(F, H)
            if w is not None:
                return H, w
    return None


def _passes_screen(F, order):
    """Whether order = |F:Z(F)| * m for some m dividing |F'|."""
    q, d = F.order // center(F).order, derived_subgroup(F).order
    return order % q == 0 and d % (order // q) == 0


class TestStemGroups:
    def test_abelian_has_trivial_stem(self):
        found = find_stem_group(builders.cyclic(12), 16)
        assert found is not None
        H, w = found
        assert H.order == 1

    def test_d4_x_c2(self, d4):
        F = direct_product(d4, builders.cyclic(2))
        found = find_stem_group(F, 16)
        assert found is not None
        H, w = found
        assert H.order == 8  # D4 or Q8, the stems of the family
        assert is_stem_group(H)
        assert cp_pair_count(F) == cp_pair_count(H)

    def test_a5_x_c6(self, a5):
        F = direct_product(a5, builders.cyclic(6))
        found = find_stem_group(F, 64)
        assert found is not None
        H, _w = found
        assert H.order == 60
        assert is_stem_group(H)

    def test_returned_stem_satisfies_condition(self):
        for F in (builders.dihedral(4), builders.quaternion8(), builders.cyclic(5)):
            found = find_stem_group(F, 16)
            assert found is not None
            H, w = found
            assert center(H).member_set <= derived_subgroup(H).member_set
            assert verify_isoclinism(F, H, w)

    def test_screen_matches_unscreened_reference(self, d4, q8, s3, a5):
        # at order 120 the corpus names and the group names of S5 and
        # SL(2,5) sort in opposite orders; the two are not isoclinic, so
        # either order finds the same stem
        products = [(d4, 3), (s3, 4), (q8, 2), (a5, 6)]
        cases = [(F, 64) for _n, F in builtin_corpus(32)]
        cases += [(direct_product(G, builders.cyclic(m)), 64) for G, m in products]
        cases += [(builders.symmetric(5), 120), (builders.sl25(), 120)]
        for F, max_order in cases:
            found = find_stem_group(F, max_order)
            expected = _reference_stem(F, [G for _n, G in builtin_corpus(max_order)])
            assert found is not None and expected is not None, F.name
            assert found[0].name == expected[0].name, F.name
            assert found[1].serialize() == expected[1].serialize(), F.name

    def test_corpus_is_streamed(self):
        # only the orders q*m that pass the screen are kept; here q = 1 and
        # m = 1, so of some 75000 corpus entries only the trivial group is
        F = builders.cyclic(2)
        tracemalloc.start()
        try:
            found = find_stem_group(F, 50000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found is not None
        H, w = found
        assert H is builtin_group("trivial")
        assert w == IsoclinismWitness((0,), {0: 0})
        assert peak < 1_000_000

    @pytest.mark.parametrize("argv, bound, out", [
        (["stem", "--max-order", "5000000", "c2"], 1, "stem: 1 (order 1)"),
        (["stem", "--max-order", "600", "d3xd8.group"], 576, "none (corpus exhausted)"),
    ], ids=["c2", "d3 x d8"])
    def test_corpus_read_up_to_q_times_d(self, argv, bound, out, monkeypatch, tmp_path, capsys):
        # no candidate is larger than q*d = |F:Z(F)| * |F'|: C2 has q = d = 1,
        # and D3 x D8 has q = 48 and d = 12
        bounds = []

        def spy(max_order):
            bounds.append(max_order)
            return builtin_entries(max_order)

        monkeypatch.setattr(isoclinism, "builtin_entries", spy)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d3xd8.group").write_text("product d3 d8\n")
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == out
        assert bounds == [bound]

    def test_isoclinic_stem_groups_pass_the_screen(self):
        groups = [G for _n, G in builtin_corpus(64)]
        stems = [H for H in groups if is_stem_group(H)]
        hits = 0
        for F in groups:
            for H in stems:
                if find_isoclinism(F, H) is not None:
                    hits += 1
                    assert _passes_screen(F, H.order), (F.name, H.name)
        assert hits > len(stems)  # each stem with itself, and more


@pytest.fixture
def quotients(monkeypatch):
    """Every group whose central quotient the search builds, in call order."""
    real, built = isoclinism.quotient, []

    def spy(N):
        built.append(N.parent)
        return real(N)

    monkeypatch.setattr(isoclinism, "quotient", spy)
    return built


class TestQuotientsAfterCapAndScreen:
    """A central quotient is built only for a pair that passes the
    (|G:Z(G)|, |G'|) screen, or for a stem candidate that passes the order
    screen."""

    def test_screened_pair_builds_none(self, quotients, d4, s3):
        # |D4:Z| = 4, |S3:Z| = 6
        assert find_isoclinism(d4, s3) is None
        assert quotients == []

    def test_pair_that_passes_builds_both(self, quotients, d4, q8):
        assert find_isoclinism(d4, q8) is not None
        assert len(quotients) == 2 and quotients[0] is d4 and quotients[1] is q8

    def test_stem_search_builds_f_once(self, quotients):
        # F = D24 of order 48 has |F:Z(F)| = 24 and |F'| = 12: the stem S4
        # passes the screen and is searched and rejected, then D24 itself
        F = builders.dihedral(24)
        found = find_stem_group(F, 64)
        assert found is not None and found[0].name == "D24"
        assert [G.name for G in quotients] == ["D24", "S4", "D24"]
        assert sum(G is F for G in quotients) == 1

    def test_stem_cap_before_any_candidate(self, quotients, capsys):
        # |A6:Z| = 360 = |A6'|: every candidate has order 360*m, above the
        # default --max-order of 64, so none is searched (tests/test_cli.py
        # checks that no corpus group is built); with --max-order 360, A6
        # itself is the stem
        assert main(["stem", "a6"]) == 0
        assert capsys.readouterr() == ("none (corpus exhausted)\n", "")
        assert quotients == []
        assert main(["stem", "--max-order", "360", "a6"]) == 0
        assert capsys.readouterr().out.startswith("stem: A6 (order 360)\n")

    def test_cap_before_screen(self, quotients, capsys):
        # |A6:Z| = 360 and |S5:Z| = 120 fail the screen, so no quotient is
        # built, whatever the order of either
        assert main(["isoclinic", "a6", "s5"]) == 0
        assert capsys.readouterr() == ("none\n", "")
        assert quotients == []

    @pytest.mark.parametrize("spec, max_order", [("product d3 d8", 600), ("product a4 s3", 900)])
    def test_candidate_above_cap_is_screened(self, spec, max_order, quotients, tmp_path, capsys):
        # D3 x D8: |F:Z| = 48 and |F'| = 12, so the stem group D288 of order
        # 576 = 48 * 12 passes the order screen; its index 288 is not 48, so
        # the screen drops it.  A4 x S3: |F:Z| = 72, |F'| = 12, and D432 of
        # order 864 has index 432
        f = tmp_path / "f.group"
        f.write_text(spec + "\n")
        assert main(["stem", "--max-order", str(max_order), str(f)]) == 0
        assert capsys.readouterr() == ("none (corpus exhausted)\n", "")
        assert quotients == []

    def test_verify_t1_shadow_above_cap(self, quotients, tmp_path, capsys):
        # the shadow S3 x A5 has |F:Z(F)| = 360, so every stem candidate is
        # above STEM_MAX_ORDER and the order screen leaves none to search
        f = tmp_path / "m.model"
        f.write_text("torus_rank 2\nacting_group s3\nextra_factor a5\n")
        assert main(["verify-t1", str(f)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "note: stem not in corpus (soft report)"
        assert quotients == []


def _class2(forms, n=6):
    """The class-2 group on pairs (v, a) of F2^n x F2^k, one bit of a per
    alternating form: (v, a)(w, b) = (v + w, a + b + beta(v, w)), where bit
    i of beta(v, w) is the sum of v_r w_s over the terms e_r ^ e_s (r < s)
    of form i, the upper-triangular part of the form.  (v, a) is element
    v + 2^n a."""
    size = 1 << n
    beta = [[sum((sum(v >> r & w >> s & 1 for r, s in form) & 1) << i
                 for i, form in enumerate(forms))
             for w in range(size)] for v in range(size)]
    order = size << len(forms)
    return make_group([[(x ^ y) & (size - 1) | ((x ^ y) >> n ^ beta[x % size][y % size]) << n
                        for y in range(order)] for x in range(order)])


@pytest.fixture(scope="module")
def order_512_pair():
    """Two class-2 groups of order 512 with |G:Z| = 64 and |G'| = 8, so they
    pass the screen, that are not isoclinic: cp 5/32 against 125/512."""
    A = _class2([[(0, 1), (2, 3), (4, 5)], [(0, 2), (1, 4)], [(3, 5), (0, 4)]])
    B = _class2([[(0, 1), (2, 3), (4, 5)], [(0, 1)], [(2, 3)]])
    return A, B


class TestSearchBudget:
    """Each search is bounded by its work, counted in mapped elements, and
    exits 2 with the budget's figure once it passes it."""

    MESSAGE = f"search passed its budget of {isomorphism.SEARCH_BUDGET} mapped elements"

    @pytest.mark.parametrize("swap", [False, True])
    def test_order_512_pair_passes_the_budget(self, order_512_pair, swap):
        G, H = order_512_pair[::-1] if swap else order_512_pair
        g, h = _Central(G), _Central(H)
        assert (g.index, g.derived.order) == (h.index, h.derived.order) == (64, 8)
        assert {cp_pair_count(G), cp_pair_count(H)} == {Fraction(5, 32), Fraction(125, 512)}
        with pytest.raises(SearchBudgetExceeded, match=f"^{self.MESSAGE}$"):
            find_isoclinism(G, H)

    def test_gl42_walk_fits(self, monkeypatch, d4):
        # the walk over all of GL(4, 2), the largest search that the tests
        # and the benchmark run to its end, covers exactly 343590 mapped
        # elements
        Q = _Central(direct_product(d4, d4)).quotient[0]
        monkeypatch.setattr(isomorphism, "SEARCH_BUDGET", 343590)
        assert sum(1 for _ in iter_isomorphisms(Q, Q)) == 20160
        monkeypatch.setattr(isomorphism, "SEARCH_BUDGET", 343589)
        with pytest.raises(SearchBudgetExceeded, match="budget of 343589 mapped"):
            for _ in iter_isomorphisms(Q, Q):
                pass

    def test_cli_exits_2(self, order_512_pair, tmp_path):
        # a child process, so that a search that never ends fails this test
        # at the timeout rather than hanging the suite
        paths = []
        for name, G in zip("AB", order_512_pair):
            rows = (" ".join(map(str, row)) for row in G.mul_table)
            path = tmp_path / f"{name}.group"
            path.write_text(f"table {G.order}\n" + "\n".join(rows) + "\n")
            paths.append(str(path))
        src = os.path.dirname(os.path.dirname(isomorphism.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-m", "haarcp.cli", "isoclinic", *paths],
                             env=env, capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: {self.MESSAGE}\n")
