from dataclasses import replace
from fractions import Fraction

import pytest

from haarcp import builders
from haarcp.corpus import builtin_corpus
from haarcp.cp import cp_coset_formula, cp_pair_count
from haarcp.errors import SearchCapExceeded
from haarcp.groups import (
    Subgroup,
    center,
    derived_subgroup,
    direct_product,
    generated_subgroup,
    quotient,
)
from haarcp.isoclinism import (
    IsoclinismWitness,
    find_isoclinism,
    find_stem_group,
    is_stem_group,
    verify_isoclinism,
)


def _cyclic_subgroup_of_order_4(G):
    return next(S for S in (generated_subgroup(G, [g]) for g in range(G.order)) if S.order == 4)


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
        tampered = IsoclinismWitness(
            w.G, w.H, w.g_quotient, w.h_quotient, w.g_proj, w.h_proj,
            tuple(alpha), w.g_derived, w.h_derived, w.beta,
        )
        assert not verify_isoclinism(d4, q8, tampered)

    def test_genuine_witnesses_pass_without_rechecks(self, d4, q8):
        e3 = builders.extraspecial27_exponent3()
        e9 = builders.extraspecial27_exponent9()
        for G, H in [(d4, q8), (q8, d4), (e3, e9), (builders.cyclic(2), builders.cyclic(4))]:
            assert verify_isoclinism(G, H, find_isoclinism(G, H))

    # Each forged witness below must be rejected.

    def test_forged_projection_rejected(self, d4, q8):
        w = find_isoclinism(d4, q8)

        def smallest(proj):
            return [min(g for g in range(d4.order) if proj[g] == c) for c in range(4)]

        # swap the images of the larger members of the last two cosets
        x, y = (max(g for g in range(d4.order) if w.g_proj[g] == c) for c in (2, 3))
        proj = list(w.g_proj)
        proj[x], proj[y] = proj[y], proj[x]
        # the smallest member of each coset, and so the commutator check on
        # canonical preimages, is unchanged
        assert smallest(proj) == smallest(w.g_proj)
        forged = replace(w, g_proj=tuple(proj))
        assert not verify_isoclinism(d4, q8, forged)

    def test_projection_not_constant_on_cosets_rejected(self, q8):
        G = direct_product(builders.dihedral(4), builders.cyclic(3))
        w = find_isoclinism(G, q8)
        fibres = [[g for g in range(G.order) if w.g_proj[g] == c] for c in range(4)]
        reps = [f[0] for f in fibres]
        products = {G.mul(x, y) for x in reps for y in reps}
        # the largest members of cosets 2 and 3 that no check on
        # representatives reads
        x, y = (max(set(fibres[c]) - products) for c in (2, 3))
        proj = list(w.g_proj)
        proj[x], proj[y] = proj[y], proj[x]
        forged = replace(w, g_proj=tuple(proj))
        assert [min(g for g in range(G.order) if proj[g] == c) for c in range(4)] == reps
        assert not verify_isoclinism(G, q8, forged)

    def test_projection_with_larger_kernel_rejected(self, d4, q8):
        # D4 -> D4/<r> and Q8 -> Q8/<i>, both C2: a homomorphism, constant
        # on the cosets of the center, but its kernel is not the center
        w = find_isoclinism(d4, q8)
        Qg, g_proj = quotient(d4, _cyclic_subgroup_of_order_4(d4))
        Qh, h_proj = quotient(q8, _cyclic_subgroup_of_order_4(q8))
        forged = replace(w, g_quotient=Qg, h_quotient=Qh, g_proj=tuple(g_proj),
                         h_proj=tuple(h_proj), alpha=(0, 1))
        assert not verify_isoclinism(d4, q8, forged)

    def test_projection_not_onto_rejected(self, d4, q8):
        w = find_isoclinism(d4, q8)
        forged = replace(w, g_proj=tuple(2 if c == 3 else c for c in w.g_proj))
        assert not verify_isoclinism(d4, q8, forged)

    def test_non_injective_beta_rejected(self, d4):
        # D4 x D4 and its central product D4 o D4 (extraspecial of order 32)
        # have the same central quotient and compatible commutator maps, but
        # |G'| = 4 and |H'| = 2: the quotient map sends G' onto H', 2 to 1
        G = direct_product(d4, d4)
        Zg = center(G)
        z = next(g for g in center(d4).members if g != d4.identity)
        zz = z * d4.order + z  # (z, z), in the product's row-major indexing
        H, pi = quotient(G, Subgroup(G, tuple(sorted((G.identity, zz)))))
        Qg, g_proj = quotient(G, Zg)
        Zh = center(H)
        Qh, h_proj = quotient(H, Zh)
        g_reps = [g_proj.index(c) for c in range(Qg.order)]
        Dg, Dh = derived_subgroup(G), derived_subgroup(H)
        assert (Zh.order, Dg.order, Dh.order) == (2, 4, 2)
        forged = IsoclinismWitness(
            G, H, Qg, Qh, tuple(g_proj), tuple(h_proj),
            tuple(h_proj[pi[x]] for x in g_reps), Dg, Dh,
            {u: pi[u] for u in Dg.members},
        )
        assert not verify_isoclinism(G, H, forged)

    def test_forged_derived_subgroup_rejected(self, d4):
        # D4 ~ D4 with "G' = D4" and beta the identity on all of D4
        w = find_isoclinism(d4, d4)
        whole = Subgroup(d4, tuple(range(d4.order)))
        forged = replace(w, g_derived=whole, h_derived=whole,
                         beta={g: g for g in range(d4.order)})
        assert not verify_isoclinism(d4, d4, forged)

    def test_forged_trivial_quotients_rejected(self, d4, s3):
        # "D4 ~ S3" with trivial quotients and derived subgroups, beta = {e -> e}
        one = builders.trivial()
        e = Subgroup(d4, (d4.identity,))
        forged = IsoclinismWitness(
            d4, s3, one, one, (0,) * d4.order, (0,) * s3.order, (0,),
            e, Subgroup(s3, (s3.identity,)), {d4.identity: s3.identity},
        )
        assert not verify_isoclinism(d4, s3, forged)

    def test_swapped_beta_rejected(self, d4, q8):
        w = find_isoclinism(d4, q8)
        beta = dict(w.beta)
        ks = sorted(beta)
        beta[ks[0]], beta[ks[1]] = beta[ks[1]], beta[ks[0]]
        assert not verify_isoclinism(d4, q8, replace(w, beta=beta))

    def test_non_bijective_alpha_rejected(self, d4, q8):
        w = find_isoclinism(d4, q8)
        forged = replace(w, alpha=(0,) * len(w.alpha))
        assert not verify_isoclinism(d4, q8, forged)

    def test_non_homomorphic_beta_rejected(self, d4, q8):
        w = find_isoclinism(d4, q8)
        e, z = w.g_derived.members  # G' = {e, r^2}: beta = {e -> z, z -> e}
        forged = replace(w, beta={e: w.beta[z], z: w.beta[e]})
        assert not verify_isoclinism(d4, q8, forged)

    def test_c2_c4_trivially_isoclinic(self):
        # abelian groups all lie in one isoclinism family
        w = find_isoclinism(builders.cyclic(2), builders.cyclic(4))
        assert w is not None
        assert w.g_quotient.order == 1


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

    def test_cap(self, a5):
        big = direct_product(a5, builders.cyclic(6))
        with pytest.raises(SearchCapExceeded):
            find_isoclinism(big, big, cap=16)

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


class TestStemGroups:
    def test_abelian_has_trivial_stem(self):
        corpus = [G for _n, G in builtin_corpus(16)]
        found = find_stem_group(builders.cyclic(12), corpus)
        assert found is not None
        H, w = found
        assert H.order == 1

    def test_d4_x_c2(self, d4):
        corpus = [G for _n, G in builtin_corpus(16)]
        F = direct_product(d4, builders.cyclic(2))
        found = find_stem_group(F, corpus)
        assert found is not None
        H, w = found
        assert H.order == 8  # D4 or Q8, the stems of the family
        assert is_stem_group(H)
        assert cp_pair_count(F) == cp_pair_count(H)

    def test_a5_x_c6(self, a5):
        corpus = [G for _n, G in builtin_corpus(64)]
        F = direct_product(a5, builders.cyclic(6))
        found = find_stem_group(F, corpus)
        assert found is not None
        H, _w = found
        assert H.order == 60
        assert is_stem_group(H)

    def test_returned_stem_satisfies_condition(self):
        corpus = [G for _n, G in builtin_corpus(16)]
        for F in (builders.dihedral(4), builders.quaternion8(), builders.cyclic(5)):
            found = find_stem_group(F, corpus)
            assert found is not None
            H, w = found
            assert center(H).member_set <= derived_subgroup(H).member_set
            assert verify_isoclinism(F, H, w)
