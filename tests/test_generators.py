"""Every group carries a generating set, and the kernels that read it agree
with brute force.

center, conjugacy_classes, is_normal and derived_subgroup read
G.generators in place of walking all of G.  The oracles below read only
the table: they conjugate by every element, and they share no code with
the library's closure walks.  A group whose generators fail to generate it
fails these checks, as the planted product at the end shows.
"""

import random

import pytest

from haarcp import builders, specfmt
from haarcp.cli import main
from haarcp.corpus import builtin_corpus
from haarcp.groups import (
    FiniteGroup,
    Subgroup,
    center,
    close_generators,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    is_normal,
    make_group,
    quotient,
    subgroup_as_group,
)


def span(G, gens):
    """Everything reached from the identity by right multiplication with gens."""
    reached, frontier = {G.identity}, [G.identity]
    t = G.mul_table
    while frontier:
        frontier = [y for y in {t[x][g] for x in frontier for g in gens} if y not in reached]
        reached.update(frontier)
    return reached


def brute_center(G):
    return tuple(z for z in range(G.order) if all(G.commutes(z, g) for g in range(G.order)))


def brute_classes(G):
    """Orbits under conjugation by every element, by smallest member."""
    seen, classes = set(), []
    for x in range(G.order):
        if x not in seen:
            orbit = tuple(sorted({G.conj(g, x) for g in range(G.order)}))
            seen.update(orbit)
            classes.append(orbit)
    return classes


def brute_normal(N, classes):
    """N is normal iff it is a union of conjugacy classes."""
    members = N.member_set
    return all(members.issuperset(c) or members.isdisjoint(c) for c in classes)


def brute_derived(G, classes):
    """The span of every commutator: [x, y] = x^-1 (y^-1 x y), and y^-1 x y
    runs over the class of x as y runs over G."""
    inv, t = G.inverse_table, G.mul_table
    commutators = {t[inv[x]][c] for cls in classes for x in cls for c in cls}
    return tuple(sorted(span(G, commutators)))


def mismatches(G):
    """The names of the checks G fails."""
    failed = []
    gens = G.generators
    if (G.identity in gens or not all(0 <= g < G.order for g in gens)
            or len(span(G, gens)) != G.order):
        failed.append("generators")
    classes = brute_classes(G)
    if center(G).members != brute_center(G):
        failed.append("center")
    if conjugacy_classes(G) != classes:
        failed.append("classes")
    D = derived_subgroup(G)
    if D.members != brute_derived(G, classes):
        failed.append("derived")
    # a normal subgroup, and one that is normal only for abelian or small G
    # (the span of one element)
    for N in (D, Subgroup(G, tuple(sorted(span(G, [G.order - 1]))))):
        if is_normal(N) != brute_normal(N, classes):
            failed.append("normal")
    return failed


def relabelled_table_spec(G, tmp_path, seed):
    """G's table written as a `table` spec under a random relabelling."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    rows = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            rows[perm[a]][perm[b]] = perm[G.mul(a, b)]
    f = tmp_path / f"{G.name}.group"
    f.write_text(f"table {G.order}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return specfmt.parse_group_file(f)


def closures():
    # S4 from a 4-cycle and a transposition, given twice and beside the
    # identity; the dihedral group of order 10 on five points
    return [
        close_generators([(1, 2, 3, 0), (0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 2, 3)]),
        close_generators([(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]),
    ]


def test_builtins_up_to_order_64():
    corpus = builtin_corpus(64)
    assert len(corpus) == 102
    assert {name: failed for name, G in corpus if (failed := mismatches(G))} == {}


@pytest.mark.parametrize("build", [
    lambda: builders.symmetric(6),
    lambda: direct_product(builders.symmetric(6), builders.cyclic(2)),
    lambda: direct_product(builders.alternating(5), builders.cyclic(6)),
    lambda: direct_product(builders.klein4(), builders.trivial()),
    lambda: builders.sl25(),
], ids=["S6", "S6xC2", "A5xC6", "V4x1", "SL(2,5)"])
def test_larger_groups_and_products(build):
    assert mismatches(build()) == []


@pytest.mark.parametrize("index", [0, 1])
def test_closures(index):
    G = closures()[index]
    assert mismatches(G) == []
    assert G.order == (24, 10)[index]


def test_relabelled_table_spec(tmp_path):
    for seed, G in enumerate([builders.dihedral(6), builders.quaternion8(),
                              builders.alternating(4), builders.extraspecial27_exponent9()]):
        assert mismatches(relabelled_table_spec(G, tmp_path, seed)) == [], G.name


@pytest.mark.parametrize("build", [
    lambda: builders.dihedral(8),
    lambda: direct_product(builders.quaternion8(), builders.symmetric(3)),
    lambda: builders.sl25(),
], ids=["D8", "Q8xS3", "SL(2,5)"])
def test_quotients_and_subgroups(build):
    G = build()
    for H in (quotient(center(G))[0], subgroup_as_group(center(G))[0],
              subgroup_as_group(derived_subgroup(G))[0]):
        assert mismatches(H) == [], H.name


def test_quotient_generators_are_distinct_non_identity_images():
    G = direct_product(builders.dihedral(4), builders.cyclic(2))
    Q, proj, _ = quotient(center(G))
    images = [proj[g] for g in G.generators if proj[g] != Q.identity]
    assert list(Q.generators) == list(dict.fromkeys(images))


# -- a wrong generating set is caught --------------------------------------

def planted_product(G, H):
    """direct_product(G, H) with H's generators dropped: its generators span
    only G x 1."""
    P = direct_product(G, H)
    return make_group(P.mul_table, P.name, P.identity, P.inverse_table,
                      P.generators[:len(G.generators)])


def test_planted_product_fails():
    G = planted_product(builders.symmetric(3), builders.quaternion8())
    assert {"generators", "center", "classes"} <= set(mismatches(G))


def test_planted_product_makes_cp_exit_1(monkeypatch, tmp_path, capsys):
    # the pair count reads no generators, the class count and the coset
    # formula do: a wrong generating set shows up as a disagreement
    f = tmp_path / "p.group"
    f.write_text("product s3 q8\n")
    assert main(["cp", str(f)]) == 0
    monkeypatch.setattr(specfmt, "direct_product", planted_product)
    capsys.readouterr()
    assert main(["cp", str(f)]) == 1
    assert capsys.readouterr().out.endswith("FAIL disagreement between algorithms\n")


# -- the kernels read O(n k) entries ---------------------------------------

class _CountingRow(tuple):
    reads = 0

    def __getitem__(self, i):
        _CountingRow.reads += 1
        return tuple.__getitem__(self, i)


def test_center_and_classes_of_c2_11_read_n_times_k_entries():
    G = builders.cyclic(2)
    for _ in range(10):
        G = direct_product(G, builders.cyclic(2))
    n, k = G.order, len(G.generators)
    assert (n, k) == (2048, 11)
    # built directly: make_group would copy the rows into plain tuples
    counted = FiniteGroup(n, tuple(_CountingRow(row) for row in G.mul_table), G.identity,
                          G.inverse_table, G.name, G.generators)
    for kernel in (center, conjugacy_classes):
        _CountingRow.reads = 0
        kernel(counted)
        # row g and column g per generator: 2 n k entries, against n^2 = 4194304
        assert n * k <= _CountingRow.reads <= 2 * n * k
    assert center(counted).members == tuple(range(n))
    assert conjugacy_classes(counted) == [(x,) for x in range(n)]


def test_constructions_pass_their_own_generators():
    assert builders.trivial().generators == ()
    assert builders.cyclic(1).generators == ()
    assert builders.cyclic(5).generators == (1,)
    assert builders.klein4().generators == (1, 2)
    # the closure's indices of the non-identity perms, once each, in BFS
    # order: the 4-cycle is reached first, the transposition second
    assert closures()[0].generators == (1, 2)
    S3, C4 = builders.symmetric(3), builders.cyclic(4)
    assert direct_product(S3, C4).generators == (
        tuple(4 * g + C4.identity for g in S3.generators) + (4 * S3.identity + 1,))
