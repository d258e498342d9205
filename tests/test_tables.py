"""Table construction against direct oracles.

Every builder must give the table a direct construction gives: element
products looked up by index, one entry at a time.  The oracles below are
that construction, kept independent of the library's builders.
"""

import functools
import itertools
import random
import sys

import pytest

from haarcp import builders
from haarcp.cli import main
from haarcp.corpus import builtin_corpus
from haarcp.errors import ParseError
from haarcp.groups import (
    FiniteGroup,
    Subgroup,
    center,
    close_generators,
    conjugacy_classes,
    derived_subgroup,
    derived_series,
    derived_subgroup_of,
    direct_product,
    generated_subgroup,
    greedy_generators,
    make_group,
    quotient,
    subgroup_as_group,
    verify_axioms,
    whole_subgroup,
)
from haarcp.specfmt import parse_group_file


def oracle_table(elements, mul):
    index = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(index[mul(a, b)] for b in elements) for a in elements)


def oracle_identity_and_inverses(t):
    n = len(t)
    e = next(e for e in range(n) if all(t[e][g] == g and t[g][e] == g for g in range(n)))
    inv = tuple(next(h for h in range(n) if t[g][h] == e and t[h][g] == e) for g in range(n))
    return e, inv


def oracle_centralizer(G, g):
    return Subgroup(G, tuple(a for a in range(G.order) if G.commutes(a, g)))


def compose(p, q):
    return tuple(q[i] for i in p)


def oracle_bfs(start, gens, mul):
    """Everything reached from start by right multiplication with gens, in BFS order."""
    elements = [start]
    seen = {start}
    for x in elements:
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def oracle_closure(perms):
    return oracle_bfs(tuple(range(len(perms[0]))), perms, compose)


def oracle_greedy(identity, elements, mul):
    """greedy_generators with each span closed again from the identity."""
    gens = []
    reached = {identity}
    for x in elements:
        if x not in reached:
            gens.append(x)
            reached = set(oracle_bfs(identity, gens, mul))
    return gens


def counting_mul(G):
    """(mul, calls): products by table lookup, each call appended to calls."""
    t, calls = G.mul_table, []

    def mul(a, b):
        calls.append((a, b))
        return t[a][b]

    return mul, calls


def assert_matches(G, table):
    assert G.order == len(table)
    assert G.mul_table == table
    assert (G.identity, G.inverse_table) == oracle_identity_and_inverses(table)


def right_regular(G, gens):
    return [tuple(G.mul_table[x][g] for x in range(G.order)) for g in gens]


def oracle_classes(G):
    """Conjugation orbits by G.conj, one element at a time, by smallest member."""
    orbits = {tuple(sorted({G.conj(g, x) for g in range(G.order)})) for x in range(G.order)}
    return sorted(orbits)


def oracle_associative(t):
    n = len(t)
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in range(n) for y in range(n) for z in range(n))


def oracle_product_table(A, B):
    """(a, b) -> a*|B| + b, so index[(a1, b1) * (a2, b2)] is this sum."""
    s, t, m = A.mul_table, B.mul_table, B.order
    return tuple(
        tuple(s[a1][a2] * m + t[b1][b2] for a2 in range(A.order) for b2 in range(m))
        for a1 in range(A.order) for b1 in range(m)
    )


def oracle_derived(G, members):
    """Closure of all commutators of pairs of members, by table lookups."""
    t = G.mul_table
    comms = {G.commutator(x, y) for x in members for y in members}
    return tuple(sorted(oracle_bfs(G.identity, comms, lambda a, b: t[a][b])))


# A Latin square with identity 0 that is not associative, as verify_axioms
# meets it in a `table` spec.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]

S6_GENS = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
A6_GENS = [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)]


def random_gens(seed):
    rng = random.Random(seed)
    degree = 4 + seed % 3
    gens = []
    for _ in range(1 + seed % 2):
        p = list(range(degree))
        rng.shuffle(p)
        gens.append(tuple(p))
    return gens


RANDOM_SEEDS = range(9)


@pytest.fixture(scope="module")
def groups():
    """Every builtin up to order 120, S6, A6 and seeded random closures."""
    out = [G for _name, G in builtin_corpus(120)]
    out += [builders.symmetric(6), builders.alternating(6)]
    out += [close_generators(random_gens(s), name=f"R{s}") for s in RANDOM_SEEDS]
    return out


def table_spec(tmp_path, rows, size=None):
    """A `table` spec file of the given rows, declaring size rows (default: as many as given)."""
    f = tmp_path / "t.group"
    f.write_text(f"table {len(rows) if size is None else size}\n"
                 + "".join(" ".join(map(str, row)) + "\n" for row in rows))
    return f


class TestMakeGroupRejects:
    """Tables that are not groups.  Row lengths and entry ranges are checked
    where a table enters, by the `table` spec parser; make_group finds the
    identity and inverses."""

    @pytest.mark.parametrize("table, message", [
        ([[0, 1], [1]], "row 1 has length 1, expected 2"),
        ([[0, 1], [1, 2]], "table entry 2 out of range 0..1"),
        ([[0, -1], [1, 0]], "table entry -1 out of range 0..1"),
        ([[0, 1], [0, 1]], "no two-sided identity in table"),
        ([[1, 0], [1, 0]], "no two-sided identity in table"),
        ([[0, 1, 2], [1, 1, 1], [2, 1, 0]], "element 1 has no two-sided inverse"),
    ])
    def test_message(self, table, message, tmp_path):
        if message.startswith(("row ", "table entry ")):
            f = table_spec(tmp_path, table)
            with pytest.raises(ParseError) as err:
                parse_group_file(f)
            assert str(err.value) == f"{f}: bad Cayley table: {message}"
        else:
            with pytest.raises(ValueError) as err:
                make_group(table)
            assert str(err.value) == message

    def test_first_bad_row_reported(self, tmp_path):
        f = table_spec(tmp_path, [[0, 1, 2], [1, 5, 9], [2]])
        with pytest.raises(ParseError) as err:
            parse_group_file(f)
        assert str(err.value) == f"{f}: bad Cayley table: table entry 5 out of range 0..2"

    def test_short_table_reported_before_bad_entry(self, tmp_path):
        f = table_spec(tmp_path, [[0, 1, 2], [1, 5, 9]], size=3)
        with pytest.raises(ParseError) as err:
            parse_group_file(f)
        assert str(err.value) == f"{f}: table ended early, 1 rows missing"


def searched(G):
    """(identity, inverse table) that make_group's search finds on G's rows."""
    H = make_group(G.mul_table)
    return H.identity, H.inverse_table


# Inputs of TestIdentityAndInverses, each as a builder makes it.
INPUTS = {
    "S4": lambda: builders.symmetric(4),
    "S5": lambda: builders.symmetric(5),
    "D12": lambda: builders.dihedral(12),
    "A5xC6": lambda: direct_product(builders.alternating(5), builders.cyclic(6)),
}


class TestIdentityAndInverses:
    """make_group searches a table for its identity and inverses only when
    the caller does not pass them.  Every construction passes its own, and
    they must be what the search finds on the same rows."""

    def test_first_two_sided_inverse_taken(self):
        # row 1 holds the identity at 2 and 3, but only 3 is a two-sided inverse
        t = [[0, 1, 2, 3], [1, 1, 0, 0], [2, 2, 0, 1], [3, 0, 1, 0]]
        assert make_group(t).inverse_table == (0, 3, 2, 1)

    @pytest.mark.parametrize("make", INPUTS.values(), ids=INPUTS.keys())
    def test_constructions_agree_with_search(self, make, relabel):
        G = make()  # group_from_elements, or direct_product for A5xC6
        # relabelled, the identity moves off index 0 in what is built from it
        for K in (G, relabel(G, random.Random(G.order))):
            Z, N = center(K), derived_subgroup(K)
            built = [
                K,
                close_generators(right_regular(K, greedy_generators(K.identity, range(K.order),
                                                                    K.mul))),
                direct_product(K, builders.cyclic(2)),
                direct_product(builders.klein4(), K),
                quotient(Z)[0],
                quotient(N)[0],
                subgroup_as_group(N)[0],
                subgroup_as_group(Z)[0],
            ]
            for B in built:
                assert (B.identity, B.inverse_table) == searched(B), B

    def test_closed_forms_agree_with_search(self):
        for B in [builders.trivial(), builders.klein4()] + [builders.cyclic(n) for n in range(1, 13)]:
            assert (B.identity, B.inverse_table) == searched(B), B


# Each builds one table from an input group G, its derived subgroup N and a
# `table` spec file of G.
TABLE_BUILDS = {
    "close_generators": lambda G, N, spec: close_generators([(1, 0, 2), (0, 2, 1)]),
    "group_from_elements": lambda G, N, spec: builders.dihedral(4),
    "cyclic": lambda G, N, spec: builders.cyclic(5),
    "klein4": lambda G, N, spec: builders.klein4(),
    "trivial": lambda G, N, spec: builders.trivial(),
    "direct_product": lambda G, N, spec: direct_product(G, G),
    "quotient": lambda G, N, spec: quotient(N)[0],
    "subgroup_as_group": lambda G, N, spec: subgroup_as_group(N)[0],
    "table-spec": lambda G, N, spec: parse_group_file(spec),
}


class TestOneMakeGroupPerTable:
    """Every table reaches make_group exactly once, whoever builds it: the
    traced benchmark counts tables, and picks the largest, by its calls."""

    @pytest.mark.parametrize("build", TABLE_BUILDS.values(), ids=TABLE_BUILDS.keys())
    def test_counted_once(self, build, s4, monkeypatch, tmp_path):
        N = derived_subgroup(s4)
        spec = table_spec(tmp_path, s4.mul_table)
        made = []

        def counting(*args, **kwargs):
            made.append(make_group(*args, **kwargs))
            return made[-1]

        # every haarcp module that imported the name, as the tracer patches it
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "haarcp" and getattr(module, "make_group", None) is make_group:
                monkeypatch.setattr(module, "make_group", counting)
        G = build(s4, N, spec)
        assert len(made) == 1 and made[0] is G


class TestAgainstOracle:
    def test_close_generators_random(self):
        for s in RANDOM_SEEDS:
            gens = random_gens(s)
            elements = oracle_closure(gens)
            assert_matches(close_generators(gens), oracle_table(elements, compose))

    @pytest.mark.parametrize("gens", [S6_GENS, A6_GENS], ids=["S6", "A6"])
    def test_close_generators_degree_6(self, gens):
        elements = oracle_closure(gens)
        assert len(elements) in (720, 360)
        assert_matches(close_generators(gens), oracle_table(elements, compose))

    def test_close_generators_regular_builtins(self):
        # each builtin as the closure of the right-regular images of three elements
        for name, G in builtin_corpus(32):
            gens = right_regular(G, sorted({1 % G.order, G.order // 2, G.order - 1}))
            elements = oracle_closure(gens)
            assert_matches(close_generators(gens), oracle_table(elements, compose))

    def test_sl25(self, monkeypatch):
        seen = []
        real = builders.close_generators

        def spy(perms, name):
            G = real(perms, name=name)
            seen.append(G)
            assert_matches(G, oracle_table(oracle_closure(perms), compose))
            return G

        monkeypatch.setattr(builders, "close_generators", spy)
        assert builders.sl25().order == 120
        assert len(seen) == 1

    def test_group_from_elements(self, monkeypatch):
        seen = []
        real = builders.group_from_elements

        def spy(elements, mul, name):
            G = real(elements, mul, name)
            seen.append(name)
            assert_matches(G, oracle_table(elements, mul))
            return G

        monkeypatch.setattr(builders, "group_from_elements", spy)
        for n in range(1, 61):
            builders.dihedral(n)
        for n in range(1, 7):
            builders.symmetric(n)
            builders.alternating(n)
        builders.quaternion8()
        builders.extraspecial27_exponent3()
        builders.extraspecial27_exponent9()
        assert len(seen) == 75

    def test_direct_product_both_orders(self, groups):
        small = [G for G in groups if G.order <= 24]
        factors = [builders.trivial(), builders.cyclic(2), builders.symmetric(3)]
        pairs = [(G, H) for G in small for H in factors]
        pairs.append((builders.alternating(5), builders.cyclic(6)))
        pairs.append((builders.symmetric(6), builders.cyclic(2)))
        for G, H in pairs:
            for A, B in ((G, H), (H, G)):
                assert_matches(direct_product(A, B), oracle_product_table(A, B))

    def test_direct_product_holds_one_int_per_element(self):
        # every generator map is cut from the identity row's tuple of
        # indices, so the table refers to n int objects, not one per entry
        P = direct_product(builders.alternating(5), builders.cyclic(6))
        assert len({id(v) for row in P.mul_table for v in row}) == P.order == 360

    def test_quotient(self, groups):
        for G in groups:
            for N in (center(G), derived_subgroup(G), whole_subgroup(G)):
                Q, proj, got_reps = quotient(N)
                reps, oracle_proj = [], [-1] * G.order
                for g in range(G.order):
                    if oracle_proj[g] < 0:
                        for h in N.members:
                            oracle_proj[G.mul(g, h)] = len(reps)
                        reps.append(g)
                assert list(proj) == oracle_proj and list(got_reps) == reps
                table = tuple(tuple(oracle_proj[G.mul(a, b)] for b in reps) for a in reps)
                assert_matches(Q, table)

    def test_subgroup_as_group(self, groups):
        for G in groups:
            subs = [center(G), derived_subgroup(G), oracle_centralizer(G, G.order - 1),
                    generated_subgroup(G, [G.order // 2]), whole_subgroup(G)]
            for S in subs:
                K, emb = subgroup_as_group(S)
                assert list(emb) == list(S.members)
                assert_matches(K, oracle_table(S.members, G.mul))


class TestDerivedSubgroup:
    def test_equals_all_pairs_closure_along_series(self, groups):
        for G in groups:
            members = tuple(range(G.order))
            while True:
                expected = oracle_derived(G, members)
                assert derived_subgroup_of(Subgroup(G, members)).members == expected, G.name
                if expected == members:
                    break
                members = expected

    def test_on_centralizers(self, groups):
        # subgroups that are not terms of a derived series
        for G in groups:
            S = oracle_centralizer(G, G.order - 1)
            assert derived_subgroup_of(S).members == oracle_derived(G, S.members), G.name


def power_of_c2(k):
    return functools.reduce(direct_product, [builders.cyclic(2)] * k)


class TestGrowSpansInPlace:
    """Spans grow from the members already reached: no closure restarts
    from the identity, so n elements and k generators cost n*k products."""

    @pytest.mark.parametrize("build, k", [
        (lambda: builders.symmetric(6), 5),
        (lambda: direct_product(builders.symmetric(6), builders.cyclic(2)), 6),
        (lambda: direct_product(builders.alternating(5), builders.cyclic(6)), 4),
        (lambda: power_of_c2(6), 6),
    ], ids=["S6", "S6xC2", "A5xC6", "C2^6"])
    def test_greedy_generators_takes_n_times_k_products(self, build, k):
        G = build()
        mul, calls = counting_mul(G)
        assert len(greedy_generators(G.identity, range(G.order), mul)) == k
        assert len(calls) == G.order * k

    def test_derived_series_of_s6_products(self, monkeypatch):
        G = builders.symmetric(6)
        mul, calls = counting_mul(G)
        monkeypatch.setattr(FiniteGroup, "mul", lambda self, a, b: mul(a, b))
        assert [S.order for S in derived_series(G)] == [720, 360]
        # S6' = A6: A6 grown from the commutators of S6's own generators and
        # their conjugates (1800); A6' = A6: greedy generators of A6 (360*4)
        # and A6 grown again (1800)
        assert len(calls) == 5040

    def test_same_generators_as_reclosing(self, groups):
        tables = [G.mul_table for G in groups] + [LOOP5]
        for t in tables:
            G = make_group(t)
            shuffled = random.Random(len(t)).sample(range(G.order), G.order)
            for elements in (range(G.order), shuffled):
                assert (greedy_generators(G.identity, elements, G.mul)
                        == oracle_greedy(G.identity, elements, G.mul))


class TestSingleIndexGathers:
    """Order-1 rows, one-coset quotients and degree-0 permutations take
    `groups._picker`'s path for fewer than two indices."""

    def test_trivial_group(self):
        G = builders.trivial()
        assert_matches(G, ((0,),))
        assert conjugacy_classes(G) == [(0,)]
        assert verify_axioms(G)

    def test_degree_zero_permutation(self):
        # the empty permutation composes by the empty gather
        assert_matches(close_generators([()]), ((0,),))

    def test_trivial_times_trivial(self):
        T = builders.trivial()
        assert_matches(direct_product(T, T), ((0,),))

    @pytest.mark.parametrize("swap", [False, True])
    def test_c1_times_s3(self, swap):
        A, B = builders.cyclic(1), builders.symmetric(3)
        if swap:
            A, B = B, A
        assert_matches(direct_product(A, B), oracle_product_table(A, B))

    @pytest.mark.parametrize("name", ["trivial", "c2", "s3", "a5"])
    def test_quotient_by_whole_group(self, name):
        G = {"trivial": builders.trivial(), "c2": builders.cyclic(2),
             "s3": builders.symmetric(3), "a5": builders.alternating(5)}[name]
        Q, proj, reps = quotient(whole_subgroup(G))
        assert list(proj) == [0] * G.order and list(reps) == [0]
        assert_matches(Q, ((0,),))


class TestConjugacyClasses:
    def test_builtins(self, groups):
        for G in groups:
            assert conjugacy_classes(G) == oracle_classes(G), G.name

    def test_a5_times_c6(self):
        G = direct_product(builders.alternating(5), builders.cyclic(6))
        assert conjugacy_classes(G) == oracle_classes(G)


def intercalate_swaps(t):
    """Copies of t with one 2x2 subsquare swapped: rows a, d and columns b, c
    with t[a][b] = t[d][c] and t[a][c] = t[d][b], away from the identity's
    row, column and entries.  Each copy is a Latin square with the same
    identity and inverses, so make_group accepts it."""
    n = len(t)
    e = next(e for e in range(n) if t[e] == tuple(range(n)))
    others = [x for x in range(n) if x != e]
    out = []
    for a, d in itertools.combinations(others, 2):
        for b, c in itertools.combinations(others, 2):
            if t[a][b] == t[d][c] and t[a][c] == t[d][b] and e not in (t[a][b], t[a][c]):
                rows = [list(row) for row in t]
                rows[a][b], rows[a][c], rows[d][b], rows[d][c] = t[a][c], t[a][b], t[d][c], t[d][b]
                out.append(rows)
    return out


def in_middle_nucleus(t, g):
    n = len(t)
    return all(t[t[x][g]][y] == t[x][t[g][y]] for x in range(n) for y in range(n))


class TestVerifyAxioms:
    def test_agrees_with_triple_loop_on_perturbed_s4(self):
        t = builders.symmetric(4).mul_table
        tables = [t] + random.Random(4).sample(intercalate_swaps(t), 60)
        first_generator_passes = 0
        for table in tables:
            G = make_group(table)
            gens = greedy_generators(G.identity, range(G.order), G.mul)
            assert len(gens) >= 3
            associative = oracle_associative(G.mul_table)
            assert verify_axioms(G) == associative
            first_generator_passes += not associative and in_middle_nucleus(G.mul_table, gens[0])
        # tables that only a later generator shows to be non-associative
        assert first_generator_passes >= 5

    def test_relabelled_s4_is_associative(self):
        t = builders.symmetric(4).mul_table
        perm = list(range(24))
        random.Random(7).shuffle(perm)
        inv = sorted(range(24), key=perm.__getitem__)
        table = [[perm[t[inv[x]][inv[y]]] for y in range(24)] for x in range(24)]
        assert verify_axioms(make_group(table))


class TestRangeCheckThroughTableSpec:
    """Entries a C-level gather would wrap or reject must exit 2 with the
    first bad row named, exactly as the per-row check words it."""

    @pytest.mark.parametrize("rows, detail", [
        # C3 with 2 written as -1: a gather would read it as 2
        (["0 1 -1", "1 -1 0", "-1 0 1"], "table entry -1 out of range 0..2"),
        # C3 with 0 written as -3 = -n: a gather would read it as 0
        (["-3 1 2", "1 2 0", "2 0 1"], "table entry -3 out of range 0..2"),
        (["0 1 2", "1 2 3", "2 0 1"], "table entry 3 out of range 0..2"),
        (["0 1 2", "1 2 7", "2 0"], "table entry 7 out of range 0..2"),
        (["0 1 2", "1 2", "2 0 7"], "row 1 has length 2, expected 3"),
        # no row is the identity map
        (["1 2 0", "2 0 1", "0 1 3"], "table entry 3 out of range 0..2"),
    ], ids=["minus-one", "minus-n", "n", "range-before-length", "length-before-range",
            "range-before-identity"])
    @pytest.mark.parametrize("verb", ["cp", "center"])
    def test_exits_2(self, verb, rows, detail, tmp_path, capsys):
        f = tmp_path / "bad.group"
        f.write_text("table 3\n" + "\n".join(rows) + "\n")
        assert main([verb, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {f}: bad Cayley table: {detail}\n"


class TestTableRowsByLookup:
    """A row of bare indices 0..n-1 is read by one dict lookup per token;
    any other row is read by `_ints` and range-checked, with the messages
    the range check has always given."""

    def test_padded_tokens_read_as_numbers(self, tmp_path):
        G = builders.symmetric(3)
        rows = [" ".join(f"{v:03d}" for v in row) for row in G.mul_table]
        rows[1] = rows[1].replace("000", "-0")
        f = tmp_path / "padded.group"
        f.write_text("table 6\n" + "\n".join(rows) + "\n")
        assert parse_group_file(f).mul_table == G.mul_table

    @pytest.mark.parametrize("row", ["1\u00a00", "+1 0", "1_0 0", "1 \u0663"],
                             ids=["no-break-space", "plus", "underscore", "arabic-indic"])
    def test_bad_token_message(self, row, tmp_path):
        f = tmp_path / "bad.group"
        f.write_text(f"table 2\n0 1\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            parse_group_file(f)
        assert str(err.value) == f"{f}: line 3: bad table row: {row!r}"

    def test_short_table_with_padded_bad_entry(self, tmp_path):
        f = table_spec(tmp_path, [["00", "01", "02"], [1, 9, 0]], size=3)
        with pytest.raises(ParseError) as err:
            parse_group_file(f)
        assert str(err.value) == f"{f}: table ended early, 1 rows missing"

    def test_first_out_of_range_entry_after_a_padded_row(self, tmp_path):
        rows = [[0, 1, 2], ["01", "02", "00"], [2, 7, -1]]
        f = table_spec(tmp_path, rows)
        with pytest.raises(ParseError) as err:
            parse_group_file(f)
        assert str(err.value) == f"{f}: bad Cayley table: table entry 7 out of range 0..2"

    def test_entries_are_n_shared_objects(self, tmp_path):
        # above 256 an int() per entry would make a new object each time
        G = builders.alternating(6)
        rows = [list(row) for row in G.mul_table]
        rows[5] = [f"0{v}" for v in rows[5]]  # one row read by _ints
        H = parse_group_file(table_spec(tmp_path, rows))
        assert H.mul_table == G.mul_table
        assert len({id(v) for row in H.mul_table for v in row}) == H.order
