import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import haarcp
from haarcp import builders, corpus, groups, specfmt
from haarcp.cli import build_parser, main
from haarcp.errors import ParseError, TableBudgetExceeded
from haarcp.groups import quotient
from haarcp.isoclinism import IsoclinismWitness, verify_isoclinism
from haarcp.specfmt import parse_group_file, parse_model_file


@pytest.fixture
def o2_file(tmp_path):
    path = tmp_path / "o2.model"
    path.write_text(
        "# circle with reflection\n"
        "torus_rank 1\n"
        "acting_group cyclic 2\n"
        "matrix 1 -1\n"
    )
    return str(path)


# A Latin square with identity 0 that is not associative: (1*1)*2 = 2,
# 1*(1*2) = 4.  It has an identity and inverses, so it reaches the
# associativity check.
LOOP5_SPEC = "table 5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n"

# Q8's Cayley table as a table spec
Q8_SPEC = "table 8\n" + "".join(" ".join(map(str, row)) + "\n"
                                for row in builders.quaternion8().mul_table)


@pytest.fixture
def no_builtin_builds(monkeypatch):
    """Fail the test if any builtin group table is built."""
    def no_build(*args):
        raise AssertionError("builtin table built")
    monkeypatch.setattr(corpus, "_named", no_build)


def over_budget(what: str, n: int, budget: int | None = None) -> str:
    """The error a table of order n gets over the budget, the real one by default."""
    budget = groups.TABLE_BUDGET if budget is None else budget
    return f"{what}: a table of order {n} needs {8 * n * n} bytes, over the budget of {budget}"


@pytest.fixture
def table_budget(monkeypatch):
    """Set groups.TABLE_BUDGET to admit tables up to a given order, and no larger;
    returns the budget in bytes."""
    def admit(order: int) -> int:
        monkeypatch.setattr(groups, "TABLE_BUDGET", 8 * order * order)
        return 8 * order * order
    return admit


@pytest.fixture
def builtin_builds(monkeypatch):
    """The (kind, n) of every builtin group table asked for, in call order."""
    real, built = corpus._named, []

    def spy(kind, n):
        built.append((kind, n))
        return real(kind, n)

    monkeypatch.setattr(corpus, "_named", spy)
    return built


class TestGroupSpecs:
    def test_perm_file(self, tmp_path):
        f = tmp_path / "g.group"
        f.write_text("# A5 generators\nperm (1 2 3 4 5)\nperm (1 2 3)\n")
        G = parse_group_file(f)
        assert G.order == 60

    def test_two_generator_file(self, tmp_path):
        f = tmp_path / "g.group"
        f.write_text("perm (1 2 3)(4 5)\nperm (1 2)\n")
        G = parse_group_file(f)
        # brute-force closure of <(1 2 3)(4 5), (1 2)> has 12 elements
        assert G.order == 12

    def test_table_file(self, tmp_path):
        f = tmp_path / "c3.group"
        f.write_text("table 3\n0 1 2\n1 2 0\n2 0 1\n")
        assert parse_group_file(f).order == 3

    def test_product_file(self, tmp_path):
        (tmp_path / "c2.group").write_text("perm (1 2)\n")
        f = tmp_path / "p.group"
        f.write_text("product c2.group c2.group\n")
        assert parse_group_file(f).order == 4

    def test_malformed_cycle(self, tmp_path):
        f = tmp_path / "bad.group"
        f.write_text("perm (1 2\n")
        with pytest.raises(ParseError) as err:
            parse_group_file(f)
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("cycles, point", [
        ("(1 2)(1 2 3)", 1), ("(1 2)(1 2)", 1), ("(1 2)(2 3)", 2),
    ], ids=["transposition-then-3-cycle", "same-cycle-twice", "chained"])
    def test_cycles_that_share_a_point(self, cycles, point, tmp_path, capsys):
        # cycles on one perm line are disjoint: a shared point is an error,
        # not a product of the cycles, and is reported with its line
        f = tmp_path / "g.group"
        f.write_text(f"perm (4 5)\nperm {cycles}\n")
        assert main(["center", str(f)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {f}: line 2: point {point} in two cycles: '{cycles}'\n")

    def test_builtin_names(self):
        assert parse_group_file("alternating 5").order == 60
        assert parse_group_file("a5").order == 60
        assert parse_group_file("q8").order == 8
        assert parse_group_file("dihedral 4").order == 8
        assert parse_group_file("sl25").order == 120

    @pytest.mark.parametrize("name, order", [
        ("1", 1), ("v4", 4), ("q8", 8), ("es27+", 27), ("es27-", 27), ("sl25", 120), ("c7", 7),
        ("dihedral 5", 10), ("s4", 24), ("a1", 1), ("a2", 1), ("a5", 60),
    ])
    def test_builtin_cap_is_the_order(self, name, order, table_budget):
        # a budget that admits exactly the builtin's order admits the builtin
        table_budget(order)
        assert parse_group_file(name).order == order
        if order > 1:
            table_budget(order - 1)
            with pytest.raises(TableBudgetExceeded):
                parse_group_file(name)

    def test_huge_builtin_rejected_unbuilt(self, no_builtin_builds):
        for name in ("cyclic 100000", "d20000", "symmetric 100000", "a100000"):
            with pytest.raises(TableBudgetExceeded):
                parse_group_file(name)

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_group_file("no such group")

    @pytest.mark.parametrize("spec, order", [
        ("perm\t(1 2 3)\nperm \t(1 2)\n", 6),
        ("table\t3\n0 1 2\n1 2 0\n2 0 1\n", 3),
        ("product\tc2 c3\n", 6),
    ], ids=["perm", "table", "product"])
    def test_tab_after_directive(self, spec, order, tmp_path):
        f = tmp_path / "g.group"
        f.write_text(spec)
        assert parse_group_file(f).order == order

    def test_non_associative_table_rejected(self, tmp_path):
        f = tmp_path / "loop.group"
        f.write_text(LOOP5_SPEC)
        with pytest.raises(ParseError) as err:
            parse_group_file(f)
        assert str(err.value) == f"{f}: bad Cayley table: multiplication is not associative"


class TestModelSpecs:
    def test_o2(self, o2_file):
        m = parse_model_file(o2_file)
        assert m.torus_rank == 1
        assert m.action[1] == ((-1,),)

    def test_bad_determinant(self, tmp_path):
        f = tmp_path / "bad.model"
        f.write_text("torus_rank 1\nacting_group cyclic 2\nmatrix 1 2\n")
        from haarcp.errors import NotUnimodular
        with pytest.raises(NotUnimodular):
            parse_model_file(f)

    def test_tab_after_directive(self, tmp_path):
        f = tmp_path / "o2xc3.model"
        f.write_text("torus_rank\t1\nacting_group\tcyclic 2\nmatrix\t1 -1\nextra_factor\tc3\n")
        m = parse_model_file(f)
        assert m.torus_rank == 1
        assert m.action[1] == ((-1,),)
        assert m.extra_factor.order == 3

    def test_missing_rank(self, tmp_path):
        f = tmp_path / "bad.model"
        f.write_text("acting_group cyclic 2\n")
        with pytest.raises(ParseError):
            parse_model_file(f)


class TestCorpus:
    def test_corpus_orders_within_bound(self):
        for m in (1, 3, 8, 27, 64, 120, 200):
            assert all(G.order <= m for _n, G in corpus.builtin_corpus(m)), m
        # klein4 (order 4) is no longer listed below order 4
        assert [n for n, _ in corpus.builtin_corpus(3)] == ["trivial", "cyclic 2", "cyclic 3"]

    def test_names_and_corpus_share_one_build(self):
        by_name = dict(corpus.builtin_corpus(120))
        for spelled, name in [
            ("1", "trivial"), ("v4", "klein4"), ("q8", "quaternion8"),
            ("es27+", "es27exp3"), ("es27-", "es27exp9"), ("sl(2,5)", "sl25"),
            ("c7", "cyclic 7"), ("dihedral 5", "dihedral 5"), ("s4", "symmetric 4"),
            ("a 5", "alternating 5"),
        ]:
            assert corpus.builtin_group(spelled) is by_name[name], spelled


class TestCommands:
    def test_cp_a5(self, capsys):
        assert main(["cp", "alternating", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("1/12") == 3
        assert "PASS" in out

    def test_cp_builtin_short(self, capsys):
        assert main(["cp", "q8"]) == 0
        assert capsys.readouterr().out.count("5/8") == 3

    def test_center(self, capsys):
        assert main(["center", "q8"]) == 0
        assert "center order 2" in capsys.readouterr().out

    def test_classify(self, capsys):
        assert main(["classify", "symmetric", "4"]) == 0
        out = capsys.readouterr().out
        assert "5/24" in out
        assert "SolvableNonabelian" in out

    def test_isoclinic(self, capsys):
        assert main(["isoclinic", "d4", "q8"]) == 0
        out = capsys.readouterr().out
        assert "quotient-map" in out
        assert "derived-map" in out

    def test_isoclinic_none(self, capsys):
        assert main(["isoclinic", "s3", "c6"]) == 0
        assert capsys.readouterr().out.strip() == "none"

    def test_isoclinic_above_search_cap(self, capsys):
        # |A6/Z(A6)| = 360: the search is bounded by its work, not by the
        # order of the central quotient, and the walk to a witness is short
        assert main(["isoclinic", "a6", "a6"]) == 0
        a6 = parse_group_file("a6")
        assert verify_isoclinism(a6, a6, parse_witness(capsys.readouterr().out.splitlines()))

    def test_stem(self, capsys):
        assert main(["stem", "--max-order", "16", "c12"]) == 0
        assert "order 1" in capsys.readouterr().out

    def test_stem_above_search_cap(self, tmp_path, capsys, builtin_builds):
        # |A6/Z(A6)| = 360 is above the default --max-order of 64, so no
        # candidate passes the order screen and only A6 itself is built
        assert main(["stem", "a6"]) == 0
        assert capsys.readouterr() == ("none (corpus exhausted)\n", "")
        assert builtin_builds == [("alternating", 6)]
        assert main(["stem", "--max-order", "360", "a6"]) == 0
        assert capsys.readouterr().out.startswith("stem: A6 (order 360)\n")
        # |S3 x S3 : Z| = 36: candidates whose order is not 36*m with
        # m | |F'| = 9 are skipped however large, so D129 (order 258) is
        # never built, and only orders 36, 108 and 324 are tried
        f = tmp_path / "s3xs3.group"
        f.write_text("product s3 s3\n")
        builtin_builds.clear()
        assert main(["stem", "--max-order", "720", str(f)]) == 0
        assert capsys.readouterr() == ("none (corpus exhausted)\n", "")
        assert builtin_builds[2:] == [("cyclic", 36), ("dihedral", 18), ("cyclic", 108),
                                      ("dihedral", 54), ("cyclic", 324), ("dihedral", 162)]

    def test_fc_and_verify_t1(self, o2_file, capsys):
        assert main(["fc", o2_file]) == 0
        out = capsys.readouterr().out
        assert "FC index 2" in out
        assert main(["verify-t1", o2_file]) == 0
        out = capsys.readouterr().out
        assert "PASS cp equality" in out
        assert "1/4" in out

    def test_verify_t2_group(self, capsys):
        assert main(["verify-t2", "q8"]) == 0
        assert "vacuous" in capsys.readouterr().out

    @pytest.mark.parametrize("spec, cp", [
        ("perm (1 2 3)\nperm (1 2)\n", "1/2"),
        ("table 3\n0 1 2\n1 2 0\n2 0 1\n", "1"),
        ("perm\t(1 2 3)\nperm\t(1 2)\n", "1/2"),
        ("table\t3\n0 1 2\n1 2 0\n2 0 1\n", "1"),
    ], ids=["perm", "table", "perm-tab", "table-tab"])
    def test_verify_t2_group_file(self, spec, cp, tmp_path, capsys):
        f = tmp_path / "g.group"
        f.write_text("# a group spec\n\n   \n# read as a group, not a model\n" + spec)
        assert main(["verify-t2", str(f)]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"PASS cp = {cp}\nnote: finite group: conclusion vacuous\n"
        assert captured.err == ""

    def test_verify_t2_model_sharpness(self, o2_file, capsys):
        assert main(["verify-t2", o2_file]) == 0
        assert "sharpness" in capsys.readouterr().out

    def test_mc(self, o2_file, capsys):
        assert main(["mc", "--samples", "20000", "--seed", "7", o2_file]) == 0
        out = capsys.readouterr().out
        assert "+-" in out
        assert "exact 1/4" in out

    @pytest.mark.parametrize("seed", ["-3", str(2**64)])
    def test_mc_seed_out_of_range(self, seed, o2_file, capsys):
        # the stream reads its seed mod 2^64: -3 drew the stream of 2^64 - 3
        assert main(["mc", "--samples", "1000", "--seed", seed, o2_file]) == 2
        assert capsys.readouterr() == (
            "", f"error: seed must be in 0..{2**64 - 1}, got {seed}\n")

    @pytest.mark.parametrize("seed, estimate", [
        ("3", "0.227000 +- 0.013247"), (str(2**64 - 1), "0.247000 +- 0.013638")])
    def test_mc_seed_in_range(self, seed, estimate, o2_file, capsys):
        assert main(["mc", "--samples", "1000", "--seed", seed, o2_file]) == 0
        assert capsys.readouterr() == (
            f"estimate {estimate} (1000 samples)\nexact 1/4\n", "")

    def test_scan_builtin_names(self, capsys):
        assert main(["scan", "--threshold", "3/40", "a5", "s5", "sl25"]) == 0
        out = capsys.readouterr().out
        assert "A5TimesAbelian" in out

    def test_scan_machine_format(self, capsys):
        assert main(["scan", "--machine", "q8", "d4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "d4|8|5/8|1|SolvableNonabelian",
            "q8|8|5/8|1|SolvableNonabelian",
        ]

    def test_scan_directory(self, tmp_path, capsys):
        (tmp_path / "c3.group").write_text("perm (1 2 3)\n")
        (tmp_path / "s3.group").write_text("perm (1 2 3)\nperm (1 2)\n")
        assert main(["scan", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "c3" in out and "s3" in out

    def test_scan_names_the_directory_entry_it_cannot_read(self, tmp_path, capsys):
        (tmp_path / "a.group").write_text("perm (1 2 3)\n")
        (tmp_path / "b.model").write_text("torus_rank 1\nacting_group c2\n")
        assert main(["scan", "--machine", str(tmp_path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {tmp_path / 'b.model'}: expected a group spec, got a model spec\n")

    def test_scan_names_the_explicit_input_it_cannot_read(self, tmp_path, capsys):
        good, bad = tmp_path / "a.group", tmp_path / "b.group"
        good.write_text("perm (1 2 3)\n")
        bad.write_text("perm (1 2 3)\nperm (1 2\n")
        assert main(["scan", str(good), "q8", str(bad)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {bad}: line 2: malformed cycle notation: '(1 2'\n")
        # the single-input verbs name the file too
        assert main(["cp", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: line 2: malformed cycle notation: '(1 2'\n"

    @pytest.mark.parametrize("threshold", ["0.075", "1/0"])
    def test_scan_decimal_threshold_rejected(self, threshold, capsys):
        assert main(["scan", "--threshold", threshold, "q8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("verb, spec, message", [
        ("cp", "table ²\n", "line 1: table needs a size: 'table ²'"),
        ("fc", "torus_rank ²\nacting_group c2\n", "line 1: bad torus rank: '²'"),
        ("fc", "torus_rank --1\nacting_group c2\n", "line 1: bad torus rank: '--1'"),
    ], ids=["table-size", "torus-rank", "torus-rank-two-minus"])
    def test_size_that_is_not_an_ascii_number(self, verb, spec, message, tmp_path, capsys):
        # str.isdigit accepts '²', which int() rejects
        f = tmp_path / "bad.spec"
        f.write_text(spec, encoding="utf-8")
        assert main([verb, str(f)]) == 2
        assert capsys.readouterr() == ("", f"error: {f}: {message}\n")

    @pytest.mark.parametrize("rank, err", [
        *((r, f"error: line 1: bad torus rank: {r!r}\n")
          for r in ["-", "--1", "+3", "3 4", "٣", "3_0", "1e3"]),
        ("-3", "error: torus rank must be >= 0\n"),
        ("-00", ""),
    ])
    def test_torus_rank_read_as_every_spec_number(self, rank, err, tmp_path, capsys):
        # one -?[0-9]+ integer, read by _ints as every number in a spec is
        f = tmp_path / "m.model"
        f.write_text(f"torus_rank {rank}\nacting_group c2\n", encoding="utf-8")
        assert main(["fc", str(f)]) == (2 if err else 0)
        assert capsys.readouterr().err == err.replace("error: ", f"error: {f}: ")

    @pytest.mark.parametrize("verb, spec, message", [
        ("cp", "product s3 c2\nbogus directive here\n", "line 2: unknown directive 'bogus'"),
        ("cp", "product s3 c2\nperm (1 2)\n",
         "line 2: perm line after product: use one product line, one table, or perm lines"),
        ("cp", "product s3 c2\nproduct c2 c2\n",
         "line 2: product line after product: use one product line, one table, or perm lines"),
        ("cp", "perm (1 2 3)\ntable 2\n0 1\n1 0\n",
         "line 2: table line after perm: use one product line, one table, or perm lines"),
        ("cp", "table 2\n0 1\n1 0\nperm (1 2 3)\n",
         "line 4: perm line after table: use one product line, one table, or perm lines"),
        ("cp", "table 1\n0\ntable 2\n0 1\n1 0\n",
         "line 3: table line after table: use one product line, one table, or perm lines"),
        ("fc", "torus_rank 1\nacting_group c2\nmatrix 1 -1\nmatrix 1 1\n",
         "line 4: second matrix for element 1"),
        ("fc", "torus_rank 1\nacting_group c2\nacting_group c4\n",
         "line 3: second acting_group line"),
        ("fc", "torus_rank 1\ntorus_rank 2\nacting_group c2\n", "line 2: second torus_rank line"),
        ("fc", "torus_rank 0\nacting_group c2\nextra_factor c2\nextra_factor c3\n",
         "line 4: second extra_factor line"),
    ], ids=["product-then-bogus", "product-then-perm", "two-products", "perm-then-table",
            "table-then-perm", "two-tables", "two-matrices", "two-acting-groups",
            "two-torus-ranks", "two-extra-factors"])
    def test_spec_says_one_thing_twice(self, verb, spec, message, tmp_path, capsys):
        f = tmp_path / "twice.spec"
        f.write_text(spec)
        assert main([verb, str(f)]) == 2
        assert capsys.readouterr() == ("", f"error: {f}: {message}\n")

    @pytest.mark.parametrize("verb, spec, message", [
        ("cp", "perm (1 ٢ 3)\n", "line 1: non-integer point in cycle: '1 ٢ 3'"),
        ("cp", "perm (1 2_0)\n", "line 1: non-integer point in cycle: '1 2_0'"),
        ("cp", "perm (1 +2)\n", "line 1: non-integer point in cycle: '1 +2'"),
        ("cp", "table 2\n0 1\n1 ٠\n", "line 3: bad table row: '1 ٠'"),
        ("cp", "table 2\n0 1\n1 0_0\n", "line 3: bad table row: '1 0_0'"),
        ("cp", "table 2\n0 1\n1\u00a00\n", "line 3: bad table row: '1\\xa00'"),
        ("fc", "torus_rank 1\nacting_group c2\nmatrix 1 -١\n",
         "line 3: bad matrix line: 'matrix 1 -١'"),
        ("fc", "torus_rank 1\nacting_group c2\nmatrix ١ -1\n",
         "line 3: bad matrix line: 'matrix ١ -1'"),
    ], ids=["perm-arabic-indic", "perm-underscore", "perm-plus", "table-arabic-indic",
            "table-underscore", "table-no-break-space", "matrix-entry", "matrix-element"])
    def test_number_that_is_not_an_ascii_integer(self, verb, spec, message, tmp_path, capsys):
        # int() reads '٢' as 2, '2_0' as 20 and '+2' as 2, and str.split()
        # splits at a no-break space
        f = tmp_path / "bad.spec"
        f.write_text(spec, encoding="utf-8")
        assert main([verb, str(f)]) == 2
        assert capsys.readouterr() == ("", f"error: {f}: {message}\n")

    @pytest.mark.parametrize("verb, spec, read", [
        ("cp", "product g.group c2\n", lambda f: parse_group_file(f).order // 2),
        ("fc", "torus_rank 0\nacting_group g.group\n",
         lambda f: parse_model_file(f).acting_group.order),
        ("fc", "torus_rank 0\nacting_group c2\nextra_factor g.group\n",
         lambda f: parse_model_file(f).extra_factor.order),
    ], ids=["product", "acting-group", "extra-factor"])
    def test_operand_read_next_to_its_spec(self, verb, spec, read, tmp_path, monkeypatch,
                                           capsys):
        # one spec names one group wherever haarcp runs: a relative operand
        # is read in the spec's directory, never in the working directory
        sub = tmp_path / "sub"
        sub.mkdir()
        (tmp_path / "g.group").write_text("perm (1 2 3)\nperm (1 2)\n")
        (sub / "x.spec").write_text(spec)
        places = [(tmp_path, "sub/x.spec"), (sub, "x.spec")]
        for cwd, arg in places:
            monkeypatch.chdir(cwd)
            assert main([verb, arg]) == 2
            assert capsys.readouterr() == (
                "", f"error: {arg}: not a builtin group and not a file: 'g.group'\n")
        (sub / "g.group").write_text("perm (1 2)\n")
        outs = []
        for cwd, arg in places:
            monkeypatch.chdir(cwd)
            assert main([verb, arg]) == 0
            outs.append(capsys.readouterr())
            assert read(arg) == 2  # sub/g.group, C2, not the S3 above it
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("name", ["c ²", "c ٣", "c٣", "dihedral ٤"])
    def test_builtin_order_in_non_ascii_digits(self, name, capsys):
        # int() reads '٣' as 3: the two-word form took "c ٣" for C3
        assert corpus.builtin_group(name) is None
        assert main(["cp", name]) == 2
        assert capsys.readouterr() == ("", f"error: not a builtin group and not a file: {name!r}\n")

    def test_input_error_exit_code(self, capsys):
        assert main(["cp", "nonexistent-file.group"]) == 2

    def test_determinism(self, o2_file, capsys):
        main(["mc", "--samples", "5000", "--seed", "3", o2_file])
        first = capsys.readouterr().out
        main(["mc", "--samples", "5000", "--seed", "3", o2_file])
        assert capsys.readouterr().out == first

    def test_cap_env(self, monkeypatch, tmp_path, capsys):
        # HAARCP_CAP is not read: the table budget is a constant, not a knob
        monkeypatch.setenv("HAARCP_CAP", "2")
        f = tmp_path / "c3.group"
        f.write_text("perm (1 2 3)\n")
        assert main(["cp", str(f)]) == 0
        assert capsys.readouterr().out.endswith("PASS agreement\n")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_cap_flag_not_positive(self, value, capsys):
        # --cap is gone: argparse rejects it whatever its value
        assert "--cap" not in build_parser().format_help()
        with pytest.raises(SystemExit) as exc:
            main(["--cap", value, "cp", "q8"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value, group", [("0", "d4"), ("-3", "c12")])
    def test_max_order_not_positive(self, value, group, capsys):
        assert main(["stem", "--max-order", value, group]) == 2
        assert capsys.readouterr() == (
            "", f"error: --max-order must be a positive integer, got '{value}'\n")

    @pytest.mark.parametrize("value", ["٣٠", "1_0", "+5", "0", "-3", "abc", "6 4", ""])
    @pytest.mark.parametrize("source", ["--cap", "HAARCP_CAP"])
    def test_cap_rejected(self, source, value, monkeypatch, capsys):
        # --cap and HAARCP_CAP are gone: the flag is an unknown argument, and
        # the variable is not read, so no value of it changes an answer
        assert main(["cp", "q8"]) == 0
        expected = capsys.readouterr()
        if source == "--cap":
            with pytest.raises(SystemExit) as exc:
                main(["--cap", value, "cp", "q8"])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        else:
            monkeypatch.setenv(source, value)
            assert main(["cp", "q8"]) == 0
            assert capsys.readouterr() == expected

    @pytest.mark.parametrize("source", ["--cap", "HAARCP_CAP"])
    def test_cap_read_as_every_integer_option(self, source, monkeypatch, capsys):
        # ' 64' is one integer with a blank beside it, as --max-order ' 8'
        # reads; neither --cap ' 64' nor HAARCP_CAP ' 64' sets a limit
        argv = ["stem", "--max-order", " 8", "q8"]
        if source == "--cap":
            with pytest.raises(SystemExit):
                main(["--cap", " 64", *argv])
        else:
            monkeypatch.setenv(source, " 64")
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("stem: D4 (order 8)\n")

    @pytest.mark.parametrize("argv", [
        ["cp", "q8"], ["center", "q8"], ["classify", "q8"], ["isoclinic", "d4", "q8"],
        ["stem", "q8"], ["fc", "MODEL"], ["verify-t1", "MODEL"], ["verify-t2", "MODEL"],
        ["scan", "q8"], ["mc", "--samples", "10", "MODEL"],
    ], ids=lambda argv: argv[0])
    def test_cap_read_once_per_command(self, argv, o2_file, table_budget, monkeypatch, capsys):
        # every command reads the table budget when it runs: lowered to
        # order 1, each one stops on its first builtin operand; put back,
        # each one answers
        argv = [o2_file if a == "MODEL" else a for a in argv]
        real = groups.TABLE_BUDGET
        budget = table_budget(1)
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(f" bytes, over the budget of {budget}\n")
        monkeypatch.setattr(groups, "TABLE_BUDGET", real)
        assert main(argv) == 0

    def test_cap_env_not_a_number(self, monkeypatch, capsys):
        monkeypatch.setenv("HAARCP_CAP", "abc")
        assert main(["cp", "q8"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, order, what, n", [
        (["cp", "q8"], 5, "builtin group 'q8'", 8),
        (["verify-t2", "s4"], 5, "builtin group 's4'", 24),
        (["cp", "cyclic", "100000"], None, "builtin group 'cyclic 100000'", 100000),
        (["cp", "cyclic 20000"], None, "builtin group 'cyclic 20000'", 20000),
    ], ids=["cp-q8", "verify-t2-s4", "cyclic-100000", "cyclic-20000"])
    def test_builtin_names_honour_cap(self, argv, order, what, n, table_budget,
                                      no_builtin_builds, capsys):
        budget = None if order is None else table_budget(order)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {over_budget(what, n, budget)}\n"

    def test_cap_equal_to_order_allowed(self, table_budget, capsys):
        table_budget(8)
        assert main(["cp", "q8"]) == 0
        assert capsys.readouterr().out.endswith("PASS agreement\n")
        table_budget(24)  # S4 has q*d = 24 * 12: the candidates up to order 24
        assert main(["stem", "--max-order", "24", "s4"]) == 0
        assert capsys.readouterr().out.startswith("stem: S4 (order 24)\n")

    def test_product_operand_honours_cap(self, tmp_path, table_budget, capsys):
        f = tmp_path / "p.group"
        f.write_text("product q8 c1\n")
        budget = table_budget(6)
        assert main(["cp", str(f)]) == 2
        message = over_budget("builtin group 'q8'", 8, budget)
        assert capsys.readouterr().err == f"error: {f}: {message}\n"

    @pytest.mark.parametrize("acting, extra, name", [("d8", "c2", "d8"), ("c2", "s4", "s4")])
    def test_model_operands_honour_cap(self, acting, extra, name, tmp_path, table_budget, capsys):
        f = tmp_path / "m.model"
        f.write_text(f"torus_rank 1\nacting_group {acting}\nextra_factor {extra}\n")
        budget = table_budget(12)
        assert main(["fc", str(f)]) == 2
        message = over_budget(f"builtin group '{name}'", {"d8": 16, "s4": 24}[name], budget)
        assert capsys.readouterr().err == f"error: {f}: {message}\n"

    @pytest.mark.parametrize("argv, rank, order", [
        (["fc"], 99999999, None),
        (["verify-t1"], 3, 8),
    ], ids=["huge-rank", "rank-3-cap-8"])
    def test_torus_rank_honours_cap(self, argv, rank, order, table_budget, tmp_path, capsys):
        # d^2 above the largest order the budget admits exits 2 before any
        # matrix is built: at rank 99999999 the d x d identity matrix alone
        # would never finish
        budget = None if order is None else table_budget(order)
        f = tmp_path / "m.model"
        f.write_text(f"torus_rank {rank}\nacting_group c2\n")
        assert main(argv + [str(f)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {f}: {over_budget(f'torus rank {rank} squared', rank * rank, budget)}\n")

    @pytest.mark.parametrize("verb, out, err", [
        ("fc", "action kernel size 6 of |Q| = 6\nFC index 1\nfinite shadow order 12\n", ""),
        ("verify-t1", "", f"error: {over_budget('product C6|6 x C2', 12, 8 * 11 * 11)}\n"),
        ("verify-t2", "PASS cp = 1\nnote: cp = 1 > 1/4: FC index must be 1\n", ""),
    ], ids=["fc", "verify-t1", "verify-t2"])
    def test_shadow_honours_cap(self, verb, out, err, tmp_path, table_budget, capsys):
        # only verify-t1 builds the shadow C6 x C2, checked against the
        # budget as a spec's product line is; C6 and C2 each fit a budget of
        # order 11.  fc and verify-t2 build no shadow, so order 11 is enough
        f = tmp_path / "m.model"
        f.write_text("torus_rank 0\nacting_group c6\nextra_factor c2\n")
        table_budget(11)
        assert main([verb, str(f)]) == (2 if err else 0)
        assert capsys.readouterr() == (out, err)
        table_budget(12)
        assert main([verb, str(f)]) == 0

    @pytest.mark.parametrize("verb, code, out, err", [
        ("fc", 0, "action kernel size 200 of |Q| = 200\nFC index 1\nfinite shadow order 20200\n",
         ""),
        ("verify-t1", 2, "", f"error: {over_budget('product C200|200 x C101', 20200)}\n"),
        ("verify-t2", 0, "PASS cp = 1\nnote: cp = 1 > 1/4: FC index must be 1\n", ""),
    ], ids=["fc", "verify-t1", "verify-t2"])
    def test_shadow_takes_a_raised_cap(self, verb, code, out, err, tmp_path, capsys, monkeypatch):
        # the shadow C200 x C101 of order 20200 needs 3264320000 bytes, over
        # the budget, and only verify-t1 asks for it: it exits 2 before the
        # product's table is walked, and fc and verify-t2 answer
        def forbidden(*args):
            raise AssertionError("product table built")

        monkeypatch.setattr(groups, "table_from_left", forbidden)
        f = tmp_path / "m.model"
        f.write_text("torus_rank 0\nacting_group c200\nextra_factor c101\n")
        assert main([verb, str(f)]) == code
        assert capsys.readouterr() == (out, err)
        assert "3264320000 bytes" in err or verb != "verify-t1"

    @pytest.mark.parametrize("verb, spec, out", [
        ("fc", "torus_rank 0\nacting_group c200\nextra_factor c101\n",
         ["action kernel size 200 of |Q| = 200", "FC index 1", "finite shadow order 20200"]),
        ("verify-t2", "torus_rank 0\nacting_group c200\nextra_factor c101\n",
         ["PASS cp = 1", "note: cp = 1 > 1/4: FC index must be 1"]),
        ("fc", "torus_rank 1\nacting_group c2\nmatrix 1 -1\nextra_factor a5\n",
         ["action kernel size 1 of |Q| = 2", "FC index 2", "finite shadow order 60"]),
        ("verify-t2", "torus_rank 1\nacting_group c2\nmatrix 1 -1\nextra_factor a5\n",
         ["PASS cp = 1/48", "note: cp = 1/48 <= 1/4: nothing asserted"]),
    ], ids=["fc-c200-c101", "verify-t2-c200-c101", "fc-o2-a5", "verify-t2-o2-a5"])
    def test_model_verbs_build_no_shadow(self, verb, spec, out, tmp_path, capsys, monkeypatch):
        # fc and verify-t2 read K and |Q:K| only.  Reading these specs builds
        # no product and no subgroup table, so neither may be built at all;
        # the C200 x C101 shadow is over the table budget, and is not needed
        from haarcp.groups import direct_product, subgroup_as_group

        def forbidden(*args, **kwargs):
            raise AssertionError("shadow table built")

        for name, module in list(sys.modules.items()):
            for fn in (direct_product, subgroup_as_group):
                if name.split(".")[0] == "haarcp" and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, forbidden)
        f = tmp_path / "m.model"
        f.write_text(spec)
        assert main([verb, str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == out

    def test_torus_rank_at_cap_allowed(self, tmp_path, table_budget, capsys):
        f = tmp_path / "m.model"
        f.write_text("torus_rank 3\nacting_group c2\n")
        table_budget(9)
        assert main(["fc", str(f)]) == 0

    @pytest.mark.parametrize("argv, point, order", [
        (["cp"], 10000000, None),
        (["center"], 9, 8),
    ], ids=["huge-point", "point-9-cap-8"])
    def test_perm_point_honours_cap(self, argv, point, order, table_budget, tmp_path, capsys,
                                    monkeypatch):
        # a point above the largest order the budget admits exits 2 before
        # any permutation is built: at 10000000 each permutation alone would
        # be a tuple of that length
        budget = None if order is None else table_budget(order)

        def no_build(*args):
            raise AssertionError("permutation built")
        monkeypatch.setattr(specfmt, "_perm_from_cycles", no_build)
        f = tmp_path / "g.group"
        f.write_text(f"perm (1 2 3)\nperm (1 {point})\n")
        assert main(argv + [str(f)]) == 2
        message = over_budget(f"perm point {point}", point, budget)
        assert capsys.readouterr() == ("", f"error: {f}: {message}\n")

    @pytest.mark.parametrize("argv, spec, size, order", [
        (["cp"], "table 10000000\n", 10000000, None),
        (["cp"], Q8_SPEC, 8, 7),
    ], ids=["huge-size-no-rows", "size-8-cap-7"])
    def test_table_size_honours_cap(self, argv, spec, size, order, table_budget, tmp_path, capsys):
        # the size line is judged before any row is read
        budget = None if order is None else table_budget(order)
        f = tmp_path / "g.group"
        f.write_text(spec)
        assert main(argv + [str(f)]) == 2
        message = over_budget(f"table {size}", size, budget)
        assert capsys.readouterr() == ("", f"error: {f}: {message}\n")

    def test_table_size_at_cap_allowed(self, tmp_path, table_budget, capsys):
        f = tmp_path / "q8.group"
        f.write_text(Q8_SPEC)
        table_budget(8)
        assert main(["cp", str(f)]) == 0
        assert "coset-formula: 5/8" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, bad", [
        (["--cap", "٣٠", "cp", "c2"], "٣٠"),
        (["--cap", "1_0", "cp", "c2"], "1_0"),
        (["--cap", "+5", "cp", "c2"], "+5"),
        (["stem", "--max-order", "٦٤", "c2"], "٦٤"),
        (["mc", "--samples", "١٠", "--seed", "٣", "MODEL"], "١٠"),
        (["scan", "--threshold", "٣/٤٠", "q8"], "٣/٤٠"),
        (["scan", "--threshold", "1_0/3", "q8"], "1_0/3"),
    ], ids=["cap-arabic-indic", "cap-underscore", "cap-plus", "max-order", "samples",
            "threshold-arabic-indic", "threshold-underscore"])
    def test_option_that_is_not_an_ascii_integer(self, argv, bad, o2_file, capsys):
        # int() reads '٣٠' as 30, '1_0' as 10 and '+5' as 5; an option's
        # number follows the rule of a spec's numbers.  --cap is no option:
        # argparse rejects its value as a verb
        argv = [o2_file if a == "MODEL" else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option's type
            code = exc.code
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{bad!r}" in err

    def test_perm_point_at_cap_allowed(self, tmp_path, table_budget, capsys):
        f = tmp_path / "g.group"
        f.write_text("perm (1 8)\n")
        table_budget(8)
        assert main(["cp", str(f)]) == 0

    @pytest.mark.parametrize("specs, trail, message", [
        ({"self.group": "product self.group c2\n"},
         ["self.group", "self.group"], "line 1: product cycle through self.group"),
        ({"self.group": "product self.group c2\n", "a.group": "product c3 self.group\n"},
         ["a.group", "self.group", "self.group"], "line 1: product cycle through self.group"),
        ({"a.group": "product b.group c2\n", "b.group": "# b\nproduct c3 sub/../a.group\n"},
         ["a.group", "b.group", "sub/../a.group"], "line 1: product cycle through a.group"),
    ], ids=["direct", "reached-from-outside", "two-files"])
    def test_product_cycle_exits_2(self, specs, trail, message, tmp_path, capsys):
        # cycles are found by resolved path, before the recursion runs away;
        # the error names each spec on the way, outermost first
        (tmp_path / "sub").mkdir()
        for name, text in specs.items():
            (tmp_path / name).write_text(text)
        f = tmp_path / ("a.group" if "a.group" in specs else "self.group")
        assert main(["cp", str(f)]) == 2
        names = "".join(f"{tmp_path / name}: " for name in trail)
        assert capsys.readouterr() == ("", f"error: {names}{message}\n")

    def test_product_diamond_allowed(self, tmp_path, capsys):
        # d = l x r with both l and r built from base: base is read twice, no cycle
        for name, text in {"base.group": "perm (1 2 3)\nperm (1 2)\n",
                           "l.group": "product base.group c2\n",
                           "r.group": "product base.group c3\n",
                           "d.group": "product l.group r.group\n"}.items():
            (tmp_path / name).write_text(text)
        assert main(["center", str(tmp_path / "d.group")]) == 0
        assert parse_group_file(tmp_path / "d.group").order == 216

    @pytest.mark.parametrize("verb", ["cp", "classify", "verify-t2"])
    def test_non_associative_table_exits_2(self, verb, tmp_path, capsys):
        f = tmp_path / "loop.group"
        f.write_text(LOOP5_SPEC)
        assert main([verb, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {f}: bad Cayley table: multiplication is not associative\n"

    def test_scan_corpus_honours_cap(self, builtin_builds, table_budget, capsys):
        # scan without inputs reads the corpus up to order 64, which a budget
        # of order 64 admits
        table_budget(64)
        assert main(["scan", "--machine"]) == 0
        assert capsys.readouterr().err == ""
        assert max(corpus._KINDS[kind][1](n) for kind, n in builtin_builds) == 64

    def test_verify_t1_stem_corpus_honours_cap(self, monkeypatch, tmp_path, table_budget,
                                               capsys):
        # the shadow S3 has q*d = 6 * 3: its stem candidates reach order 18,
        # below STEM_MAX_ORDER, and must fit the budget before any is built
        real = corpus._named
        built = []

        def spy(kind, n=0):
            G = real(kind, n)
            built.append(G.order)
            return G

        monkeypatch.setattr(corpus, "_named", spy)
        f = tmp_path / "m.model"
        f.write_text("torus_rank 1\nacting_group c2\nmatrix 1 -1\nextra_factor s3\n")
        table_budget(18)
        assert main(["verify-t1", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS cp equality: direct 1/8 vs reduced 1/8",
            "PASS stem clause: D3",
        ]
        assert built and max(built) <= 18
        built.clear()
        budget = table_budget(17)
        assert main(["verify-t1", str(f)]) == 2
        message = over_budget("stem candidates up to order 18", 18, budget)
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert max(built) == 6  # S3 itself, before the stem search

    def test_engine_error_in_stem_search_exits_2(self, monkeypatch, tmp_path, capsys):
        # no engine error in the stem search turns into a soft note: each
        # one, the search budget included, reaches main
        from haarcp import isoclinism
        from haarcp.errors import NotNormal

        def planted(N):
            raise NotNormal("planted")

        monkeypatch.setattr(isoclinism, "quotient", planted)
        f = tmp_path / "o2xs3.model"
        f.write_text(GOLDEN_SPECS["o2xs3.model"])
        assert main(["verify-t1", str(f)]) == 2
        assert capsys.readouterr() == ("", "error: planted\n")

    def test_stem_builds_only_screened_candidates(self, builtin_builds, tmp_path, capsys):
        # F = C12: |F:Z(F)| = |F'| = 1, so only order 1 is tried; the first
        # build is F itself
        assert main(["stem", "c12"]) == 0
        assert capsys.readouterr().out.startswith("stem: 1 (order 1)\n")
        assert builtin_builds == [("cyclic", 12), ("trivial", 0)]
        # F = A5 x C6 from generators, so that every build is a candidate:
        # |F:Z(F)| = |F'| = 60 leaves order 60, where A5 comes first
        builtin_builds.clear()
        f = tmp_path / "a5xc6.group"
        f.write_text("perm (1 2 3 4 5)\nperm (1 2 3)\nperm (6 7 8 9 10 11)\n")
        assert main(["stem", str(f)]) == 0
        assert capsys.readouterr().out.startswith("stem: A5 (order 60)\n")
        assert builtin_builds == [("alternating", 5)]

    def test_verify_t1_a5_shadow_builds_no_candidate(self, builtin_builds, monkeypatch,
                                                     tmp_path, capsys):
        # the shadow has |F:Z(F)| = 60, above every order in the verify-t1
        # corpus (32): no corpus group and no quotient of the shadow is built
        quotients = []

        def spy(N):
            quotients.append(N.parent.order)
            return quotient(N)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "haarcp" and getattr(module, "quotient", None) is quotient:
                monkeypatch.setattr(module, "quotient", spy)
        (tmp_path / "c2.group").write_text("perm (1 2)\n")
        (tmp_path / "a5.group").write_text("perm (1 2 3 4 5)\nperm (1 2 3)\n")
        f = tmp_path / "m.model"
        f.write_text("torus_rank 1\nacting_group c2.group\nmatrix 1 -1\nextra_factor a5.group\n")
        assert main(["verify-t1", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS cp equality: direct 1/48 vs reduced 1/48",
            "note: stem not in corpus (soft report)",
        ]
        assert builtin_builds == []
        assert 60 not in quotients

    def test_rank_11_model(self, tmp_path, capsys):
        # C2 acting on T^11 by -I, times S3: determinant, completion and both
        # cp routes at a rank where a cofactor expansion takes minutes
        minus = " ".join(str(-int(i == j)) for i in range(11) for j in range(11))
        f = tmp_path / "rank11.model"
        f.write_text(f"torus_rank 11\nacting_group c2\nmatrix 1 {minus}\nextra_factor s3\n")
        assert main(["fc", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "action kernel size 1 of |Q| = 2",
            "FC index 2",
            "finite shadow order 6",
        ]
        assert main(["verify-t1", str(f)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS cp equality: direct 1/8 vs reduced 1/8",
            "PASS stem clause: D3",
        ]


MODEL_SPEC = "torus_rank 1\nacting_group c2\nmatrix 1 -1\n"


class TestOneReader:
    """Every operand is read one way: a builtin name, else a UTF-8 spec file
    whose first directive makes it a group or a model.  An error in a file
    names that file, after the specs whose operands led to it."""

    def test_error_in_a_product_operand_names_its_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "inner.group").write_text("perm (1 2 3)\nbogus 1\n")
        (tmp_path / "outer.group").write_text("product inner.group c3\n")
        monkeypatch.chdir(tmp_path)
        assert main(["cp", "outer.group"]) == 2
        assert capsys.readouterr() == (
            "", "error: outer.group: inner.group: line 2: unknown directive 'bogus'\n")

    @pytest.mark.parametrize("verb", ["cp", "verify-t2", "scan"])
    def test_spec_that_is_not_utf8(self, verb, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bin.group").write_bytes(b"\xff\xfe perm\n")
        assert main([verb, "bin.group"]) == 2
        assert capsys.readouterr() == ("", "error: bin.group: line 1: not UTF-8 text\n")

    def test_undecodable_byte_reported_on_its_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bin.group").write_bytes(b"# S3\nperm (1 2 3)\nperm (1 2)\xe9\n")
        assert main(["center", "bin.group"]) == 2
        assert capsys.readouterr() == ("", "error: bin.group: line 3: not UTF-8 text\n")

    @pytest.mark.parametrize("verb", ["cp", "center", "classify", "stem", "scan"])
    def test_model_where_a_group_is_expected(self, verb, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o2.model").write_text(MODEL_SPEC)
        assert main([verb, "o2.model"]) == 2
        assert capsys.readouterr() == (
            "", "error: o2.model: expected a group spec, got a model spec\n")

    @pytest.mark.parametrize("verb, spec", [
        ("cp", "product o2.model c2\n"),
        ("fc", "torus_rank 0\nacting_group o2.model\n"),
        ("fc", "torus_rank 0\nacting_group c2\nextra_factor o2.model\n"),
    ], ids=["product", "acting-group", "extra-factor"])
    def test_model_as_a_group_operand(self, verb, spec, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o2.model").write_text(MODEL_SPEC)
        (tmp_path / "x.spec").write_text(spec)
        assert main([verb, "x.spec"]) == 2
        assert capsys.readouterr() == (
            "", "error: x.spec: o2.model: expected a group spec, got a model spec\n")

    @pytest.mark.parametrize("argv", [
        ["fc"], ["verify-t1"], ["mc", "--samples", "10"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("operand, found", [
        ("c2", "a builtin group"), ("s3.group", "a group spec"),
    ], ids=["builtin", "group-spec"])
    def test_group_where_a_model_is_expected(self, argv, operand, found, tmp_path,
                                             monkeypatch, capsys, no_builtin_builds):
        # a builtin name is rejected before its table is built
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s3.group").write_text("perm (1 2 3)\nperm (1 2)\n")
        assert main([*argv, operand]) == 2
        assert capsys.readouterr() == (
            "", f"error: {operand}: expected a model spec, got {found}\n")

    @pytest.mark.parametrize("argv", [
        ["cp"], ["center"], ["classify"], ["stem"], ["scan"], ["isoclinic", "c2"], ["fc"],
        ["verify-t1"], ["verify-t2"], ["mc", "--samples", "10"],
    ], ids=lambda argv: argv[0])
    def test_missing_input(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "nope.spec"]) == 2
        assert capsys.readouterr() == (
            "", "error: not a builtin group and not a file: 'nope.spec'\n")

    @pytest.mark.parametrize("verb", ["cp", "fc", "verify-t2"])
    def test_input_that_cannot_be_read(self, verb, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        assert main([verb, "d"]) == 2
        assert capsys.readouterr() == ("", "error: d: cannot read: Is a directory\n")

    def test_verify_t2_reads_either_kind(self, tmp_path, monkeypatch, capsys):
        # a spec with no directive is read as a model, the kind verify-t2 takes
        # when the first directive does not decide
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o2.model").write_text(MODEL_SPEC)
        (tmp_path / "s3.group").write_text("perm (1 2 3)\nperm (1 2)\n")
        (tmp_path / "empty.spec").write_text("# nothing\n")
        assert main(["verify-t2", "o2.model"]) == 0
        assert main(["verify-t2", "s3.group"]) == 0
        capsys.readouterr()
        assert main(["verify-t2", "empty.spec"]) == 2
        assert main(["cp", "empty.spec"]) == 2
        assert capsys.readouterr() == ("", (
            "error: empty.spec: model spec is missing torus_rank\n"
            "error: empty.spec: no generators and no table in group spec\n"))


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # numpy is imported only inside the Monte Carlo functions: anywhere else
    # it would add about 0.1 s and 12 MB to every command.  No record is a
    # dataclass either: dataclasses, and the inspect it imports, would add
    # about 20 ms to every start
    src = str(Path(haarcp.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    perm = tmp_path / "perm.group"
    perm.write_text("perm (1 2 3 4)(5 6 7)\nperm (1 3)\n")
    table = tmp_path / "table.group"
    table.write_text("table 3\n0 1 2\n1 2 0\n2 0 1\n")
    model = tmp_path / "o2xs3.model"
    model.write_text("torus_rank 1\nacting_group cyclic 2\nmatrix 1 -1\nextra_factor s3\n")
    runs = [[verb, str(spec)] for verb in ("cp", "classify", "center") for spec in (perm, table)]
    runs += [["stem", "c12"], ["isoclinic", "d4", "q8"], ["scan", "--machine"]]
    runs += [[verb, str(model)] for verb in ("fc", "verify-t1", "verify-t2")]
    code = (
        "import contextlib, io, sys\n"
        "from haarcp.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n"
        "assert not {'dataclasses', 'inspect'} & set(sys.modules), sorted(sys.modules)\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SPECS = {
    "perm2.group": "perm (1 2 3 4)(5 6 7)\nperm (1 3)\n",
    "d4xc3.group": "product d4 c3\n",
    "a5xc2.group": "product a5 c2\n",
    "o2xs3.model": "torus_rank 1\nacting_group cyclic 2\nmatrix 1 -1\nextra_factor s3\n",
    "trivial-s3xa5.model": "torus_rank 2\nacting_group s3\nextra_factor a5\n",
}
# Verbs whose output carries element indices, so closure order, coset
# numbering and witness maps are pinned byte for byte.  "@name" stands for
# the spec file GOLDEN_SPECS[name].
GOLDEN_CASES = {
    "center_perm2": ["center", "@perm2.group"],
    "isoclinic_d4_q8": ["isoclinic", "d4", "q8"],
    "isoclinic_es27": ["isoclinic", "es27+", "es27-"],
    "stem_c12": ["stem", "c12"],
    "stem_d4xc3": ["stem", "@d4xc3.group"],
    "classify_a5xc2": ["classify", "@a5xc2.group"],
    "scan_machine": ["scan", "--machine"],
    "verify_t1_o2xs3": ["verify-t1", "@o2xs3.model"],
    "verify_t1_trivial_s3xa5": ["verify-t1", "@trivial-s3xa5.model"],
}


def golden_argv(case, tmp_path):
    """The argv of a golden case, with its spec files written to tmp_path."""
    for name, text in GOLDEN_SPECS.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / arg[1:]) if arg.startswith("@") else arg
            for arg in GOLDEN_CASES[case]]


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(case, tmp_path, capsys):
    argv = golden_argv(case, tmp_path)
    assert main(argv) == 0
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output_twice_in_one_process(case, tmp_path, capsys):
    argv = golden_argv(case, tmp_path)
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


def parse_witness(lines):
    """The witness that the quotient-map and derived-map lines spell."""
    split = lines.index("derived-map")
    assert lines[0] == "quotient-map"
    alpha = [tuple(map(int, line.split(" -> "))) for line in lines[1:split]]
    assert [c for c, _ in alpha] == list(range(len(alpha)))
    beta = dict(tuple(map(int, line.split(" -> "))) for line in lines[split + 1:])
    return IsoclinismWitness(tuple(a for _, a in alpha), beta)


WITNESS_CASES = sorted(c for c in GOLDEN_CASES if c.startswith(("isoclinic", "stem")))


@pytest.mark.parametrize("case", WITNESS_CASES)
def test_golden_witness_verifies(case, tmp_path):
    # what isoclinic and stem print is exactly what verify_isoclinism checks
    verb, *names = golden_argv(case, tmp_path)
    groups = [parse_group_file(name) for name in names]
    lines = (GOLDEN / f"{case}.out").read_text(encoding="utf-8").splitlines()
    if verb == "stem":  # H is named on the first line
        m = re.fullmatch(r"stem: (\S+) \(order (\d+)\)", lines.pop(0))
        groups.append(parse_group_file(m.group(1)))
        assert groups[-1].order == int(m.group(2))
    w = parse_witness(lines)
    assert w.serialize() == "\n".join(lines)
    assert verify_isoclinism(*groups, w)


class TestSharedParser:
    """main() builds its parser once per process and reads everything else per call."""

    def test_valid_call_after_argparse_errors(self, capsys):
        assert main(["center", "q8"]) == 0
        expected = capsys.readouterr().out
        for bad in (["no-such-verb"], ["mc", "model-file"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            assert "error:" in capsys.readouterr().err
            assert main(["center", "q8"]) == 0
            assert capsys.readouterr() == (expected, "")

    def test_cap_read_on_every_call(self, monkeypatch, table_budget, capsys):
        # the table budget is read on every call, and nothing carries over
        real = groups.TABLE_BUDGET
        budget = table_budget(7)
        assert main(["center", "q8"]) == 2
        message = over_budget("builtin group 'q8'", 8, budget)
        assert capsys.readouterr().err == f"error: {message}\n"
        table_budget(8)
        assert main(["center", "q8"]) == 0
        monkeypatch.setattr(groups, "TABLE_BUDGET", real)
        with pytest.raises(SystemExit):
            main(["--cap", "5", "center", "q8"])
        capsys.readouterr()
        assert main(["center", "q8"]) == 0
        assert main(["center", "q8"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.count("center order 2 of group order 8") == 2

    def test_no_parser_built_after_the_first_call(self, monkeypatch, capsys):
        import argparse

        main(["center", "c2"])
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for argv in (["center", "c2"], ["cp", "q8"], ["verify-t2", "s3"], ["scan", "c3"]):
            assert main(argv) == 0
        assert built == []

    def test_command_looked_up_per_call(self, monkeypatch, capsys):
        from haarcp import cli

        main(["center", "c2"])
        capsys.readouterr()
        seen = []

        def fake_center(args):
            seen.append(args.group)
            return 0

        monkeypatch.setattr(cli, "cmd_center", fake_center)
        assert main(["center", "c2"]) == 0
        assert seen == [["c2"]]
        assert capsys.readouterr().out == ""


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off for the test, and restored after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """main() pauses the cyclic collector while its command runs and leaves
    it as it found it, however the call ends."""

    def test_exit_0(self, collector, monkeypatch, capsys):
        from haarcp import cli

        real, during = cli.cmd_center, []

        def spy(args):
            during.append(gc.isenabled())
            return real(args)

        monkeypatch.setattr(cli, "cmd_center", spy)
        assert main(["center", "q8"]) == 0
        assert during == [False]
        assert gc.isenabled() is collector

    def test_exit_2(self, collector, tmp_path, capsys):
        f = tmp_path / "short.group"
        f.write_text("table 2\n0 1\n1\n")
        assert main(["cp", str(f)]) == 2
        assert capsys.readouterr().err == (
            f"error: {f}: bad Cayley table: row 1 has length 1, expected 2\n")
        assert gc.isenabled() is collector

    def test_uncaught_exception(self, collector, monkeypatch):
        from haarcp import cli

        def broken(args):
            raise RuntimeError("not an input error")

        monkeypatch.setattr(cli, "cmd_center", broken)
        with pytest.raises(RuntimeError, match="not an input error"):
            main(["center", "q8"])
        assert gc.isenabled() is collector

    def test_argparse_exit(self, collector, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-verb"])
        assert exc.value.code == 2
        assert gc.isenabled() is collector


def test_cli_import_builds_no_parser():
    src = str(Path(haarcp.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def spy(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = spy\n"
        "import haarcp.cli\n"
        "assert built == [], built\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert haarcp.cli.main(['center', 'c2']) == 0\n"
        "assert built, 'the first call builds the parser'\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
