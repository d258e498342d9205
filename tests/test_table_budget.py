"""One table budget, checked before any table is built.

groups.TABLE_BUDGET bounds the bytes of one Cayley table, at 8 bytes per
entry, and groups.check_order is the one place that compares an order with
it.  Every input that stands for a table goes through the checker first:
a builtin's order, a closure as it grows, a product's order, a `table n`
header and the largest stem candidate.  So do the inputs that stand for
rows of entries: a `perm` spec's identity and perms, each a row of its
largest point's many entries, and a torus rank's d x d matrix.  Rows of
more than 257 points are charged their shared points as well: int objects
outside the small-int cache, and the closure walk's two products in hand.
The budget is read at each call, so these tests lower it.
"""

import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from haarcp import corpus, groups, specfmt
from haarcp.cli import main
from haarcp.errors import TableBudgetExceeded

SRC = Path(__file__).resolve().parents[1] / "src" / "haarcp"


def need(n: int, width: int | None = None) -> int:
    """The bytes of a table of order n, or of n rows of width entries."""
    return 8 * n * (n if width is None else width)


def over_budget(what: str, n: int, budget: int, width: int | None = None) -> str:
    shape = (f"a table of order {n} needs" if width is None
             else f"{n} rows of {width} entries need")
    return f"{what}: {shape} {need(n, width)} bytes, over the budget of {budget}"


@pytest.fixture
def built(monkeypatch):
    """The order of every table built, in build order.  The builtin cache is
    emptied first, so a builtin is built, and recorded, when it is asked for."""
    orders = []
    init = groups.FiniteGroup.__init__

    def spy(self, order, *args, **kwargs):
        orders.append(order)
        init(self, order, *args, **kwargs)

    corpus._named.cache_clear()
    monkeypatch.setattr(groups.FiniteGroup, "__init__", spy)
    return orders


C3_TABLE = "table 3\n0 1 2\n1 2 0\n2 0 1\n"

# (argv, spec written to the file named FILE, what, order named or (rows, width),
# tables built before the check).  Each case needs one row more than the budget
# it runs under admits: a table of one order more, or one more row of width entries.
SITES = {
    "builtin": (["cp", "c9"], None, "builtin group 'c9'", 9, []),
    "closure": (["cp", "FILE"], "perm (1 2 3)(4 5)\n", "closure of degree 5 past order 5", 6, []),
    "product": (["cp", "FILE"], "product c3 c2\n", "product C3 x C2", 6, [3, 2]),
    "table": (["cp", "FILE"], C3_TABLE, "table 3", 3, []),
    "perm-point": (["cp", "FILE"], "perm (1 7)\n", "perm point 7", (2, 7), []),
    "torus-rank": (["fc", "FILE"], "torus_rank 3\nacting_group c2\n", "torus rank 3", (3, 3), []),
    "shadow": (["verify-t1", "FILE"], "torus_rank 0\nacting_group c6\nextra_factor c2\n",
               "product C6|6 x C2", 12, [6, 2, 6]),
    "stem": (["stem", "--max-order", "40", "s4"], None, "stem candidates up to order 40", 40, [24]),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_checks_before_building(site, built, monkeypatch, tmp_path, capsys):
    argv, spec, what, size, before = SITES[site]
    n, width = size if isinstance(size, tuple) else (size, None)
    f = tmp_path / "spec"
    if spec is not None:
        f.write_text(spec)
    argv = [str(f) if a == "FILE" else a for a in argv]
    budget = need(n - 1) if width is None else need(n - 1, width)
    monkeypatch.setattr(groups, "TABLE_BUDGET", budget)
    assert main(argv) == 2
    # an error raised while a spec file is read names the file first
    where = f"{f}: " if spec is not None and site != "shadow" else ""
    assert capsys.readouterr() == ("", f"error: {where}{over_budget(what, n, budget, width)}\n")
    assert built == before
    monkeypatch.setattr(groups, "TABLE_BUDGET", need(n, width))  # exactly what it needs fits
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_closure_stops_where_its_elements_pass_the_budget(monkeypatch, tmp_path, capsys):
    # S4 on the points 1, 2, 3 and 9, at 512 bytes: the identity and two
    # perms (3 rows of 9 entries) fit, and so would a table of order 8, but
    # 8 elements of 9 points do not, so the walk stops at its 8th element
    # and no table is built
    def forbidden(*args):
        raise AssertionError("table built")

    monkeypatch.setattr(groups, "table_from_left", forbidden)
    monkeypatch.setattr(groups, "TABLE_BUDGET", 512)
    f = tmp_path / "s4.group"
    f.write_text("perm (1 2 3)\nperm (1 9)\n")
    assert main(["cp", str(f)]) == 2
    message = over_budget("closure of degree 9 past order 7", 8, 512, 9)
    assert capsys.readouterr() == ("", f"error: {f}: {message}\n")


DEGREE = 20000  # past the small-int cache, so the shared points are charged


def over_budget_with_points(what: str, n: int, budget: int) -> str:
    need_all = need(n, DEGREE) + groups.shared_point_bytes(DEGREE)
    return (f"{what}: {n} rows of {DEGREE} entries and {DEGREE} shared points need"
            f" {need_all} bytes, over the budget of {budget}")


@pytest.mark.parametrize("spec, order, stop", [
    (f"perm (1 {DEGREE})\n", 2, f"perm point {DEGREE}"),
    (f"perm (1 2 3)\nperm (1 {DEGREE})\n", 24, f"closure of degree {DEGREE} past order 23"),
    (f"perm (1 2 3 4)\nperm (1 2)\nperm (1 {DEGREE})\n", 120,
     f"closure of degree {DEGREE} past order 119"),
], ids=["C2", "S4", "S5"])
def test_charge_covers_a_large_degree_closure(spec, order, stop, monkeypatch, tmp_path):
    # under the least budget that admits it, a closure's tracemalloc peak,
    # from the spec's text to the group, is within what it is charged: its
    # rows with their shared points, and its table, which coexist at the end.
    # One byte less stops it: C2's two rows are the spec's identity and perm
    f = tmp_path / "g.group"
    f.write_text(spec)
    rows = need(order, DEGREE) + groups.shared_point_bytes(DEGREE)
    assert rows > need(order)
    monkeypatch.setattr(groups, "TABLE_BUDGET", rows)
    tracemalloc.start()
    try:
        G = specfmt.read_spec(f, "group")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == order
    assert peak <= rows + need(order)
    del G
    monkeypatch.setattr(groups, "TABLE_BUDGET", rows - 1)
    message = over_budget_with_points(stop, order, rows - 1)
    with pytest.raises(TableBudgetExceeded) as exc:
        specfmt.read_spec(f, "group")
    assert str(exc.value) == f"{f}: {message}"


def test_perm_spec_past_the_budget_stops_before_the_walk(monkeypatch, tmp_path, capsys):
    # the identity and two perms, 3 rows, and the points they share: one
    # byte short, and no permutation is built, let alone closed
    def forbidden(*args):
        raise AssertionError("permutation built")

    monkeypatch.setattr(specfmt, "_perm_from_cycles", forbidden)
    f = tmp_path / "g.group"
    f.write_text(f"perm (1 2 3)\nperm (1 {DEGREE})\n")
    budget = need(3, DEGREE) + groups.shared_point_bytes(DEGREE) - 1
    monkeypatch.setattr(groups, "TABLE_BUDGET", budget)
    assert main(["center", str(f)]) == 2
    message = over_budget_with_points(f"perm point {DEGREE}", 3, budget)
    assert capsys.readouterr() == ("", f"error: {f}: {message}\n")


def test_small_points_are_not_charged():
    # points up to 256 are the cached small ints: no row of 257 points
    # holds an object of its own
    assert groups.shared_point_bytes(257) == 0
    assert groups.shared_point_bytes(258) == groups.POINT_BYTES * 258


def test_budget_admits_s7_and_not_order_20000():
    assert groups.TABLE_BUDGET == 2**30
    groups.check_order(5040, "S7")
    groups.check_order(11585, "the largest order admitted")
    for n in (11586, 20000):
        with pytest.raises(TableBudgetExceeded):
            groups.check_order(n, "too large")


def test_cyclic_20000_stops_small():
    # a fresh process exits 2 with the byte figure.  Its peak is read as
    # VmHWM, which execve starts afresh, where the system reports one
    code = ("import sys\n"
            "from pathlib import Path\n"
            "from haarcp.cli import main\n"
            "rc = main(['cp', 'cyclic 20000'])\n"
            "status = Path('/proc/self/status')\n"
            "lines = status.read_text().splitlines() if status.exists() else []\n"
            "print(*(line.split()[1] for line in lines if line.startswith('VmHWM:')))\n"
            "sys.exit(rc)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert run.returncode == 2
    assert run.stderr.endswith(" needs 3200000000 bytes, over the budget of 1073741824\n")
    for kilobytes in run.stdout.split():
        assert int(kilobytes) < 100 * 1024


def test_stem_s7_above_budget_builds_no_candidate(monkeypatch, capsys):
    # S7 has q*d = 5040 * 2520: candidates up to order 100000 would include
    # C10080 and C90720, so the bound is checked before the corpus is read
    requested = []
    real = corpus._named

    def spy(kind, n):
        requested.append((kind, n))
        return real(kind, n)

    monkeypatch.setattr(corpus, "_named", spy)
    try:
        assert main(["stem", "--max-order", "100000", "s7"]) == 2
        assert capsys.readouterr() == (
            "", f"error: {over_budget('stem candidates up to order 100000', 100000, 2**30)}\n")
        assert requested == [("symmetric", 7)]
    finally:
        real.cache_clear()  # S7's table holds about 200 MB


# -- the rule stays in one module -----------------------------------------

RAISES_HERE = {"groups.py:check_order"}


def budget_raisers(sources: dict[str, str]) -> list[str]:
    """module:owner for each raise of TableBudgetExceeded, by name or attribute,
    called or not.  The owner is the module-level definition that holds it."""
    found = set()
    for module, source in sorted(sources.items()):
        for top in ast.parse(source).body:
            owner = (top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    name = (exc.id if isinstance(exc, ast.Name)
                            else exc.attr if isinstance(exc, ast.Attribute) else None)
                    if name == "TableBudgetExceeded":
                        found.add(f"{module}:{owner}")
    return sorted(found)


def test_checker_flags_a_raise_outside_check_order():
    sources = {
        "groups.py": ("def check_order(n, what):\n"
                      "    if 8 * n * n > TABLE_BUDGET:\n"
                      "        raise TableBudgetExceeded(what)\n"),
        "a.py": "def build(n):\n    if n > 99:\n        raise TableBudgetExceeded('too big')\n",
        "b.py": "def read(n):\n    raise errors.TableBudgetExceeded\n",
        "c.py": "if LIMIT < 1:\n    raise TableBudgetExceeded('no room')\n",
        "d.py": "def ok(n):\n    check_order(n, 'fine')\n    raise ValueError(n)\n",
    }
    assert budget_raisers(sources) == ["a.py:build", "b.py:read", "c.py:<module>",
                                       "groups.py:check_order"]


def test_only_check_order_raises_the_budget_error():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert budget_raisers(sources) == sorted(RAISES_HERE)
