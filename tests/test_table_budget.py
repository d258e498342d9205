"""One table budget, checked before any table is built.

groups.TABLE_BUDGET bounds the bytes of one Cayley table, at 8 bytes per
entry, and groups.check_order is the one place that compares an order with
it.  Every input that stands for a table goes through the checker first:
a builtin's order, a closure as it grows, a product's order, a `table n`
header, a `perm` spec's largest point, a torus rank's d^2, and the largest
stem candidate.  The budget is read at each call, so these tests lower it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from haarcp import corpus, groups
from haarcp.cli import main
from haarcp.errors import TableBudgetExceeded

SRC = Path(__file__).resolve().parents[1] / "src" / "haarcp"


def over_budget(what: str, n: int, budget: int) -> str:
    return f"{what}: a table of order {n} needs {8 * n * n} bytes, over the budget of {budget}"


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

# (argv, spec written to the file named FILE, what, order named, tables built before the check).
# Each case needs a table one order above the budget it runs under.
SITES = {
    "builtin": (["cp", "c9"], None, "builtin group 'c9'", 9, []),
    "closure": (["cp", "FILE"], "perm (1 2 3)(4 5)\n", "closure of degree 5 past order 5", 6, []),
    "product": (["cp", "FILE"], "product c3 c2\n", "product C3 x C2", 6, [3, 2]),
    "table": (["cp", "FILE"], C3_TABLE, "table 3", 3, []),
    "perm-point": (["cp", "FILE"], "perm (1 7)\n", "perm point 7", 7, []),
    "torus-rank": (["fc", "FILE"], "torus_rank 3\nacting_group c2\n", "torus rank 3 squared", 9,
                   []),
    "shadow": (["verify-t1", "FILE"], "torus_rank 0\nacting_group c6\nextra_factor c2\n",
               "product C6|6 x C2", 12, [6, 2, 6]),
    "stem": (["stem", "--max-order", "40", "s4"], None, "stem candidates up to order 40", 40, [24]),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_checks_before_building(site, built, monkeypatch, tmp_path, capsys):
    argv, spec, what, n, before = SITES[site]
    f = tmp_path / "spec"
    if spec is not None:
        f.write_text(spec)
    argv = [str(f) if a == "FILE" else a for a in argv]
    budget = 8 * (n - 1) ** 2
    monkeypatch.setattr(groups, "TABLE_BUDGET", budget)
    assert main(argv) == 2
    # an error raised while a spec file is read names the file first
    where = f"{f}: " if spec is not None and site != "shadow" else ""
    assert capsys.readouterr() == ("", f"error: {where}{over_budget(what, n, budget)}\n")
    assert built == before
    monkeypatch.setattr(groups, "TABLE_BUDGET", 8 * n * n)  # a table at the limit fits
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


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
