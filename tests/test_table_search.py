"""Only a table read from a file is searched for its identity and inverses,
and only it and a subgroup made a group walk for their generators.

make_group searches a table for them, about n^2/2 reads, when its caller
does not pass them.  Every construction knows both and passes them, so
the search runs only in the `table` spec reader.  Likewise a group made
without `generators` gets them from the greedy walk, n*k products; every
construction knows a generating set, so only the `table` spec reader and
`subgroup_as_group` walk.  The check is a small ast pass, like the one for
file reads: a call of `make_group`, or of an attribute of that name,
searches unless it passes `identity` and `inverses`, by keyword or as the
third and fourth positional arguments, and walks unless it passes
`generators`, by keyword or as the fifth.  Its owner is the module-level
definition that holds it (`<module>` for a call outside any).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "haarcp"

SEARCHES_HERE = {"specfmt.py:_group_from_lines"}
WALKS_HERE = {"specfmt.py:_group_from_lines", "groups.py:subgroup_as_group"}


def _passes_both(call: ast.Call) -> bool:
    """Whether a call passes identity and inverses; one passed by **kwargs does not count."""
    keywords = {k.arg for k in call.keywords}
    return ((len(call.args) >= 3 or "identity" in keywords)
            and (len(call.args) >= 4 or "inverses" in keywords))


def _passes_generators(call: ast.Call) -> bool:
    """Whether a call passes generators; a literal None does not count."""
    given = call.args[4:5] + [k.value for k in call.keywords if k.arg == "generators"]
    return any(not (isinstance(v, ast.Constant) and v.value is None) for v in given)


def searchers(sources: dict[str, str], passes=_passes_both, callee="make_group") -> list[str]:
    """module:owner for each call of callee that fails passes: by default, each
    call of make_group without an identity and inverses."""
    found = set()
    for module, source in sorted(sources.items()):
        for top in ast.parse(source).body:
            owner = (top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = (f.id if isinstance(f, ast.Name)
                            else f.attr if isinstance(f, ast.Attribute) else None)
                    if name == callee and not passes(node):
                        found.add(f"{module}:{owner}")
    return sorted(found)


def test_checker_flags_a_searching_construction():
    sources = {
        "a.py": "def cyclic(n):\n    return make_group(rows(n), name=f'C{n}')\n",
        "b.py": "def klein4():\n    return groups.make_group(TABLE, 'V4', identity=0)\n",
        "c.py": "TRIVIAL = make_group([[0]], '1', inverses=[0])\n",
        "d.py": "def build(t, **kw):\n    return make_group(t, **kw)\n",
        "e.py": ("def close(rows, inv):\n"
                 "    return make_group(rows, 'G', identity=0, inverses=inv)\n\n\n"
                 "def product(rows, e, inv):\n    return make_group(rows, 'GxH', e, inv)\n\n\n"
                 "def quotient(rows, e, inv):\n"
                 "    return make_group(rows, 'Q', e, inverses=inv)\n"),
    }
    assert searchers(sources) == ["a.py:cyclic", "b.py:klein4", "c.py:<module>", "d.py:build"]


def test_only_the_table_spec_reader_searches():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert searchers(sources) == sorted(SEARCHES_HERE)


def walkers(sources: dict[str, str]) -> list[str]:
    """module:owner for each call of make_group without generators."""
    return searchers(sources, _passes_generators)


def test_checker_flags_a_walking_construction():
    sources = {
        "a.py": "def cyclic(n):\n    return make_group(rows(n), 'C', 0, inv(n))\n",
        "b.py": "def klein4():\n    return groups.make_group(T, 'V4', 0, range(4), (1, 2))\n",
        "c.py": "def sub(t, e, inv):\n    return make_group(t, 'S', e, inv, generators=None)\n",
        "d.py": "def build(t, **kw):\n    return make_group(t, **kw)\n",
        "e.py": "def product(t, e, inv, gens):\n    return make_group(t, 'GxH', e, inv, gens)\n",
    }
    assert walkers(sources) == ["a.py:cyclic", "c.py:sub", "d.py:build"]


def test_only_the_table_spec_reader_and_subgroups_walk():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert walkers(sources) == sorted(WALKS_HERE)


def test_groups_are_made_only_by_make_group():
    # a FiniteGroup built directly would pass every make_group check above
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert searchers(sources, lambda call: False, "FiniteGroup") == ["groups.py:make_group"]
