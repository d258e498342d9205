"""A property over short spec texts: exit 1 only beside a FAIL line.

Hypothesis draws small group and model specs from `perm`, `table`,
`product` and model lines, well formed or not, and runs them in-process
through haarcp.cli.main under the verbs that read them.  Whatever the
input, the status is 0, 1 or 2, a 1 comes with a FAIL or THEOREM
VIOLATION line on stdout, and a 2 with one `error:` line on stderr.  The
draws are derandomized, so the suite runs the same examples every time.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haarcp.cli import main

# operands a product, acting_group or extra_factor line may name: small
# builtins, the two spec files (so a product may nest or cycle), and a
# name that is neither
OPERANDS = ["c1", "c2", "c3", "s3", "g.group", "h.group", "nosuch"]

number = st.integers(min_value=-1, max_value=4).map(str)
token = st.one_of(number, st.sampled_from(["x", "1.5", "٣", ""]))


def words(elements, min_size=0, max_size=4):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(" ".join)


points = st.integers(min_value=1, max_value=4)
cycle = st.one_of(
    st.lists(points, unique=True, min_size=2, max_size=4),
    st.lists(st.integers(min_value=0, max_value=4), max_size=3),  # 0, repeats, ()
).map(lambda c: "({})".format(" ".join(map(str, c))))
cycles = st.lists(cycle, min_size=1, max_size=2).map(lambda c: "perm " + "".join(c))
perm_line = st.one_of(cycles, cycles, cycles,
                      words(token, max_size=3).map("perm {}".format))  # no cycle notation


@st.composite
def table_block(draw):
    """Cn's table, n <= 3, or a block with a bad header, entry or row count."""
    n = draw(st.sampled_from([1, 2, 3, 3, 0]))
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    flaw = draw(st.sampled_from(["none", "none", "none", "entry", "rows", "header"]))
    if flaw == "entry" and n:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.integers(min_value=-1, max_value=n))
    if flaw == "rows":
        rows = rows[:-1] if draw(st.booleans()) else rows + [list(range(n))]
    header = draw(st.sampled_from(["x", "-1", str(n + 1)])) if flaw == "header" else str(n)
    return "\n".join([f"table {header}"] + [" ".join(map(str, row)) for row in rows])


product_line = st.one_of(
    *[words(st.sampled_from(OPERANDS), min_size=2, max_size=2)] * 3,
    words(st.sampled_from(OPERANDS), max_size=3),  # not two operands
).map("product {}".format)
perm_lines = st.lists(perm_line, min_size=1, max_size=3).map("\n".join)
group_spec = st.one_of(
    perm_lines, perm_lines, table_block(), table_block(), product_line,
    st.lists(st.one_of(perm_line, table_block(), product_line, st.just("bogus 1")),
             max_size=3).map("\n".join),  # mixed kinds, or nothing
)


# action matrices by torus rank: unimodular ones, and one that is not
MATRICES = {0: [""], 1: ["1", "-1", "2"], 2: ["1 0 0 1", "-1 0 0 -1", "0 -1 1 0", "0 1 1 0",
                                           "1 1 0 1", "2 0 0 1"]}


@st.composite
def model_spec(draw):
    lines = []
    d = draw(st.sampled_from([0, 1, 1, 2, 2, 2, -1]))
    if draw(st.integers(0, 5)):
        lines.append(f"torus_rank {d}")
    if draw(st.integers(0, 5)):
        lines.append(f"acting_group {draw(st.sampled_from(OPERANDS))}")
    for _ in range(draw(st.integers(0, 2))):
        good = st.sampled_from(MATRICES.get(d, ["1"]))
        entries = draw(st.one_of(good, good, good, words(number)))
        lines.append(f"matrix {draw(st.sampled_from([1, 1, 2, 0, 3]))} {entries}")
    if draw(st.booleans()):
        lines.append(f"extra_factor {draw(st.sampled_from(OPERANDS))}")
    if draw(st.integers(0, 4)) == 0:
        lines = draw(st.permutations(lines))
    return "\n".join(lines)


VERBS = ["cp", "classify", "center", "fc", "verify-t1", "verify-t2"]


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("specs")


@settings(derandomize=True, deadline=None, database=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(g=group_spec, h=group_spec, m=model_spec(),
       verb=st.sampled_from(VERBS))
def run_one(spec_dir, g, h, m, verb):
    for name, text in (("g.group", g), ("h.group", h), ("m.model", m)):
        (spec_dir / name).write_text(text + "\n")
    # fc and verify-t1 read a model; verify-t2 reads either kind
    reads_model = verb in ("fc", "verify-t1") or verb == "verify-t2" and m.startswith("torus")
    operand = spec_dir / ("m.model" if reads_model else "g.group")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main([verb, str(operand)])
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2), (status, err)
    if status == 1:
        assert "FAIL" in out or "THEOREM VIOLATION" in out, out
    if status == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == "", err


def test_exit_status_follows_the_contract(spec_dir):
    run_one(spec_dir)
