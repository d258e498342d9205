"""The exit contract, on inputs that once left through a crash.

Exit 1 means that two exact routes disagree, or that a theorem's bound
fails, and comes only beside a FAIL or THEOREM VIOLATION line.  Every
other way out of a command is mapped by haarcp.cli.main: 2 for a rejected
input (a parse error, a budget, out of memory), 3 for an engine error with
its traceback, and a quiet 141 when stdout is closed.  Each input here
runs `python -m haarcp.cli` in a child process, under an address-space
limit set in the child only and a timeout, so no input can take the test
process or the machine with it.
"""

import io
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from haarcp import cli

SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE = 250 * 2**20  # bytes, RLIMIT_AS of each child


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def haarcp(*argv, cwd, timeout=30, **env):
    """(status, stdout, stderr, seconds) of one command in a child process."""
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "haarcp.cli", *argv], cwd=cwd,
                         capture_output=True, text=True, timeout=timeout,
                         preexec_fn=limit_address_space,
                         env=dict(os.environ, PYTHONPATH=str(SRC), **env))
    return run.returncode, run.stdout, run.stderr, time.perf_counter() - start


def test_out_of_memory_is_an_input_error(tmp_path):
    # S4 on a million points: 24 rows of 10^6 points, some 240 MB with the
    # shared points, inside the table budget but past the child's limit
    (tmp_path / "big.group").write_text("perm (1 2 3)\nperm (1 1000000)\n")
    status, out, err, _ = haarcp("center", "big.group", cwd=tmp_path)
    assert (status, out, err) == (2, "", "error: center: out of memory\n")


def test_sample_count_over_the_budget(tmp_path):
    (tmp_path / "o2.model").write_text("torus_rank 1\nacting_group c2\nmatrix 1 -1\n")
    status, out, err, seconds = haarcp("mc", "--samples", "1000000000000", "o2.model",
                                       cwd=tmp_path)
    assert (status, out) == (2, "")
    assert err == ("error: 1000000000000 samples: over the sample budget of 1000000000\n")
    assert seconds < 1


def test_deep_product_chain(tmp_path):
    # 330 nested product specs, each the previous times the trivial group,
    # around C2: one Python frame per level would pass the recursion limit
    depth = 330
    for i in range(depth):
        (tmp_path / f"q{i}.group").write_text(f"product q{i + 1}.group 1\n")
    (tmp_path / f"q{depth}.group").write_text("perm (1 2)\n")
    status, out, err, _ = haarcp("cp", "q0.group", cwd=tmp_path)
    assert (status, err) == (0, "")
    assert out.endswith("PASS agreement\n")


def test_table_header_past_the_budget(tmp_path):
    # order 11586 is the first past the budget: exit 2 at the header, with
    # no row to read
    (tmp_path / "big.group").write_text("table 11586\n")
    status, out, err, _ = haarcp("cp", "big.group", cwd=tmp_path)
    assert (status, out) == (2, "")
    assert err == ("error: big.group: table 11586: a table of order 11586 needs"
                   " 1073883168 bytes, over the budget of 1073741824\n")


def closed_stdout(argv, cwd, after_lines, **env):
    """(status, lines read, stderr) of a command whose stdout pipe the reader
    closes after reading after_lines lines."""
    child = subprocess.Popen([sys.executable, "-m", "haarcp.cli", *argv], cwd=cwd,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             preexec_fn=limit_address_space,
                             env=dict(os.environ, PYTHONPATH=str(SRC), **env))
    lines = [child.stdout.readline() for _ in range(after_lines)]
    child.stdout.close()
    try:
        err = child.stderr.read()
        status = child.wait(timeout=30)
    finally:
        child.kill()
        child.stderr.close()
    return status, lines, err


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_pipe_closed_after_one_line(unbuffered, tmp_path):
    # the reader may be gone before the rest is written (141) or after (0)
    status, lines, err = closed_stdout(["scan", "--machine"], tmp_path, 1,
                                       PYTHONUNBUFFERED=unbuffered)
    assert lines == ["trivial|1|1|1|Abelian\n"]
    assert status in (0, 141) and err == ""


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_pipe_closed_before_any_output(unbuffered, tmp_path):
    status, lines, err = closed_stdout(["scan", "--machine"], tmp_path, 0,
                                       PYTHONUNBUFFERED=unbuffered)
    assert (status, err) == (141, "")


# -- in-process: the mapping itself ---------------------------------------

def test_engine_error_exits_3(monkeypatch, capsys):
    # test_cli.py's TestCollectorPause checks the collector on this path
    def broken(args):
        raise RuntimeError("planted")

    monkeypatch.setattr(cli, "cmd_cp", broken)
    assert cli.main(["cp", "c2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: planted\n")


def test_memory_error_names_the_verb(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_verify_t2", exhausted)
    assert cli.main(["verify-t2", "s3"]) == 2
    assert capsys.readouterr() == ("", "error: verify-t2: out of memory\n")


def test_closed_stdout_in_process(monkeypatch):
    # any stdout object a caller put in place is dropped the same way, and
    # a later command in the process prints nowhere and still answers
    def closed(args):
        raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", io.StringIO())
    monkeypatch.setattr(cli, "cmd_scan", closed)
    assert cli.main(["scan", "c2"]) == 141
    assert sys.stdout is None
    assert cli.main(["center", "c2"]) == 0
