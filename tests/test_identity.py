"""Every benchmark job's output, pinned by digest.

Each workload of perfbench/workloads.py is built at seeds 5 and 23 into a
temporary directory, and every argv runs in-process through
haarcp.cli.main.  The (verb, exit code, stdout, stderr) of the jobs, in
job order, are hashed per workload and seed and compared with
tests/golden/identity.json.  Each job's output also goes through the
job's own check, against perfbench/reference.py, which imports no haarcp
code.  Spec files are written under a temporary directory, and
perfbench/ is only read.

The same run checks that no job leaves cyclic garbage: cli.main pauses
the cyclic collector for a command, which is lossless only while the
engine forms no reference cycles.  At seed 5, with numpy imported and the
parser built beforehand and automatic collection off, a generation-0
collection after each job must find nothing.

After an intended output change, regenerate the digests with

    PYTHONPATH=src python tests/test_identity.py --write

which writes nothing while any job fails its check.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from haarcp import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "identity.json"
SEEDS = (5, 23)
GARBAGE_SEED = 5


def _workloads():
    """perfbench/workloads.py, imported without writing bytecode next to it."""
    path, dont_write = str(ROOT / "perfbench"), sys.dont_write_bytecode
    sys.path.insert(0, path)
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(path)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argv by exiting
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_workloads(root: Path) -> tuple[dict[str, str], list[str], list[str]]:
    """("workload/seed" -> sha256 of its jobs' (verb, exit code, stdout,
    stderr), the failures of the jobs' own checks against
    perfbench/reference.py, the jobs at GARBAGE_SEED that left cyclic
    garbage)."""
    importlib.import_module("numpy")  # its import, like the parser's build, is outside any job
    workloads = _workloads()
    verbs = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    found, failures, garbage = {}, [], []
    cli.build_parser()
    collecting = gc.isenabled()
    gc.disable()
    try:
        for name, build in workloads.WORKLOADS.items():
            for seed in SEEDS:
                work = root / f"{name}-{seed}"
                work.mkdir()
                h = hashlib.sha256()
                for job in build(random.Random(seed), workloads.Specs(work)):
                    verb = next(a for a in job.argv if a in verbs)
                    if seed == GARBAGE_SEED:
                        gc.collect(0)
                    rc, out, err = _run(job.argv)
                    if seed == GARBAGE_SEED and (left := gc.collect(0)):
                        garbage.append(f"{name} {job.argv}: {left} objects")
                    h.update(json.dumps([verb, rc, out, err]).encode())
                    problem = job.check(rc, out)
                    if problem is not None:
                        failures.append(f"{name} seed {seed} {job.argv}: {problem}")
                found[f"{name}/{seed}"] = h.hexdigest()
    finally:
        if collecting:
            gc.enable()
    return found, failures, garbage


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return run_workloads(tmp_path_factory.mktemp("identity"))


def test_benchmark_outputs_unchanged(runs):
    found, _failures, _garbage = runs
    assert found == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_benchmark_outputs_pass_their_checks(runs):
    _found, failures, _garbage = runs
    assert failures == []


def test_benchmark_jobs_leave_no_cyclic_garbage(runs):
    _found, _failures, garbage = runs
    assert garbage == []


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        found, failures, _garbage = run_workloads(Path(tmp))
    if failures:
        sys.exit("not written: jobs fail their checks\n" + "\n".join(failures))
    GOLDEN.write_text(json.dumps(found, indent=2) + "\n", encoding="utf-8")
