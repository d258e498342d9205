"""Every benchmark job's output, pinned by digest.

Each workload of perfbench/workloads.py is built at seeds 5 and 23 into a
temporary directory, and every argv runs in-process through
haarcp.cli.main.  The (verb, exit code, stdout, stderr) of the jobs, in
job order, are hashed per workload and seed and compared with
tests/golden/identity.json.  Each job's output also goes through the
job's own check, against perfbench/reference.py, which imports no haarcp
code.  Spec files are written under a temporary directory, and
perfbench/ is only read.

After an intended output change, regenerate the digests with

    PYTHONPATH=src python tests/test_identity.py --write

which writes nothing while any job fails its check.
"""

from __future__ import annotations

import contextlib
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


def run_workloads(root: Path) -> tuple[dict[str, str], list[str]]:
    """("workload/seed" -> sha256 of its jobs' (verb, exit code, stdout,
    stderr), the failures of the jobs' own checks against
    perfbench/reference.py)."""
    workloads = _workloads()
    verbs = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    found, failures = {}, []
    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            work = root / f"{name}-{seed}"
            work.mkdir()
            h = hashlib.sha256()
            for job in build(random.Random(seed), workloads.Specs(work)):
                verb = next(a for a in job.argv if a in verbs)
                rc, out, err = _run(job.argv)
                h.update(json.dumps([verb, rc, out, err]).encode())
                problem = job.check(rc, out)
                if problem is not None:
                    failures.append(f"{name} seed {seed} {job.argv}: {problem}")
            found[f"{name}/{seed}"] = h.hexdigest()
    return found, failures


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("HAARCP_CAP", raising=False)
        return run_workloads(tmp_path_factory.mktemp("identity"))


def test_benchmark_outputs_unchanged(runs):
    found, _failures = runs
    assert found == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_benchmark_outputs_pass_their_checks(runs):
    _found, failures = runs
    assert failures == []


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("HAARCP_CAP", None)
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        found, failures = run_workloads(Path(tmp))
    if failures:
        sys.exit("not written: jobs fail their checks\n" + "\n".join(failures))
    GOLDEN.write_text(json.dumps(found, indent=2) + "\n", encoding="utf-8")
