"""Every benchmark job's output, pinned by digest.

Each workload of perfbench/workloads.py is built at seeds 5 and 23 into a
temporary directory, and every argv runs in-process through
haarcp.cli.main.  The (verb, exit code, stdout, stderr) of the jobs, in
job order, are hashed per workload and seed and compared with
tests/golden/identity.json.  Spec files are written under tmp_path, and
perfbench/ is only read.

After an intended output change, regenerate the digests with

    PYTHONPATH=src python tests/test_identity.py --write
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


def digests(root: Path) -> dict[str, str]:
    """"workload/seed" -> sha256 of its jobs' (verb, exit code, stdout, stderr)."""
    workloads = _workloads()
    verbs = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    found = {}
    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            work = root / f"{name}-{seed}"
            work.mkdir()
            h = hashlib.sha256()
            for job in build(random.Random(seed), workloads.Specs(work)):
                verb = next(a for a in job.argv if a in verbs)
                h.update(json.dumps([verb, *_run(job.argv)]).encode())
            found[f"{name}/{seed}"] = h.hexdigest()
    return found


def test_benchmark_outputs_unchanged(tmp_path, monkeypatch):
    monkeypatch.delenv("HAARCP_CAP", raising=False)
    assert digests(tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("HAARCP_CAP", None)
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(Path(tmp)), indent=2) + "\n", encoding="utf-8")
