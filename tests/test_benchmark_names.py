"""The traced benchmark looks functions up by name: keep those names alive.

perfbench/run.py --trace 1 reads per-function metrics and the ROADMAP rows
by "layer.function" names.  Renaming or deleting one of those functions
crashes the traced run, so every such name must stay a public function
defined in its haarcp module.  The files are only read, never changed.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def benchmark_names() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] == "self_s":
            names.add(f"{parts[0]}.{parts[1]}")
    return names


def roadmap_row_names() -> set[str]:
    text = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    block = re.search(r"^ROADMAP_ROWS = \[\n(.*?)^\]", text, re.S | re.M)
    assert block, "ROADMAP_ROWS not found in perfbench/run.py"
    return set(re.findall(r'"([a-z_]+\.[a-z_0-9]+)"', block.group(1)))


def test_names_found():
    assert "groups.derived_subgroup" in benchmark_names()
    assert {"groups.derived_subgroup_of", "builders.symmetric"} <= roadmap_row_names()


@pytest.mark.parametrize("name", sorted(benchmark_names() | roadmap_row_names()))
def test_traced_function_exists(name):
    layer, function = name.split(".")
    module = importlib.import_module(f"haarcp.{layer}")
    obj = getattr(module, function, None)
    assert inspect.isfunction(obj), f"haarcp.{name} is not a function"
    assert obj.__module__ == module.__name__, f"haarcp.{name} is not defined in its module"
    assert not function.startswith("_")
