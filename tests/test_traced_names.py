"""Every function the benchmark traces per layer exists in the program.

The tracer skips a listed function the program no longer has, so a
deleted or renamed function would silently drop its per-layer metrics
from a traced run.  This reads BENCHMARK.json and never edits it.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_traced_names_resolve():
    with open(BENCHMARK) as fh:
        per_layer = json.load(fh)["per_layer"]
    names = [m["name"][:-len(".calls")] for m in per_layer
             if m["name"].endswith(".calls")]
    assert names
    missing = []
    for name in names:
        layer, _, path = name.partition(".")
        owner = importlib.import_module("miqueldyn." + layer)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []
