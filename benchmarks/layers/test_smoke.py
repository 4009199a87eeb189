"""Smoke test of the layered benchmark (``pytest benchmarks/layers -q``; it
is outside tier-1's ``testpaths``): a ``--smoke`` run emits every workload
and metric that ``BENCHMARK.json`` names, finite and with a unit."""

from __future__ import annotations

import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

from benchmarks.layers.metrics import END_TO_END, PER_LAYER

PACKAGE = pathlib.Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    subprocess.run([sys.executable, "-m", "benchmarks.layers", "--smoke"],
                   cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return json.loads((PACKAGE / "out" / "results.json").read_text())


def test_benchmark_json_matches_the_metric_tables(declared):
    assert declared["paths"] == ["benchmarks/layers"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [tuple(m[:3]) for m in PER_LAYER]


def test_every_declared_name_is_emitted_finite_with_a_unit(declared, results):
    assert list(results["workloads"]) == [w["name"] for w in declared["workloads"]]
    for name, record in results["workloads"].items():
        assert NAME.fullmatch(name)
        assert record["failed"] == 0 and record["failed_share"] == 0
        assert record["lost_acked_writes"] == 0
        assert "trace_overhead_share" in record["trace"]
        assert (PACKAGE / "out" / f"trace_{name}.json").exists()
        for metric in declared["end_to_end"]:
            assert NAME.fullmatch(metric["name"])
            assert math.isfinite(record["end_to_end"][metric["name"]]["value"])
    for metric in declared["per_layer"]:
        entry = results["per_layer"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert math.isfinite(entry["value"]) and entry["unit"] == metric["unit"]
    assert results["probes"]["failed"] == 0
    assert results["per_layer"]["core.fsyncs_per_write"]["value"] >= 1.0


def test_output_directory_is_ignored():
    assert "out/" in (PACKAGE / ".gitignore").read_text().split()
