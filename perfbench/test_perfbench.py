"""Self-tests of the benchmark at tiny input sizes.

Run with ``python3 -m pytest perfbench`` from the checkout root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import env

env.prepare()

from perfbench.run import OUT, TRACE_SCHEMA, WorkloadRun  # noqa: E402
from perfbench.tracer import ROOT_SPAN  # noqa: E402
from spoilseg import cli  # noqa: E402

SPAN_KEYS = {"id", "name", "job", "parent", "start", "end", "self", "counts", "error"}
RUN = [sys.executable, str(env.ROOT / "perfbench" / "run.py")]


@pytest.fixture
def tiny():
    """Factory of set-up tiny workload runs, cleaned up afterwards."""
    runs = []

    def make(workload: str, trace: bool = False) -> WorkloadRun:
        run = WorkloadRun(workload, seed=5, size="tiny", trace=trace)
        runs.append(run)
        run.setup(repeats=1)
        return run

    yield make
    for run in runs:
        run.cleanup()


def _perturbing(write):
    def perturbed(label_map, path):
        labels = label_map.labels.copy()
        labels[0, 0] = labels.max() + 1
        write(type(label_map)(labels), path)

    return perturbed


def test_perturbed_label_map_fails_the_job(tiny, monkeypatch):
    tiny_run = tiny("mask-ingest")
    job = tiny_run.jobs[0]
    assert tiny_run.run_job(job)["error"] is None

    monkeypatch.setattr(cli, "write_pgm16", _perturbing(cli.write_pgm16))
    result = tiny_run.run_job(job)
    assert result["error"] is not None and "ingested0.pgm" in result["error"]


def test_perturbed_first_run_fails_the_output_check(tiny, monkeypatch):
    tiny_run = tiny("ortho-meanshift")
    monkeypatch.setattr(cli, "write_pgm16", _perturbing(cli.write_pgm16))
    job = tiny_run.jobs[0]
    assert tiny_run.run_job(job)["error"] is None  # digests alone cannot judge a first run
    tiny_run.check(reference=None)
    assert tiny_run.results[0]["error"] is not None


def test_traced_self_times_sum_to_job_wall(tiny):
    tiny_run = tiny("dsm-voronoi", trace=True)
    tiny_run.loop(0.0)
    spans = tiny_run.tracer.span_records()
    overhead = tiny_run.per_layer()["trace.overhead_s"]
    traced = [r for r in tiny_run.results if r["traced"]]
    assert traced and all(r["error"] is None for r in tiny_run.results)
    for r in traced:
        mine = [s for s in spans if s["job"] == r["job"]]
        assert abs(sum(s["self"] for s in mine) - r["wall"]) < 1e-9 * len(mine) + 1e-12
        unattributed = sum(s["self"] for s in mine if s["name"] == ROOT_SPAN)
        # the harness's own time between commands; 1 ms floors the clock noise of tiny jobs
        assert 0.0 <= unattributed <= max(abs(overhead), 1e-3)
        names = {s["name"] for s in mine}
        # names bound with `from .x import y` in cli and sweep are traced too
        assert {"cli.main", "terrain.hillshade", "sweep.run_sweep", "voronoi.voronoi_label"} <= names
    sweep = sys.modules["spoilseg.sweep"]
    assert not hasattr(sweep.voronoi_pipeline, "__wrapped__"), "tracer left a wrapper installed"


def _last_json(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_result_and_trace_file_have_fixed_schema():
    bench = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "mask-ingest", "--seed", "6", "--seconds", "0", "--size", "tiny"]

    plain = subprocess.run(RUN + args + ["--trace", "0"], capture_output=True, text=True, check=True)
    result = _last_json(plain.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}

    traced = subprocess.run(RUN + args + ["--trace", "1"], capture_output=True, text=True, check=True)
    result = _last_json(traced.stdout)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for m in bench["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

    trace = json.loads((OUT / "trace-mask-ingest-seed6.json").read_text())
    assert set(trace) == {"schema", "workload", "seed", "env", "spans"}
    assert trace["schema"] == TRACE_SCHEMA and trace["workload"] == "mask-ingest" and trace["seed"] == 6
    assert {"nproc", "python", "numpy", "scipy", "thread_caps"} <= set(trace["env"])
    ids = set()
    for s in trace["spans"]:
        assert set(s) == SPAN_KEYS
        assert isinstance(s["name"], str) and isinstance(s["job"], str) and isinstance(s["counts"], dict)
        assert s["parent"] is None or s["parent"] in ids
        assert s["end"] >= s["start"] and s["self"] >= -1e-9
        ids.add(s["id"])
    assert len(ids) == len(trace["spans"])
    assert {s["job"] for s in trace["spans"]} >= {"setup0", "setup1", "setup2"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mask-ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
