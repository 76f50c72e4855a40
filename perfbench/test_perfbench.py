"""Self-test of the benchmark harness on the tiny workload (seconds per test).

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    for w in SPEC["workloads"]:
        assert w["name"] in run.WORKLOADS and len(w["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        moves = json.load(f)["per_layer"]
    assert list(moves) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(trace):
    done = bench("--workload", "tiny", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    res = last_json(done.stdout)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 5
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_output_checks_catch_broken_artifacts(tmp_path):
    wl = run.WORKLOADS["tiny"]
    ctx = run.Run("tiny", wl, 5, 1, False, str(tmp_path))
    ctx.config = str(tmp_path / "workload.ini")
    ctx.deadline = time.perf_counter() + 120
    labels = run.write_config(wl, 5, ctx.config)
    allowed = os.sched_getaffinity(0)
    try:
        chain = run.run_chain(ctx, 0, traced=False)
    finally:
        os.sched_setaffinity(0, allowed)
    assert chain.complete
    out = str(tmp_path / "chain0" / "out")
    checks, quality = run.check_outputs(wl, labels, out, ctx.logs["estimate"])
    assert all(ok for _, ok, _ in checks) and 0 < quality["window_accuracy"] <= 1

    samples = os.path.join(out, "trace_samples.csv")
    with open(samples) as f:
        lines = f.readlines()
    lines[2 + wl.order] = lines[2 + wl.order].replace(lines[2 + wl.order].split(",")[2], "")
    with open(samples, "w") as f:
        f.writelines(lines)
    assert run.artifact_hashes(out) != chain.hashes
    checks, _ = run.check_outputs(wl, labels, out, ctx.logs["estimate"])
    assert [c for c, ok, _ in checks if not ok] == ["finite estimates"]

    os.remove(os.path.join(out, "store.json"))
    checks, _ = run.check_outputs(wl, labels, out, ctx.logs["estimate"])
    assert [c for c, ok, _ in checks if not ok] == ["artifacts exist"]


def test_layer_metrics_tolerate_removed_and_uncalled_functions():
    doc = {"command": "train", "import_s": 0.2, "main_s": 0.5, "speed": 1.0,
           "wrapped": ["regression.ridge_fit", "scheduler.classify"],
           "spans": [[1, 0, "regression.ridge_fit", 1.0, 1.25, 0.0, {"flops": 10, "capped": 1}]],
           "hot": {}}
    metrics = run.LayerTotals([doc]).metrics()
    assert metrics["regression.eigen_extremes_s"] is None  # function gone
    assert metrics["scheduler.classify_calls"] == 0  # function kept but no longer called
    assert metrics["regression.ridge_fit_calls"] == 1 and metrics["regression.capped_fits"] == 1
    assert metrics["cli.train.self_s"] == pytest.approx(0.25)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = bench("--workload", "stock", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
