"""Tiny-size smoke test of the benchmark.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402
from strokes import PLANTED, generate_strokes  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {
    "sparse-small": dict(n=800, epochs=2),
    "strokes-784": dict(n=160, n_train=96, epochs=1, model_epochs=3, batch_size=32),
    "blackbox-sw": dict(n=800, epochs=2),
}


def tiny(name, **changes):
    return dataclasses.replace(workloads.WORKLOADS[name], **{**TINY[name], **changes})


def run(w, tmp_path, trace=False):
    with workloads.Run(w, seed=3, seconds=0.0, scratch_root=str(tmp_path)) as r:
        result = r.trace() if trace else r.measure(import_s=0.0)
    result["problems"] = r.problems
    return result


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = run(tiny(name, min_precision=0.0), tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_metric_and_exact_counts(name, tmp_path):
    result = run(tiny(name, min_precision=0.0), tmp_path, trace=True)
    # `correct` includes: traced parameters equal the untraced ones bit for bit.
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for key in ("autodiff.nodes_per_explainer_step", "autodiff.nodes_per_approximator_step"):
        assert metrics[key] > 0 and metrics[key] == int(metrics[key])
    w = workloads.WORKLOADS[name]
    if w.black_box:   # central differences: one argmax call plus 2d perturbed calls
        assert metrics["baselines.model_calls_per_prior_row"] == 2 * w.d + 1
        assert metrics["trainer.checkpoint_bytes"] > 0
        assert metrics["approximators.sliced_wasserstein_ms"] > 0
    elif w.prior_method != "none":   # exact gradient: one evaluate, one gradient
        assert metrics["baselines.model_calls_per_prior_row"] == 2
        assert metrics["baselines.prior_uniform_frac"] == 0.0
    else:
        assert metrics["trainer.prior_scores_s"] == 0.0


def test_failed_gate_counts_its_minibatches(tmp_path):
    result = run(tiny("sparse-small", min_precision=1.01), tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0


def test_k_hot_gate():
    masks = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert workloads.is_k_hot(masks, 2)
    assert not workloads.is_k_hot(masks, 1)
    assert not workloads.is_k_hot(np.array([[1.0, 0.5, 0.5]]), 2)


def test_strokes_plant_the_label_in_known_pixels():
    a, b = generate_strokes(64, seed=5), generate_strokes(64, seed=5)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)
    assert all(len(p) == PLANTED for p in a.planted)
    assert not set(a.planted[0]) & set(a.planted[1])
    for c in (0, 1):
        rows = a.labels == c
        assert np.all(a.x[np.ix_(rows, a.planted[c])] > 0)
        assert np.all(a.x[np.ix_(rows, a.planted[1 - c])] == 0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "sparse-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
