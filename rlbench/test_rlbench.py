"""Tests of the benchmark itself: the output schema, every workload and
metric name that BENCHMARK.json must list, the span bookkeeping and the
trajectory generator.

    python3 -m pytest -q rlbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402
from trajectory import make_trajectory  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

WORKLOAD_NAMES = ["embed_paper", "train_small", "label_world", "loop_eval"]
END_TO_END_NAMES = ["ops_per_s", "setup_s", "peak_rss_mb"]
# every per-layer metric the benchmark promises, by the end-to-end metric
# and workload it should move
PER_LAYER_NAMES = [
    # embed_paper: scans per second
    "tensor.conv1d_circular.calls", "tensor.conv1d_circular.self_s",
    "tensor.conv1d_circular.flops", "tensor.conv_vertical.calls",
    "tensor.conv_vertical.self_s", "tensor.conv_vertical.flops",
    "backbone.backbone_forward.self_s", "block.olm_stack.self_s",
    "ssm.selective_ssm.self_s", "ssm.discretize.self_s",
    "ssm.scan_parallel.calls", "ssm.scan_parallel.self_s", "ssm.scan_parallel.elems",
    "descriptor.gdg_forward.self_s", "descriptor.netvlad_forward.self_s",
    "tensor.sum_positions.self_s", "pipeline.describe_images.self_s",
    "pipeline.model_forward.calls", "pipeline.model_forward.images",
    # train_small: steps per second
    "tensor.tape_nodes", "tensor.backward.calls", "tensor.backward.self_s",
    "optim.Adam.step.calls", "optim.Adam.step.self_s",
    "training.tuple_loss.self_s", "training.validation_f1max.self_s",
    "training.active_step_ratio", "io.save_checkpoint.calls",
    "io.save_checkpoint.self_s",
    # peak RSS
    "training.step.alloc_peak_mb", "pipeline.describe_images.alloc_peak_mb",
    # label_world: pairs per second
    "rangeview.build_range_image.calls", "rangeview.build_range_image.self_s",
    "rangeview.compute_overlap.calls", "rangeview.compute_overlap.self_s",
    "rangeview.compute_overlap.useful_ratio", "io.save_labels.self_s",
    # loop_eval: queries per second
    "retrieval.db_search.calls", "retrieval.db_search.self_s",
    "retrieval.eval_loop_closure.self_s", "retrieval.pr_metrics.calls",
    "retrieval.pr_metrics.self_s", "retrieval.recall_at.self_s",
    "retrieval.eval_place_recognition.self_s", "io.load_descriptor_db.self_s",
    "io.load_descriptor_db.bytes", "io.load_labels.self_s",
    # set-up
    "synthworld.generate_world.self_s",
    # the tracing itself
    "trace.coverage", "trace.overhead_frac",
]
LAYER_NAMES = ["synthworld", "rangeview", "io", "pipeline", "backbone", "block",
               "ssm", "descriptor", "tensor", "training", "optim", "retrieval"]


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _per_layer_names():
    names = set(PER_LAYER_NAMES)
    for layer in LAYER_NAMES:
        names |= {f"{layer}.calls", f"{layer}.self_s"}
    return names


def test_benchmark_json_lists_every_pinned_name():
    bench = _benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "rlbench/run.py"]
    assert bench["paths"] == ["rlbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == WORKLOAD_NAMES
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert list(e2e) == END_TO_END_NAMES
    for m in e2e.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert list(LAYERS) == LAYER_NAMES
    assert {m["name"] for m in bench["per_layer"]} == _per_layer_names()
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("higher", "lower")
    names = [m["name"] for m in bench["workloads"] + bench["end_to_end"]
             + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert len(bench["per_layer"]) <= 128


def test_self_time_excludes_children():
    import time

    from rangeloop import io

    tracer = Tracer("unit")
    original = io.save_labels
    tracer.install()
    assert io.save_labels is not original
    wrapped_inner = tracer._wrap("inner", lambda: time.sleep(0.05))

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    tracer._wrap("outer", outer)()
    tracer.uninstall()
    assert io.save_labels is original
    calls, self_s, _, top_s = tracer.take()
    assert calls == {"outer": 1, "inner": 1}
    assert self_s["inner"] >= 0.05
    # with the child's time counted, outer would read at least 0.07 s
    assert 0.02 <= self_s["outer"] < 0.05
    assert top_s == pytest.approx(self_s["outer"] + self_s["inner"])
    (_, n_out, s0, e0, p0), (_, n_in, s1, e1, p1) = tracer.spans
    assert (n_out, p0, n_in, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0


def test_kernel_counters_and_layer_totals():
    from rangeloop import tensor as tt

    tracer = Tracer("unit")
    tracer.install()
    try:
        x = tt.Tensor(np.ones((2, 3, 10)))
        w = tt.Tensor(np.ones((4, 3, 5)))
        tt.conv1d_circular(x, w)
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer.take(), n_ops=2)
    assert m["tensor.conv1d_circular.calls"] == 0.5
    assert m["tensor.conv1d_circular.flops"] == 2 * (2 * 4 * 10) * 3 * 5 / 2
    assert m["tensor.calls"] >= m["tensor.conv1d_circular.calls"]
    assert m["retrieval.db_search.calls"] == 0


def test_trajectory_is_seeded_round_major_and_confusable():
    from rangeloop import retrieval as rt

    a = make_trajectory(3, n_places=60)
    b = make_trajectory(3, n_places=60)
    assert np.array_equal(a.descriptors, b.descriptors) and a.labels == b.labels
    assert not np.array_equal(make_trajectory(4, n_places=60).descriptors,
                              a.descriptors)
    assert a.place_ids.tolist() == list(range(60)) * 4
    assert np.allclose(np.linalg.norm(a.descriptors, axis=1), 1.0)
    # every pair of visits of a place: 4 * 3 / 2 per place
    assert len(a.labels) == 60 * 6
    assert all(a.place_ids[lab.query] == a.place_ids[lab.cand] for lab in a.labels)
    db = rt.DescriptorDb(a.ids, a.descriptors)
    report = rt.eval_loop_closure(db, a.labels, rt.EvalProtocol(window=20))
    assert report.n_positive_queries > 0
    assert 0.0 < report.auc < 1.0


def _run(args, cwd):
    return subprocess.run([sys.executable, "rlbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_traced_run_prints_every_per_layer_metric():
    out = _run(["--workload", "label_world", "--seed", "7", "--seconds", "1",
                "--trace", "1"], ROOT)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == _per_layer_names()
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["rangeview.compute_overlap.calls"] == 1.0
    assert m["rangeview.compute_overlap.useful_ratio"] == 150 / (150 * 149 / 2)
    assert m["trace.coverage"] >= 0.9
    assert m["tensor.backward.calls"] == 0


def test_untraced_run_prints_every_end_to_end_metric():
    out = _run(["--workload", "loop_eval", "--seed", "7", "--seconds", "1",
                "--trace", "0"], ROOT)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert list(res["metrics"]) == END_TO_END_NAMES
    units = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    for name, m in res["metrics"].items():
        assert m["unit"] == units[name] and m["value"] > 0
    assert "eval_queries_per_s = " in out.stdout
    assert "failed_frac = 0.0 " in out.stdout
    assert re.search(r'^fingerprint \{.*"blas_threads"', out.stdout, re.M)


def test_address_space_cap_turns_a_blow_up_into_memory_error():
    import run

    code = f"import numpy as np; np.ones({run.ADDRESS_SPACE_CAP // 8})"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, preexec_fn=run._cap_address_space)
    assert out.returncode != 0 and "MemoryError" in out.stderr


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "rlbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run(["--workload", "loop_eval", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
