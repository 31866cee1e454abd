"""Spans around the public functions of the rangeloop modules, at runtime.

``Tracer.install`` replaces the module attributes that callers look up at
call time (``tensor.conv1d_circular``, ``ssm.scan_parallel``,
``optim.Adam.step``, ...) with wrappers that record one span per call: name,
start, end, parent span and workload.  The package sources are never
edited, and ``uninstall`` puts every original attribute back.

Spans are kept in memory and written out by ``write_spans`` when the run
ends.  A span's self time is its duration minus the time its child spans
cover; the workloads are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

# the modules wrapped; each is reported as <layer>.calls and <layer>.self_s
LAYERS = ("synthworld", "rangeview", "io", "pipeline", "backbone", "block",
          "ssm", "descriptor", "tensor", "training", "optim", "retrieval")

# span name -> the per-layer metrics reported for it, as <span>.<field>
SPAN_FIELDS = {
    "tensor.conv1d_circular": ("calls", "self_s", "flops"),
    "tensor.conv_vertical": ("calls", "self_s", "flops"),
    "backbone.backbone_forward": ("self_s",),
    "block.olm_stack": ("self_s",),
    "ssm.selective_ssm": ("self_s",),
    "ssm.discretize": ("self_s",),
    "ssm.scan_parallel": ("calls", "self_s", "elems"),
    "descriptor.gdg_forward": ("self_s",),
    "descriptor.netvlad_forward": ("self_s",),
    "tensor.sum_positions": ("self_s",),
    "pipeline.describe_images": ("self_s",),
    "pipeline.model_forward": ("calls", "images"),
    "tensor.backward": ("calls", "self_s"),
    "optim.Adam.step": ("calls", "self_s"),
    "training.tuple_loss": ("self_s",),
    "training.validation_f1max": ("self_s",),
    "io.save_checkpoint": ("calls", "self_s"),
    "rangeview.build_range_image": ("calls", "self_s"),
    "rangeview.compute_overlap": ("calls", "self_s", "useful_ratio"),
    "io.save_labels": ("self_s",),
    "retrieval.db_search": ("calls", "self_s"),
    "retrieval.eval_loop_closure": ("self_s",),
    "retrieval.pr_metrics": ("calls", "self_s"),
    "retrieval.recall_at": ("self_s",),
    "retrieval.eval_place_recognition": ("self_s",),
    "io.load_descriptor_db": ("self_s", "bytes"),
    "io.load_labels": ("self_s",),
}

# Accessors every tensor op calls several times; a span around each would
# cost more than the work it measures.
SKIP = {"tensor.as_tensor", "tensor.active_tape", "tensor.default_dtype"}
# synthworld only makes the benchmark's inputs; one span per generated world
ONLY = {"synthworld": {"generate_world"}}
METHODS = (("optim", "Adam", "step"),)


def _shape(x):
    return getattr(x, "data", x).shape


def _size(shape) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n


def _conv_flops(args, out):
    # one multiply and one add per kernel tap and input channel per output
    w_shape = _shape(args[1])
    return 2 * _size(_shape(out)) * w_shape[1] * w_shape[2]


# span name -> (counter name, function of (args, result) giving its increment)
COUNTERS = {
    "tensor.conv1d_circular": ("flops", _conv_flops),
    "tensor.conv_vertical": ("flops", _conv_flops),
    "ssm.scan_parallel": ("elems", lambda args, out: _size(args[0].abar.shape)),
    "pipeline.model_forward": ("images", lambda args, out: _shape(args[0])[0]),
    "rangeview.compute_overlap": ("useful", lambda args, out: int(out > 0.0)),
    "io.load_descriptor_db": ("bytes", lambda args, out: os.path.getsize(args[0])),
    "tensor.backward": ("tape_nodes", lambda args, out: len(args[1])),
}


class Tracer:
    """Records spans while installed; ``take`` returns and clears the
    per-name statistics gathered since the last call."""

    def __init__(self, workload: str):
        self.workload = workload
        self.phase = "setup"
        self.spans = []  # (phase, name, start, end, parent index)
        self._stack = []  # [span index, time covered by children]
        self._patched = []  # (owner, attribute, original)
        self._clear()

    def _clear(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.top_s = 0.0

    def take(self):
        out = (dict(self.calls), dict(self.self_s), dict(self.counters), self.top_s)
        self._clear()
        return out

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[idx] = (self.phase, name, t0, t1, parent)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.top_s += dur
            if counter is not None:
                self.counters[f"{name}.{counter[0]}"] += counter[1](args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"rangeloop.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or attr not in ONLY.get(layer, (attr,))
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._patch(mod, attr, name)
        for layer, cls, attr in METHODS:
            owner = getattr(importlib.import_module(f"rangeloop.{layer}"), cls)
            self._patch(owner, attr, f"{layer}.{cls}.{attr}")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """One JSON array per line: [phase, name, start, end, parent, workload];
        parent is the line index (0-based) of the enclosing span or -1."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps([*span, self.workload]) + "\n")


def layer_metrics(stats, n_ops: float) -> dict:
    """Per-layer metrics of SPAN_FIELDS and LAYERS, per unit of work, from
    one ``take`` of a traced phase that did n_ops units of work."""
    calls, self_s, counters, _ = stats
    out = {}
    for span, fields in SPAN_FIELDS.items():
        for field in fields:
            if field == "calls":
                value = calls.get(span, 0) / n_ops
            elif field == "self_s":
                value = self_s.get(span, 0.0) / n_ops
            elif field == "useful_ratio":
                n = calls.get(span, 0)
                value = counters.get(f"{span}.useful", 0) / n if n else 0.0
            else:
                value = counters.get(f"{span}.{field}", 0) / n_ops
            out[f"{span}.{field}"] = value
    for layer in LAYERS:
        prefix = layer + "."
        out[f"{layer}.calls"] = sum(
            v for k, v in calls.items() if k.startswith(prefix)) / n_ops
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(prefix)) / n_ops
    n_back = calls.get("tensor.backward", 0)
    out["tensor.tape_nodes"] = (
        counters.get("tensor.backward.tape_nodes", 0) / n_back if n_back else 0.0)
    return out
