"""Span tracing for the traced benchmark run.

Wrappers are installed from here, over the module attributes through which
the program's callers look its functions up (``cosfuse.fuse.cosparse_code_many``
is the name ``fuse.py`` calls, ``cosfuse.learn.cosparse_code_many`` the one
``learn.train`` calls). The program itself is not edited. Each wrapped call
becomes one span record: name, start, end, span id, parent span id and run
id (the index of the benchmark round), plus counters taken from the call's
arguments and return value. Records stay in memory and are written as JSON
lines once the timed part is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# Columns sampled from each coding call for the exact-step oracle.
ORACLE_COLUMNS_PER_CALL = 2

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("linalg.sym_eig.calls", "count"), ("linalg.sym_eig.s", "s"),
    ("linalg.spectral_norm_sq.calls", "count"), ("linalg.spectral_norm_sq.s", "s"),
    ("linalg.load_matrix_text.s", "s"),
    ("learn.code.calls", "count"), ("learn.code.columns", "count"),
    ("learn.code.s", "s"), ("learn.code.admm_iters", "count"),
    ("learn.code.admm_iters_max", "count"), ("learn.code.nonconverged", "count"),
    ("learn.code.oracle_gap", "ratio"),
    ("learn.update_row.calls", "count"), ("learn.update_row.empty_set", "count"),
    ("learn.update_row.s", "s"), ("learn.train.s", "s"),
    ("learn.train.cosparsity", "rows"),
    ("patches.extract.calls", "count"), ("patches.extract.s", "s"),
    ("patches.overlap_add.calls", "count"), ("patches.overlap_add.s", "s"),
    ("fuse.local.s", "s"), ("fuse.global.s", "s"), ("fuse.global.rounds", "count"),
    ("metrics.q_mi.s", "s"), ("metrics.q_abf.s", "s"), ("metrics.psnr.s", "s"),
    ("imageio.read_pgm.s", "s"), ("imageio.read_pgm.bytes", "bytes"),
    ("imageio.write_pgm.s", "s"), ("imageio.write_pgm.bytes", "bytes"),
    ("imageio.add_noise.s", "s"),
    ("cli.main.s", "s"), ("output.psnr_db", "dB"), ("trace.overhead.s", "s"),
]


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Installs span wrappers and collects their records."""

    def __init__(self):
        self.records = []
        self.oracle_samples = []
        self._oracle_run = None
        self.run_id = 0
        self._stack = []
        self._next_id = 1
        self._installed = []

    # -- installation -----------------------------------------------------

    def _wrap(self, module, attr, name, counters=None):
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.records.append({
                    "name": name, "start": start, "end": end,
                    "span": span_id, "parent": parent, "run": tracer.run_id,
                })
            if counters is not None:
                tracer.records[-1]["counters"] = counters(fn, args, kwargs, result)
            return result

        self._installed.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def install(self):
        """Wrap the public function of every layer under its caller's name."""
        # importlib, because the package attribute ``cosfuse.fuse`` is the
        # fuse() function, not the module.
        cli, fuse, imageio, learn, metrics = (
            importlib.import_module(f"cosfuse.{name}")
            for name in ("cli", "fuse", "imageio", "learn", "metrics"))
        self._wrap(cli, "main", "cli.main")
        self._wrap(cli, "train", "learn.train", _train_counters)
        self._wrap(learn, "cosparse_code_many", "learn.code", self._code_counters)
        self._wrap(fuse, "cosparse_code_many", "learn.code", self._code_counters)
        self._wrap(learn, "update_row", "learn.update_row", _update_row_counters)
        self._wrap(learn, "sym_eig_smallest", "linalg.sym_eig")
        self._wrap(learn, "spectral_norm_sq", "linalg.spectral_norm_sq")
        self._wrap(fuse, "spectral_norm_sq", "linalg.spectral_norm_sq")
        self._wrap(learn, "load_matrix_text", "linalg.load_matrix_text")
        self._wrap(fuse, "extract_matrix", "patches.extract")
        self._wrap(fuse, "overlap_add_matrix", "patches.overlap_add")
        self._wrap(fuse, "local_fuse", "fuse.local")
        self._wrap(fuse, "_global_impl", "fuse.global", _global_counters)
        for attr in ("q_mi", "q_abf", "psnr"):
            self._wrap(metrics, attr, f"metrics.{attr}")
        self._wrap(imageio, "read_pgm", "imageio.read_pgm",
                   lambda fn, args, kwargs, result: {"bytes": len(args[0])})
        self._wrap(imageio, "write_pgm", "imageio.write_pgm",
                   lambda fn, args, kwargs, result: {"bytes": len(result)})
        self._wrap(imageio, "add_gaussian_noise", "imageio.add_noise")

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- counters ---------------------------------------------------------

    def _code_counters(self, fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        op, Y, cfg = a["op"], np.asarray(a["Y"], dtype=np.float64), a["cfg"]
        X, _, _, residuals, iterations = result
        # Rounds repeat the same calls, so the first traced round's samples
        # cover them all.
        if self._oracle_run is None:
            self._oracle_run = self.run_id
        if self.run_id == self._oracle_run:
            cols = np.unique(np.linspace(0, Y.shape[1] - 1,
                                         ORACLE_COLUMNS_PER_CALL).astype(int))
            self.oracle_samples.append((op.matrix.copy(), Y[:, cols].copy(),
                                        X[:, cols].copy(), cfg.lam, cfg.mu))
        return {
            "columns": int(Y.shape[1]),
            "admm_iters": int(iterations.sum()),
            "admm_iters_max": int(iterations.max()),
            "nonconverged": int(np.sum(residuals > cfg.admm_tol)),
        }

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.records:
                fh.write(json.dumps(r) + "\n")


def _train_counters(fn, args, kwargs, result):
    _, report = result
    return {"cosparsity": report.mean_cosparsity_per_sweep[-1]}


def _update_row_counters(fn, args, kwargs, result):
    # Recomputes the orthogonal column set from the call's own arguments.
    a = _bound(fn, args, kwargs)
    scores = a["op"].matrix[a["j"]] @ np.asarray(a["X"], dtype=np.float64)
    return {"empty_set": int(not np.any(np.abs(scores) <= a["cfg"].cosupport_tol))}


def _global_counters(fn, args, kwargs, result):
    _, diag = result
    return {"rounds": int(diag["global_rounds_run"])}


def per_run_layers(records):
    """Per-layer self times and counters for each run id.

    A span's self time is its duration minus the durations of its direct
    children (spans nest strictly, the program being single-threaded).
    Counters are summed over calls, except ``*_max`` which keeps the largest.
    Returns {run id: {metric name: value}}.
    """
    child_time = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            child_time[r["parent"]] += r["end"] - r["start"]
    runs = defaultdict(lambda: defaultdict(float))
    for r in records:
        m = runs[r["run"]]
        m[f"{r['name']}.s"] += (r["end"] - r["start"]) - child_time[r["span"]]
        m[f"{r['name']}.calls"] += 1
        for key, value in r.get("counters", {}).items():
            metric = f"{r['name']}.{key}"
            if key.endswith("_max"):
                m[metric] = max(m[metric], value)
            else:
                m[metric] += value
    return runs


def layer_metrics(trace_path, traced_rounds):
    """Per-layer metrics from a span file: for each metric, the median over
    the traced rounds of its per-round value.

    Also returns a problem for every round whose span self times add up to
    more than the round's wall time. ``learn.train.cosparsity`` is the mean
    over the round's trainings.
    """
    with open(trace_path, encoding="utf-8") as fh:
        per_run = per_run_layers([json.loads(line) for line in fh])
    problems = []
    for r in traced_rounds:
        layers = per_run[r["run"]]
        self_total = sum(v for k, v in layers.items() if k.endswith(".s"))
        wall = sum(r["seconds"].values())
        if self_total > wall:
            problems.append(f"round {r['run']}: span self times {self_total:.4f}s "
                            f"exceed the round's {wall:.4f}s")
        calls = layers["learn.train.calls"]
        layers["learn.train.cosparsity"] = (
            layers["learn.train.cosparsity"] / calls if calls else 0.0)
    values = {name: statistics.median(per_run[r["run"]][name] for r in traced_rounds)
              for name, _ in PER_LAYER}
    return values, problems
