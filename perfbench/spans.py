"""Spans around the public functions of the bettinet layers.

``install`` replaces the listed functions in every ``bettinet`` module that
holds them with wrappers that record a span: name, start, end, parent span,
process and operation id, plus a few counts read from the arguments and the
result.  Spans stay in memory and are written to ``spans-<pid>.jsonl`` in the
trace directory when the process finishes (``flush``).  Pool workers write
theirs at the end of each task, so the parent's spans and the workers' spans
meet in one directory.  Nothing under ``src/`` is changed.

``aggregate`` (pure Python, no numpy) turns the span files of one pass into
the per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# layer -> public functions wrapped in that module
WRAPPED = {
    "cli": ("main",),
    "data": ("load_idx_dataset", "load_csv_points"),
    "mlp": (
        "build_network",
        "train_sgd",
        "forward",
        "evaluate_accuracy",
        "extract_class_activations",
        "load_checkpoint",
    ),
    "advisor": ("width_sweep", "layer_profile"),
    "homology": (
        "rips_persistence",
        "build_rips",
        "compute_persistence",
        "pairwise_distances",
        "enclosing_radius",
        "betti_curve",
        "barcode_to_text",
        "barcode_svg",
    ),
    "semialgebraic": (
        "cover_report",
        "solve_relu_boundary",
        "sample_boundary",
        "verify_ambiguity",
        "compose_logit_polynomials",
    ),
    "bounds": ("layer_bound_profile", "min_width_for", "log10_of_int"),
}
LAYERS = tuple(WRAPPED)

# (name, unit, better) of every metric a traced run prints
LAYER_METRICS = [
    ("cli.cpu_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("data.load_idx_dataset.s", "s", "lower"),
    ("data.idx_bytes", "bytes", "lower"),
    ("data.load_csv_points.s", "s", "lower"),
    ("data.csv_rows", "count", "lower"),
    ("mlp.train_sgd.s", "s", "lower"),
    ("mlp.train_sgd.calls", "count", "lower"),
    ("mlp.sgd_steps", "count", "lower"),
    ("mlp.train_rows_per_s", "rows/s", "higher"),
    ("mlp.forward.s", "s", "lower"),
    ("mlp.forward.calls", "count", "lower"),
    ("mlp.forward.rows", "count", "lower"),
    ("mlp.extract_class_activations.s", "s", "lower"),
    ("mlp.evaluate_accuracy.s", "s", "lower"),
    ("mlp.diverged", "count", "lower"),
    ("advisor.width_sweep.s", "s", "lower"),
    ("advisor.layer_profile.s", "s", "lower"),
    ("advisor.layer_profile.self_s", "s", "lower"),
    ("advisor.clouds", "count", "lower"),
    ("advisor.points", "count", "lower"),
    ("advisor.pool_tasks", "count", "lower"),
    ("homology.rips_persistence.s", "s", "lower"),
    ("homology.rips_persistence.calls", "count", "lower"),
    ("homology.rips_persistence.p50_s", "s", "lower"),
    ("homology.rips_persistence.tail_s", "s", "lower"),
    ("homology.build_rips.s", "s", "lower"),
    ("homology.compute_persistence.s", "s", "lower"),
    ("homology.pairwise_distances.s", "s", "lower"),
    ("homology.enclosing_radius.s", "s", "lower"),
    ("homology.betti_curve.s", "s", "lower"),
    ("homology.barcode_to_text.s", "s", "lower"),
    ("homology.barcode_svg.s", "s", "lower"),
    ("homology.simplices.d0", "count", "lower"),
    ("homology.simplices.d1", "count", "lower"),
    ("homology.simplices.d2", "count", "lower"),
    ("homology.simplices.d3", "count", "lower"),
    ("homology.simplices_per_s", "1/s", "higher"),
    ("homology.filtration_mb", "MB_computed", "lower"),
    ("homology.pairs", "count", "lower"),
    ("homology.essential", "count", "lower"),
    ("homology.bars", "count", "lower"),
    ("homology.useful_pair_frac", "frac", "higher"),
    ("semialgebraic.cover_report.s", "s", "lower"),
    ("semialgebraic.solve_relu_boundary.s", "s", "lower"),
    ("semialgebraic.solve_relu_boundary.calls", "count", "lower"),
    ("semialgebraic.rank_errors", "count", "lower"),
    ("semialgebraic.sample_boundary.s", "s", "lower"),
    ("semialgebraic.sample_attempts", "count", "lower"),
    ("semialgebraic.sample_points", "count", "higher"),
    ("semialgebraic.sample_accept_frac", "frac", "higher"),
    ("semialgebraic.empty_regions", "count", "lower"),
    ("semialgebraic.verify_ambiguity.s", "s", "lower"),
    ("semialgebraic.verify_ambiguity.calls", "count", "lower"),
    ("semialgebraic.verify_pass_frac", "frac", "higher"),
    ("semialgebraic.compose_logit_polynomials.s", "s", "lower"),
    ("semialgebraic.monomials", "count", "lower"),
    ("bounds.layer_bound_profile.s", "s", "lower"),
    ("bounds.layer_bound_profile.calls", "count", "lower"),
    ("bounds.min_width_for.s", "s", "lower"),
    ("bounds.min_width_for.calls", "count", "lower"),
    ("bounds.errors", "count", "lower"),
    ("bounds.max_digits", "count", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.startup_s", "s", "lower"),
    ("trace.bench_s", "s", "lower"),
    ("trace.exit_s", "s", "lower"),
    ("trace.layer_frac", "frac", "higher"),
    ("trace.worker_busy_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.unseen_spans", "count", "lower"),
    ("trace.open_spans", "count", "lower"),
]
COUNT_UNITS = ("count", "bytes")

_RECORDER = None


# ---------------------------------------------------------------------------
# counts read at the span boundary
# ---------------------------------------------------------------------------


def _file_bytes(directory, split):
    prefix = "train-" if split == "train" else "t10k-"
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.name.startswith(prefix))


def _barcode_counts(bc):
    finite = sum(1 for ivs in bc.intervals.values() for iv in ivs if iv.death is not None)
    return {
        "pairs": bc.paired_count,
        "essential": bc.essential_count,
        "bars": sum(len(ivs) for ivs in bc.intervals.values()),
        "useful": finite,
    }


def _digits(value):
    # decimal digits from the bit length: str() is what fails on wide bounds
    return int((value.bit_length() - 1) * math.log10(2)) + 1 if value > 0 else 1


def _counts(name, args, kwargs, result):
    if name == "data.load_idx_dataset":
        split = kwargs.get("split", args[1] if len(args) > 1 else "train")
        return {"bytes": _file_bytes(args[0], split)}
    if name == "data.load_csv_points":
        return {"rows": len(result[0])}
    if name == "mlp.train_sgd":
        dataset, config = args[1], args[2]
        n = len(dataset)
        return {"rows": config.epochs * n, "steps": config.epochs * -(-n // config.batch_size)}
    if name == "mlp.forward":
        batch = args[1] if len(args) > 1 else kwargs["batch"]
        return {"rows": len(batch) if getattr(batch, "ndim", 2) > 1 else 1}
    if name == "mlp.extract_class_activations":
        return {"rows": len(result.activations)}
    if name == "advisor.layer_profile":
        return {"clouds": len(result.curves)}
    if name == "homology.build_rips":
        arrays = list(result.verts_by_dim) + list(result.births_by_dim)
        return {"simplices": list(result.counts()), "mb": sum(a.nbytes for a in arrays) / 1e6}
    if name == "homology.rips_persistence":
        return _barcode_counts(result)
    if name == "semialgebraic.sample_boundary":
        return {"attempts": result.attempts, "points": len(result.points)}
    if name == "semialgebraic.verify_ambiguity":
        return {"ok": bool(result[0])}
    if name == "semialgebraic.compose_logit_polynomials":
        return {"monomials": sum(len(p) for p in result)}
    if name == "bounds.layer_bound_profile":
        return {"digits": max((_digits(v) for v in result.entries.values()), default=1)}
    return None


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


class Recorder:
    """Spans of one process, kept in memory until ``flush``."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.root_parent = None
        self.ids = itertools.count()
        self.op = None
        self.op_ids = itertools.count()
        self.dispatched = 0

    def after_fork(self):
        # a forked worker starts with no open spans of its own; its root spans
        # hang under the span that was open in the parent when it forked
        self.root_parent = self.stack[-1] if self.stack else self.root_parent
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.dispatched = 0

    def new_op(self):
        self.op = f"{self.pid}:{next(self.op_ids)}"

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = f"{self.pid}:{next(self.ids)}"
            parent = self.stack[-1] if self.stack else self.root_parent
            if name == "mlp.build_network":
                self.new_op()  # a sweep row starts with its network
            self.stack.append(sid)
            error = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.monotonic()
                self.stack.pop()
                span = {"id": sid, "parent": parent, "op": self.op, "name": name,
                        "pid": self.pid, "start": start, "end": end}
                if error:
                    span["error"] = error
                self.spans.append(span)
            counts = _counts(name, args, kwargs, result)
            if counts:
                span.update(counts)
            return result

        return traced

    def flush(self, meta=None):
        lines = [json.dumps(s) for s in self.spans]
        if meta is not None:
            lines.append(json.dumps({"meta": meta}))
        if lines:
            with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as f:
                f.write("\n".join(lines) + "\n")
        self.spans = []


class _PoolTask:
    """Picklable task wrapper: records the task as a span in the worker and
    flushes the worker's spans when the task ends."""

    def __init__(self, fn, parent, out_dir):
        self.fn, self.parent, self.out_dir = fn, parent, out_dir

    def __call__(self, *args, **kwargs):
        rec = _RECORDER
        if rec is None or rec.pid != os.getpid():
            rec = install(self.out_dir)  # a worker started without fork
        rec.root_parent = self.parent
        try:
            return rec.wrap("advisor.pool_task", self.fn)(*args, **kwargs)
        finally:
            rec.flush()


class TracedPool(ProcessPoolExecutor):
    """Process pool that counts dispatched tasks and traces them in workers."""

    def submit(self, fn, /, *args, **kwargs):
        rec = _RECORDER
        rec.dispatched += 1
        parent = rec.stack[-1] if rec.stack else None
        return super().submit(_PoolTask(fn, parent, str(rec.out_dir)), *args, **kwargs)


def _bettinet_modules():
    import importlib

    return {layer: importlib.import_module(f"bettinet.{layer}") for layer in LAYERS}


def install(out_dir):
    """Wrap every listed function wherever a bettinet module refers to it."""
    global _RECORDER
    rec = Recorder(out_dir)
    if _RECORDER is None:
        os.register_at_fork(after_in_child=lambda: _RECORDER and _RECORDER.after_fork())
    _RECORDER = rec
    modules = _bettinet_modules()
    for layer, names in WRAPPED.items():
        for fname in names:
            original = getattr(modules[layer], fname)
            wrapped = rec.wrap(f"{layer}.{fname}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    modules["advisor"].ProcessPoolExecutor = TracedPool
    return rec


def new_op():
    if _RECORDER is not None:
        _RECORDER.new_op()


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark's parent process)
# ---------------------------------------------------------------------------


def read_spans(trace_dir):
    spans, metas = [], []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            (metas.append(rec["meta"]) if "meta" in rec else spans.append(rec))
    return spans, metas


def _self_times(spans):
    """Self time per span: its duration minus the direct children in the
    same process (a worker's spans never count against the waiting parent)."""
    child_time = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def aggregate(processes):
    """Per-layer metrics of one traced pass.

    ``processes`` holds one dict per traced child process: its wall, cpu,
    out_bytes, spawn time and the spans of the process and of its workers.
    """
    acc = {name: 0.0 for name, _, _ in LAYER_METRICS}
    rips_durations = []
    filtration_mb = 0.0
    max_digits = 0
    useful = verify_ok = 0
    train_rows = 0
    for proc in processes:
        spans, meta = proc["spans"], proc["meta"]
        main_pid = meta["pid"]
        selfs = _self_times(spans)
        by_id = {s["id"]: s for s in spans}
        acc["cli.cpu_s"] += proc["cpu_s"]
        acc["cli.out_bytes"] += proc["out_bytes"]
        acc["cli.import_s"] += meta["t_imported"] - meta["t_start"]
        acc["trace.wall_s"] += proc["wall_s"]
        acc["trace.startup_s"] += meta["t_start"] - proc["t_spawn"]
        acc["trace.exit_s"] += proc["t_exit"] - meta["t_end"]
        acc["trace.spans"] += len(spans)
        acc["trace.open_spans"] += meta["open_spans"]
        tasks = sum(1 for s in spans if s["name"] == "advisor.pool_task")
        acc["trace.unseen_spans"] += meta["dispatched"] - tasks
        acc["advisor.pool_tasks"] += meta["dispatched"]
        roots = 0.0
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            layer, _, func = name.partition(".")
            parent = by_id.get(s["parent"])
            if s["pid"] == main_pid:
                acc[f"{layer}.self_s"] += selfs[s["id"]]
                if parent is None:
                    roots += dur
            elif parent is None or parent["pid"] != s["pid"]:
                acc["trace.worker_busy_s"] += dur
            if f"{name}.s" in acc:
                acc[f"{name}.s"] += dur
            if f"{name}.self_s" in acc:
                acc[f"{name}.self_s"] += selfs[s["id"]]
            if f"{name}.calls" in acc:
                acc[f"{name}.calls"] += 1
            if name == "data.load_idx_dataset":
                acc["data.idx_bytes"] += s.get("bytes", 0)
            elif name == "data.load_csv_points":
                acc["data.csv_rows"] += s.get("rows", 0)
            elif name == "mlp.train_sgd":
                acc["mlp.sgd_steps"] += s.get("steps", 0)
                train_rows += s.get("rows", 0)
                acc["mlp.diverged"] += s.get("error") == "TrainingDivergedError"
            elif name == "mlp.forward":
                acc["mlp.forward.rows"] += s.get("rows", 0)
            elif name == "mlp.extract_class_activations":
                acc["advisor.points"] += s.get("rows", 0)
            elif name == "advisor.layer_profile":
                acc["advisor.clouds"] += s.get("clouds", 0)
            elif name == "homology.build_rips":
                for d, c in enumerate(s.get("simplices", [])):
                    acc[f"homology.simplices.d{d}"] += c
                filtration_mb = max(filtration_mb, s.get("mb", 0.0))
            elif name == "homology.rips_persistence":
                rips_durations.append(dur)
                acc["homology.pairs"] += s.get("pairs", 0)
                acc["homology.essential"] += s.get("essential", 0)
                acc["homology.bars"] += s.get("bars", 0)
                useful += s.get("useful", 0)
            elif name == "semialgebraic.solve_relu_boundary":
                acc["semialgebraic.rank_errors"] += s.get("error") == "RankDeficiencyError"
            elif name == "semialgebraic.sample_boundary":
                acc["semialgebraic.sample_attempts"] += s.get("attempts", 0)
                acc["semialgebraic.sample_points"] += s.get("points", 0)
                acc["semialgebraic.empty_regions"] += s.get("points", 1) == 0
            elif name == "semialgebraic.verify_ambiguity":
                verify_ok += s.get("ok", False)
            elif name == "semialgebraic.compose_logit_polynomials":
                acc["semialgebraic.monomials"] += s.get("monomials", 0)
            elif name == "bounds.layer_bound_profile":
                max_digits = max(max_digits, s.get("digits", 0))
            if layer == "bounds" and "error" in s and not (parent and parent["name"].startswith("bounds.")):
                acc["bounds.errors"] += 1
        acc["trace.bench_s"] += meta["t_end"] - meta["t_imported"] - roots

    built = acc["homology.build_rips.s"] + acc["homology.compute_persistence.s"]
    simplices = sum(acc[f"homology.simplices.d{d}"] for d in range(4))
    acc["homology.simplices_per_s"] = simplices / built if built else 0.0
    acc["homology.filtration_mb"] = filtration_mb
    acc["homology.useful_pair_frac"] = useful / acc["homology.pairs"] if acc["homology.pairs"] else 0.0
    if rips_durations:
        acc["homology.rips_persistence.p50_s"] = statistics.median(rips_durations)
        acc["homology.rips_persistence.tail_s"] = max(rips_durations)
    attempts = acc["semialgebraic.sample_attempts"]
    acc["semialgebraic.sample_accept_frac"] = acc["semialgebraic.sample_points"] / attempts if attempts else 0.0
    calls = acc["semialgebraic.verify_ambiguity.calls"]
    acc["semialgebraic.verify_pass_frac"] = verify_ok / calls if calls else 0.0
    acc["bounds.max_digits"] = max_digits
    train_s = acc["mlp.train_sgd.s"]
    acc["mlp.train_rows_per_s"] = train_rows / train_s if train_s else 0.0
    layer_self = sum(acc[f"{layer}.self_s"] for layer in LAYERS)
    acc["trace.layer_frac"] = layer_self / acc["trace.wall_s"] if acc["trace.wall_s"] else 0.0
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return {
        name: int(value) if units[name] in COUNT_UNITS else value for name, value in acc.items()
    }
