"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the package: `install` replaces public
functions and layer-class methods of unmixlab with wrappers that record one
span (name, start, end, parent) per call. Spans live in flat arrays while
the run lasts and are written out once, when it ends. A span's self time is
its duration minus the durations of its direct children; calls are nested
and single-threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.recording = True

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name):
        """Wrap fn; `name` is a span name or a callable (args, kwargs) -> name."""
        fixed = None if callable(name) else self._id(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()

        return wrapped

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent,
            start=start, end=end,
        )


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return "nn.forward" if mode == "train" else "nn.eval_forward"


def _kw_name(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "chi2")
    return "stats.kw_permutation" if method == "permutation" else "stats.kruskal_wallis"


def _cli_name(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None)
    return f"cli.{argv[0]}" if argv else "cli.main"


def install(tracer: Tracer, ul) -> None:
    """Wrap the unmixlab entry points that the per-layer metrics read.

    Names are patched where their callers look them up: harness binds the
    losses in a dict and imports unmixing_errors by name, so those bindings
    are replaced in harness.
    """
    nn, harness, stats, lmm, cli = ul.nn, ul.harness, ul.stats, ul.lmm, ul.cli
    nn.forward = tracer.wrap(nn.forward, _forward_name)
    nn.backward = tracer.wrap(nn.backward, "nn.backward")
    nn.apply_gradients = tracer.wrap(nn.apply_gradients, "nn.apply_gradients")
    nn.initialize_network = tracer.wrap(nn.initialize_network, "nn.initialize_network")
    for cls in (nn.Linear, nn.Sigmoid, nn.ReLU, nn.BatchNorm, nn.SoftThreshold,
                nn.SumToOne, nn.GaussianDropout):
        cls.forward = tracer.wrap(cls.forward, f"nn.{cls.kind}.forward")
        cls.backward = tracer.wrap(cls.backward, f"nn.{cls.kind}.backward")

    for key in ("mse", "sad"):
        harness._LOSSES[key] = tracer.wrap(harness._LOSSES[key], f"metrics.{key}_loss")
    harness.unmixing_errors = tracer.wrap(harness.unmixing_errors, "metrics.unmixing_errors")

    harness.train_once = tracer.wrap(harness.train_once, "harness.train_once")
    harness.run_experiment = tracer.wrap(harness.run_experiment, "harness.run_experiment")
    harness.write_records = tracer.wrap(harness.write_records, "harness.write_records")
    harness.read_records = tracer.wrap(harness.read_records, "harness.read_records")
    harness.GradientTrace.to_csv = tracer.wrap(
        harness.GradientTrace.to_csv, "harness.trace_to_csv"
    )

    for fname in ("synthesize", "save_bundle", "load_bundle"):
        setattr(lmm, fname, tracer.wrap(getattr(lmm, fname), f"lmm.{fname}"))

    for fname in ("group_scores", "midranks", "levene", "conover_iman"):
        setattr(stats, fname, tracer.wrap(getattr(stats, fname), f"stats.{fname}"))
    stats.kruskal_wallis = tracer.wrap(stats.kruskal_wallis, _kw_name)

    cli.main = tracer.wrap(cli.main, _cli_name)


class SpanSummary:
    """Per-name totals over every recorded span."""

    def __init__(self, tracer: Tracer):
        name_id, parent, start, end = tracer.arrays()
        self.names = tracer.names
        self.name_id = name_id
        self.parent = parent
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        n_names = len(self.names)
        self.count = np.bincount(name_id, minlength=n_names)
        self.total = np.bincount(name_id, weights=dur, minlength=n_names)
        self.self_total = np.bincount(name_id, weights=dur - child, minlength=n_names)
        self.dur = dur

    def _nid(self, name: str) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls(self, name: str) -> int:
        nid = self._nid(name)
        return 0 if nid is None else int(self.count[nid])

    def total_s(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else float(self.total[nid])

    def self_s(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else float(self.self_total[nid])

    def mean_s(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_s(name) / calls if calls else 0.0

    def total_under_s(self, name: str, parent_name: str) -> float:
        """Summed duration of `name` spans whose parent span is `parent_name`."""
        nid, pid = self._nid(name), self._nid(parent_name)
        if nid is None or pid is None:
            return 0.0
        mask = self.name_id == nid
        parents = self.parent[mask]
        ok = parents >= 0
        under = np.zeros(parents.size, dtype=bool)
        under[ok] = self.name_id[parents[ok]] == pid
        return float(self.dur[mask][under].sum())

    def children_per_parent(self, name: str, parent_name: str) -> np.ndarray:
        """Number of `name` child spans under each `parent_name` span."""
        nid, pid = self._nid(name), self._nid(parent_name)
        if pid is None:
            return np.zeros(0, dtype=np.int64)
        parent_idx = np.flatnonzero(self.name_id == pid)
        if nid is None:
            return np.zeros(parent_idx.size, dtype=np.int64)
        kids = self.parent[self.name_id == nid]
        counts = np.bincount(kids[kids >= 0], minlength=self.name_id.size)
        return counts[parent_idx]
