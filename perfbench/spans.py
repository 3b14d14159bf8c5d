"""Spans and counters recorded from outside the program.

The tracer wraps public functions of the ``gatedfusion`` modules.  Modules
import each other's names directly (``from .gfa import gfa_forward``), so a
wrapper is installed under every module attribute that holds the original
function, not only in the module that defines it.  A name that no longer
exists is reported as absent instead of failing the run.

Spans are kept in memory in flat columns (name, start, end, parent,
operation id) and written out when the benchmark ends.  A span's self time
is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute).  Several attributes may share one span
# name; a call made while a span of the same name is open is not a new span
# (gfa_forward dispatches to gfa_a_forward), so calls count layer entries.
SPANS = (
    ("manifest.write", "manifest", "write_manifest"),
    ("bank.synth", "bank", "synth_generate"),
    ("bank.save", "bank", "save_feature_bank"),
    ("bank.load", "bank", "load_feature_bank"),
    ("bank.aggregate", "bank", "aggregate_object_feature"),
    ("bank.stats", "bank", "bank_stats"),
    ("training.train", "training", "train"),
    ("training.forward", "training", "forward_model"),
    ("training.backward", "training", "model_backward"),
    ("training.sgd", "training", "sgd_momentum_step"),
    ("training.grad_check", "training", "grad_check"),
    ("training.checkpoint_save", "training", "save_checkpoint"),
    ("training.checkpoint_load", "training", "load_checkpoint"),
    ("gfa.forward", "gfa", "gfa_forward"),
    ("gfa.forward", "gfa", "gfa_a_forward"),
    ("gfa.forward", "gfa", "gfa_b_forward"),
    ("gfa.backward", "gfa", "gfa_backward"),
    ("scoring.prior", "scoring", "compute_prior"),
    ("scoring.score_actions", "scoring", "score_actions_for_bank"),
    ("scoring.topk", "scoring", "topk_accuracy"),
    ("scoring.table_save", "scoring", "save_score_table"),
    ("scoring.table_load", "scoring", "load_score_table"),
)

# Counted, not timed: these run thousands of times inside the spans above.
# Every public name of the tensor module counts toward ``tensor.calls``.
COUNTERS = (
    ("tensor.calls", "tensor", None),
    ("scoring.reweight_calls", "scoring", "reweight_actions"),
)


def _gfa_flops(rows: int, cols: int, batch: int, backward: bool) -> int:
    """Computed from shapes, not measured: ``W x`` is 2*rows*cols flops per
    row; the bias, sigmoid and gate product add a few per output.  The
    backward pass does ``W^T dz`` and the outer product ``dz x^T``."""
    if backward:
        return batch * (4 * rows * cols + 6 * rows)
    return batch * (2 * rows * cols + 4 * rows)


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(x.size // shape[-1]) if len(shape) > 1 else 1


def _forward_flops(args, kwargs, result) -> dict:
    v, _o, p = args[:3]
    return {"gfa.flops": _gfa_flops(*p.W.shape, _rows(v), backward=False)}


def _backward_flops(args, kwargs, result) -> dict:
    _cache, p, dF = args[:3]
    return {"gfa.flops": _gfa_flops(*p.W.shape, _rows(dF), backward=True)}


def _file_bytes(key: str, index: int):
    def measure(args, kwargs, result) -> dict:
        return {key: os.path.getsize(args[index])}
    return measure


# Extra counts read from a span's arguments once the call returns.  Bytes
# are file sizes as found on disk after the call.
MEASURES = {
    "gfa.forward": _forward_flops,
    "gfa.backward": _backward_flops,
    "bank.load": _file_bytes("bank.load_bytes", 0),
    "bank.save": _file_bytes("bank.save_bytes", 1),
    "scoring.table_load": _file_bytes("scoring.table_bytes", 0),
    "scoring.table_save": _file_bytes("scoring.table_bytes", 1),
}


class Tracer:
    """In-memory span recorder that patches ``gatedfusion`` while installed."""

    def __init__(self, package: str = "gatedfusion"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.child: list[float] = []
        self.op_labels: list[str] = []
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.op_labels) - 1)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self.end[idx] = end
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += end - self.start[idx]

    @contextmanager
    def operation(self, label: str):
        """Root span of one benchmark operation; its children share its id."""
        self.op_labels.append(label)
        idx = self._open(self._name_id("bench.op"))
        try:
            yield
        finally:
            self._close(idx)

    def _span_wrapper(self, name: str, fn, measure):
        nid = self._name_id(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and self.span_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if measure is not None:
                try:
                    measured = measure(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    # A changed signature must not stop the run.
                    self.absent.add(f"{name} measure")
                    measured = {}
                for key, value in measured.items():
                    counts[key] = counts.get(key, 0) + value
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _cli_wrapper(self, fn):
        def wrapper(argv=None):
            command = argv[0] if argv else "none"
            idx = self._open(self._name_id(f"cli.{command}"))
            try:
                return fn(argv)
            finally:
                self._close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _modules(self) -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _patch(self, modules: list, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _target(self, module: str, attr: str, label: str):
        mod = sys.modules.get(f"{self.package}.{module}")
        fn = getattr(mod, attr, None) if mod is not None else None
        if not callable(fn):
            self.absent.add(label)
            return None
        return fn

    def install(self) -> None:
        modules = self._modules()
        cli_main = self._target("cli", "main", "cli.main")
        if cli_main is not None:
            self._patch(modules, cli_main, self._cli_wrapper(cli_main))
        for name, module, attr in SPANS:
            fn = self._target(module, attr, f"{name} ({module}.{attr})")
            if fn is not None:
                self._patch(modules, fn, self._span_wrapper(name, fn, MEASURES.get(name)))
        for key, module, attr in COUNTERS:
            if attr is not None:
                attrs = [attr]
            else:
                attrs = list(getattr(sys.modules.get(f"{self.package}.{module}"),
                                     "__all__", ()))
                if not attrs:
                    self.absent.add(f"{key} ({module}.__all__)")
            for a in attrs:
                fn = self._target(module, a, f"{key} ({module}.{a})")
                if fn is not None:
                    self._patch(modules, fn, self._count_wrapper(key, fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict] = {}
        for idx, nid in enumerate(self.span_name):
            duration = self.end[idx] - self.start[idx]
            row = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - self.child[idx]
        return out

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON columns."""
        obj = {"names": self.names, "operations": self.op_labels,
               "columns": ["name", "start", "end", "parent", "operation"],
               "name": self.span_name, "start": self.start, "end": self.end,
               "parent": self.parent, "operation": self.op}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(obj, fh, separators=(",", ":"))
