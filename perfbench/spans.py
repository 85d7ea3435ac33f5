"""Span tracer that wraps polycode's public functions from outside the package.

Wrappers are installed around one traced job and removed after it, so the
untraced jobs of the same run call the unmodified functions. A span records
its name, start, end, parent span and job id; a span's self time is its
duration minus the duration of its direct children. Nothing under `src/` is
edited: the wrappers replace module attributes and class attributes at run
time, in every loaded `polycode` module that binds the target.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

@dataclass(frozen=True)
class Target:
    """One timed public function: `module:qualname`, reported as `name`.

    With `per_scheme`, the span is named `<name>.<scheme>` after the scheme
    passed as first argument. `count` is called with (tracer, args, result)
    after each successful call to add counters.
    """

    name: str
    module: str
    qualname: str
    count: Callable = None
    per_scheme: bool = False


def _transpose_mul_count(tracer, args, result):
    a, b = args[0], args[1]
    elem = -(-(a.ctx.q - 1).bit_length() // 8)
    tracer.add("matrixcore.transpose_mul.macs", a.rows * a.cols * b.cols)
    tracer.add("matrixcore.transpose_mul.bytes",
               (a.rows * a.cols + b.rows * b.cols + a.cols * b.cols) * elem)


def _encode_count(tracer, args, result):
    tracer.add("schemes.shares_encoded", len(result))


def _bw_count(tracer, args, result):
    tracer.add("field.bw_decode.entries", 1)


def _run_count(tracer, args, result):
    report = result[1]
    tracer.add("cluster.responders", len(report.responders))
    tracer.add("cluster.bytes_received", report.bytes_received)


# Layer table: the module is the layer. `cli` and `verify` are out of scope.
TARGETS = (
    Target("matrixcore.transpose_mul", "polycode.matrixcore", "transpose_mul", _transpose_mul_count),
    Target("matrixcore.lincomb", "polycode.matrixcore", "lincomb"),
    Target("field.lagrange_weight_matrix", "polycode.field", "lagrange_weight_matrix"),
    Target("field.invert_matrix", "polycode.field", "invert_matrix"),
    Target("field.solve_linear", "polycode.field", "solve_linear"),
    Target("field.bw_decode", "polycode.field", "bw_decode", _bw_count),
    Target("schemes.encode", "polycode.schemes", "Scheme.encode", _encode_count),
    Target("schemes.decodable", "polycode.schemes", "Scheme.decodable"),
    Target("schemes.decode", "polycode.schemes", "Scheme.decode"),
    Target("schemes.decode_with_errors", "polycode.schemes", "PolyScheme.decode_with_errors"),
    Target("schemes.systematic_generator", "polycode.schemes", "systematic_generator"),
    Target("schemes.worker_compute", "polycode.schemes", "worker_compute"),
    Target("convolution.conv_encode", "polycode.convolution", "conv_encode"),
    Target("convolution.conv_worker_compute", "polycode.convolution", "conv_worker_compute"),
    Target("convolution.conv_decode", "polycode.convolution", "conv_decode"),
    Target("cluster.run", "polycode.cluster", "run", _run_count),
    Target("sim.sample_latency", "polycode.sim", "sample_latency"),
    Target("sim.scheme_latency_batch", "polycode.sim", "scheme_latency_batch", per_scheme=True),
)


def span_names(targets, schemes) -> list:
    """Every span name the targets can report, in table order."""
    names = []
    for t in targets:
        names += [f"{t.name}.{s}" for s in schemes] if t.per_scheme else [t.name]
    return names


class Tracer:
    """In-memory span recorder; `install` and `uninstall` bracket a traced job."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []       # (span_id, parent_id, job_id, name, start_ns, end_ns, self_ns)
        self.counters = {}
        self.missing = []
        self._stack = []      # [name, start_ns, child_ns, span_id]
        self._next_id = 0
        self._job = None
        self._patches = []
        self._wrappers = {}

    # -- recording -------------------------------------------------------
    def add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter_ns(), 0, self._next_id])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child, sid = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        dur = end - start
        if parent is not None:
            parent[2] += dur
        self.spans.append((sid, parent[3] if parent else None, self._job, name,
                           start, end, dur - child))

    def _wrap(self, fn, target: Target):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name, count, per_scheme = target.name, target.count, target.per_scheme

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(f"{name}.{args[0].name}" if per_scheme else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                count(self, args, result)
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, job_id: int) -> None:
        """Wrap every target that exists; record the others as missing."""
        self._job = job_id
        self.missing = []
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "polycode" or k.startswith("polycode."))]
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                module = None
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{target.module}.{target.qualname}")
                continue
            if owner_name:
                # A method: wrap it on the class and on every subclass that
                # overrides it, so each concrete implementation is timed.
                todo, seen = [owner], set()
                while todo:
                    cls = todo.pop()
                    if cls in seen:
                        continue
                    seen.add(cls)
                    todo += cls.__subclasses__()
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self._wrap(cls.__dict__[attr], target))
            else:
                # A function: rebind every name that refers to it, because
                # modules import each other's functions by name.
                for mod in loaded:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, key, self._wrap(fn, target))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._job = None

    # -- reporting -------------------------------------------------------
    def layer_totals(self) -> dict:
        """name -> [calls, self_ns] over every recorded span."""
        totals = {}
        for _sid, _parent, _job, name, _start, _end, self_ns in self.spans:
            entry = totals.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += self_ns
        return totals

    def covered_ns_by_job(self) -> dict:
        """job id -> summed duration of its top-level spans (= summed self time)."""
        out = {}
        for _sid, parent, job, _name, start, end, _self in self.spans:
            if parent is None:
                out[job] = out.get(job, 0) + (end - start)
        return out

    def write(self, path) -> None:
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "job", "name",
                                            "start_ns", "end_ns", "self_ns"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
