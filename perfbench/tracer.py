"""Span tracer installed around the public functions of each renyi2 layer.

Wrappers are installed in every `renyi2*` module namespace that holds the
wrapped function, not only on the defining module: `experiment` and `cli` call
`fock` and the other layers through names bound by `from .x import y`, so a
wrapper on `renyi2.fock.coincidence_probabilities` alone would see none of
those calls. `DensityOperator` validation is traced by wrapping its
`__post_init__` on the class.

A span is [name, start, end, parent index, job id]. Spans stay in memory
until the benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("qstate", "two_copy", "chsh", "fock", "experiment", "cli")
ROOT_SPAN = "cli.main"
COMPLEX_BYTES = 16


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []
        self._seen_dims: set = set()

    # -- installation -------------------------------------------------------

    def install(self, job_id: int) -> None:
        """Wrap every public layer function wherever a renyi2 module binds it."""
        import renyi2.cli
        from renyi2 import qstate

        self._job = job_id
        self._seen_dims = set()
        targets = {}
        for layer in LAYERS[:-1]:
            mod = sys.modules[f"renyi2.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    targets[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        targets[id(renyi2.cli.main)] = self._wrap(ROOT_SPAN, renyi2.cli.main)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "renyi2" or mod_name.startswith("renyi2.")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)
        cls = qstate.DensityOperator
        self._patch(cls, "__post_init__", self._wrap("qstate.DensityOperator", cls.__post_init__))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self._stack.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, span_name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = {
            "fock.beam_splitter": self._count_kets,
            "two_copy.collision_probabilities": self._count_collision_bytes,
        }.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1, self._job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _count_kets(self, args, result) -> None:
        self.counters["fock.beam_splitter.kets_out"] += len(result.amplitudes)

    def _count_collision_bytes(self, args, result) -> None:
        # computed, not measured: the d^4 x d^4 complex operators the current
        # algorithm builds -- rho (x) rho and its reordered copy on every call,
        # plus the four cached projector products on the first call per dims
        # (caches are cleared before each traced job, as in a fresh process)
        rho = args[0]
        dims = (rho.dim_a, rho.dim_b)
        size = COMPLEX_BYTES * (rho.dim_a * rho.dim_b) ** 4
        n_ops = 2 + (4 if dims not in self._seen_dims else 0)
        self._seen_dims.add(dims)
        self.counters["two_copy.collision_probabilities.computed_bytes"] += n_ops * size

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        self_t = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return self_t

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# per-layer metrics reported by the traced run: (span name, kinds reported for it)
SPAN_METRICS = (
    ("fock.spdc_four_photon_state", ("calls", "self_s")),
    ("fock.beam_splitter", ("calls", "self_s")),
    ("fock.coincidence_probabilities", ("calls", "self_s")),
    ("experiment.outcome_distribution", ("calls", "self_s")),
    ("experiment.fit_interference", ("calls", "self_s")),
    ("experiment.simulate_counts", ("self_s",)),
    ("experiment.estimate_probabilities", ("self_s",)),
    ("experiment.witness_from_run", ("self_s",)),
    ("two_copy.collision_probabilities", ("calls", "self_s")),
    ("chsh.max_chsh", ("calls", "self_s")),
    ("chsh.correlation_matrix", ("self_s",)),
    ("qstate.DensityOperator", ("calls", "self_s")),
    ("qstate.ppt_min_eigenvalue", ("self_s",)),
    ("qstate.partial_trace", ("self_s",)),
    ("cli.main", ("self_s",)),
)
COUNTER_METRICS = (
    ("fock.beam_splitter.kets_out", "count/job"),
    ("two_copy.collision_probabilities.computed_bytes", "bytes/job"),
    ("cli.bytes_written", "bytes/job"),
)
UNITS = {"calls": "count/job", "self_s": "s/job"}


def layer_metrics(tracer: Tracer, n_jobs: int) -> dict[str, dict]:
    """Per-job averages of the named spans and counters, plus layer shares."""
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    for span, st in zip(tracer.spans, tracer.self_times()):
        calls[span[0]] += 1
        self_by_name[span[0]] += st
    metrics = {}
    for name, kinds in SPAN_METRICS:
        for kind in kinds:
            value = calls[name] if kind == "calls" else self_by_name[name]
            metrics[f"{name}.{kind}"] = {"value": value / n_jobs, "unit": UNITS[kind]}
    for name, unit in COUNTER_METRICS:
        metrics[name] = {"value": tracer.counters[name] / n_jobs, "unit": unit}
    job_time = sum(end - start for name, start, end, _, _ in tracer.spans if name == ROOT_SPAN)
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_by_name.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.share"] = {"value": layer_self / job_time, "unit": "1"}
    return metrics
