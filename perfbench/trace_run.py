"""The traced run: per-layer counts and self times.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions:

* a policy-engine subclass (``policy_engine_cls``) — ``scheduling``;
* instance wrappers on the cloud provider and billing meter (``cloud``),
  the autoscaler (``autoscaler``), the fault injector and checkpoint
  store (``faults``), the API server (``k8s``), the operator and its
  rescale coordinator (``mpioperator``) and the app factory (``apps``);
* the callbacks handed to ``Engine.schedule_at``/``post_at``/
  ``reschedule_at``, attributed to the module that defines them (a
  process resume to the module of the generator it resumes, a watch
  delivery to the module of its handler), and ``Engine.run`` itself
  (``sim``: heap and dispatch);
* the lazy submission stream (``workloads``) and, patched for the length
  of the traced section, ``MetricsAccumulator`` and the controller's
  ``compute_metrics`` (``metrics``).

A layer's self time is its span time minus the time its child spans
cover; time inside the traced section but outside every span is
``trace.unattributed_s``.  Self times plus unattributed time equal the
wall time of the traced section to within :data:`ACCOUNTING_TOLERANCE`.
Spans stay in memory (up to :data:`SPAN_CAP`) and are written once, at
the end, as Chrome-trace JSON that Perfetto opens.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter
from time import perf_counter
from typing import Dict, List

import repro.scheduling.controller as scheduling_controller
from measure import NOMINAL_SLICE_S, reference_slice
from repro.k8s.watch import Watch
from repro.scheduling import (
    ElasticPolicyEngine, EnqueueJob, ExpandJob, MetricsAccumulator, RequeueJob,
    ShrinkJob, StartJob,
)
from repro.sim import Engine, Process
from workloads import WORKLOADS, Probe

#: Layer self times + unattributed time must match the traced wall time
#: to within this share of it.
ACCOUNTING_TOLERANCE = 0.01
#: Spans kept for the Chrome trace; later spans are counted, not kept.
SPAN_CAP = 300_000
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".perfbench-out")

LAYERS = ("workloads", "sim", "schedsim", "scheduling", "metrics", "cloud",
          "autoscaler", "faults", "k8s", "mpioperator", "apps", "unattributed")

#: Module prefix -> layer; the longest matching prefix wins.
_MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.schedsim": "schedsim",
    "repro.cloud.simulator": "schedsim",
    "repro.workloads": "workloads",
    "repro.scheduling": "scheduling",
    "repro.scheduling.controller": "mpioperator",
    "repro.cloud": "cloud",
    "repro.cloud.autoscaler": "autoscaler",
    "repro.faults": "faults",
    "repro.charm.faulttolerance": "faults",
    "repro.k8s": "k8s",
    "repro.mpioperator": "mpioperator",
    "repro.apps": "apps",
    "repro.charm": "apps",
}

_DECISION_KEYS = ((StartJob, "start"), (ExpandJob, "expand"),
                  (ShrinkJob, "shrink"), (EnqueueJob, "enqueue"),
                  (RequeueJob, "requeue"))

#: Wrapped public calls that also feed a named counter.
_COUNTERS = {
    "CharmJobController.reconcile": "mpioperator.reconciles",
    "RescaleCoordinator.shrink": "mpioperator.rescales",
    "RescaleCoordinator.expand": "mpioperator.rescales",
}


def layer_of_module(module: str) -> str:
    best = ""
    for prefix in _MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return _MODULE_LAYERS.get(best, "unattributed")


def _module_of_file(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    cut = path.rfind("/repro/")
    if cut < 0:
        return ""
    return path[cut + 1:].removesuffix(".py").removesuffix("/__init__").replace("/", ".")


def _function_layer(fn) -> str:
    target = getattr(fn, "__func__", fn)
    target = getattr(target, "func", target)  # functools.partial
    return layer_of_module(getattr(target, "__module__", "") or "")


class Tracer:
    """In-memory spans with stack-based self-time accounting."""

    def __init__(self):
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counts: Counter = Counter()
        self.spans: List[tuple] = []
        self.traced_s = 0.0
        self._stack = [0.0]
        self._file_layers: Dict[str, str] = {}

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        stack = self._stack
        stack.append(0.0)
        begin = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            span = end - begin
            self.self_s[layer] += span - stack.pop()
            stack[-1] += span
            if len(self.spans) < SPAN_CAP:
                self.spans.append((layer, name, begin, end))

    def root(self, fn):
        """Run ``fn`` as traced work; time outside every span is
        unattributed."""
        self._stack = [0.0]
        begin = perf_counter()
        try:
            return fn()
        finally:
            wall = perf_counter() - begin
            self.traced_s += wall
            self.self_s["unattributed"] += wall - self._stack[0]

    def layer_of_file(self, filename: str) -> str:
        layer = self._file_layers.get(filename)
        if layer is None:
            layer = self._file_layers[filename] = layer_of_module(
                _module_of_file(filename))
        return layer

    def write_chrome_trace(self, path: str) -> None:
        base = self.spans[0][2] if self.spans else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": "perfbench traced run"}}]
        events += [{"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                    "ts": (begin - base) * 1e6, "dur": (end - begin) * 1e6}
                   for layer, name, begin, end in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class TracingProbe(Probe):
    """Builds units with every layer boundary wrapped."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.engines: List[Engine] = []
        self.policy_engine_cls = self._policy_engine_cls()

    def engine(self) -> Engine:
        tracer = self.tracer
        engine = Engine()
        run, schedule_at, post_at = engine.run, engine.schedule_at, engine.post_at
        reschedule_at = engine.reschedule_at
        wrap = self._callback
        engine.run = lambda *a, **k: tracer.call("sim", "Engine.run", run, *a, **k)
        engine.schedule_at = lambda time, fn, *a: schedule_at(time, wrap(fn), *a)
        engine.post_at = lambda time, fn, *a: post_at(time, wrap(fn), *a)
        engine.reschedule_at = (
            lambda timer, time, fn, *a: reschedule_at(timer, time, wrap(fn), *a))
        self.engines.append(engine)
        return engine

    def _callback(self, fn):
        if getattr(fn, "_perfbench", False):
            return fn
        tracer = self.tracer
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, Process):
            def traced(*args):
                gen = owner.generator
                while hasattr(getattr(gen, "gi_yieldfrom", None), "gi_code"):
                    gen = gen.gi_yieldfrom
                layer = tracer.layer_of_file(gen.gi_code.co_filename)
                return tracer.call(layer, owner.name or "process", fn, *args)
        elif isinstance(owner, Watch):
            layer = _function_layer(owner.handler)

            def traced(*args):
                tracer.counts["k8s.watch_deliveries"] += 1
                return tracer.call(layer, "watch delivery", fn, *args)
        else:
            layer = _function_layer(fn)
            name = getattr(fn, "__qualname__", "callback")

            def traced(*args):
                return tracer.call(layer, name, fn, *args)
        traced._perfbench = True
        return traced

    def wrap(self, layer: str, obj):
        if layer == "apps":
            return self._wrap_factory(obj)
        for name in dir(type(obj)):
            if name.startswith("_") or isinstance(getattr(type(obj), name), property):
                continue
            method = getattr(obj, name)
            if not callable(method):
                continue
            if name == "bind" and layer == "cloud":
                method = self._wrap_bind(method)
            setattr(obj, name, self._wrap_method(layer, obj, name, method))
        return obj

    def _wrap_method(self, layer, obj, name, method):
        tracer = self.tracer
        counts = tracer.counts
        qualname = f"{type(obj).__name__}.{name}"
        key = _COUNTERS.get(qualname)
        if qualname == "FaultInjector.provision_outcome":
            def traced(*args, **kwargs):
                outcome = tracer.call(layer, qualname, method, *args, **kwargs)
                counts["faults.provision_attempts"] += 1
                counts["faults.provision_failures"] += outcome is not None
                return outcome
            return traced

        def traced(*args, **kwargs):
            counts[f"{layer}.calls"] += 1
            if key is not None:
                counts[key] += 1
            return tracer.call(layer, qualname, method, *args, **kwargs)
        return traced

    def _wrap_bind(self, bind):
        """The simulator's provider callbacks are simulator work."""
        tracer = self.tracer

        def traced_bind(engine, **callbacks):
            wrapped = {
                name: (None if cb is None else
                       (lambda *a, _cb=cb, _n=name: tracer.call("schedsim", _n, _cb, *a)))
                for name, cb in callbacks.items()
            }
            return bind(engine, **wrapped)
        return traced_bind

    def _wrap_factory(self, factory):
        tracer = self.tracer

        def traced_factory(job):
            app = tracer.call("apps", "app_factory", factory, job)
            run_block = app.run_block

            def counted_run_block(*args, **kwargs):
                tracer.counts["apps.blocks"] += 1
                return run_block(*args, **kwargs)
            app.run_block = counted_run_block
            return app
        return traced_factory

    def source(self, submissions):
        tracer = self.tracer
        step = iter(submissions).__next__

        class _Traced:
            def __iter__(self):
                return self

            def __next__(self):
                tracer.counts["workloads.next_calls"] += 1
                return tracer.call("workloads", "next submission", step)
        return _Traced()

    def _policy_engine_cls(self) -> type:
        tracer = self.tracer
        counts = tracer.counts
        depth = [0]

        def traced(name, kind):
            original = getattr(ElasticPolicyEngine, name)

            def method(self, *args, **kwargs):
                depth[0] += 1
                try:
                    out = tracer.call("scheduling", name, original, self, *args, **kwargs)
                finally:
                    depth[0] -= 1
                if depth[0] == 0 and kind is not None:
                    decisions = out[1] if name == "shrink_capacity" else out
                    counts[f"scheduling.calls.{kind}"] += 1
                    productive = False
                    for decision in decisions:
                        for cls, key in _DECISION_KEYS:
                            if isinstance(decision, cls):
                                counts[f"scheduling.decisions.{key}"] += 1
                                productive |= key in ("start", "expand", "shrink")
                                break
                    counts["scheduling.productive_calls"] += productive
                return out
            method.__name__ = name
            return method

        namespace = {name: traced(name, kind) for name, kind in (
            ("on_submit", "submit"), ("on_complete", "complete"),
            ("grow_capacity", "capacity"), ("shrink_capacity", "capacity"),
            ("rebalance", "capacity"), ("eviction_candidates", None),
            ("on_rescale_failed", None), ("retire", None))}
        return type("TracedPolicyEngine", (ElasticPolicyEngine,), namespace)


class MetricsPatch:
    """Wraps the metrics fold for the length of the traced section."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        tracer = self.tracer

        def patch(owner, name):
            original = getattr(owner, name)
            self.saved.append((owner, name, original))

            def traced(*args, **kwargs):
                tracer.counts["metrics.calls"] += 1
                return tracer.call("metrics", name, original, *args, **kwargs)
            setattr(owner, name, traced)

        patch(MetricsAccumulator, "add_raw")
        patch(MetricsAccumulator, "add")
        patch(MetricsAccumulator, "finalize")
        patch(scheduling_controller, "compute_metrics")
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(workload: str, seed: int) -> dict:
    """One untraced and one traced pass; the per-layer metrics."""
    from run import Checker, _error

    wl = WORKLOADS[workload]
    inputs = wl.inputs(seed, wl.jobs)
    checker = Checker(workload, seed)

    # Untraced pass: the reference fingerprints and wall time.
    plain = {}
    plain_wall = 0.0
    for label, build in wl.units(inputs, Probe()):
        go = build()
        begin = perf_counter()
        plain[label] = go()
        plain_wall += perf_counter() - begin

    slices = [reference_slice() for _ in range(5)]
    tracer = Tracer()
    probe = TracingProbe(tracer)
    extras = Counter()
    with MetricsPatch(tracer):
        for label, build in wl.units(inputs, probe):
            try:
                result = tracer.root(build())
            except Exception as err:  # noqa: BLE001 - counted, not raised
                checker.unit(label, wl.jobs, error=f"{type(err).__name__}: {err}")
                continue
            if result.fingerprint != plain[label].fingerprint:
                result.problems.append(
                    f"traced fingerprint {result.fingerprint} != untraced "
                    f"{plain[label].fingerprint}")
            checker.unit(label, result.jobs, result=result)
            extras.update(result.extras)
    slices += [reference_slice() for _ in range(5)]
    ref = statistics.median(slices)
    scale = NOMINAL_SLICE_S / ref

    counts = tracer.counts
    self_s = tracer.self_s
    accounted = sum(self_s.values())
    if abs(accounted - tracer.traced_s) > ACCOUNTING_TOLERANCE * tracer.traced_s:
        _error(f"layer self times account for {accounted:.4f} s of "
               f"{tracer.traced_s:.4f} s traced")
        checker.failed = checker.attempted
    events = sum(e.events_executed for e in probe.engines)
    pushes = sum(e.heap_pushes for e in probe.engines)
    stale = sum(e.stale_drops for e in probe.engines)
    calls = sum(counts[f"scheduling.calls.{k}"]
                for k in ("submit", "complete", "capacity"))
    applied = sum(counts[f"scheduling.decisions.{k}"]
                  for k in ("start", "expand", "shrink", "requeue"))
    attempts = counts["faults.provision_attempts"]

    def seconds(value):
        return (value * scale, "s")

    metrics = {
        "workloads.next_calls": (counts["workloads.next_calls"], "count"),
        "workloads.busy_s": seconds(self_s["workloads"]),
        "sim.events": (events, "count"),
        "sim.heap_pushes": (pushes, "count"),
        "sim.stale_drops": (stale, "count"),
        "sim.stale_ratio": (_ratio(stale, pushes), "ratio"),
        "sim.self_s": seconds(self_s["sim"]),
        "schedsim.self_s": seconds(self_s["schedsim"]),
        "schedsim.decisions_applied": (applied, "count"),
        "scheduling.busy_s": seconds(self_s["scheduling"]),
        "scheduling.productive_ratio": (
            _ratio(counts["scheduling.productive_calls"], calls), "ratio"),
        "metrics.calls": (counts["metrics.calls"], "count"),
        "metrics.busy_s": seconds(self_s["metrics"]),
        "cloud.provider_calls": (counts["cloud.calls"], "count"),
        "cloud.provider_busy_s": seconds(self_s["cloud"]),
        "cloud.autoscaler_calls": (counts["autoscaler.calls"], "count"),
        "cloud.autoscaler_busy_s": seconds(self_s["autoscaler"]),
        "cloud.nodes_provisioned": (extras["cloud.nodes_provisioned"], "count"),
        "cloud.interruptions": (extras["cloud.interruptions"], "count"),
        "faults.provision_attempts": (attempts, "count"),
        "faults.provision_failures": (counts["faults.provision_failures"], "count"),
        "faults.provision_success_ratio": (
            _ratio(attempts - counts["faults.provision_failures"], attempts), "ratio"),
        "faults.checkpoints_written": (extras["faults.checkpoints_written"], "count"),
        "faults.restarts_from_checkpoint": (
            extras["faults.restarts_from_checkpoint"], "count"),
        "faults.evictions": (extras["faults.evictions"], "count"),
        "faults.goodput_fraction": (
            extras.get("faults.goodput_fraction", 1.0), "ratio"),
        "faults.busy_s": seconds(self_s["faults"]),
        "k8s.api_calls": (counts["k8s.calls"], "count"),
        "k8s.api_busy_s": seconds(self_s["k8s"]),
        "k8s.watch_deliveries": (counts["k8s.watch_deliveries"], "count"),
        "mpioperator.reconciles": (counts["mpioperator.reconciles"], "count"),
        "mpioperator.busy_s": seconds(self_s["mpioperator"]),
        "mpioperator.rescales": (counts["mpioperator.rescales"], "count"),
        "apps.blocks": (counts["apps.blocks"], "count"),
        "apps.busy_s": seconds(self_s["apps"]),
        "machine.ref_slice_ms": (ref * 1e3, "ms"),
        "trace.wall_s": seconds(tracer.traced_s),
        "trace.overhead_ratio": (_ratio(tracer.traced_s, plain_wall), "ratio"),
        "trace.unattributed_s": seconds(self_s["unattributed"]),
    }
    for kind in ("submit", "complete", "capacity"):
        metrics[f"scheduling.calls.{kind}"] = (
            counts[f"scheduling.calls.{kind}"], "count")
    for _cls, key in _DECISION_KEYS:
        metrics[f"scheduling.decisions.{key}"] = (
            counts[f"scheduling.decisions.{key}"], "count")

    tracer.write_chrome_trace(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"))
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
