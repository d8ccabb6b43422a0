"""The metrics fold: finished obs records become counters, gauges, histograms.

Every instrumented site emits one obs record (:mod:`repro.obs`); this is
the only module that turns records into metrics, so every metric name,
label set and bucket layout lives here.  Records fold in emit order —
for a parallel sweep, worker records replayed in job order.  Wall-clock
histograms observe the span's duration; every other value is an
attribute the site computed.  A span that raised before setting an
attribute its fold reads first folds to nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

Record = Dict[str, object]

#: Record name -> its ``MetricsFold.fold_*`` function (or ``None``).
_BY_NAME: Dict[str, Optional[Callable[..., None]]] = {}


def _duration(record: Record) -> float:
    return record["end"] - record["start"]


def _add(reg, labels, a, pairs) -> None:
    for metric, key in pairs:
        amount = a[key]  # before the counter exists: no partial writes
        reg.counter(metric, **labels).inc(amount)


class MetricsFold:
    """Folds each finished obs record into ``registry``: a record named
    ``a.b`` folds through ``fold_a_b``; records without one carry none."""

    __slots__ = ("registry",)

    def __init__(self, registry) -> None:
        self.registry = registry

    def __call__(self, record: Record) -> None:
        name = record["name"]
        fold = _BY_NAME.get(name, False)
        if fold is False:
            fold = _BY_NAME[name] = getattr(
                MetricsFold, "fold_" + name.replace(".", "_"), None
            )
        if fold is not None:
            try:
                fold(self, self.registry,
                     record["attrs" if record["kind"] == "span" else "fields"],
                     record)
            except KeyError:
                pass  # the record lacks what this fold needs

    def fold_schedule_build(self, reg, a, record) -> None:
        if record["name"] == "schedule.compile" and a["path"] != "streaming":
            return  # compiling an already-built schedule is not a build
        labels = {"algorithm": a["algorithm"], "topology": a["topology"]}
        ops = a["ops"]
        reg.counter("schedule.builds", **labels).inc()
        reg.histogram("schedule.build_time", **labels).observe(
            _duration(record)
        )
        reg.gauge("schedule.steps", **labels).set(a["steps"])
        reg.gauge("schedule.ops", **labels).set(ops)

    def fold_multitree_build(self, reg, a, record) -> None:
        depths = a["depths"]
        labels = {"topology": a["topology"], "priority": a["priority"]}
        reg.counter("multitree.builds", **labels).inc()
        reg.gauge("multitree.build_steps", **labels).set(a["steps"])
        reg.gauge("multitree.trees", **labels).set(len(depths))
        depth_hist = reg.histogram("multitree.tree_depth", **labels)
        branch_hist = reg.histogram("multitree.tree_branching", **labels)
        for depth, branching in zip(depths, a["branching"]):
            depth_hist.observe(depth)
            branch_hist.observe(branching)

    def fold_lockstep_gates(self, reg, a, record) -> None:
        labels = {"topology": a["topology"], "algorithm": a["algorithm"]}
        reg.counter("lockstep.gated_runs", **labels).inc()
        _add(reg, labels, a, (("lockstep.steps", "steps"),
                              ("lockstep.nop_stalls", "nop_stalls"),
                              ("lockstep.nop_stall_time", "nop_stall_time")))
        reg.gauge("lockstep.span", **labels).set(a["span"])

    def fold_sim_run(self, reg, a, record) -> None:
        delays = a["queue_delays"]
        labels = {"topology": a["topology"], "flow": a["flow"]}
        reg.counter(
            "sim.engine_runs", engine=a["resolved"], topology=a["topology"]
        ).inc()
        reg.counter("sim.runs", **labels).inc()
        _add(reg, labels, a, (("sim.messages", "messages"),
                              ("sim.wire_bytes", "wire_bytes"),
                              ("sim.link_busy_time", "link_busy_time")))
        reg.gauge("sim.finish_time", **labels).set(a["finish_time"])
        queue_hist = reg.histogram("sim.queue_delay", **labels)
        queue_total = 0.0
        for delay in delays:
            queue_hist.observe(delay)
            queue_total += delay
        reg.counter("sim.queue_delay_time", **labels).inc(queue_total)
        reg.counter("fc.overhead_bytes", **labels).inc(a["overhead_bytes"])

    def fold_sim_batch(self, reg, a, record) -> None:
        ran = a["sizes"] - a["fallbacks"]
        if ran:
            reg.counter(
                "sim.engine_runs", engine="lockstep-vec",
                topology=a["topology"],
            ).inc(ran)

    def fold_engine_fallback(self, reg, a, record) -> None:
        labels = {"engine": a["engine"], "reason": a["reason"]}
        if "topology" in a:
            labels["topology"] = a["topology"]
        reg.counter("sim.fallbacks", **labels).inc(a.get("count", 1))

    def fold_artifact_get(self, reg, a, record) -> None:
        outcome = a["outcome"]
        labels = {"topology": a["topology"], "algorithm": a["algorithm"]}
        if outcome == "miss":
            reg.counter(
                "sim.fallbacks", engine="artifact",
                reason=a.get("reason", "absent"), topology=a["topology"],
            ).inc()
        reg.counter(
            "artifact.misses" if outcome == "miss" else "artifact.hits",
            **labels,
        ).inc()

    def fold_sweep_job(self, reg, a, record) -> None:
        points = a["points"]
        labels = {"topology": a["fabric"], "algorithm": a["label"]}
        reg.counter("sweep.jobs", **labels).inc()
        reg.counter("sweep.points", **labels).inc(len(points))
        reg.histogram("sweep.job_time", **labels).observe(_duration(record))
        for size, scenario, bandwidth, time in points:
            point = dict(labels, size=str(size), scenario=scenario)
            reg.gauge("bandwidth", **point).set(bandwidth)
            reg.gauge("allreduce_time", **point).set(time)

    def fold_sweep_run(self, reg, a, record) -> None:
        workers = a["workers"]
        reg.counter("sweep.runs").inc()
        _add(reg, {}, a, (("sweep.cache_hits", "cache_hits"),
                          ("sweep.cache_misses", "cache_misses")))
        reg.gauge("sweep.workers").set(workers)
        reg.gauge("sweep.cache_entries").set(a["cache_entries"])

    def fold_serve_plan(self, reg, a, record) -> None:
        labels = {"topology": a["topology"]}
        _add(reg, labels, a, (("plan.simulated", "simulated"),
                              ("plan.candidates", "candidates"),
                              ("plan.cache_hits", "cache_hits"),
                              ("plan.skipped", "skipped")))
        reg.counter("plan.requests", **labels).inc()
        reg.histogram("plan.wall_time", **labels).observe(_duration(record))

    def fold_serve_predict(self, reg, a, record) -> None:
        source = a["source"]
        reg.counter("serve.predict.hits" if source == "cache" else
                    "serve.predict.failed" if source == "failed" else
                    "serve.predict.misses").inc()

    def fold_serve_enqueue(self, reg, a, record) -> None:
        reg.counter({"enqueued": "serve.enqueued",
                     "overloaded": "serve.queue_full"}[a["outcome"]]).inc()

    def fold_serve_warm(self, reg, a, record) -> None:
        if "error" in a:
            reg.counter("serve.compile_errors").inc()
        else:
            reg.counter("serve.compiled").inc()
            reg.histogram("serve.compile_time").observe(_duration(record))

    def fold_http_request(self, reg, a, record) -> None:
        endpoint, status = a["endpoint"], a["status"]
        reg.counter(
            "serve.requests", endpoint=endpoint, status=str(status)
        ).inc()
        reg.histogram("serve.request_time", endpoint=endpoint).observe(
            _duration(record)
        )
        if endpoint == "/plan" and status == 200:
            reg.counter("serve.plans").inc()

    def fold_bench_report(self, reg, a, record) -> None:
        for name, entry in a["results"].items():
            for key in ("speedup", "optimized_s", "reference_s"):
                reg.gauge("bench." + key, benchmark=name).set(entry[key])

    fold_schedule_compile = fold_schedule_build
