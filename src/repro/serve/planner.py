"""Scenario planner: Pareto frontiers over the variant x size space.

TopoOpt (arXiv 2202.00433) frames algorithm selection as a search over
the (topology, algorithm, size) space; SCCL-style synthesis (arXiv
2008.08708) argues the answer is a *frontier*, not a point.  The planner
implements exactly that search over this repo's machinery: a
:class:`WorkloadSpec` names the workload, :func:`plan` enumerates one
candidate :class:`~repro.scenario.Scenario` per (variant, size) from the
algorithm-variant registry, evaluates them through the sweep runner with
the persistent prediction cache as its inner loop, and returns the
latency/bandwidth Pareto frontier per size bucket.

Identity discipline: every recommendation carries its canonical scenario
string and fingerprint — the same identity the prediction cache, the
artifact store and run manifests key by — so a plan's answer is directly
replayable (``repro sweep --scenario <entry>``) and directly servable
(``GET /predict?scenario=<entry>``).

Determinism: candidates enumerate in sorted-variant order, frontier
entries sort by (latency, canonical scenario string), and exact
objective ties keep every tied entry — two runs of one plan are
byte-identical, and a warm cache changes cost only, never the answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..collectives.variants import FLOW_CONTROL_FACTORIES, variant_names
from ..network.simulator import check_engine
from ..scenario import (
    Overrides,
    Scenario,
    format_size,
    normalize_overrides,
    parse_sizes,
    scenario_set_fingerprint,
)
from ..sweep import ArtifactStore, PredictionCache, jobs_from_scenarios, run_job
from ..topology.base import Topology
from ..topology.specs import parse_topology_spec

#: Objective direction table for :func:`pareto_frontier`.
_SENSES = ("min", "max")

#: The ``lockstep=`` query values :meth:`WorkloadSpec.from_query` accepts.
_SWITCH = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def pareto_frontier(
    points: Sequence,
    objectives: Sequence[Tuple[Callable[[object], float], str]],
    tie_break: Optional[Callable[[object], object]] = None,
) -> List:
    """The non-dominated subset of ``points`` under ``objectives``.

    ``objectives`` is a sequence of ``(key function, sense)`` pairs with
    sense ``"min"`` or ``"max"``.  A point is dominated when some other
    point is at least as good on every objective and strictly better on
    one; points with *identical* objective vectors are ties and all
    survive.  The result is sorted by the first objective (in its
    sense's improving direction) then by ``tie_break`` (default: the
    point's ``str``), so frontier order is deterministic regardless of
    input order.  The single-candidate degenerate case returns that
    candidate.
    """
    for _key, sense in objectives:
        if sense not in _SENSES:
            raise ValueError("objective sense must be min or max, got %r" % sense)
    # Normalize to minimize-space vectors once.
    vectors = [
        tuple(
            key(point) if sense == "min" else -key(point)
            for key, sense in objectives
        )
        for point in points
    ]
    survivors = []
    for index, vector in enumerate(vectors):
        dominated = False
        for other in vectors:
            if other == vector:
                continue  # equal vectors tie; distinct points both survive
            if all(o <= v for o, v in zip(other, vector)) and any(
                o < v for o, v in zip(other, vector)
            ):
                dominated = True
                break
        if not dominated:
            survivors.append(index)
    breaker = tie_break if tie_break is not None else str
    survivors.sort(key=lambda i: (vectors[i], breaker(points[i])))
    return [points[i] for i in survivors]


@dataclass(frozen=True)
class WorkloadSpec:
    """One planning request: the workload axes the caller has fixed.

    ``algorithms`` of ``()`` means "every registered variant" — the
    planner's default search breadth.  ``flow_control``/``overrides``
    constrain every candidate; variants whose registry pairing
    contradicts the requested flow control are skipped (recorded, not
    errored).  The engine defaults to the vectorized lockstep fast
    path — plans are interactive queries, ``lockstep-vec`` evaluates each
    candidate's whole size bucket in one batched pass, and results stay
    bit-identical to the event engine (per-size scalar fallback when the
    vectorized engine declines).
    """

    topology: str                       # combined spec, e.g. "torus-8x8"
    sizes: Tuple[int, ...]
    algorithms: Tuple[str, ...] = ()
    flow_control: Optional[str] = None
    lockstep: bool = True
    engine: str = "lockstep-vec"
    overrides: Overrides = ()

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("workload spec needs at least one payload size")
        check_engine(self.engine)
        if (
            self.flow_control is not None
            and self.flow_control not in FLOW_CONTROL_FACTORIES
        ):
            raise ValueError(
                "unknown flow control %r (choose: %s)"
                % (self.flow_control, sorted(FLOW_CONTROL_FACTORIES))
            )
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(
            self, "overrides", normalize_overrides(self.overrides)
        )

    @classmethod
    def from_query(cls, params: Mapping[str, str]) -> "WorkloadSpec":
        """Build a spec from flat string parameters (HTTP query / CLI).

        Recognized keys: ``topology`` (required, combined spec),
        ``sizes`` (required, :func:`repro.scenario.parse_sizes` grammar),
        ``algorithms`` (comma list), ``flow_control``, ``engine``,
        ``lockstep`` (``1``/``true``/``yes``/``on`` or
        ``0``/``false``/``no``/``off``, any case).  Unknown keys and any
        other ``lockstep`` value are rejected so a typo cannot silently
        widen or narrow a search.
        """
        known = {
            "topology", "sizes", "algorithms", "flow_control", "engine",
            "lockstep",
        }
        unknown = sorted(set(params) - known)
        if unknown:
            raise ValueError(
                "unknown plan parameter(s) %s (choose: %s)"
                % (", ".join(unknown), ", ".join(sorted(known)))
            )
        topology = params.get("topology")
        sizes_text = params.get("sizes")
        if not topology or not sizes_text:
            raise ValueError("plan needs both topology= and sizes=")
        algorithms = tuple(
            a.strip() for a in params.get("algorithms", "").split(",") if a.strip()
        )
        lockstep_text = str(params.get("lockstep", "1")).lower()
        if lockstep_text not in _SWITCH:
            raise ValueError(
                "lockstep must be one of %s, not %r"
                % ("/".join(_SWITCH), params["lockstep"])
            )
        return cls(
            topology=topology,
            sizes=parse_sizes(sizes_text),
            algorithms=algorithms,
            flow_control=params.get("flow_control") or None,
            lockstep=_SWITCH[lockstep_text],
            engine=params.get("engine", "lockstep-vec"),
        )

    def candidate_algorithms(self) -> Tuple[str, ...]:
        return self.algorithms or tuple(variant_names())

    def candidates(self) -> List[Scenario]:
        """One scenario per (variant, size), sorted by variant name.

        Construction-time validation (unknown topology/variant/override)
        surfaces here; workload-dependent failures (a variant that cannot
        build on this topology, a pinned flow control contradicting the
        requested one) surface during evaluation and become ``skipped``
        entries of the plan rather than errors.
        """
        return [
            Scenario(
                topology=self.topology,
                algorithm=algorithm,
                data_bytes=size,
                flow_control=self.flow_control,
                lockstep=self.lockstep,
                engine=self.engine,
                overrides=self.overrides,
            )
            for algorithm in sorted(self.candidate_algorithms())
            for size in self.sizes
        ]


@dataclass
class PlanEntry:
    """One evaluated candidate: a scenario plus its predicted numbers."""

    scenario: str          # canonical scenario string — the identity
    fingerprint: str
    algorithm: str         # variant name (spelled as requested)
    time: float            # predicted all-reduce latency, seconds
    bandwidth: float       # all-reduce bandwidth, bytes/second
    max_queue_delay: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "fingerprint": self.fingerprint,
            "algorithm": self.algorithm,
            "time": self.time,
            "bandwidth": self.bandwidth,
            "max_queue_delay": self.max_queue_delay,
        }


@dataclass
class PlanBucket:
    """One size bucket: every candidate at that payload, and its frontier."""

    data_bytes: int
    frontier: List[PlanEntry] = field(default_factory=list)
    candidates: int = 0

    @property
    def size(self) -> str:
        return format_size(self.data_bytes)

    @property
    def best(self) -> Optional[PlanEntry]:
        return self.frontier[0] if self.frontier else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "data_bytes": self.data_bytes,
            "size": self.size,
            "candidates": self.candidates,
            "frontier": [entry.to_dict() for entry in self.frontier],
        }


@dataclass
class PlanResult:
    """The planner's answer: per-size frontiers plus full accounting."""

    topology: str
    buckets: List[PlanBucket] = field(default_factory=list)
    skipped: List[Dict[str, str]] = field(default_factory=list)
    scenarios: List[Scenario] = field(default_factory=list)  # evaluated
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time_s: float = 0.0
    #: The parsed fabric the scenarios ran on, so :meth:`fingerprint`
    #: does not parse it again per scenario.
    fabric: Optional[Topology] = field(default=None, repr=False, compare=False)

    @property
    def simulated(self) -> int:
        """Points that had to run the simulator (0 = fully warm)."""
        return self.cache_misses

    def fingerprint(self) -> str:
        """Identity of the evaluated scenario set (order independent)."""
        return scenario_set_fingerprint(self.scenarios, self.fabric)

    def to_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "fingerprint": self.fingerprint() if self.scenarios else None,
            "buckets": [bucket.to_dict() for bucket in self.buckets],
            "skipped": list(self.skipped),
            "stats": {
                "candidates": len(self.scenarios),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "simulated": self.simulated,
                "wall_time_s": self.wall_time_s,
            },
        }

    def format_table(self) -> str:
        """Human-readable rendering: one frontier block per size bucket."""
        lines = [
            "plan for %s (%d candidates, %d cache hits, %d simulated, %.2fs)"
            % (
                self.topology, len(self.scenarios), self.cache_hits,
                self.simulated, self.wall_time_s,
            )
        ]
        for bucket in self.buckets:
            lines.append("")
            lines.append(
                "%s — frontier (%d of %d candidates):"
                % (bucket.size, len(bucket.frontier), bucket.candidates)
            )
            lines.append(
                "  %-44s %12s %14s %12s"
                % ("scenario", "latency", "bandwidth", "fingerprint")
            )
            for entry in bucket.frontier:
                lines.append(
                    "  %-44s %9.1f us %11.2f GB/s %12s"
                    % (
                        entry.scenario, entry.time * 1e6,
                        entry.bandwidth / 1e9, entry.fingerprint,
                    )
                )
        for item in self.skipped:
            lines.append("")
            lines.append(
                "skipped %s: %s" % (item["algorithm"], item["reason"])
            )
        return "\n".join(lines)


def plan(
    spec: WorkloadSpec,
    cache: Optional[PredictionCache] = None,
    artifacts: Optional[ArtifactStore] = None,
) -> PlanResult:
    """Evaluate ``spec``'s candidates and return per-size Pareto frontiers.

    The inner loop is the sweep runner's :func:`~repro.sweep.run_job` —
    one job per algorithm variant over the shared size axis — so plans
    share the prediction cache and compiled-artifact store with every
    other caller, and a repeated plan is pure cache hits (asserted by the
    ``plan.simulated`` metric reaching zero).  Candidates whose variant
    cannot run on the workload (incompatible topology, contradicted
    flow-control pin) are recorded under ``skipped`` with the reason.

    The caller owns cache persistence: pass a live
    :class:`PredictionCache` and call ``save()`` after (the CLI and the
    service both do).
    """
    with obs.span(
        "serve.plan", topology=spec.topology, sizes=len(spec.sizes)
    ) as plan_span:
        start = time.perf_counter()
        result = PlanResult(topology=spec.topology)
        hits0 = cache.hits if cache is not None else 0
        misses0 = cache.misses if cache is not None else 0
        by_size: Dict[int, List[PlanEntry]] = {size: [] for size in spec.sizes}
        simulated_without_cache = 0
        # Every candidate shares the spec's fabric: parse it once, for
        # the jobs and the fingerprints alike.
        for job in jobs_from_scenarios(spec.candidates()):
            scenarios = job.scenarios()
            try:
                if result.fabric is None:
                    result.fabric = parse_topology_spec(job.topology)
                sweep = run_job(job, cache, artifacts, result.fabric)
            except Exception as error:  # incompatible variant: skip, don't die
                result.skipped.append(
                    {"algorithm": job.algorithm, "reason": str(error)}
                )
                continue
            result.scenarios.extend(scenarios)
            if cache is None:
                simulated_without_cache += len(sweep.points)
            for scenario, point in zip(scenarios, sweep.points):
                by_size[scenario.data_bytes].append(
                    PlanEntry(
                        scenario=str(scenario),
                        fingerprint=scenario.fingerprint(result.fabric),
                        algorithm=scenario.algorithm,
                        time=point.time,
                        bandwidth=point.bandwidth,
                        max_queue_delay=point.max_queue_delay,
                    )
                )
        for size in spec.sizes:
            entries = by_size[size]
            with obs.span(
                "plan.bucket", size=size, entries=len(entries)
            ) as bucket_span:
                bucket = PlanBucket(data_bytes=size, candidates=len(entries))
                bucket.frontier = pareto_frontier(
                    entries,
                    objectives=(
                        (lambda e: e.time, "min"),
                        (lambda e: e.bandwidth, "max"),
                    ),
                    tie_break=lambda e: e.scenario,
                )
                bucket_span.set("frontier", len(bucket.frontier))
            result.buckets.append(bucket)
        if cache is not None:
            result.cache_hits = cache.hits - hits0
            result.cache_misses = cache.misses - misses0
        else:
            result.cache_misses = simulated_without_cache
        result.wall_time_s = time.perf_counter() - start
        plan_span.set("candidates", len(result.scenarios))
        plan_span.set("skipped", len(result.skipped))
        plan_span.set("cache_hits", result.cache_hits)
        plan_span.set("simulated", result.simulated)
        return result
