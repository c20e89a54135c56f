"""Per-layer attribution: where the traced run's timers go, what they yield.

:func:`install` puts timers around each module's public entry points on a
live fixture; :func:`layer_metrics` turns the recorded spans plus the
program's own counters (``ServingStatistics.export_metrics``, the lifecycle
manager's status, ``ObserverHub`` events) into the per-layer metrics.

The lifecycle manager registers a fresh engine and swaps in a fresh model
at run time.  Those objects are instrumented in place when the service
publishes ``engine.registered`` / ``model.swapped``; nothing is
re-registered, so registry epochs, versions and the durability journal see
exactly what the untraced run sees.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import repro.dbms.serving as serving_module
from repro.dbms.sqlfront import ParsedStatement

from spans import (
    Span,
    Tracer,
    instrument,
    roots,
    self_times,
    uninstrument,
    union_length,
)
from workloads import DRIFT_TABLE, DriftFixture, TablesFixture

#: Span names of the statement path whose self times make up a script.
STATEMENT_LAYERS = ("sqlfront", "serving", "core", "executor")


def _observe_exact(span: Span, args: tuple, answers) -> None:
    span.attrs["n"] = len(answers)
    span.attrs["empty"] = sum(answer is None for answer in answers)


def _observe_covered(span: Span, args: tuple, result) -> None:
    covered = result[1]
    span.attrs["n"] = len(covered)
    span.attrs["covered"] = int(np.count_nonzero(covered))


ENGINE_METHODS = {
    "execute_q1_batch": ("executor.exact", _observe_exact),
    "execute_q2_batch": ("executor.exact", _observe_exact),
}
MODEL_METHODS = {
    "predict_mean_batch_with_coverage": ("core.predict", _observe_covered),
    "predict_q2_batch_with_coverage": ("core.predict", _observe_covered),
    # the lifecycle probe's calls; they sit under lifecycle spans
    "predict_mean_batch": ("core.predict", None),
    "coverage_batch": ("core.predict", None),
}


@dataclass
class Installation:
    """What a traced phase changed, so it can be undone before the audit."""

    tracer: Tracer
    objects: list = field(default_factory=list)
    owner: dict[int, int | None] = field(default_factory=dict)
    journaled: int = 0
    observer: object = None


class _RegistryObserver:
    """Instruments objects the program registers while the phase runs."""

    def __init__(self, installation: Installation, service) -> None:
        self.installation = installation
        self.service = service

    def notify(self, event) -> None:
        if event.kind not in ("engine.registered", "model.swapped"):
            return
        # the two registry events the durability journal appends an entry for
        self.installation.journaled += 1
        if event.kind == "engine.registered":
            _add(self.installation, self.service.engine_for(event.table), ENGINE_METHODS)
        else:
            _add(self.installation, self.service.model_for(event.table), MODEL_METHODS)


def _add(installation: Installation, obj: object, methods: dict) -> None:
    if instrument(installation.tracer, obj, methods):
        installation.objects.append(obj)


@contextmanager
def install(tracer: Tracer, fixture: TablesFixture | DriftFixture):
    """Time every layer boundary of ``fixture`` for the duration of the block."""
    installation = Installation(tracer)
    service = fixture.service
    original_parse = serving_module.parse_script

    def note_owner(span: Span, args: tuple, statements) -> None:
        # remember which request each parsed statement belongs to, so a
        # coalesced flush on a worker thread can name the scripts it serves
        for statement in statements:
            installation.owner[id(statement)] = span.request

    def note_flush(span: Span, args: tuple, results) -> None:
        script = args[0]
        if not isinstance(script, str):
            span.attrs["requests"] = sorted(
                {
                    installation.owner.get(id(s))
                    for s in script
                    if isinstance(s, ParsedStatement)
                }
                - {None}
            )

    serving_module.parse_script = tracer.wrap("sqlfront.parse", original_parse, note_owner)
    try:
        _add(installation, service, {"execute_script": ("serving.execute_script", note_flush)})
        for table in service.tables:
            _add(installation, service.engine_for(table), ENGINE_METHODS)
            _add(installation, service.model_for(table), MODEL_METHODS)
        if isinstance(fixture, DriftFixture):
            _add(
                installation,
                fixture.manager,
                {"tick": ("lifecycle.tick", None), "retrain": ("lifecycle.retrain", None)},
            )
            _add(
                installation,
                fixture.checkpointer,
                {"checkpoint": ("durability.checkpoint", _observe_checkpoint)},
            )
            _add(installation, fixture.store, {"append_rows": ("storage.append", _observe_append)})
        installation.observer = _RegistryObserver(installation, service)
        service.observers.subscribe(installation.observer)
        yield installation
    finally:
        serving_module.parse_script = original_parse
        if installation.observer is not None:
            service.observers.unsubscribe(installation.observer)
        for obj in installation.objects:
            uninstrument(obj)


def _observe_checkpoint(span: Span, args: tuple, path) -> None:
    span.attrs["bytes"] = path.stat().st_size


def _observe_append(span: Span, args: tuple, info) -> None:
    span.attrs["rows"] = len(args[1])


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
#: Per-layer metrics: name -> (unit, better).  Comments give the end-to-end
#: metric each should move and the workloads that load it; every workload
#: reports every metric, 0 where the layer is bypassed.  ``*_ms`` of the
#: statement path are self times per script.
PER_LAYER = {
    # script_p75_ms, stmt_per_s: ~20% of hybrid-script, every front-mixed
    # statement (cache hits too), a smaller share of drift-cycle
    "sqlfront.parse_ms": ("ms", "lower"),
    # script_p75_ms, stmt_per_s: grouping, query build, breaker, assembly;
    # ~35% of hybrid-script
    "serving.self_ms": ("ms", "lower"),
    "serving.fallback_share": ("share", "lower"),
    "serving.retries": ("count", "lower"),
    # script_p75_ms, avg_rmse via covered_share: heavy in hybrid-script, light in
    # drift-cycle and on front-mixed cache hits
    "core.predict_ms": ("ms", "lower"),
    "core.covered_share": ("share", "higher"),
    "core.prototypes": ("count", "lower"),
    # script_p75_ms: drift-cycle after each drift, ~9% of hybrid-script
    "executor.exact_ms": ("ms", "lower"),
    "executor.exact_queries": ("1/script", "lower"),
    "executor.empty_share": ("share", "lower"),
    # script_p75_ms: front-mixed only
    "concurrent.cache_hit_share": ("share", "higher"),
    "concurrent.coalesce_width": ("scripts", "higher"),
    "concurrent.inner_ms": ("ms", "lower"),
    "concurrent.wait_ms": ("ms", "lower"),
    "concurrent.rejected": ("count", "lower"),
    # the printed stmt_per_s and drift recovery: drift-cycle only
    "lifecycle.tick_ms": ("ms", "lower"),
    "lifecycle.retrain_ms": ("ms", "lower"),
    "lifecycle.retrains": ("1/drift", "lower"),
    "lifecycle.rollbacks": ("1/drift", "lower"),
    "lifecycle.recovery_scripts": ("scripts", "lower"),
    # the printed stmt_per_s: drift-cycle only
    "durability.checkpoint_ms": ("ms", "lower"),
    "durability.checkpoint_bytes": ("B", "lower"),
    "durability.journal_entries": ("1/drift", "lower"),
    "storage.append_ms": ("ms", "lower"),
    "storage.rows_appended": ("count", "higher"),
    # the harness itself
    "trace.accounted_share": ("share", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    installation: Installation,
    fixture: TablesFixture | DriftFixture,
    *,
    rejected: int,
    recovery_scripts: list[int],
    overhead_pct: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced phase (0 where a layer is bypassed)."""
    spans = installation.tracer.spans
    own = self_times(spans)
    root_of = roots(spans)
    scripts = [s for s in spans if s.name == "client.script"]
    per_script = max(len(scripts), 1)

    def on_statement_path(span: Span) -> bool:
        root = root_of[span.id]
        return root.name == "client.script" or (
            root.name == "serving.execute_script" and root.parent is None
        )

    path = [s for s in spans if on_statement_path(s)]
    by_layer: dict[str, float] = {}
    for span in path:
        by_layer[span.layer] = by_layer.get(span.layer, 0.0) + own[span.id]
    predicts = [s for s in path if s.name == "core.predict"]
    exacts = [s for s in path if s.name == "executor.exact"]

    service = fixture.service
    inner = service.statistics.export_metrics()
    metrics = {
        "sqlfront.parse_ms": by_layer.get("sqlfront", 0.0) / per_script * 1e3,
        "serving.self_ms": by_layer.get("serving", 0.0) / per_script * 1e3,
        "serving.fallback_share": inner["fallback_rate"],
        "serving.retries": inner["retry_count"],
        "core.predict_ms": by_layer.get("core", 0.0) / per_script * 1e3,
        "core.covered_share": _share(
            sum(s.attrs.get("covered", 0) for s in predicts),
            sum(s.attrs.get("n", 0) for s in predicts),
        ),
        "core.prototypes": _mean(
            [service.model_for(t).prototype_count for t in service.tables]
        ),
        "executor.exact_ms": by_layer.get("executor", 0.0) / per_script * 1e3,
        "executor.exact_queries": sum(s.attrs["n"] for s in exacts) / per_script,
        "executor.empty_share": _share(
            sum(s.attrs["empty"] for s in exacts), sum(s.attrs["n"] for s in exacts)
        ),
        "trace.accounted_share": _share(
            sum(by_layer.get(layer, 0.0) for layer in STATEMENT_LAYERS),
            sum(s.duration for s in scripts),
        ),
        "trace.overhead_pct": overhead_pct,
        "concurrent.rejected": float(rejected),
        "lifecycle.recovery_scripts": (
            statistics.median(recovery_scripts) if recovery_scripts else 0.0
        ),
    }
    metrics.update(_front_metrics(fixture, spans, scripts))
    metrics.update(_drift_metrics(installation, fixture, spans))
    return metrics


def _front_metrics(fixture, spans: list[Span], scripts: list[Span]) -> dict[str, float]:
    front = getattr(fixture, "front", None)
    if front is None:
        return {
            "concurrent.cache_hit_share": 0.0,
            "concurrent.coalesce_width": 0.0,
            "concurrent.inner_ms": 0.0,
            "concurrent.wait_ms": 0.0,
        }
    flushes = [s for s in spans if s.name == "serving.execute_script" and s.parent is None]
    served_by: dict[int, list[Span]] = {}
    for flush in flushes:
        for request in flush.attrs.get("requests", ()):
            served_by.setdefault(request, []).append(flush)
    parses: dict[int, list[Span]] = {}
    for span in spans:
        if span.name == "sqlfront.parse" and span.request is not None:
            parses.setdefault(span.request, []).append(span)
    inner, waits = [], []
    for script in scripts:
        executing = [
            (max(s.start, script.start), min(s.end, script.end))
            for s in served_by.get(script.request, ())
        ]
        parsing = [(s.start, s.end) for s in parses.get(script.request, ())]
        inner.append(union_length(executing))
        waits.append(script.duration - union_length(executing + parsing))
    exported = front.statistics.export_metrics()
    return {
        "concurrent.cache_hit_share": exported["cache_hit_rate"],
        "concurrent.coalesce_width": _mean([len(f.attrs.get("requests", ())) for f in flushes]),
        "concurrent.inner_ms": _mean(inner) * 1e3,
        "concurrent.wait_ms": _mean(waits) * 1e3,
    }


def _drift_metrics(installation: Installation, fixture, spans: list[Span]) -> dict[str, float]:
    def durations(name: str) -> list[float]:
        return [s.duration for s in spans if s.name == name]

    metrics = {
        "lifecycle.tick_ms": _mean(durations("lifecycle.tick")) * 1e3,
        "lifecycle.retrain_ms": _mean(durations("lifecycle.retrain")) * 1e3,
        "durability.checkpoint_ms": _mean(durations("durability.checkpoint")) * 1e3,
        "durability.checkpoint_bytes": _mean(
            [s.attrs["bytes"] for s in spans if s.name == "durability.checkpoint"]
        ),
        "storage.append_ms": _mean(durations("storage.append")) * 1e3,
        "storage.rows_appended": float(
            sum(s.attrs["rows"] for s in spans if s.name == "storage.append")
        ),
        "lifecycle.retrains": 0.0,
        "lifecycle.rollbacks": 0.0,
        "durability.journal_entries": 0.0,
    }
    drifts = len(durations("storage.append"))  # one append per drift
    if drifts:
        status = fixture.manager.status_for(DRIFT_TABLE)
        metrics["lifecycle.retrains"] = status["retrain_count"] / drifts
        metrics["lifecycle.rollbacks"] = status["rollback_count"] / drifts
        metrics["durability.journal_entries"] = installation.journaled / drifts
    return metrics
