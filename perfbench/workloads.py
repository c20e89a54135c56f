"""The benchmark's three workloads: inputs, fixtures and closed-loop drivers.

Every workload drives the public serving API with generated statement
text only.  The tables and the initially trained models are a fixed
fixture (``FIXTURE_SEED``); the ``--seed`` of a run decides the traffic:
which statements, in which order, and the rows a drift appends.  Holding
the fixture fixed keeps seed-to-seed spread down to the traffic itself.

* ``hybrid-script`` — one caller, 1,000-statement scripts over R1 and R2
  through :meth:`AnalyticsService.execute_script`.  Centres come from the
  trained workload, so the model answers nearly every AVG/REGRESSION
  statement; only COUNT and rare fallbacks reach the exact engine.
* ``front-mixed`` — two client threads, 8-statement scripts through a
  :class:`ConcurrentAnalyticsService` with the default policy.  Half the
  statements come from a hot set smaller than the 4,096-entry answer
  cache, half are fresh, so the cache, coalescer and admission all work.
* ``drift-cycle`` — one caller over a SQLite-backed table under a
  :class:`ModelManager` on a virtual clock and a
  :class:`ServiceCheckpointer`.  Each cycle the surface drifts, rows are
  appended and traffic moves to the region the serving model has not
  seen; ``tick()`` and ``checkpoint()`` run between scripts.
"""

from __future__ import annotations

import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.config import ModelConfig, TrainingConfig
from repro.core.model import LLMModel
from repro.data.functions import DriftingFunction, SineRidge
from repro.data.synthetic import SyntheticDataset
from repro.dbms.concurrent import ConcurrentAnalyticsService
from repro.dbms.executor import ExactQueryEngine
from repro.dbms.durability import ServiceCheckpointer
from repro.dbms.lifecycle import DriftPolicy, ModelManager, ModelVersionStore
from repro.dbms.serving import AnalyticsService, StatementResult
from repro.dbms.storage import SQLiteDataStore
from repro.eval.experiments import build_context
from repro.exceptions import ServiceOverloadedError
from repro.queries.stream import LabelledWorkload
from repro.queries.workload import (
    QueryWorkloadGenerator,
    RadiusDistribution,
    WorkloadSpec,
)

from spans import Tracer

#: Seed of the tables and initial models; the run's --seed drives traffic.
FIXTURE_SEED = 7
DATASET_SIZE = 40_000
TRAINING_QUERIES = 1_200
TABLES = ("R1", "R2")

#: Statement mix of every workload: AVG / REGRESSION / COUNT shares.
KIND_SHARES = (("AVG(u)", 0.85), ("REGRESSION(u)", 0.10), ("COUNT(*)", 0.05))

#: Centre jitter, as a share of the source query's radius, that keeps
#: generated statements distinct while the trained model still covers them.
CENTRE_JITTER = 0.1

HYBRID_SCRIPT_STATEMENTS = 1_000
HYBRID_SCRIPT_POOL = 24

FRONT_CLIENTS = 2
FRONT_SCRIPT_STATEMENTS = 8
#: Hot statements in the front's mix: a quarter of the answer cache.
FRONT_HOT_SET = 1_024
FRONT_HOT_SHARE = 0.5
#: Scripts generated per client; enough that fresh statements never repeat
#: within a run on this hardware (the stream wraps around if exhausted).
FRONT_SCRIPTS_PER_CLIENT = 12_000

DRIFT_TABLE = "drifting"
DRIFT_SCRIPT_STATEMENTS = 500
DRIFT_SCRIPTS_PER_CYCLE = 6
#: Rows appended per drift.  Small next to the table, so a faster program,
#: which runs more cycles, does not pay for it in a much larger table.
DRIFT_APPEND_ROWS = 200
#: Drifts generated per run: over ten times the ~75 a 30-s run reached on a
#: 2-CPU host, so a faster program does not run out of them.
DRIFT_MAX_CYCLES = 1_000
DRIFT_POOL = 8
#: Traffic regions: cycles alternate, so each drift sends traffic to the
#: region the currently serving model was not trained on.
DRIFT_REGIONS = ((0.05, 0.45), (0.55, 0.95))
DRIFT_RADIUS = RadiusDistribution(mean=0.1, std=0.02, minimum=0.02)
#: Virtual seconds between scripts on the lifecycle manager's clock.
DRIFT_TICK_SECONDS = 60.0
DRIFT_POLICY = DriftPolicy(
    fallback_rate_threshold=0.3,
    min_window_statements=DRIFT_SCRIPT_STATEMENTS,
    window_buckets=4,
    cooldown_seconds=0.0,
    min_retrain_queries=64,
    probe_size=128,
    keep_versions=3,
)

#: Scripts whose answers the audit checks and ``avg_rmse`` is computed on;
#: every run serves at least this many, so both are fixed for a seed.
AUDIT_SCRIPTS = {
    "hybrid-script": 8,
    "front-mixed": 600,  # per client
    "drift-cycle": 12 * DRIFT_SCRIPTS_PER_CYCLE,
}

WORK_DIR = Path(__file__).resolve().parent / ".work"


# --------------------------------------------------------------------------- #
# statement generation
# --------------------------------------------------------------------------- #
def statement_text(kind: str, table: str, center, radius: float) -> str:
    # repr round-trips floats, so parsing rebuilds the generated query exactly
    center_text = ", ".join(repr(float(value)) for value in center)
    return f"SELECT {kind} FROM {table} WITHIN {float(radius)!r} OF ({center_text})"


def _kinds(rng: np.random.Generator, count: int) -> list[str]:
    draws = rng.random(count)
    edges = np.cumsum([share for _, share in KIND_SHARES])
    index = np.searchsorted(edges, draws, side="right").clip(0, len(KIND_SHARES) - 1)
    return [KIND_SHARES[i][0] for i in index]


def covered_statements(
    rng: np.random.Generator, training: dict[str, tuple[np.ndarray, np.ndarray]], count: int
) -> list[str]:
    """Statements near the trained workload's queries, tables drawn evenly."""
    tables = sorted(training)
    table_index = rng.integers(len(tables), size=count)
    kinds = _kinds(rng, count)
    out = []
    for position in range(count):
        table = tables[table_index[position]]
        centers, radii = training[table]
        pick = rng.integers(len(radii))
        radius = radii[pick] * rng.uniform(0.9, 1.1)
        center = centers[pick] + rng.normal(0.0, CENTRE_JITTER * radii[pick], centers.shape[1])
        out.append(statement_text(kinds[position], table, center, radius))
    return out


def region_statements(
    rng: np.random.Generator, table: str, low: float, high: float, count: int
) -> list[str]:
    """Statements with centres uniform over ``[low, high]^2``."""
    spec = WorkloadSpec(dimension=2, center_low=low, center_high=high, radius=DRIFT_RADIUS)
    queries = QueryWorkloadGenerator(spec, seed=int(rng.integers(2**63))).generate(count)
    kinds = _kinds(rng, count)
    return [
        statement_text(kind, table, query.center, query.radius)
        for kind, query in zip(kinds, queries)
    ]


def join_script(statements: list[str]) -> str:
    return ";\n".join(statements)


def _training_arrays(contexts: dict) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return {
        table: (
            np.array([q.center for q in context.training.queries]),
            np.array([q.radius for q in context.training.queries]),
        )
        for table, context in contexts.items()
    }


# --------------------------------------------------------------------------- #
# run results
# --------------------------------------------------------------------------- #
@dataclass
class AuditSample:
    """Served answers of one script and the objects that must reproduce them.

    ``serving`` maps a table to the ``(model, engine)`` registered while the
    script ran; ``truth`` maps it to an exact engine over the table's rows
    at that moment (the RMSE reference).
    """

    results: list[StatementResult]
    serving: dict[str, tuple[object, object]]
    truth: dict[str, object]


@dataclass
class RunResult:
    """What one timed phase observed from the client side."""

    statements: int = 0
    elapsed: float = 0.0
    latencies: list[float] = field(default_factory=list)  # per script, seconds
    failed: int = 0
    audit: list[AuditSample] = field(default_factory=list)
    answers: list[list[StatementResult]] = field(default_factory=list)
    rejected: int = 0
    recovery_scripts: list[int] = field(default_factory=list)
    #: the process's peak resident set at the end of the timed phase, before
    #: any audit reference is built
    peak_rss_mb: float = 0.0

    @property
    def stmt_per_s(self) -> float:
        return self.statements / self.elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _errors(results: list[StatementResult]) -> int:
    return sum(not result.ok for result in results)


def _timed_script(call: Callable[[], list], tracer: Tracer | None, request: int):
    span = tracer.open("client.script", request=request) if tracer else None
    start = time.perf_counter()
    try:
        results = call()
    finally:
        latency = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
    return results, latency


# --------------------------------------------------------------------------- #
# R1 + R2 tables (hybrid-script, front-mixed)
# --------------------------------------------------------------------------- #
@dataclass
class TablesFixture:
    service: AnalyticsService
    front: ConcurrentAnalyticsService | None
    training: dict[str, tuple[np.ndarray, np.ndarray]]

    def audit_sample(self, results: list[StatementResult]) -> AuditSample:
        serving = {
            table: (self.service.model_for(table), self.service.engine_for(table))
            for table in TABLES
        }
        # the tables never change, so the serving engines are the truth too
        truth = {table: engine for table, (_, engine) in serving.items()}
        return AuditSample(results, serving, truth)

    def close(self) -> None:
        if self.front is not None:
            self.front.close()
        self.service.close()


def setup_tables(with_front: bool) -> TablesFixture:
    contexts = {
        table: build_context(
            table,
            dimension=2,
            dataset_size=DATASET_SIZE,
            training_queries=TRAINING_QUERIES,
            testing_queries=50,
            seed=FIXTURE_SEED,
        )
        for table in TABLES
    }
    service = AnalyticsService(
        engines={table: context.engine for table, context in contexts.items()},
        models={table: context.train_model()[0] for table, context in contexts.items()},
    )
    front = ConcurrentAnalyticsService(service) if with_front else None
    return TablesFixture(service, front, _training_arrays(contexts))


def hybrid_inputs(fixture: TablesFixture, seed: int) -> list[str]:
    rng = np.random.default_rng([seed, 1])
    return [
        join_script(covered_statements(rng, fixture.training, HYBRID_SCRIPT_STATEMENTS))
        for _ in range(HYBRID_SCRIPT_POOL)
    ]


def run_hybrid(
    fixture: TablesFixture,
    scripts: list[str],
    *,
    seconds: float,
    tracer: Tracer | None = None,
    keep_answers: bool = False,
) -> RunResult:
    service = fixture.service
    for script in scripts[-2:]:  # warm-up: lazy predictor caches, numpy paths
        service.execute_script(script)
    service.reset_statistics()
    if tracer is not None:
        tracer.spans.clear()  # warm-up spans are not part of the measurement
    minimum = AUDIT_SCRIPTS["hybrid-script"]
    run = RunResult()
    start = time.perf_counter()
    while len(run.latencies) < minimum or time.perf_counter() - start < seconds:
        script = scripts[len(run.latencies) % len(scripts)]
        results, latency = _timed_script(
            lambda: service.execute_script(script), tracer, len(run.latencies)
        )
        run.latencies.append(latency)
        run.statements += len(results)
        run.failed += _errors(results)
        if len(run.latencies) <= minimum:
            run.audit.append(fixture.audit_sample(results))
        if keep_answers:
            run.answers.append(results)
    run.elapsed = time.perf_counter() - start
    run.peak_rss_mb = _peak_rss_mb()
    return run


def front_inputs(fixture: TablesFixture, seed: int) -> list[list[str]]:
    """The hot set, then one script stream per client."""
    hot = covered_statements(np.random.default_rng([seed, 2]), fixture.training, FRONT_HOT_SET)
    streams = []
    for client in range(FRONT_CLIENTS):
        rng = np.random.default_rng([seed, 3, client])
        total = FRONT_SCRIPTS_PER_CLIENT * FRONT_SCRIPT_STATEMENTS
        is_hot = rng.random(total) < FRONT_HOT_SHARE
        hot_picks = rng.integers(len(hot), size=total)
        cold = iter(covered_statements(rng, fixture.training, int((~is_hot).sum())))
        flat = [hot[hot_picks[i]] if is_hot[i] else next(cold) for i in range(total)]
        streams.append(
            [
                join_script(flat[i : i + FRONT_SCRIPT_STATEMENTS])
                for i in range(0, total, FRONT_SCRIPT_STATEMENTS)
            ]
        )
    return [hot] + streams


def run_front(
    fixture: TablesFixture,
    inputs: list[list[str]],
    *,
    seconds: float,
    tracer: Tracer | None = None,
    keep_answers: bool = False,
) -> RunResult:
    front = fixture.front
    hot, streams = inputs[0], inputs[1:]
    for offset in range(0, len(hot), 64):  # warm-up: the hot set fills the cache
        front.execute_script(join_script(hot[offset : offset + 64]))
    front.reset_statistics()
    fixture.service.reset_statistics()
    if tracer is not None:
        tracer.spans.clear()  # warm-up spans are not part of the measurement
    minimum = AUDIT_SCRIPTS["front-mixed"]
    runs = [RunResult() for _ in streams]
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(streams) + 1)
    deadline: list[float] = []

    def client(index: int) -> None:
        run, stream = runs[index], streams[index]
        try:
            barrier.wait()
            done = 0
            while done < minimum or time.perf_counter() < deadline[0]:
                script = stream[done % len(stream)]
                request = index * 1_000_000 + done  # unique across clients
                done += 1
                try:
                    results, latency = _timed_script(
                        lambda: front.execute_script(script), tracer, request
                    )
                except ServiceOverloadedError:
                    run.rejected += 1
                    run.statements += FRONT_SCRIPT_STATEMENTS
                    run.failed += FRONT_SCRIPT_STATEMENTS
                    continue
                run.latencies.append(latency)
                run.statements += len(results)
                run.failed += _errors(results)
                if done <= minimum:
                    run.audit.append(fixture.audit_sample(results))
                if keep_answers:
                    run.answers.append(results)
        except BaseException as exc:  # re-raised on the main thread after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(streams))]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    deadline.append(start + seconds)
    barrier.wait()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return RunResult(
        statements=sum(r.statements for r in runs),
        elapsed=elapsed,
        latencies=[x for r in runs for x in r.latencies],
        failed=sum(r.failed for r in runs),
        audit=[a for r in runs for a in r.audit],
        answers=[a for r in runs for a in r.answers],
        rejected=sum(r.rejected for r in runs),
        peak_rss_mb=_peak_rss_mb(),
    )


# --------------------------------------------------------------------------- #
# drifting SQLite table (drift-cycle)
# --------------------------------------------------------------------------- #
class VirtualClock:
    """The lifecycle manager's clock, advanced by the driver between scripts."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@dataclass
class DriftFixture:
    directory: Path
    store: SQLiteDataStore
    service: AnalyticsService
    manager: ModelManager
    checkpointer: ServiceCheckpointer
    clock: VirtualClock
    initial: SyntheticDataset

    def close(self) -> None:
        try:
            self.checkpointer.shutdown(drain_seconds=0.0)
        finally:
            self.store.close()
            shutil.rmtree(self.directory, ignore_errors=True)


def _drift_surface() -> DriftingFunction:
    return DriftingFunction(SineRidge(dimension=2), velocity=0.15)


def setup_drift() -> DriftFixture:
    WORK_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="drift-", dir=WORK_DIR))
    try:
        rng = np.random.default_rng(FIXTURE_SEED)
        inputs = rng.uniform(0.0, 1.0, size=(DATASET_SIZE, 2))
        initial = SyntheticDataset(
            inputs=inputs, outputs=_drift_surface()(inputs), name=DRIFT_TABLE, domain=(0.0, 1.0)
        )
        store = SQLiteDataStore(directory / "data.db")
        store.load_dataset(initial)
        service = AnalyticsService(query_log_size=512)
        engine = service.register_table_from_store(store, DRIFT_TABLE)
        low, high = DRIFT_REGIONS[0]
        spec = WorkloadSpec(dimension=2, center_low=low, center_high=high, radius=DRIFT_RADIUS)
        queries = QueryWorkloadGenerator(spec, seed=FIXTURE_SEED).generate(400)
        model = LLMModel(
            dimension=2,
            config=ModelConfig(quantization_coefficient=0.05),
            training=TrainingConfig(convergence_threshold=1e-4),
        )
        model.fit(LabelledWorkload.from_queries(queries, engine.mean_value))
        versions = ModelVersionStore(directory / "versions")
        service.swap_model(DRIFT_TABLE, model, version=versions.save(DRIFT_TABLE, model))
        clock = VirtualClock()
        manager = ModelManager(service, policy=DRIFT_POLICY, version_store=versions, clock=clock)
        manager.manage(DRIFT_TABLE, store=store)
        checkpointer = ServiceCheckpointer(
            service, directory / "checkpoints", manager=manager, version_store=versions
        )
        checkpointer.checkpoint()
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    return DriftFixture(directory, store, service, manager, checkpointer, clock, initial)


@dataclass
class DriftInputs:
    scripts: list[list[str]]  # a pool of scripts per traffic region
    appends: list[tuple[np.ndarray, np.ndarray]]  # rows appended at drift c


def drift_inputs(seed: int) -> DriftInputs:
    rng = np.random.default_rng([seed, 4])
    scripts = [
        [
            join_script(region_statements(rng, DRIFT_TABLE, low, high, DRIFT_SCRIPT_STATEMENTS))
            for _ in range(DRIFT_POOL)
        ]
        for low, high in DRIFT_REGIONS
    ]
    surface = _drift_surface()
    appends = [(np.empty((0, 2)), np.empty(0))]
    for _ in range(1, DRIFT_MAX_CYCLES):
        surface.advance(1.0)
        rows = rng.uniform(0.0, 1.0, size=(DRIFT_APPEND_ROWS, 2))
        appends.append((rows, surface(rows)))
    return DriftInputs(scripts, appends)


def _prefix_engine(fixture: DriftFixture, inputs: DriftInputs, rows: int) -> ExactQueryEngine:
    """An exact engine over the first ``rows`` rows the table ever held."""
    drifts = (rows - fixture.initial.size) // DRIFT_APPEND_ROWS
    appended = inputs.appends[1 : drifts + 1]
    dataset = SyntheticDataset(
        inputs=np.concatenate([fixture.initial.inputs] + [r for r, _ in appended]),
        outputs=np.concatenate([fixture.initial.outputs] + [v for _, v in appended]),
        name=DRIFT_TABLE,
        domain=(0.0, 1.0),
    )
    return ExactQueryEngine(dataset)


def run_drift(
    fixture: DriftFixture,
    inputs: DriftInputs,
    *,
    seconds: float,
    tracer: Tracer | None = None,
    keep_answers: bool = False,
) -> RunResult:
    service, manager, clock = fixture.service, fixture.manager, fixture.clock
    threshold = DRIFT_POLICY.fallback_rate_threshold
    minimum = AUDIT_SCRIPTS["drift-cycle"]
    run = RunResult()
    audit_objects: list[tuple[int, list, object, int]] = []
    # drifted scripts (fallback share at or over the threshold) since the last
    # drift; None once the share is back under the threshold
    recovering: int | None = None
    start = time.perf_counter()
    for cycle in range(DRIFT_MAX_CYCLES):
        if cycle > 0:
            # the world moves: new rows under a shifted surface, traffic flips
            if recovering is not None:  # never recovered within the cycle
                run.recovery_scripts.append(recovering)
            rows, values = inputs.appends[cycle]
            fixture.store.append_rows(DRIFT_TABLE, rows, values)
            recovering = 0
        pool = inputs.scripts[cycle % len(DRIFT_REGIONS)]
        for index in range(DRIFT_SCRIPTS_PER_CYCLE):
            script = pool[(cycle // len(DRIFT_REGIONS) + index) % len(pool)]
            model = service.model_for(DRIFT_TABLE)
            engine_rows = service.engine_for(DRIFT_TABLE).size
            results, latency = _timed_script(
                lambda: service.execute_script(script), tracer, len(run.latencies)
            )
            run.latencies.append(latency)
            run.statements += len(results)
            run.failed += _errors(results)
            if len(run.latencies) <= minimum:
                audit_objects.append((cycle, results, model, engine_rows))
            if keep_answers:
                run.answers.append(results)
            if recovering is not None:
                fallback = sum(r.source == "fallback" for r in results) / len(results)
                if fallback < threshold:
                    run.recovery_scripts.append(recovering)
                    recovering = None
                else:
                    recovering += 1
            clock.now += DRIFT_TICK_SECONDS
            manager.tick(clock.now)
            fixture.checkpointer.checkpoint()
        if len(run.latencies) >= minimum and time.perf_counter() - start >= seconds:
            break
    else:
        raise RuntimeError("drift-cycle ran out of pre-generated cycles")
    run.elapsed = time.perf_counter() - start
    run.peak_rss_mb = _peak_rss_mb()
    # Engines over row prefixes are rebuilt here rather than kept alive
    # through the run, so the audit does not inflate the run's memory: the
    # engine that served a script is the prefix it was built on, the truth
    # is the prefix the table held when the script ran.
    engines: dict[int, ExactQueryEngine] = {}

    def prefix(rows: int) -> ExactQueryEngine:
        if rows not in engines:
            engines[rows] = _prefix_engine(fixture, inputs, rows)
        return engines[rows]

    run.audit = [
        AuditSample(
            results,
            {DRIFT_TABLE: (model, prefix(engine_rows))},
            {DRIFT_TABLE: prefix(fixture.initial.size + cycle * DRIFT_APPEND_ROWS)},
        )
        for cycle, results, model, engine_rows in audit_objects
    ]
    return run


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Workload:
    """How to set a workload up, generate its inputs and drive it."""

    setup: Callable[[], TablesFixture | DriftFixture]
    inputs: Callable[[TablesFixture | DriftFixture, int], object]
    drive: Callable[..., RunResult]


WORKLOADS = {
    "hybrid-script": Workload(lambda: setup_tables(with_front=False), hybrid_inputs, run_hybrid),
    "front-mixed": Workload(lambda: setup_tables(with_front=True), front_inputs, run_front),
    "drift-cycle": Workload(setup_drift, lambda fixture, seed: drift_inputs(seed), run_drift),
}
