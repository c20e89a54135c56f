"""Tests for the query/answer stream abstractions."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.exceptions import EmptySubspaceError, WorkloadError
from repro.queries.query import Query, QueryResultPair
from repro.data.synthetic import SyntheticDataset
from repro.queries.stream import LabelledWorkload, QueryAnswerStream, QueryLog
from repro.queries.workload import QueryWorkloadGenerator, WorkloadSpec


def _queries(count: int) -> list[Query]:
    return QueryWorkloadGenerator(WorkloadSpec(dimension=2), seed=2).generate(count)


class TestQueryAnswerStream:
    def test_pairs_queries_with_oracle(self):
        queries = _queries(5)
        stream = QueryAnswerStream(queries, oracle=lambda q: float(q.radius))
        pairs = list(stream)
        assert len(pairs) == 5
        assert all(pair.answer == pytest.approx(pair.query.radius) for pair in pairs)

    def test_skip_errors_drops_failing_queries(self):
        queries = _queries(6)

        def flaky(query: Query) -> float:
            if query.center[0] > 0.5:
                raise EmptySubspaceError("empty")
            return 1.0

        stream = QueryAnswerStream(queries, oracle=flaky, skip_errors=True)
        pairs = list(stream)
        assert len(pairs) + stream.skipped == 6
        assert stream.skipped >= 1

    def test_errors_propagate_by_default(self):
        queries = _queries(3)

        def failing(query: Query) -> float:
            raise EmptySubspaceError("empty")

        with pytest.raises(EmptySubspaceError):
            list(QueryAnswerStream(queries, oracle=failing))


class TestLabelledWorkload:
    def _workload(self, count: int = 20) -> LabelledWorkload:
        pairs = tuple(
            QueryResultPair(query=q, answer=float(i))
            for i, q in enumerate(_queries(count))
        )
        return LabelledWorkload(pairs=pairs)

    def test_len_and_indexing(self):
        workload = self._workload(10)
        assert len(workload) == 10
        assert workload[3].answer == 3.0

    def test_queries_and_answers_views(self):
        workload = self._workload(5)
        assert len(workload.queries) == 5
        assert np.allclose(workload.answers, [0, 1, 2, 3, 4])

    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            LabelledWorkload(pairs=())

    def test_from_queries_uses_oracle(self):
        queries = _queries(8)
        workload = LabelledWorkload.from_queries(queries, oracle=lambda q: 2.0)
        assert len(workload) == 8
        assert np.allclose(workload.answers, 2.0)

    def test_from_queries_raises_when_everything_skipped(self):
        queries = _queries(4)

        def failing(query: Query) -> float:
            raise EmptySubspaceError("empty")

        with pytest.raises(WorkloadError):
            LabelledWorkload.from_queries(queries, oracle=failing, skip_errors=True)

    def test_split_partitions_pairs(self):
        workload = self._workload(30)
        train, test = workload.split(0.8, seed=0)
        assert len(train) + len(test) == 30
        assert len(train) == 24

    def test_split_rejects_bad_fraction(self):
        with pytest.raises(WorkloadError):
            self._workload(10).split(0.0)


class _DequeLog:
    """The ring buffer's reference: a bounded deque of query objects."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: deque[Query] = deque(maxlen=capacity)
        self.recorded = 0

    def record_many(self, queries) -> None:
        for query in queries:
            self.entries.append(query)
            self.recorded += 1

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "total_recorded": self.recorded,
            "queries": [
                {
                    "center": [float(v) for v in query.center],
                    "radius": float(query.radius),
                    "norm_order": float(query.norm_order),
                }
                for query in self.entries
            ],
        }


def _mixed_norm_stream(count: int, seed: int) -> list[Query]:
    rng = np.random.default_rng(seed)
    return [
        Query(
            center=rng.uniform(0.0, 1.0, size=2),
            radius=float(rng.uniform(0.01, 0.2)),
            norm_order=float(rng.choice([1.0, 2.0, 3.5, np.inf])),
        )
        for _ in range(count)
    ]


class TestQueryLogRing:
    @pytest.mark.parametrize("capacity", [1, 3, 7, 64])
    def test_matches_the_deque_reference_through_wrap_around(self, capacity):
        rng = np.random.default_rng(capacity)
        stream = _mixed_norm_stream(150, seed=capacity)
        ring, reference = QueryLog(capacity), _DequeLog(capacity)
        position = 0
        while position < len(stream):
            size = int(rng.integers(0, 2 * capacity + 2))
            chunk = stream[position : position + size]
            position += size
            if rng.random() < 0.5:
                ring.record_many(chunk)  # query objects
            else:  # the serving form: one matrix plus its norm column
                matrix = np.array([q.to_vector() for q in chunk]).reshape(-1, 3)
                ring.record_many(matrix, np.array([q.norm_order for q in chunk]))
            reference.record_many(chunk)
            assert ring.to_dict() == reference.to_dict()
            assert len(ring) == len(reference.entries)
            assert ring.total_recorded == reference.recorded
        assert ring.snapshot() == list(reference.entries)

    def test_record_one_and_scalar_norm(self):
        log = QueryLog(2)
        stream = _mixed_norm_stream(3, seed=1)
        for query in stream:
            log.record(query)
        assert log.snapshot() == stream[1:]
        log.record_many(np.array([[0.5, 0.5, 0.1]]), 1.0)
        assert log.snapshot()[-1] == Query(np.array([0.5, 0.5]), 0.1, 1.0)
        assert log.total_recorded == 4

    def test_round_trip_and_clear(self):
        log = QueryLog(5)
        log.record_many(_mixed_norm_stream(12, seed=2))
        restored = QueryLog.from_dict(log.to_dict())
        assert restored.to_dict() == log.to_dict()
        assert restored.snapshot() == log.snapshot()
        assert restored.total_recorded == 12
        log.clear()
        assert len(log) == 0 and log.snapshot() == [] and log.total_recorded == 12
        log.record_many(_mixed_norm_stream(2, seed=3))
        assert len(log) == 2

    def test_new_dimension_restarts_the_window(self):
        log = QueryLog(4)
        log.record_many(_mixed_norm_stream(3, seed=4))
        wide = Query(np.array([0.1, 0.2, 0.3]), 0.1)
        log.record(wide)
        assert log.snapshot() == [wide] and log.total_recorded == 4

    def test_snapshot_is_what_the_lifecycle_retrains_on(self):
        from repro.dbms.executor import ExactQueryEngine
        from repro.dbms.serving import AnalyticsService

        rng = np.random.default_rng(0)
        inputs = rng.uniform(0, 1, size=(500, 2))
        engine = ExactQueryEngine(
            SyntheticDataset(inputs=inputs, outputs=inputs.sum(axis=1), name="t")
        )
        service = AnalyticsService({"t": engine}, query_log_size=3)
        service.execute_script(
            "SELECT AVG(u) FROM t WITHIN 0.2 OF (0.3, 0.4);"
            "SELECT COUNT(*) FROM t WITHIN 0.1 OF (0.5, 0.5) NORM 1;"
            "SELECT AVG(u) FROM t WITHIN 0.3 OF (0.6, 0.7)"
        )
        # groups record in first-appearance order: both AVGs, then COUNT
        assert service.recent_queries("t") == [
            Query(np.array([0.3, 0.4]), 0.2, 2.0),
            Query(np.array([0.6, 0.7]), 0.3, 2.0),
            Query(np.array([0.5, 0.5]), 0.1, 1.0),
        ]
