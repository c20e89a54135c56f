"""Query/answer streams.

Training in the paper is *streaming*: the model observes a continuous
sequence of ``(query, answer)`` pairs produced by the interaction between
analysts and the DBMS (Figure 2) and updates its parameters one pair at a
time.  :class:`QueryAnswerStream` materialises that abstraction on top of an
exact query engine, while :class:`LabelledWorkload` is a pre-computed,
replayable set of pairs used by the experiments.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import WorkloadError
from .query import Query, QueryResultPair, query_matrix

__all__ = ["QueryAnswerStream", "LabelledWorkload", "QueryLog"]

#: Signature of an answering oracle: maps a query to its exact Q1 answer.
AnswerOracle = Callable[[Query], float]


class QueryAnswerStream:
    """Lazily pair queries with answers from an oracle (the exact engine).

    Parameters
    ----------
    queries:
        An iterable of queries (e.g. a workload generator's output).
    oracle:
        A callable returning the exact Q1 answer of a query.  Queries whose
        subspace is empty may be skipped by passing ``skip_errors=True``.
    skip_errors:
        When ``True``, exceptions raised by the oracle (for example
        :class:`~repro.exceptions.EmptySubspaceError`) cause the offending
        query to be silently dropped from the stream instead of propagating.
    """

    def __init__(
        self,
        queries: Iterable[Query],
        oracle: AnswerOracle,
        *,
        skip_errors: bool = False,
    ) -> None:
        self._queries = queries
        self._oracle = oracle
        self._skip_errors = skip_errors
        self.skipped = 0

    def __iter__(self) -> Iterator[QueryResultPair]:
        for query in self._queries:
            try:
                answer = float(self._oracle(query))
            except Exception:
                if self._skip_errors:
                    self.skipped += 1
                    continue
                raise
            yield QueryResultPair(query=query, answer=answer)


class QueryLog:
    """A bounded, thread-safe ring buffer of recently served queries.

    The serving layer records every statement's query here (per table), so
    the lifecycle manager can retrain on the *actual recent traffic* — the
    stream whose coverage the stale model is failing — instead of on a
    synthetic workload.  Old entries fall off the far end once ``capacity``
    is reached, making the log a sliding window over the query stream.

    Entries live in one ``(capacity, d + 2)`` array of ``[x, theta, p]``
    rows, written a batch at a time; :class:`Query` objects are built only
    by :meth:`snapshot`.  A log holds queries of one dimension: recording a
    query of another dimension restarts the window with it.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise WorkloadError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._rows: np.ndarray | None = None
        self._start = 0  # ring position of the oldest retained row
        self._size = 0
        self._lock = threading.Lock()
        self._recorded = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def total_recorded(self) -> int:
        """Number of queries ever recorded (including evicted ones)."""
        return self._recorded

    def __len__(self) -> int:
        return self._size

    def record(self, query: Query) -> None:
        """Append one query, evicting the oldest when full."""
        self.record_many([query])

    def record_many(
        self,
        queries: Iterable[Query] | np.ndarray,
        norm_order: float | np.ndarray | None = None,
    ) -> None:
        """Append many queries in stream order.

        ``queries`` is an iterable of :class:`Query` objects or a raw
        ``(m, d + 1)`` ``[x, theta]`` matrix whose Lp orders are
        ``norm_order`` — one order or an ``(m,)`` column (Euclidean when
        omitted).
        """
        if isinstance(queries, np.ndarray):
            matrix = np.atleast_2d(queries)
            norms = 2.0 if norm_order is None else norm_order
        else:
            matrix, norms = query_matrix(list(queries))
        count = matrix.shape[0]
        if count == 0:
            return
        width = matrix.shape[1] + 1
        with self._lock:
            if self._rows is None or self._rows.shape[1] != width:
                self._rows = np.empty((self._capacity, width))
                self._start = self._size = 0
            kept = min(count, self._capacity)
            rows = np.empty((kept, width))
            rows[:, :-1] = matrix[count - kept :]
            rows[:, -1] = norms if np.ndim(norms) == 0 else norms[count - kept :]
            end = (self._start + self._size) % self._capacity
            head = min(kept, self._capacity - end)  # rows before wrapping
            self._rows[end : end + head] = rows[:head]
            self._rows[: kept - head] = rows[head:]
            overflow = max(0, self._size + kept - self._capacity)
            self._start = (self._start + overflow) % self._capacity
            self._size = min(self._size + kept, self._capacity)
            self._recorded += count

    def _ordered_rows(self) -> np.ndarray:
        """The retained ``[x, theta, p]`` rows, oldest first (lock held)."""
        if self._rows is None:
            return np.empty((0, 0))
        return np.roll(self._rows, -self._start, axis=0)[: self._size]

    def snapshot(self) -> list[Query]:
        """A point-in-time copy of the retained queries, oldest first."""
        with self._lock:
            rows = self._ordered_rows()
        return [
            Query(center=row[:-2], radius=float(row[-2]), norm_order=float(row[-1]))
            for row in rows
        ]

    def clear(self) -> None:
        with self._lock:
            self._start = self._size = 0

    def to_dict(self) -> dict:
        """Serialise the log (capacity, lifetime count, retained queries).

        The durability checkpointer persists each table's log with this so
        a restarted service resumes with the *same* recent-traffic window
        the lifecycle manager would otherwise have to rebuild from live
        traffic before it could retrain.
        """
        with self._lock:
            rows = self._ordered_rows().tolist()
            return {
                "capacity": self._capacity,
                "total_recorded": self._recorded,
                "queries": [
                    {"center": row[:-2], "radius": row[-2], "norm_order": row[-1]}
                    for row in rows
                ],
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryLog":
        """Rebuild a log serialised by :meth:`to_dict` (order preserved)."""
        log = cls(int(payload.get("capacity", 256)))
        queries = [
            Query(
                center=np.asarray(entry["center"], dtype=float),
                radius=float(entry["radius"]),
                norm_order=float(entry.get("norm_order", 2.0)),
            )
            for entry in payload.get("queries", [])
        ]
        for _, run in itertools.groupby(queries, key=lambda query: query.dimension):
            log.record_many(run)
        log._recorded = int(payload.get("total_recorded", len(log)))
        return log


@dataclass(frozen=True)
class LabelledWorkload:
    """A replayable, fully materialised set of ``(query, answer)`` pairs."""

    pairs: tuple[QueryResultPair, ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise WorkloadError("a labelled workload must contain at least one pair")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[QueryResultPair]:
        return iter(self.pairs)

    def __getitem__(self, index: int) -> QueryResultPair:
        return self.pairs[index]

    @property
    def queries(self) -> list[Query]:
        """The queries of every pair, in stream order."""
        return [pair.query for pair in self.pairs]

    @property
    def answers(self) -> np.ndarray:
        """The answers of every pair as a float array, in stream order."""
        return np.array([pair.answer for pair in self.pairs], dtype=float)

    @classmethod
    def from_queries(
        cls,
        queries: Sequence[Query],
        oracle: AnswerOracle,
        *,
        skip_errors: bool = True,
    ) -> "LabelledWorkload":
        """Materialise a labelled workload by running every query on an oracle."""
        stream = QueryAnswerStream(queries, oracle, skip_errors=skip_errors)
        pairs = tuple(stream)
        if not pairs:
            raise WorkloadError(
                "no query produced a valid answer; the workload radii may be "
                "too small for the dataset"
            )
        return cls(pairs=pairs)

    def split(self, training_fraction: float, *, seed: int | None = None) -> tuple[
        "LabelledWorkload", "LabelledWorkload"
    ]:
        """Split into training and testing labelled workloads."""
        if not 0.0 < training_fraction < 1.0:
            raise WorkloadError(
                f"training_fraction must be in (0, 1), got {training_fraction}"
            )
        if len(self.pairs) < 2:
            raise WorkloadError("need at least two pairs to split")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.pairs))
        cut = int(round(len(self.pairs) * training_fraction))
        cut = min(max(cut, 1), len(self.pairs) - 1)
        train = tuple(self.pairs[i] for i in order[:cut])
        test = tuple(self.pairs[i] for i in order[cut:])
        return LabelledWorkload(train), LabelledWorkload(test)
