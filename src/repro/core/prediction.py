"""Query processing over trained LLMs (Section V).

Prediction for an unseen query ``q = [x, theta]`` is a weighted
nearest-neighbour regression over the *overlapping prototype set*

``W(q) = { w_k : delta(q, w_k) > 0 }``

where ``delta`` is the degree of overlap of Equation (9).  For Q1 the
prediction is the ``delta``-weighted average of the LLM evaluations
(Algorithm 2); for Q2 the answer is the list of regression planes of the
overlapping LLMs (Algorithm 3, Theorem 3); for data-value prediction the
LLMs are evaluated at their own radii and combined with the same weights
(Equation 14).  When no prototype overlaps the query, the single closest
prototype is used (extrapolation).

The predictor snapshots the LLM parameters into dense arrays at
construction time so a prediction costs a handful of vectorised O(dK)
operations — the data-size-independent cost the paper reports.  Two further
fast paths are layered on top:

* **batch processing** — :meth:`NeighborhoodPredictor.predict_mean_batch`,
  :meth:`NeighborhoodPredictor.predict_q2_batch` and
  :meth:`NeighborhoodPredictor.predict_value_batch` take an ``(m, d + 1)``
  query matrix and compute the full ``(m, K)`` overlap-degree matrix and the
  weighted LLM evaluations as matrix operations, with no per-query Python
  loop; and
* **prototype pruning** — when ``K`` is large, a
  :class:`~repro.dbms.spatial_index.PrototypeIndex` over the radius-augmented
  prototype space restricts the single-query overlap computation to a
  candidate superset of ``W(q)``, making per-query latency sublinear in ``K``
  for localised workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import DimensionalityMismatchError, InvalidQueryError, NotFittedError
from ..queries.geometry import overlap_degree, overlap_degree_matrix
from ..queries.query import Query
from .prototypes import LocalLinearMap, RegressionPlane

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dbms.spatial_index import PrototypeIndex

__all__ = [
    "overlapping_prototypes",
    "normalized_overlap_weights",
    "normalized_weight_rows",
    "NeighborhoodPredictor",
    "PredictionDiagnostics",
]

#: Prototype count at which the predictor builds a pruning index by default.
#: Below this the dense vectorised scan is faster than the grid lookup (the
#: per-query Python overhead of walking candidate cells amortises only once
#: K reaches the low thousands; measured crossover is around K ≈ 2–4k).
DEFAULT_PRUNING_THRESHOLD = 2048

#: Candidate-union fraction below which batched prediction switches from the
#: dense ``(m, K)`` degree matrix to the block-sparse ``(m, |U|)`` one over
#: the indexed candidate union.  The sparse path pays one vectorised
#: candidate pass plus a column gather, so it only wins once it skips a
#: sizeable share of the columns; measured on the reference container
#: (K = 8192, d = 2, batch 512) the crossover sits near |U| / K ≈ 0.6, and
#: 0.5 keeps a safety margin for wider prototype layouts.
DEFAULT_BATCH_PRUNING_FRACTION = 0.5


def overlapping_prototypes(
    query: Query, maps: Sequence[LocalLinearMap]
) -> list[tuple[int, float]]:
    """Return ``[(index, delta)]`` for every LLM whose prototype overlaps ``query``.

    The degree of overlap compares the data subspace of the query with the
    data subspace ``D(x_k, theta_k)`` represented by each prototype.
    """
    result: list[tuple[int, float]] = []
    for index, llm in enumerate(maps):
        degree = overlap_degree(
            query.center,
            query.radius,
            llm.center,
            llm.radius,
            p=query.norm_order,
        )
        if degree > 0.0:
            result.append((index, degree))
    return result


def normalized_overlap_weights(
    overlaps: list[tuple[int, float]]
) -> list[tuple[int, float]]:
    """Normalise overlap degrees into weights summing to one.

    If every degree is zero (possible when all the overlapping pairs just
    touch), uniform weights are returned so the prediction stays defined.
    """
    if not overlaps:
        return []
    total = sum(degree for _, degree in overlaps)
    if total <= 0.0:
        uniform = 1.0 / len(overlaps)
        return [(index, uniform) for index, _ in overlaps]
    return [(index, degree / total) for index, degree in overlaps]


def normalized_weight_rows(
    degree_matrix: np.ndarray, overlap_mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise batched form of :func:`normalized_overlap_weights`.

    Parameters
    ----------
    degree_matrix:
        The ``(m, K)`` overlap-degree matrix of a query batch.
    overlap_mask:
        Optional ``(m, K)`` boolean mask marking which pairs count as
        overlapping; defaults to ``degree_matrix > 0``.  Passing an explicit
        mask reproduces the just-touching convention of
        :func:`normalized_overlap_weights`: a row whose flagged degrees all
        sum to zero gets uniform weights over the flagged entries.

    Returns
    -------
    tuple
        ``(weights, needs_extrapolation)`` where ``weights`` is an ``(m, K)``
        matrix whose rows sum to one (or are all zero for rows with no
        overlap at all) and ``needs_extrapolation`` is the ``(m,)`` boolean
        vector of rows with an empty overlap set.
    """
    degrees = np.atleast_2d(np.asarray(degree_matrix, dtype=float))
    mask = degrees > 0.0 if overlap_mask is None else np.asarray(overlap_mask, bool)
    if mask.shape != degrees.shape:
        raise DimensionalityMismatchError(
            f"overlap mask shape {mask.shape} does not match the degree "
            f"matrix shape {degrees.shape}"
        )
    flagged = np.where(mask, degrees, 0.0)
    totals = flagged.sum(axis=1)
    counts = mask.sum(axis=1)
    needs_extrapolation = counts == 0

    weights = np.zeros_like(degrees)
    positive_rows = totals > 0.0
    if np.any(positive_rows):
        weights[positive_rows] = (
            flagged[positive_rows] / totals[positive_rows, np.newaxis]
        )
    # Defensive just-touching branch: overlap is flagged but every degree is
    # zero, so fall back to uniform weights over the flagged prototypes.
    uniform_rows = (~positive_rows) & (~needs_extrapolation)
    if np.any(uniform_rows):
        weights[uniform_rows] = (
            mask[uniform_rows] / counts[uniform_rows, np.newaxis]
        )
    return weights, needs_extrapolation


@dataclass(frozen=True)
class PredictionDiagnostics:
    """Bookkeeping of one prediction: which prototypes were used and how."""

    used_indices: tuple[int, ...]
    weights: tuple[float, ...]
    extrapolated: bool

    @property
    def neighborhood_size(self) -> int:
        """Number of LLMs that contributed to the prediction."""
        return len(self.used_indices)


class NeighborhoodPredictor:
    """Implements Algorithms 2 and 3 and Equation (14) over a set of LLMs.

    Parameters
    ----------
    maps:
        The trained local linear maps.
    use_pruning_index:
        Whether neighbourhood construction should prune the prototype scan
        through a :class:`~repro.dbms.spatial_index.PrototypeIndex`.
        ``None`` (the default) enables pruning automatically once the
        prototype count reaches :data:`DEFAULT_PRUNING_THRESHOLD`.
    batch_pruning_fraction:
        With a pruning index, batched predictions compute the candidate
        union ``U`` of the whole batch and switch to block-sparse
        ``(m, |U|)`` degree/evaluation matrices whenever
        ``|U| < fraction * K`` (answers are unchanged — ``U`` provably
        contains every overlapping prototype).  Defaults to
        :data:`DEFAULT_BATCH_PRUNING_FRACTION`; batches whose union covers
        most prototypes keep the dense ``(m, K)`` path.
    """

    def __init__(
        self,
        maps: Sequence[LocalLinearMap],
        *,
        use_pruning_index: bool | None = None,
        batch_pruning_fraction: float | None = None,
    ) -> None:
        self._maps = maps
        self._batch_pruning_fraction = (
            DEFAULT_BATCH_PRUNING_FRACTION
            if batch_pruning_fraction is None
            else float(batch_pruning_fraction)
        )
        if maps:
            prototypes = np.vstack([llm.prototype for llm in maps])
            self._centers = prototypes[:, :-1]
            self._radii = prototypes[:, -1]
            self._prototypes = prototypes
            self._means = np.array([llm.mean_output for llm in maps])
            self._slopes = np.vstack([llm.slope for llm in maps])
            self._center_slopes = self._slopes[:, :-1]
        else:
            self._centers = np.empty((0, 0))
            self._radii = np.empty(0)
            self._prototypes = np.empty((0, 0))
            self._means = np.empty(0)
            self._slopes = np.empty((0, 0))
            self._center_slopes = np.empty((0, 0))
        self._plane_rows: tuple[list, list, list, list] | None = None
        if use_pruning_index is None:
            use_pruning_index = len(maps) >= DEFAULT_PRUNING_THRESHOLD
        self._pruning_index: "PrototypeIndex | None" = None
        if use_pruning_index and len(self._maps) > 0:
            # Imported lazily so the core layer does not depend on the DBMS
            # package at import time (the index is pure prototype geometry
            # that happens to share the executor's grid implementation).
            from ..dbms.spatial_index import PrototypeIndex

            self._pruning_index = PrototypeIndex(self._prototypes)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @property
    def prototype_count(self) -> int:
        """Number of LLMs the predictor snapshots."""
        return len(self._maps)

    @property
    def uses_pruning_index(self) -> bool:
        """Whether single-query processing prunes through a prototype index."""
        return self._pruning_index is not None

    def _require_maps(self) -> None:
        if not self._maps:
            raise NotFittedError("the model holds no local linear maps yet")

    def _check_dimension(self, query: Query) -> None:
        if query.dimension != self._centers.shape[1]:
            raise DimensionalityMismatchError(
                f"query has dimension {query.dimension}, model expects "
                f"{self._centers.shape[1]}"
            )

    def _overlap_degrees(
        self, query: Query, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorised Equation (9) against every (or a subset of) prototype."""
        centers = self._centers if rows is None else self._centers[rows]
        radii = self._radii if rows is None else self._radii[rows]
        return overlap_degree_matrix(
            query.center[np.newaxis, :],
            np.array([query.radius]),
            centers,
            radii,
            p=query.norm_order,
        )[0]

    def _closest_prototype(self, query_vector: np.ndarray) -> int:
        """Index of the closest prototype in the query vectorial space."""
        distances = np.linalg.norm(
            self._prototypes - query_vector[np.newaxis, :], axis=1
        )
        return int(np.argmin(distances))

    def _neighborhood(self, query: Query) -> tuple[np.ndarray, np.ndarray, bool]:
        """Return (indices, normalised weights, extrapolated flag)."""
        self._require_maps()
        self._check_dimension(query)
        candidate_rows: np.ndarray | None = None
        if self._pruning_index is not None:
            candidate_rows = self._pruning_index.candidates(
                query.center, query.radius
            )
        if candidate_rows is None:
            degrees = self._overlap_degrees(query)
            indices = np.nonzero(degrees > 0.0)[0]
        elif candidate_rows.size:
            degrees = self._overlap_degrees(query, rows=candidate_rows)
            local = np.nonzero(degrees > 0.0)[0]
            indices = candidate_rows[local]
            degrees = degrees[local] if local.size else degrees
        else:
            indices = candidate_rows
        if indices.size:
            weights = degrees if candidate_rows is not None else degrees[indices]
            total = weights.sum()
            if total <= 0.0:
                weights = np.full(indices.size, 1.0 / indices.size)
            else:
                weights = weights / total
            return indices, weights, False
        # Extrapolation: use only the closest prototype in the query space.
        closest = self._closest_prototype(query.to_vector())
        return np.array([closest]), np.array([1.0]), True

    def _evaluate_maps(self, indices: np.ndarray, query_vector: np.ndarray) -> np.ndarray:
        """Vectorised ``f_k(q)`` for the selected LLMs."""
        difference = query_vector[np.newaxis, :] - self._prototypes[indices]
        return self._means[indices] + np.sum(self._slopes[indices] * difference, axis=1)

    def _evaluate_maps_at_own_radius(
        self, indices: np.ndarray, point: np.ndarray
    ) -> np.ndarray:
        """Vectorised ``f_k(x, theta_k)`` (Equation 14) for the selected LLMs."""
        difference = point[np.newaxis, :] - self._centers[indices]
        return self._means[indices] + np.sum(
            self._center_slopes[indices] * difference, axis=1
        )

    # ------------------------------------------------------------------ #
    # batch internals
    # ------------------------------------------------------------------ #
    def _as_query_matrix(self, query_matrix: np.ndarray) -> np.ndarray:
        """Validate a raw ``(m, d + 1)`` query matrix."""
        self._require_maps()
        matrix = np.atleast_2d(np.asarray(query_matrix, dtype=float))
        if matrix.shape[1] != self._prototypes.shape[1]:
            raise DimensionalityMismatchError(
                f"query matrix has width {matrix.shape[1]}, model expects "
                f"{self._prototypes.shape[1]} (center plus radius)"
            )
        if not np.all(np.isfinite(matrix)):
            raise InvalidQueryError("query matrix must contain only finite values")
        if np.any(matrix[:, -1] <= 0.0):
            raise InvalidQueryError("query radii must all be positive")
        return matrix

    def _batch_neighborhood(
        self, matrix: np.ndarray, norm_order: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(m, K)`` weight matrix plus the extrapolated-row mask.

        Each row holds the normalised overlap weights of one query; rows
        with an empty overlap set carry a single ``1`` at the closest
        prototype in the query vectorial space (the extrapolation rule).
        """
        degrees = overlap_degree_matrix(
            matrix[:, :-1], matrix[:, -1], self._centers, self._radii, p=norm_order
        )
        weights, extrapolated = normalized_weight_rows(degrees)
        if np.any(extrapolated):
            rows = np.nonzero(extrapolated)[0]
            weights[rows, self._closest_prototypes(matrix[rows])] = 1.0
        return weights, extrapolated

    def _closest_prototypes(self, query_vectors: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_closest_prototype` over query-vector rows."""
        distances = np.linalg.norm(
            query_vectors[:, np.newaxis, :] - self._prototypes[np.newaxis, :, :],
            axis=2,
        )
        return np.argmin(distances, axis=1)

    def _batch_weight_matrix(
        self, matrix: np.ndarray, norm_order: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Batch weights, extrapolation mask and (optionally) sparse columns.

        With a pruning index, the candidate union ``U`` of the whole batch
        is computed in one vectorised pass
        (:meth:`~repro.dbms.spatial_index.PrototypeIndex.candidates_union`);
        when it is small relative to ``K`` the returned weight matrix is
        block-sparse — shape ``(m, |U|)`` with ``columns`` mapping its
        columns to prototype indices — and all downstream evaluations
        restrict themselves to those columns.  ``columns`` is ``None`` on
        the dense path.
        """
        if self._pruning_index is not None and self.prototype_count > 0:
            columns = self._pruning_index.candidates_union(
                matrix[:, :-1], matrix[:, -1], p=norm_order
            )
            if columns.size < self._batch_pruning_fraction * self.prototype_count:
                return self._batch_neighborhood_pruned(matrix, norm_order, columns)
        weights, extrapolated = self._batch_neighborhood(matrix, norm_order)
        return weights, extrapolated, None

    def _batch_neighborhood_pruned(
        self, matrix: np.ndarray, norm_order: float, columns: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block-sparse batch weights over the candidate-union columns.

        ``columns`` provably contains every prototype overlapping any query
        of the batch, so the ``(m, |U|)`` degree matrix carries exactly the
        nonzero entries of the dense one and the normalised weights match
        entry for entry.  Extrapolated rows pick the closest prototype over
        the *full* prototype set (the extrapolation rule ignores the
        overlap geometry), appending its column when it is not in ``U``.
        """
        count = matrix.shape[0]
        degrees = overlap_degree_matrix(
            matrix[:, :-1],
            matrix[:, -1],
            self._centers[columns],
            self._radii[columns],
            p=norm_order,
        )
        weights, extrapolated = normalized_weight_rows(degrees)
        if np.any(extrapolated):
            rows = np.nonzero(extrapolated)[0]
            closest = self._closest_prototypes(matrix[rows])
            missing = np.setdiff1d(closest, columns)
            if missing.size:
                columns = np.concatenate([columns, missing])
                weights = np.hstack(
                    [weights, np.zeros((count, missing.size), dtype=float)]
                )
                # Keep columns sorted so plane lists come out in the same
                # prototype order as the dense path.
                order = np.argsort(columns)
                columns = columns[order]
                weights = weights[:, order]
            positions = np.searchsorted(columns, closest)
            weights[rows, positions] = 1.0
        return weights, extrapolated, columns

    def _regression_plane_rows(self) -> tuple[list, list, list, list]:
        """Per-prototype plane parts: intercepts, slopes, centers, radii.

        Computed once per snapshot, on the first Q2 batch.  The intercept
        is evaluated exactly as :meth:`LocalLinearMap.regression_plane`
        does, so batched planes are bit-identical to per-map ones; slopes
        and centers are rows of read-only ``(K, d)`` arrays.
        """
        if self._plane_rows is None:
            intercepts = [
                llm.mean_output - float(llm.center_slope @ llm.center)
                for llm in self._maps
            ]
            slopes = np.array(self._center_slopes)
            centers = np.array(self._centers)
            slopes.setflags(write=False)
            centers.setflags(write=False)
            self._plane_rows = (
                intercepts, list(slopes), list(centers), self._radii.tolist()
            )
        return self._plane_rows

    def _plane_lists(
        self, weights: np.ndarray, columns: np.ndarray | None
    ) -> list[list[RegressionPlane]]:
        """The plane list of every weight row (nonzero entries, column order)."""
        intercepts, slopes, centers, radii = self._regression_plane_rows()
        rows, local = np.nonzero(weights)
        plane_weights = weights[rows, local].tolist()
        indices = (local if columns is None else columns[local]).tolist()
        make = RegressionPlane.from_snapshot_row
        results: list[list[RegressionPlane]] = [[] for _ in range(weights.shape[0])]
        for row, index, weight in zip(rows.tolist(), indices, plane_weights):
            results[row].append(
                make(
                    intercepts[index], slopes[index], centers[index], radii[index],
                    weight,
                )
            )
        return results

    def _evaluate_all_maps(
        self, matrix: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """``(m, K)`` (or ``(m, |columns|)``) matrix of ``f_k(q_i)``."""
        slopes = self._slopes if columns is None else self._slopes[columns]
        prototypes = (
            self._prototypes if columns is None else self._prototypes[columns]
        )
        means = self._means if columns is None else self._means[columns]
        offsets = means - np.sum(slopes * prototypes, axis=1)
        return offsets[np.newaxis, :] + matrix @ slopes.T

    def _evaluate_all_maps_at_own_radius(
        self, points: np.ndarray, columns: np.ndarray | None = None
    ) -> np.ndarray:
        """``(m, K)`` (or sparse) matrix of ``f_k(x_i, theta_k)`` (Eq. 14)."""
        slopes = (
            self._center_slopes if columns is None else self._center_slopes[columns]
        )
        centers = self._centers if columns is None else self._centers[columns]
        means = self._means if columns is None else self._means[columns]
        offsets = means - np.sum(slopes * centers, axis=1)
        return offsets[np.newaxis, :] + points @ slopes.T

    # ------------------------------------------------------------------ #
    # Q1: average-value prediction (Algorithm 2)
    # ------------------------------------------------------------------ #
    def predict_mean(self, query: Query) -> float:
        """Predict the Q1 answer of an unseen query."""
        indices, weights, _ = self._neighborhood(query)
        values = self._evaluate_maps(indices, query.to_vector())
        return float(weights @ values)

    def predict_mean_with_diagnostics(
        self, query: Query
    ) -> tuple[float, PredictionDiagnostics]:
        """Predict the Q1 answer and report which LLMs contributed."""
        indices, weights, extrapolated = self._neighborhood(query)
        values = self._evaluate_maps(indices, query.to_vector())
        diagnostics = PredictionDiagnostics(
            used_indices=tuple(int(index) for index in indices),
            weights=tuple(float(weight) for weight in weights),
            extrapolated=extrapolated,
        )
        return float(weights @ values), diagnostics

    def predict_mean_batch(
        self, query_matrix: np.ndarray, norm_order: float = 2.0
    ) -> np.ndarray:
        """Predict the Q1 answers of an ``(m, d + 1)`` query matrix at once.

        The whole batch is processed as matrix arithmetic: one ``(m, K)``
        overlap-degree computation, one ``(m, K)`` LLM evaluation via a
        single matrix product, and a row-wise weighted sum — no per-query
        Python loop.  Results match :meth:`predict_mean` to floating-point
        rounding (the equivalence suite asserts 1e-12 agreement).
        """
        return self.predict_mean_batch_with_coverage(query_matrix, norm_order)[0]

    def predict_mean_batch_with_coverage(
        self, query_matrix: np.ndarray, norm_order: float = 2.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched Q1 prediction plus the per-query coverage mask.

        Returns ``(values, covered)`` where ``covered`` is the ``(m,)``
        boolean vector marking queries whose overlap set ``W(q)`` is
        non-empty.  Uncovered queries are *extrapolated* (answered by the
        closest prototype alone), which is the confidence signal a hybrid
        serving layer uses to fall back to exact execution.
        """
        matrix = self._as_query_matrix(query_matrix)
        weights, extrapolated, columns = self._batch_weight_matrix(matrix, norm_order)
        values = self._evaluate_all_maps(matrix, columns)
        return np.sum(weights * values, axis=1), ~extrapolated

    def batch_coverage(
        self, query_matrix: np.ndarray, norm_order: float = 2.0
    ) -> np.ndarray:
        """Return the ``(m,)`` boolean mask of queries with non-empty ``W(q)``."""
        matrix = self._as_query_matrix(query_matrix)
        _, extrapolated, _ = self._batch_weight_matrix(matrix, norm_order)
        return ~extrapolated

    # ------------------------------------------------------------------ #
    # Q2: local regression planes (Algorithm 3)
    # ------------------------------------------------------------------ #
    def regression_models(self, query: Query) -> list[RegressionPlane]:
        """Return the list ``S`` of local linear models explaining ``g`` over ``D(x, theta)``."""
        indices, weights, _ = self._neighborhood(query)
        return [
            self._maps[int(index)].regression_plane(weight=float(weight))
            for index, weight in zip(indices, weights)
        ]

    def predict_q2_batch(
        self, query_matrix: np.ndarray, norm_order: float = 2.0
    ) -> list[list[RegressionPlane]]:
        """Return the Q2 answer (list of regression planes) for each query.

        The neighbourhood weights of the whole batch are computed with the
        same dense matrix pass as :meth:`predict_mean_batch`; the planes are
        then assembled from per-snapshot intercept/slope rows, so only the
        returned plane objects themselves are built per query.
        """
        return self.predict_q2_batch_with_coverage(query_matrix, norm_order)[0]

    def predict_q2_batch_with_coverage(
        self, query_matrix: np.ndarray, norm_order: float = 2.0
    ) -> tuple[list[list[RegressionPlane]], np.ndarray]:
        """Batched Q2 prediction plus the per-query coverage mask.

        Returns ``(plane_lists, covered)``; an uncovered query's plane list
        holds the single extrapolated closest-prototype plane, exactly as
        :meth:`regression_models` would produce.
        """
        matrix = self._as_query_matrix(query_matrix)
        weights, extrapolated, columns = self._batch_weight_matrix(matrix, norm_order)
        return self._plane_lists(weights, columns), ~extrapolated

    # ------------------------------------------------------------------ #
    # A2: data-value prediction (Equation 14)
    # ------------------------------------------------------------------ #
    def predict_value(self, point: np.ndarray, radius: float, norm_order: float = 2.0) -> float:
        """Predict the data value ``u = g(x)`` at a point.

        The point together with a radius forms a probe query; each
        overlapping LLM is evaluated at its *own* radius (Equation 14) and
        the evaluations are combined with the normalised overlap weights.
        """
        point_arr = np.asarray(point, dtype=float).ravel()
        query = Query(center=point_arr, radius=radius, norm_order=norm_order)
        indices, weights, _ = self._neighborhood(query)
        values = self._evaluate_maps_at_own_radius(indices, point_arr)
        return float(weights @ values)

    def predict_value_batch(
        self, points: np.ndarray, radius: float, norm_order: float = 2.0
    ) -> np.ndarray:
        """Batched :meth:`predict_value` over the rows of ``points``.

        Every probe shares the given radius; the overlap weights and the
        own-radius LLM evaluations of the whole batch are matrix operations.
        """
        self._require_maps()
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self._centers.shape[1]:
            raise DimensionalityMismatchError(
                f"points have dimension {pts.shape[1]}, model expects "
                f"{self._centers.shape[1]}"
            )
        radii = np.full((pts.shape[0], 1), float(radius))
        matrix = self._as_query_matrix(np.hstack([pts, radii]))
        weights, _, columns = self._batch_weight_matrix(matrix, norm_order)
        values = self._evaluate_all_maps_at_own_radius(pts, columns)
        return np.sum(weights * values, axis=1)

    def predict_values(
        self, points: np.ndarray, radius: float, norm_order: float = 2.0
    ) -> np.ndarray:
        """Vector form of :meth:`predict_value` over the rows of ``points``."""
        return self.predict_value_batch(points, radius, norm_order)
