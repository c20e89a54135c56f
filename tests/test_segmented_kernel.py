"""Bit-identity tests of the columnar segmented batch kernel.

The segmented pipeline keeps its cell-clustered rows column-major,
accumulates boundary distances column by column and maps cell runs to
row/cell ranges through the grid's dense offset tables.  Every one of
those choices must leave the answers bit for bit where the row-major
formulation puts them: a ``(n_c, d)`` gather, :func:`_lp_rows`,
:func:`moment_products` over the row deltas, and binary searches over the
clustered flat cell ids.  The reference below is that formulation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import SyntheticDataset
from repro.dbms import spatial_index
from repro.dbms.executor import (
    ExactQueryEngine,
    SegmentedBatchPipeline,
    _lp_columns,
    _lp_rows,
    moment_column_count,
    moment_products,
    translate_cell_moments,
)
from repro.dbms.sharding import ShardedQueryEngine
from repro.dbms.spatial_index import GridIndex, expand_ranges

DIMENSIONS = (1, 2, 3, 6, 9)
NORMS = (1.0, 2.0, 3.0, np.inf)


def _gapped_rows(dimension: int, size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows in two slabs of ``[0, 1]^d`` with an empty band between them.

    The band leaves whole runs of empty grid cells, and the slabs reach the
    domain's edges, so balls near them clip the first and last cells.
    """
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(0.0, 1.0, size=(size, dimension))
    low = inputs[:, 0] < 0.5
    inputs[low, 0] *= 0.7  # [0, 0.35)
    inputs[~low, 0] = 0.65 + 0.7 * (inputs[~low, 0] - 0.5)  # [0.65, 1)
    inputs[0] = 0.0  # rows exactly on the first and last cell boundary
    inputs[1] = 1.0
    outputs = np.sin(3.0 * inputs.sum(axis=1)) + inputs[:, 0]
    return inputs, outputs


def _edge_queries(dimension: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Balls over the gap, around the corners and past the domain's edges."""
    rng = np.random.default_rng(seed + 100)
    centers = rng.uniform(-0.15, 1.15, size=(count, dimension))
    centers[0] = 0.0
    centers[1] = 1.0
    centers[2] = 0.5  # centred in the empty band
    centers[3, 0] = 0.5
    radii = rng.uniform(0.05, 0.6, size=count)
    radii[2] = 0.1  # stays inside the band along dimension 0
    return centers, radii


def _row_major_statistics(
    pipeline: SegmentedBatchPipeline,
    centers: np.ndarray,
    radii: np.ndarray,
    p: float,
    kind: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Segment statistics in the row-major formulation of the pipeline."""
    grid = pipeline.grid
    order = grid.clustered_order
    rows = pipeline._inputs[order]
    outputs = pipeline._outputs[order]
    m, d = centers.shape
    width = 1 if kind == "q1" else moment_column_count(d)
    counts = np.zeros(m, dtype=np.int64)
    sums = np.zeros((m, width))
    bq, bs, be, iq, ics, ice = grid.classified_ranges_batch(centers, radii, p=p)
    positions, qid = expand_ranges(bq, bs, be)
    scanned = positions.size
    difference = rows[positions] - centers[qid]
    inside = _lp_rows(difference, p) <= radii[qid]
    boundary_counts = np.bincount(qid[inside], minlength=m)
    counts += boundary_counts
    if kind == "q1":
        values = outputs[positions[inside]][:, np.newaxis]
    else:
        values = moment_products(difference[inside], outputs[positions[inside]])
    SegmentedBatchPipeline._segment_sums(values, boundary_counts, sums)
    if ics.size:
        cells, cell_qid = expand_ranges(iq, ics, ice)
        offsets = grid.cell_row_offsets
        cell_counts = np.diff(offsets)
        if kind == "q1":
            aggregates = np.empty((cell_counts.size, 2))
            aggregates[:, 0] = cell_counts
            aggregates[:, 1] = np.add.reduceat(outputs, offsets[:-1])
        else:
            references = np.repeat(grid.cell_centers, cell_counts, axis=0)
            products = moment_products(rows - references, outputs)
            aggregates = np.empty((cell_counts.size, 1 + products.shape[1]))
            aggregates[:, 0] = cell_counts
            aggregates[:, 1:] = np.add.reduceat(products, offsets[:-1], axis=0)
        aggregates = aggregates[cells]
        if kind == "q2":
            shifts = grid.cell_centers[cells] - centers[cell_qid]
            aggregates = translate_cell_moments(aggregates, shifts)
        totals = np.zeros((m, aggregates.shape[1]))
        SegmentedBatchPipeline._segment_sums(
            aggregates, np.bincount(cell_qid, minlength=m), totals
        )
        scanned += int(totals[:, 0].sum())
        counts += np.rint(totals[:, 0]).astype(np.int64)
        sums += totals[:, 1:]
    return counts, sums, scanned


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("p", NORMS)
def test_lp_columns_match_lp_rows_bitwise(dimension, p):
    rng = np.random.default_rng(dimension)
    rows = rng.normal(0.0, 1.0, size=(5_000, dimension)) * rng.uniform(
        1e-3, 1e3, size=(5_000, dimension)
    )
    columns = [np.ascontiguousarray(rows[:, j]) for j in range(dimension)]
    np.testing.assert_array_equal(_lp_columns(columns, p), _lp_rows(rows, p))


@pytest.mark.parametrize("dimension", DIMENSIONS)
@pytest.mark.parametrize("p", NORMS)
@pytest.mark.parametrize("kind", ("q1", "q2"))
def test_columnar_statistics_match_row_major_bitwise(dimension, p, kind):
    inputs, outputs = _gapped_rows(dimension, 4_000, seed=dimension)
    centers, radii = _edge_queries(dimension, 60, seed=dimension)
    pipeline = SegmentedBatchPipeline(inputs, outputs)
    counts, sums, scanned = pipeline.segment_statistics(centers, radii, p, kind=kind)
    ref_counts, ref_sums, ref_scanned = _row_major_statistics(
        pipeline, centers, radii, p, kind
    )
    np.testing.assert_array_equal(counts, ref_counts)
    np.testing.assert_array_equal(sums, ref_sums)
    assert scanned == ref_scanned
    # The edge cases are exercised, not just present: the gap ball is
    # empty and the corner balls select rows.
    assert counts[2] == 0
    assert counts[0] > 0 and counts[1] > 0


@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_dense_offset_tables_match_binary_search(dimension, monkeypatch):
    inputs, _ = _gapped_rows(dimension, 3_000, seed=dimension)
    centers, radii = _edge_queries(dimension, 80, seed=dimension)
    cells = spatial_index.batch_grid_cells_per_dimension(3_000, dimension)
    dense = GridIndex(inputs, cells_per_dimension=cells)
    dense.clustered_order  # the layout and its tables are built on first use
    with monkeypatch.context() as patch:
        patch.setattr(spatial_index, "_DENSE_TABLE_MIN_CELLS", 0)
        patch.setattr(spatial_index, "_DENSE_TABLE_CELLS_PER_ROW", 0)
        sparse = GridIndex(inputs, cells_per_dimension=cells)
        sparse.clustered_order  # build the layout while the cap is zero
    assert dense._rows_before_table is not None
    assert dense._rows_before_table.size == cells**dimension + 1
    assert sparse._rows_before_table is None
    # Runs over empty cells exist: fewer occupied cells than grid cells.
    assert dense.occupied_cell_count < cells**dimension
    for p in NORMS:
        for classify in (False, True):
            got = dense._ranges_batch(centers, radii, p, classify=classify)
            want = sparse._ranges_batch(centers, radii, p, classify=classify)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


def test_dense_tables_skipped_for_oversized_grids():
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 1.0, size=(200, 3))
    index = GridIndex(points, cells_per_dimension=64)  # 262k cells, 200 rows
    qid, starts, ends = index.candidate_ranges_batch(
        np.array([[0.5, 0.5, 0.5]]), np.array([0.3])
    )
    assert index._rows_before_table is None
    positions, _ = expand_ranges(qid, starts, ends)
    rows = index.clustered_order[positions]
    inside = np.linalg.norm(points - 0.5, axis=1) <= 0.3
    assert set(np.flatnonzero(inside)) <= set(rows.tolist())


@pytest.mark.parametrize("dimension", (2, 3))
def test_sharded_engine_matches_single_engine(dimension):
    inputs, outputs = _gapped_rows(dimension, 4_000, seed=dimension + 10)
    dataset = SyntheticDataset(
        inputs=inputs, outputs=outputs, name="gapped", domain=(0.0, 1.0)
    )
    centers, radii = _edge_queries(dimension, 50, seed=dimension + 10)
    matrix = np.column_stack([centers, radii])
    single = ExactQueryEngine(dataset)
    with ShardedQueryEngine(
        dataset, num_shards=1, backend="serial", route="indexed"
    ) as one_shard, ShardedQueryEngine(
        dataset, num_shards=3, backend="serial", route="indexed"
    ) as three_shards:
        for p in NORMS:
            want = single.execute_q1_batch(matrix, on_empty="null", norm_order=p)
            one = one_shard.execute_q1_batch(matrix, on_empty="null", norm_order=p)
            many = three_shards.execute_q1_batch(
                matrix, on_empty="null", norm_order=p
            )
            # One shard builds the same fine grid over the same rows: the
            # same statistics, the same bits.
            assert one == want
            for a, c in zip(want, many):
                assert (a is None) == (c is None)
                if a is not None:
                    assert c.cardinality == a.cardinality
                    assert c.mean == pytest.approx(a.mean, rel=1e-12, abs=1e-12)
            want = single.execute_q2_batch(matrix, on_empty="null", norm_order=p)
            for engine in (one_shard, three_shards):
                got = engine.execute_q2_batch(matrix, on_empty="null", norm_order=p)
                for a, c in zip(want, got):
                    assert (a is None) == (c is None)
                    if a is None:
                        continue
                    assert c.cardinality == a.cardinality
                    assert c.mean == pytest.approx(a.mean, rel=1e-12, abs=1e-12)
                    np.testing.assert_allclose(
                        c.coefficients, a.coefficients, rtol=1e-9, atol=1e-12
                    )
