"""Correctness audit and accuracy of the served answers.

Every audited answer must be reproduced by the object that served it,
within the repo's 1e-12 differential budget: covered hybrid answers by the
model's direct batch prediction, fallback and COUNT answers by the exact
engine's batch answers.  ``avg_rmse`` compares the served AVG answers with
exact answers over the table's rows at the time they were served.  All
references are computed here, after the timed phase.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import AuditSample

#: Agreement budget of served answers against their references.
DEVIATION_BUDGET = 1e-12


def _planes_equal(served, planes) -> bool:
    if len(served) != len(planes):
        return False
    for (intercept, slope), plane in zip(served, planes):
        if abs(intercept - plane.intercept) > DEVIATION_BUDGET:
            return False
        if np.size(slope) and np.max(np.abs(np.asarray(slope) - plane.slope)) > DEVIATION_BUDGET:
            return False
    return True


def _exact_matches(result, answer) -> bool:
    if result.kind == "count":
        return result.value == (0 if answer is None else int(answer.cardinality))
    if answer is None:
        return result.empty and result.value is None
    if result.value is None:
        return False
    if result.kind == "q1":
        return abs(result.value - answer.mean) <= DEVIATION_BUDGET
    intercept, slope = result.value[0]
    coefficients = np.concatenate([[intercept], np.asarray(slope)])
    return bool(np.max(np.abs(coefficients - answer.coefficients)) <= DEVIATION_BUDGET)


def _grouped(samples: list[AuditSample], key) -> dict:
    """Statements grouped by the objects that must reproduce them.

    Grouping across samples keeps the reference batches large; the key
    holds the serving objects themselves, so a retrained model or a
    rebuilt engine starts a group of its own.
    """
    groups: dict[tuple, list] = {}
    for sample in samples:
        for result in sample.results:
            group = key(sample, result)
            if group is not None:
                groups.setdefault(group, []).append(result)
    return groups


def _queries(model, results: list) -> list:
    return [r.statement.to_query(model.config.norm_order) for r in results]


def audit(samples: list[AuditSample]) -> tuple[int, int]:
    """Return ``(checked, mismatches)`` over every audited statement."""

    def key(sample: AuditSample, result):
        if not result.ok:  # errored statements already count as failed
            return None
        model, engine = sample.serving[result.table]
        tier = "model" if result.source == "model" else "exact"
        return (tier, result.kind, model, engine)

    checked = mismatches = 0
    for (tier, kind, model, engine), results in _grouped(samples, key).items():
        queries = _queries(model, results)
        checked += len(results)
        if tier == "model" and kind == "q1":
            served = np.array([r.value for r in results])
            reference = model.predict_mean_batch(queries)
            mismatches += int(np.sum(np.abs(served - reference) > DEVIATION_BUDGET))
        elif tier == "model":
            reference = model.predict_q2_batch(queries)
            mismatches += sum(
                not _planes_equal(r.value, planes) for r, planes in zip(results, reference)
            )
        else:
            batch = engine.execute_q2_batch if kind == "q2" else engine.execute_q1_batch
            answers = batch(queries, on_empty="null")
            mismatches += sum(not _exact_matches(r, a) for r, a in zip(results, answers))
    return checked, mismatches


def avg_rmse(samples: list[AuditSample]) -> float:
    """RMSE of the served AVG answers against exact answers on current data."""

    def key(sample: AuditSample, result):
        if result.kind != "q1" or result.value is None:
            return None
        model, _ = sample.serving[result.table]
        return (model, sample.truth[result.table])

    squared: list[float] = []
    for (model, truth), results in _grouped(samples, key).items():
        answers = truth.execute_q1_batch(_queries(model, results), on_empty="null")
        squared.extend(
            (r.value - a.mean) ** 2 for r, a in zip(results, answers) if a is not None
        )
    return math.sqrt(sum(squared) / len(squared)) if squared else float("nan")
