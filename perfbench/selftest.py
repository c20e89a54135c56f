"""Self-tests of the benchmark harness.

Run from the repository root with::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times, union_length  # noqa: E402


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# --------------------------------------------------------------------------- #
# self-time arithmetic
# --------------------------------------------------------------------------- #
def _span(id_, name, start, end, parent=None):
    return Span(id_, name, start, end, parent, request=1)


def test_self_time_subtracts_children():
    spans = [
        _span(1, "client.script", 0.0, 10.0),
        _span(2, "serving.execute_script", 1.0, 9.0, parent=1),
        _span(3, "sqlfront.parse", 1.0, 3.0, parent=2),
        _span(4, "core.predict", 4.0, 6.0, parent=2),
        _span(5, "executor.exact", 6.5, 8.0, parent=2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 2.0, 2: 2.5, 3: 2.0, 4: 2.0, 5: 1.5})
    # a tree's self times add up to its root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span(1, "serving.execute_script", 0.0, 10.0),
        # two children on other threads overlapping each other
        _span(2, "core.predict", 2.0, 6.0, parent=1),
        _span(3, "executor.exact", 4.0, 8.0, parent=1),
        # a child outliving its parent is clipped to the parent's interval
        _span(4, "executor.exact", 9.0, 12.0, parent=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.7)]) == pytest.approx(3.0)


def test_tracer_links_parents_and_requests():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("client.script", request=7)
    inner = tracer.wrap("sqlfront.parse", lambda text: text.split(";"))
    assert inner("a;b") == ["a", "b"]
    tracer.close(outer)
    parse, script = tracer.spans
    assert (parse.parent, parse.request) == (script.id, 7)
    assert script.parent is None


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tables():
    fixture = workloads.setup_tables(with_front=True)
    yield fixture
    fixture.close()


def test_generators_are_deterministic_for_a_seed(tables):
    assert workloads.hybrid_inputs(tables, 3) == workloads.hybrid_inputs(tables, 3)
    assert workloads.hybrid_inputs(tables, 3) != workloads.hybrid_inputs(tables, 4)
    front = workloads.front_inputs(tables, 3)
    assert front == workloads.front_inputs(tables, 3)
    drift_a, drift_b = workloads.drift_inputs(3), workloads.drift_inputs(3)
    assert drift_a.scripts == drift_b.scripts
    for (rows_a, values_a), (rows_b, values_b) in zip(drift_a.appends, drift_b.appends):
        assert np.array_equal(rows_a, rows_b) and np.array_equal(values_a, values_b)


def test_front_mix_is_half_hot(tables):
    hot, stream = workloads.front_inputs(tables, 5)[:2]
    statements = [s for script in stream for s in script.split(";\n")]
    hot_share = sum(s in set(hot) for s in statements) / len(statements)
    assert len(hot) < 4096  # smaller than the front's answer cache
    assert hot_share == pytest.approx(workloads.FRONT_HOT_SHARE, abs=0.01)
    cold = [s for s in statements if s not in set(hot)]
    assert len(set(cold)) == len(cold)  # the cold tail never repeats


# --------------------------------------------------------------------------- #
# transparency of the traced run
# --------------------------------------------------------------------------- #
def _values(answers):
    out = []
    for results in answers:
        for result in results:
            value = result.value
            if isinstance(value, list):
                value = [(b, np.asarray(w).tobytes()) for b, w in value]
            out.append((result.source, result.empty, value))
    return out


def _deviation(left, right) -> float:
    if not isinstance(left, list):
        return 0.0 if left == right else abs(left - right)
    return max(
        max(abs(lb - rb), float(np.max(np.abs(np.frombuffer(lw) - np.frombuffer(rw)))))
        for (lb, lw), (rb, rw) in zip(left, right)
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_answers_are_bit_identical(name, monkeypatch):
    """Same seed, a fixed number of scripts, once without and once with timers."""
    workload = workloads.WORKLOADS[name]
    # with seconds=0 a driver serves exactly its audit minimum of scripts
    minimum = {"hybrid-script": 3, "front-mixed": 40, "drift-cycle": 12}[name]
    monkeypatch.setitem(workloads.AUDIT_SCRIPTS, name, minimum)
    answers, spans = [], []
    for traced in (False, True):
        fixture = workload.setup()
        try:
            generated = workload.inputs(fixture, 11)
            if traced:
                tracer = Tracer()
                with layers.install(tracer, fixture):
                    run = workload.drive(
                        fixture, generated, seconds=0.0, tracer=tracer, keep_answers=True
                    )
                spans = tracer.spans
            else:
                run = workload.drive(fixture, generated, seconds=0.0, keep_answers=True)
        finally:
            fixture.close()
        # per client, scripts answer in submission order, so the lists align
        answers.append(_values(run.answers))
    if name == "front-mixed":
        # Which statements two clients' scripts share a coalesced batch with
        # depends on thread timing, and batch composition moves model answers
        # by an ulp or so even between two untraced runs; hold them to the
        # repo's 1e-12 differential budget instead of bit equality.
        assert len(answers[0]) == len(answers[1])
        for left, right in zip(*answers):
            assert left[:2] == right[:2]
            assert _deviation(left[2], right[2]) <= 1e-12
    else:
        assert answers[0] == answers[1]
    names = {span.name for span in spans}
    assert {
        "client.script", "sqlfront.parse", "serving.execute_script",
        "core.predict", "executor.exact",
    } <= names
    if name == "drift-cycle":
        assert {
            "lifecycle.tick", "lifecycle.retrain", "durability.checkpoint", "storage.append"
        } <= names
        # the engine and model a retrain registers are timed too
        first_retrain = min(s.end for s in spans if s.name == "lifecycle.retrain")
        later = [s for s in spans if s.start > first_retrain and s.parent is not None]
        assert {"core.predict", "executor.exact"} <= {s.name for s in later}
