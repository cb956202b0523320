"""Fast tests for the benchmark's own helpers (no program run; sockets only on localhost)."""

from __future__ import annotations

import asyncio
import json
import math
from pathlib import Path

import pytest

from perfbench import loadgen, stats
from perfbench.layers import END_TO_END, PER_LAYER
from perfbench.loadgen import Answers, LoadGen
from perfbench.tracer import Tracer, replace_method, root_coverage, span_table


# -- percentile rule ------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_reportable_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.reportable_percentile(count) == expected


def test_percentile_is_nearest_rank_and_counts_misses():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50.0) == 50
    assert stats.percentile(samples, 99.0) == 99
    assert stats.percentile([1.0, 2.0, math.inf], 99.0) == math.inf


# -- schedules ------------------------------------------------------------
def test_same_seed_gives_same_schedule():
    first = stats.poisson_schedule(7, 400.0, 2.0)
    assert first == stats.poisson_schedule(7, 400.0, 2.0)
    assert first != stats.poisson_schedule(8, 400.0, 2.0)
    assert stats.pick_indices("7:low", 50, 66) == stats.pick_indices("7:low", 50, 66)


def test_schedule_is_sorted_within_duration_at_about_the_rate():
    due = stats.poisson_schedule(3, 1000.0, 4.0)
    assert due == sorted(due)
    assert 0.0 < due[0] and due[-1] < 4.0
    assert 3600 < len(due) < 4400


# -- SLO ladder -----------------------------------------------------------
def _step(rate, latencies, due=None):
    due = due if due is not None else [i / rate for i in range(len(latencies))]
    return stats.summarize_step(rate, due, latencies, slo_ms=100.0)


def test_step_meets_slo_on_p99_with_enough_samples():
    step = _step(400.0, [5.0] * 990 + [90.0] * 10)
    assert step["tail_q"] == 99.0 and step["meets_slo"]
    assert not _step(400.0, [5.0] * 980 + [150.0] * 20)["meets_slo"]


def test_failed_request_counts_as_a_miss():
    step = _step(400.0, [5.0] * 1999 + [math.inf])
    assert step["failed"] == 1 and not step["meets_slo"]


def test_growing_latency_is_backlog_even_under_the_slo_percentile():
    latencies = [1.0 + 0.05 * i for i in range(2000)]  # 1 ms -> 101 ms
    assert stats.has_backlog([i / 1000 for i in range(2000)], latencies, 100.0)
    assert not stats.has_backlog([i / 1000 for i in range(2000)], [5.0] * 2000, 100.0)


def test_max_rate_stops_at_first_missed_step():
    steps = [
        {"rate": 400.0, "meets_slo": True},
        {"rate": 1000.0, "meets_slo": True},
        {"rate": 1300.0, "meets_slo": False},
        {"rate": 1600.0, "meets_slo": True},
    ]
    assert stats.max_rate_at_slo(steps) == 1000.0
    assert stats.max_rate_at_slo([{"rate": 400.0, "meets_slo": False}]) == 0.0


# -- self-time arithmetic -------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0.0, 10.0, None),  # root
        (1.0, 4.0, 0),  # child
        (3.0, 5.0, 0),  # overlapping child: union with the first is 1..5
        (2.0, 3.0, 1),  # grandchild: only reduces its own parent
        (9.0, 12.0, 0),  # runs past the parent: clipped to 9..10
    ]
    assert stats.self_times(spans) == pytest.approx([10.0 - 5.0, 3.0 - 1.0, 2.0, 1.0, 3.0])


def test_tracer_records_nesting_and_outermost_totals():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer.span_wrapper("inner", inner)
    wrapped_outer = tracer.span_wrapper("outer", outer)
    assert wrapped_outer() == 2
    spans, _, _ = tracer.drain()
    table = span_table(spans)
    assert table["outer"]["calls"] == 1 and table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] <= table["outer"]["total_s"]
    assert root_coverage(spans) == pytest.approx(table["outer"]["total_s"])
    assert tracer.drain()[0] == []


def test_replace_method_wraps_the_defining_class_once():
    class Base:
        def fit(self):
            return "base"

    class Child(Base):
        pass

    class Other(Base):
        def fit(self):
            return "other"

    calls = []
    assert replace_method(
        [Child, Other, Base], "fit", lambda fn: lambda self: calls.append(fn) or fn(self)
    ) == 2
    assert (Child().fit(), Other().fit()) == ("base", "other")
    assert len(calls) == 2


# -- response check -------------------------------------------------------
def _document(**changes):
    doc = {"model": "m", "ref": "m@v1", "count": 1, "labels": [5], "coordinates": [[1.0, 2.0]], "error_estimate": [4.298949584539318]}
    return json.dumps(dict(doc, **changes)).encode()


def test_answers_admit_only_exact_bodies():
    batched = _document(error_estimate=[4.298949584539317])
    answers = Answers(_document(), frozenset({batched}))
    assert answers.admits(_document()) and answers.admits(batched)
    assert not answers.admits(_document(error_estimate=[4.298949584539316]))
    assert not answers.admits(_document(labels=[6]))
    assert not Answers(_document(), frozenset()).admits(batched)


# -- load generator under a faulty server ---------------------------------
async def _serve_badly(handler, phase):
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        async with LoadGen("127.0.0.1", port, [b"{}"], [Answers(b"{}", frozenset())], 2) as gen:
            return await phase(gen), gen
    finally:
        server.close()
        await server.wait_closed()


def test_dropped_connection_fails_requests_instead_of_raising():
    async def drop(reader, writer):
        await reader.read(1)
        writer.close()

    async def phases(gen):
        return [await gen.burst([0] * 20, 4), await gen.burst([0] * 20, 4)]

    (first, second), gen = asyncio.run(_serve_badly(drop, phases))
    assert first.failed == 20 and second.failed == 20
    assert gen.error is not None


def test_silent_server_times_out_with_every_request_failed(monkeypatch):
    async def hang(reader, writer):
        await reader.read(1 << 16)
        await asyncio.sleep(5)

    monkeypatch.setattr(loadgen, "GRACE_S", 0.2)
    (step, gen) = asyncio.run(_serve_badly(hang, lambda gen: gen.open_loop([0.0, 0.01], [0, 0])))
    assert step.failed == 2 and all(math.isinf(v) for v in step.latencies_ms)
    assert "unanswered" in gen.error


def test_benchmark_json_names_exactly_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["grid-cold", "queue-drain", "serve-rows"]
