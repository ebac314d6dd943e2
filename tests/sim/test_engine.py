"""Unit tests for the discrete-event task-graph scheduler."""

import json
import pickle
from pathlib import Path

import pytest

import repro
from repro.errors import SimulationError
from repro.obs.span import Span
from repro.paradigms import PARADIGMS
from repro.sim.engine import Engine

GOLDEN_SPANS = Path(__file__).parents[1] / "obs" / "baselines" / "jacobi_gps_spans.golden.json"


class TestBasicScheduling:
    def test_empty_graph(self):
        assert Engine().run() == 0.0

    def test_single_task(self):
        engine = Engine()
        task = engine.task("t", 2.5)
        assert engine.run() == 2.5
        assert task.start == 0.0
        assert task.end == 2.5

    def test_independent_tasks_overlap(self):
        engine = Engine()
        engine.task("a", 1.0)
        engine.task("b", 2.0)
        assert engine.run() == 2.0

    def test_dependency_chain(self):
        engine = Engine()
        a = engine.task("a", 1.0)
        b = engine.task("b", 2.0, deps=[a])
        assert engine.run() == 3.0
        assert b.start == 1.0

    def test_diamond(self):
        engine = Engine()
        a = engine.task("a", 1.0)
        b = engine.task("b", 2.0, deps=[a])
        c = engine.task("c", 5.0, deps=[a])
        d = engine.task("d", 1.0, deps=[b, c])
        assert engine.run() == 7.0
        assert d.start == 6.0


class TestResources:
    def test_resource_serialises(self):
        engine = Engine()
        gpu = engine.resource("gpu")
        engine.task("a", 1.0, resource=gpu)
        engine.task("b", 1.0, resource=gpu)
        assert engine.run() == 2.0

    def test_different_resources_overlap(self):
        engine = Engine()
        engine.task("a", 1.0, resource=engine.resource("x"))
        engine.task("b", 1.0, resource=engine.resource("y"))
        assert engine.run() == 1.0

    def test_resource_is_shared_by_name(self):
        engine = Engine()
        assert engine.resource("x") is engine.resource("x")

    def test_busy_time_tracked(self):
        engine = Engine()
        gpu = engine.resource("gpu")
        engine.task("a", 1.5, resource=gpu)
        engine.task("b", 0.5, resource=gpu)
        engine.run()
        assert gpu.busy_time == 2.0

    def test_ready_order_fifo_on_resource(self):
        engine = Engine()
        link = engine.resource("link")
        a = engine.task("a", 1.0)
        early = engine.task("early", 1.0, resource=link, deps=[a])
        late_dep = engine.task("ld", 2.0)
        late = engine.task("late", 1.0, resource=link, deps=[late_dep])
        engine.run()
        assert early.start == 1.0
        assert late.start == 2.0  # link free again at 2.0


class TestBarrier:
    def test_barrier_joins(self):
        engine = Engine()
        a = engine.task("a", 1.0)
        b = engine.task("b", 3.0)
        bar = engine.barrier("bar", [a, b])
        engine.run()
        assert bar.start == 3.0
        assert bar.end == 3.0

    def test_phase_chaining(self):
        engine = Engine()
        gpu = engine.resource("gpu")
        k1 = engine.task("k1", 1.0, resource=gpu)
        bar = engine.barrier("bar", [k1])
        k2 = engine.task("k2", 1.0, resource=gpu, deps=[bar])
        assert engine.run() == 2.0
        assert k2.start == 1.0


class TestErrors:
    def test_negative_duration(self):
        with pytest.raises(SimulationError):
            Engine().task("bad", -1.0)

    def test_unscheduled_times_raise(self):
        engine = Engine()
        task = engine.task("t", 1.0)
        with pytest.raises(SimulationError):
            _ = task.start

    def test_double_run(self):
        engine = Engine()
        engine.task("t", 1.0)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run()

    def test_add_after_run(self):
        engine = Engine()
        engine.run()
        with pytest.raises(SimulationError):
            engine.task("t", 1.0)

    def test_makespan_before_run(self):
        with pytest.raises(SimulationError):
            Engine().makespan()

    def test_makespan_after_run(self):
        engine = Engine()
        engine.task("t", 4.0)
        engine.run()
        assert engine.makespan() == 4.0


class TestSpans:
    """``Engine.spans()``: the trace view derived from the schedule."""

    def test_spans_match_schedule(self):
        engine = Engine()
        gpu = engine.resource("gpu0")
        k1 = engine.task("k1", 2.0, gpu, category="kernel", attrs={"gpu": 0})
        engine.task("k2", 1.0, gpu, deps=[k1], category="kernel")
        engine.barrier("done", deps=engine.tasks())
        engine.run()
        spans = engine.spans()
        # The barrier has no resource, so only the two kernels materialise.
        assert [(s.name, s.start, s.end) for s in spans] == [
            ("k1", 0.0, 2.0),
            ("k2", 2.0, 3.0),
        ]
        assert spans[0].category == "kernel"
        assert spans[0].attrs == {"gpu": 0}
        assert spans[0].track == "gpu0"
        assert spans[1].attrs == {}

    def test_insertion_order_and_zero_duration_tasks_kept(self):
        engine = Engine()
        gpu = engine.resource("gpu0")
        kernel = engine.task("phase/k@gpu0", 2.0, gpu)
        engine.task("phase/pub:eg0->1", 1.0, engine.resource("egress0"))
        engine.task("phase/k2@gpu0", 1.0, gpu, deps=[kernel])
        engine.task("mark", 0.0, engine.resource("r"))
        engine.run()
        assert [(s.track, s.name, s.start, s.duration) for s in engine.spans()] == [
            ("gpu0", "phase/k@gpu0", 0.0, 2.0),
            ("egress0", "phase/pub:eg0->1", 0.0, 1.0),
            ("gpu0", "phase/k2@gpu0", 2.0, 1.0),
            ("r", "mark", 0.0, 0.0),
        ]

    def test_categories_carry_over(self):
        engine = Engine()
        engine.task("k@gpu0", 1.0, engine.resource("gpu0"), category="kernel")
        engine.task("t:eg0->1", 1.0, engine.resource("egress0"), category="transfer")
        engine.task("plain", 1.0, engine.resource("gpu1"))
        engine.run()
        categories = {s.name: s.category for s in engine.spans()}
        assert categories == {"k@gpu0": "kernel", "t:eg0->1": "transfer", "plain": "task"}

    def test_engine_that_never_ran_raises(self):
        # An empty trace from a never-run engine would read as "nothing
        # happened" and hide the bug.
        engine = Engine()
        engine.task("phase/k@gpu0", 1.0, engine.resource("gpu0"))
        with pytest.raises(SimulationError, match="has not run"):
            engine.spans()

    def test_empty_engine_has_no_spans(self):
        engine = Engine()
        engine.run()
        assert engine.spans() == []

    def test_span_round_trip(self):
        # Traced pool workers ship their engine's spans back by pickle.
        span = Span("k", "kernel", "gpu0", 0.5, 1.5, {"bytes": 128})
        assert pickle.loads(pickle.dumps(span)) == span
        assert span.duration == 1.0
        assert span.clock == "sim" and span.trace_id is None

    def test_matches_recorded_span_list(self):
        # The golden is the span list the engine recorded when it still kept
        # a copy of every span; deriving the view must reproduce it exactly.
        program = repro.get_workload("jacobi").build(2, scale=0.25, iterations=2)
        executor = PARADIGMS["gps"](program, repro.default_system(2))
        executor.run()
        spans = [span.to_dict() for span in executor.engine.spans()]
        rendered = json.dumps(spans, indent=1, sort_keys=True) + "\n"
        assert rendered == GOLDEN_SPANS.read_text(encoding="utf-8")
