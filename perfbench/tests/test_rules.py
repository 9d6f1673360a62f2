"""Tests of the benchmark's own logic (no timing, no node processes)."""

import json
import math
import os

import pytest

from perfbench.loadgen import (
    LEAD_SECONDS,
    CompletionWatcher,
    OpenLoop,
    latencies_from_due,
)
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.report import Report
from perfbench.rules import (
    StepResult,
    failed_fraction,
    lane_fill,
    max_rate,
    median,
    merge_steps,
    percentile,
    run_ladder,
    self_seconds,
    step_verdict,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- percentile rule ---------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(200)), 0.95) == 189
    assert percentile(list(range(199)), 0.95) is None
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(20)), 0.50) == 9
    assert percentile(list(range(19)), 0.50) is None


def test_percentile_counts_refusals_as_missing_any_limit():
    samples = [0.1] * 180 + [math.inf] * 20
    assert percentile(samples, 0.95) == math.inf
    assert percentile([], 0.5) is None


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    assert median([]) is None


# -- latency from due time ---------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class FakeTicket:
    def __init__(self):
        self.finished = False

    def done(self):
        return self.finished


def test_latency_runs_from_due_time_not_send_time():
    clock = FakeClock()
    tickets = []

    def submit(index):
        if index == 0:
            clock.now += 0.30  # the first submit stalls the generator
        ticket = FakeTicket()
        tickets.append(ticket)
        return ticket

    loop = OpenLoop(clock=clock, sleep=clock.sleep)
    sent = loop.run([0.0, 0.1, 0.2], submit)
    start = LEAD_SECONDS
    assert [s.due for s in sent] == pytest.approx([start, start + 0.1, start + 0.2])
    # Request 1 was due at start + 0.1 but went out at start + 0.3: 0.2 s late.
    assert [round(s.late, 9) for s in sent] == [0.0, 0.2, 0.1]

    watcher = CompletionWatcher(clock=clock, start=False)
    for item in sent:
        watcher.watch(item.index, item.handle)
    clock.now = 0.5
    tickets[1].finished = True
    assert watcher.poll_once() == 2
    clock.now = 0.7
    tickets[0].finished = tickets[2].finished = True
    assert watcher.poll_once() == 0
    latencies = latencies_from_due(sent, watcher.done_at)
    assert latencies == pytest.approx([0.7 - start, 0.5 - start - 0.1,
                                       0.7 - start - 0.2])


def test_refused_and_unfinished_requests_have_infinite_latency():
    clock = FakeClock()

    def submit(index):
        if index == 1:
            raise KeyError("refused")
        return FakeTicket()

    sent = OpenLoop(clock=clock, sleep=clock.sleep).run(
        [0.0, 0.1], submit, refused=(KeyError,))
    assert sent[1].handle is None
    assert latencies_from_due(sent, {}) == [math.inf, math.inf]


# -- ladder stop rule --------------------------------------------------------

LIMIT = 1.0
LATE = 0.1


def _step(rate, latency, refused=0, drain=0.1, late=0.0, n=200):
    return StepResult(rate=rate, latencies=[latency] * n, refused=refused,
                      drain_seconds=drain, late_seconds=late)


def test_ladder_stops_at_first_unsustained_step():
    tails = {20: 0.2, 30: 0.3, 45: 1.5, 60: 0.1}
    ran = []

    def run_step(rate):
        ran.append(rate)
        return _step(rate, tails[rate])

    ladder = run_ladder([20, 30, 45, 60], run_step, LIMIT, LATE)
    assert ran == [20, 30, 45]
    assert [ok for _s, ok, _r in ladder] == [True, True, False]


def test_ladder_always_runs_the_fixed_low_steps():
    ran = []

    def run_step(rate):
        ran.append(rate)
        return _step(rate, 5.0)

    run_ladder([20, 30, 45], run_step, LIMIT, LATE)
    assert ran == [20, 30]


def test_slices_merge_into_one_step_judged_as_a_whole():
    slices = [_step(10, 0.1, n=100, drain=0.2, late=0.01),
              _step(10, 0.3, refused=1, n=100, drain=0.4, late=0.02)]
    step = merge_steps(slices)
    assert (step.rate, len(step.latencies), step.refused) == (10, 200, 1)
    assert (step.drain_seconds, step.late_seconds) == (0.4, 0.02)
    # Only the merged step has ten samples beyond its p95.
    assert slices[0].tail is None
    assert step_verdict(step, LIMIT, LATE) == (False, "refused or failed")


@pytest.mark.parametrize("step,reason", [
    (_step(20, 0.2, late=0.5), "invalid: generator late"),
    (_step(20, 0.2, n=100), "invalid: too few samples"),
    (_step(20, 0.2, refused=1), "refused or failed"),
    (_step(20, 0.2, drain=3.0), "backlog"),
    (_step(20, 1.2), "tail over limit"),
    (_step(20, 0.2), "ok"),
])
def test_step_verdicts(step, reason):
    assert step_verdict(step, LIMIT, LATE)[1] == reason


def test_max_rate_interpolates_and_is_continuous_at_the_limit():
    passing = (_step(20, 0.5), True, "ok")
    just_over = (_step(40, 1.0001), False, "tail over limit")
    assert max_rate([passing, just_over], LIMIT) == pytest.approx(40, abs=0.01)
    just_under = (_step(40, 0.9999), True, "ok")
    blown = (_step(60, 50.0), False, "tail over limit")
    assert max_rate([passing, just_under, blown], LIMIT) == pytest.approx(
        40, abs=0.01)
    halfway = (_step(40, 1.5), False, "tail over limit")
    assert max_rate([passing, halfway], LIMIT) == pytest.approx(30)


def test_max_rate_pins_to_last_sustained_rate_on_refusal_or_invalid_step():
    passing = (_step(20, 0.5), True, "ok")
    refused = (_step(40, 0.5, refused=3), False, "refused or failed")
    late = (_step(40, 0.5, late=1.0), False, "invalid: generator late")
    assert max_rate([passing, refused], LIMIT) == 20
    assert max_rate([passing, late], LIMIT) == 20
    assert max_rate([passing, (_step(40, 0.5), True, "ok")], LIMIT) == 40


# -- failure and lane accounting --------------------------------------------


def test_failed_fraction_counts_refusals_and_unverified_proofs():
    assert failed_fraction(100) == 0.0
    assert failed_fraction(100, failed=1, refused=2, unverified=3) == 0.06
    with pytest.raises(ValueError):
        failed_fraction(0)


def test_report_json_charges_refused_and_unverified_as_failed():
    report = Report("serve-fleet")
    report.attempted, report.failed = 50, 1
    report.refused, report.unverified = 2, 3
    report.e2e("setup_s", 1.5, "s", 3)
    report.problem("sampled witness failed verification")
    out = json.loads(report.result_json(trace=False))
    assert out == {"correct": False, "attempted": 50, "failed": 6,
                   "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}


def test_lane_fill_counts_pad_lanes():
    assert lane_fill(6, 4 + 4) == 0.75
    assert lane_fill(64, 64) == 1.0
    assert lane_fill(3, 0) == 0.0


def test_lane_fill_from_a_probed_laned_backend():
    """Six tasks at width 4 prove two groups of four lanes: two are pads."""
    from repro.execution import resolve_backend

    from perfbench.inputs import CircuitInputs
    from perfbench.layers import KernelProbes, SpanRecorder

    inputs = CircuitInputs(16, seed=3, witnesses=6, label="test")
    spec = inputs.build_spec()
    recorder = SpanRecorder()
    with KernelProbes(recorder).installed():
        proofs, _stats = resolve_backend("lanes:4").prove_tasks(
            spec, inputs.tasks)
    assert len(proofs) == 6
    lanes = recorder.counter("core.prove_lanes", "lanes")
    assert lanes == 8
    assert lane_fill(6, lanes) == 0.75
    assert recorder.counter("core.prove_lanes", "calls") == 2


def test_node_chunks_are_counted_from_result_frames():
    """Every task a node proves arrives in exactly one counted RESULT frame."""
    from repro.cluster import NodeServer, RemoteBackend

    from perfbench.inputs import CircuitInputs
    from perfbench.layers import BackendProbe, SpanRecorder, count_node_chunks

    inputs = CircuitInputs(16, seed=5, witnesses=5, label="test")
    spec = inputs.build_spec()
    server = NodeServer(backend="lanes:4").start()
    client = RemoteBackend(server.host, server.port)
    recorder = SpanRecorder()
    try:
        with count_node_chunks(recorder):
            client.prove_tasks(spec, inputs.tasks[:2])  # no open span: not counted
            probed = BackendProbe(client, recorder, "cluster.node_call")
            proofs, _stats = probed.prove_tasks(spec, inputs.tasks)
    finally:
        client.close()
        server.close()
    assert len(proofs) == 5
    assert recorder.counter("cluster.node_prove", "tasks") == 5
    assert 1 <= recorder.counter("cluster.node_prove", "chunks") <= 5


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_merged_children_once():
    spans = [
        (1, "batch", 0.0, 10.0, None),
        (2, "kernel", 1.0, 4.0, 1),
        (3, "kernel", 3.0, 5.0, 1),   # overlaps the first child
        (4, "hash", 2.0, 3.0, 2),
        (5, "kernel", 9.0, 12.0, 1),  # runs past its parent: clipped
    ]
    self_times = self_seconds(spans)
    assert self_times["batch"] == pytest.approx(10 - 4 - 1)
    assert self_times["hash"] == pytest.approx(1.0)
    assert self_times["kernel"] == pytest.approx((3 - 1) + 2 + 3)


# -- catalogue ---------------------------------------------------------------


def test_benchmark_json_matches_the_metric_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
    from perfbench.run import WORKLOADS

    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
