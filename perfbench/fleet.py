"""serve-fleet: Poisson traffic through the service and a two-node fleet.

Path: ``ProofService.submit`` → ``RuntimeProofBackend`` →
``ClusterBackend`` → two ``RemoteBackend`` connections → two localhost
``python -m repro node --backend lanes:auto`` processes.

Traffic: 80% of requests prove a 256-gate circuit and 20% a 1024-gate
circuit; 10% repeat an earlier request exactly (cache and single-flight);
30% are INTERACTIVE, the rest BULK.

Two phases follow the set-up:

* the closed-loop saturation phase keeps ``CLOSED_CLIENTS`` requests in
  flight and counts proofs per second, in windows; before each window
  one slice of the open-loop ``low`` step is sent;
* the rest of an open-loop rate ladder of fixed ascending steps with
  equal request counts.  The two lowest steps (``low``, ``mid``) always
  run; above them the ladder stops at the first step that misses the
  p95 limit, refuses or fails a request, builds a backlog, or where the
  generator ran late.  Latency is timed from each request's due time.
"""

from __future__ import annotations

import math
import os
import random
import resource
import subprocess
import sys
import threading
import time
from contextlib import nullcontext

from repro.cluster import ClusterBackend, RemoteBackend
from repro.errors import AdmissionError
from repro.kernels import default_encoder_cache, default_spec_cache
from repro.service import Priority, ProofService, RuntimeProofBackend
from repro.service.workload import poisson_trace

from .checks import ProofLedger, check_witnesses
from .inputs import CircuitInputs
from .layers import BackendProbe, SpanRecorder, count_node_chunks, report_stages
from .loadgen import CompletionWatcher, OpenLoop, latencies_from_due
from .report import fmt_ms
from .rules import (
    TAIL_Q, StepResult, max_rate, median, merge_steps, percentile, run_ladder,
)

NODES = 2
NODE_SELECTOR = "lanes:auto"

#: (gates, distinct witnesses in the pool) of the small and large circuit.
CIRCUITS = ((256, 32), (1024, 16))
#: One block of ten requests, shuffled per block: a duplicate repeats a
#: recent request exactly, so about 80% / 20% of requests prove the
#: small / large circuit and 10% are duplicates.
MIX_BLOCK = ("small",) * 7 + ("large",) * 2 + ("duplicate",)
#: INTERACTIVE requests per block (30%); the rest are BULK.
INTERACTIVE_PER_BLOCK = 3
#: A duplicate repeats one of this many most recent requests.
DUPLICATE_WINDOW = 16

#: Offered rates, requests/s.  The first two are the ``low`` and ``mid``
#: steps; the top is at least twice what the fleet sustains today.  The
#: gated ``low`` step keeps the two nodes well below saturation, so its
#: latency is the service path's own and not a queue that grows steeply
#: when the host slows down.
RATES = (10.0, 20.0, 30.0, 45.0, 60.0, 80.0, 100.0)
#: Fixed latency limit on the p95 of each step, seconds.
LIMIT_SECONDS = 1.0
#: A step is invalid when the generator ran later than this.  Lateness
#: already counts in latency (timed from the due time); past a quarter
#: of the limit the offered load itself is in doubt.
LATE_BOUND_SECONDS = 0.25
#: Requests per ladder step: p95 keeps ten samples beyond it.
STEP_REQUESTS = 200
#: How long a step may take to drain before its stragglers count failed.
DRAIN_TIMEOUT_SECONDS = 20.0

#: The closed-loop saturation phase keeps this many requests in flight
#: for this share of ``--seconds``, in windows that alternate untraced
#: and traced on traced runs.  The ``low`` step is sent in as many
#: slices, one before each window.  (The ladder's length is set by its
#: request counts, not by ``--seconds``.)
CLOSED_CLIENTS = 32
CLOSED_SHARE = 0.5
CLOSED_WINDOWS = 4
#: Unmeasured lead-in of each window while the in-flight requests reach
#: steady state.
CLOSED_RAMP_SECONDS = 0.5

SETUP_REPEATS = 5
#: Witnesses per circuit whose first proof is compared with serial.
SAMPLE_PER_CIRCUIT = 4
NODE_START_TIMEOUT = 60.0


def _read_ready(proc: subprocess.Popen, timeout: float):
    line = []
    reader = threading.Thread(target=lambda: line.append(proc.stdout.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout)
    if not line or not line[0].startswith("READY"):
        raise RuntimeError(f"node pid {proc.pid} did not report READY")
    _ready, host, port = line[0].split()
    return host, int(port)


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class FleetUnderTest:
    """One set-up: nodes, cluster, service; probed when ``recorder`` is set."""

    def __init__(self, root: str, specs, recorder=None):
        self.procs = []
        self.service = None
        self.cluster = None
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        try:
            for _ in range(NODES):
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "node",
                     "--listen", "127.0.0.1:0", "--backend", NODE_SELECTOR],
                    cwd=root, env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, text=True,
                ))
            members = [RemoteBackend(*_read_ready(proc, NODE_START_TIMEOUT))
                       for proc in self.procs]
            self.node_probes = []
            if recorder is not None:
                members = self.node_probes = [
                    BackendProbe(m, recorder, "cluster.node_call")
                    for m in members
                ]
            self.cluster = ClusterBackend(members)
            backend = self.cluster
            self.cluster_probe = self.service_probe = None
            if recorder is not None:
                backend = self.cluster_probe = BackendProbe(
                    self.cluster, recorder, "cluster.call")
                for probe in self.node_probes:
                    probe.parent_of = self.cluster_probe
            prove_batch = RuntimeProofBackend.from_specs(specs, backend=backend)
            if recorder is not None:
                prove_batch = self.service_probe = BackendProbe(
                    prove_batch, recorder, "service.prove_batch")
            self.service = ProofService(prove_batch)
        except BaseException:
            self.close()
            raise

    def node_peak_rss_mb(self) -> float:
        return sum(_vm_hwm_mb(proc.pid) for proc in self.procs)

    def close(self) -> None:
        if self.service is not None:
            self.service.close(timeout=DRAIN_TIMEOUT_SECONDS)
        if self.cluster is not None:
            self.cluster.close()
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self.procs = []


class Traffic:
    """The seeded request stream: circuit, witness, key, priority per request."""

    def __init__(self, seed: int):
        self.inputs = [CircuitInputs(gates, seed + 1000 * i, pool, "serve-fleet")
                       for i, (gates, pool) in enumerate(CIRCUITS)]
        self.keys = [inputs.r1cs.digest() for inputs in self.inputs]
        self.specs = None
        self.rng = random.Random(f"perfbench/serve-fleet/{seed}")
        self.issued = 0
        self.recent = []
        self.block = []

    def build_specs(self):
        """Prover/PCS/encoder construction, as a set-up repeat pays it."""
        self.specs = [inputs.build_spec() for inputs in self.inputs]
        return self.specs

    def next_request(self):
        """``(circuit, pool index, witness key, priority)`` of the next request.

        The mix is drawn in shuffled blocks of ten that hold the exact
        shares of :data:`MIX_BLOCK` and 3 INTERACTIVE requests,
        so a seed changes the order of requests, not the mix itself.
        """
        if not self.block:
            self.block = self._draw_block()
        kind, priority = self.block.pop()
        if kind == "duplicate" and self.recent:
            circuit, index, key, _p = self.rng.choice(self.recent)
            return circuit, index, key, priority
        circuit = 1 if kind == "large" else 0
        pool = len(self.inputs[circuit].tasks)
        index = self.issued % pool
        self.issued += 1
        key = b"perfbench/" + self.issued.to_bytes(8, "little")
        request = (circuit, index, key, priority)
        self.recent = (self.recent + [request])[-DUPLICATE_WINDOW:]
        return request

    def _draw_block(self):
        kinds = list(MIX_BLOCK)
        priorities = [Priority.INTERACTIVE] * INTERACTIVE_PER_BLOCK
        priorities += [Priority.BULK] * (len(kinds) - len(priorities))
        self.rng.shuffle(kinds)
        self.rng.shuffle(priorities)
        return list(zip(kinds, priorities))

    def submit(self, service: ProofService, request):
        circuit, index, key, priority = request
        return service.submit(
            self.inputs[circuit].tasks[index],
            circuit_key=self.keys[circuit], witness_key=key, priority=priority,
        )


def _setup_once(root, traffic, recorder):
    """One timed set-up from cold caches; returns (seconds, fleet)."""
    default_spec_cache().clear()
    default_encoder_cache().clear()
    t0 = time.perf_counter()
    traffic.build_specs()
    fleet = FleetUnderTest(root, traffic.specs, recorder)
    try:
        for circuit in range(len(CIRCUITS)):
            # Warm-up: one request per circuit fills each node's caches.
            fleet.service.submit(
                traffic.inputs[circuit].tasks[0],
                circuit_key=traffic.keys[circuit],
            ).result(timeout=NODE_START_TIMEOUT)
    except BaseException:
        fleet.close()
        raise
    return time.perf_counter() - t0, fleet


class Phases:
    """The measured phases on one fleet, and the state they share.

    Every proof any phase returns goes into one :class:`ProofLedger`, and
    every request into one count of attempted, failed and refused.
    ``step_walls`` collects the wall time of everything the node probes
    record, for ``cluster.node_busy_frac``.
    """

    def __init__(self, fleet, traffic, seed, recorder):
        self.fleet = fleet
        self.traffic = traffic
        self.seed = seed
        self.recorder = recorder
        self.ledger = ProofLedger()
        self.outcomes = {"attempted": 0, "failed": 0, "refused": 0}
        self.step_walls = []
        self.watcher = CompletionWatcher()
        self.generator = OpenLoop()
        self.probes = ([fleet.service_probe, fleet.cluster_probe]
                       + fleet.node_probes if recorder is not None else [])

    def close(self) -> None:
        self.watcher.close()

    def trace(self, enabled: bool) -> None:
        for probe in self.probes:
            probe.enabled = enabled

    def open_step(self, rate: float, count: int, part: int = 0) -> StepResult:
        """``count`` Poisson arrivals at ``rate``, then wait until all finish."""
        traffic = self.traffic
        requests = [traffic.next_request() for _ in range(count)]
        # Only the arrival times are taken; the request mix is Traffic's.
        arrivals = poisson_trace(
            count, rate,
            seed=(self.seed * len(RATES) + RATES.index(rate)) * CLOSED_WINDOWS + part)
        offsets = [event.offset_seconds for event in arrivals]
        t0 = time.perf_counter()

        def submit(i):
            ticket = traffic.submit(self.fleet.service, requests[i])
            self.watcher.watch((rate, part, i), ticket)
            return ticket

        sent = self.generator.run(offsets, submit, refused=(AdmissionError,))
        self.watcher.wait_idle(DRAIN_TIMEOUT_SECONDS)
        self.step_walls.append(time.perf_counter() - t0)
        done_at = dict(self.watcher.done_at)
        self.watcher.done_at.clear()
        step = StepResult(rate=rate)
        last_done = max(done_at.values(), default=sent[-1].due)
        step.drain_seconds = max(0.0, last_done - sent[-1].due)
        step.late_seconds = max(item.late for item in sent)
        latencies = latencies_from_due(sent, done_at,
                                       key=lambda s: (rate, part, s.index))
        for item, latency in zip(sent, latencies):
            self.outcomes["attempted"] += 1
            if item.handle is None:
                step.refused += 1
            elif not item.handle.done() or item.handle.state == "failed":
                step.failed += 1
                latency = math.inf
            else:
                circuit, index, _key, _p = requests[item.index]
                self.ledger.record((circuit, index), item.handle.result())
            step.latencies.append(latency)
            if self.recorder is not None and math.isfinite(latency):
                self.recorder.add("request", item.due, item.due + latency,
                                  request=f"{rate:g}/{part}/{item.index}")
        self.outcomes["failed"] += step.failed
        self.outcomes["refused"] += step.refused
        return step

    def closed_window(self, seconds: float):
        """Keep ``CLOSED_CLIENTS`` requests in flight for ``seconds``.

        The window starts with a ramp that is not counted and ends by
        waiting for every request still in flight, so the next phase
        starts on an idle fleet.  Returns ``(requests finished, seconds)``
        of the counted part.
        """
        def send():
            request = self.traffic.next_request()
            return request, self.traffic.submit(self.fleet.service, request)

        def settle(request, ticket):
            self.outcomes["attempted"] += 1
            if ticket.state == "failed":
                self.outcomes["failed"] += 1
            else:
                circuit, index, _key, _p = request
                self.ledger.record((circuit, index), ticket.result())

        def keep_full(duration):
            nonlocal in_flight
            done = 0
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < duration:
                still = []
                for request, ticket in in_flight:
                    if ticket.done():
                        settle(request, ticket)
                        done += 1
                        still.append(send())
                    else:
                        still.append((request, ticket))
                in_flight = still
                time.sleep(0.001)
            return done, time.perf_counter() - t0

        t0 = time.perf_counter()
        in_flight = [send() for _ in range(CLOSED_CLIENTS)]
        keep_full(CLOSED_RAMP_SECONDS)
        done, elapsed = keep_full(seconds)
        for request, ticket in in_flight:
            ticket.wait(DRAIN_TIMEOUT_SECONDS)
            if not ticket.done():
                self.outcomes["attempted"] += 1
                self.outcomes["failed"] += 1
            else:
                settle(request, ticket)
        wall = time.perf_counter() - t0
        return done, elapsed, wall

    def low_and_closed(self, seconds: float):
        """The ``low`` step in slices, one before each closed-loop window.

        Spreading both over the phase samples the host's speed over its
        whole length rather than over one stretch of it.  On traced runs
        the slices and every other window are traced.  Returns the merged
        ``low`` step and ``{traced: (proofs, seconds)}`` of the windows.
        """
        slices, totals = [], {}
        for window in range(CLOSED_WINDOWS):
            self.trace(True)
            slices.append(self.open_step(RATES[0], STEP_REQUESTS // CLOSED_WINDOWS,
                                         part=window))
            traced = bool(self.probes) and window % 2 == 1
            self.trace(traced)
            done, elapsed, wall = self.closed_window(seconds / CLOSED_WINDOWS)
            if traced:
                self.step_walls.append(wall)
            count, total = totals.get(traced, (0, 0.0))
            totals[traced] = (count + done, total + elapsed)
        self.trace(True)
        return merge_steps(slices), totals

    def ladder(self, low: StepResult):
        """The rate ladder; its ``low`` step is the one already measured."""
        def run_step(rate: float) -> StepResult:
            if rate == RATES[0]:
                return low
            return self.open_step(rate, STEP_REQUESTS)

        return run_ladder(RATES, run_step, LIMIT_SECONDS, LATE_BOUND_SECONDS)


def run(seed: int, seconds: float, trace: bool, report, root: str):
    recorder = SpanRecorder() if trace else None
    traffic = Traffic(seed)  # witness generation: before any timing
    setup_times = []
    fleet = None
    try:
        for repeat in range(SETUP_REPEATS):
            if fleet is not None:
                fleet.close()
                fleet = None
            # Only the fleet that is measured carries probes.
            last = repeat == SETUP_REPEATS - 1
            seconds_taken, fleet = _setup_once(root, traffic,
                                               recorder if last else None)
            setup_times.append(seconds_taken)
        node_misses = _node_cache_misses(fleet)
        phases = Phases(fleet, traffic, seed, recorder)
        chunks = count_node_chunks(recorder) if trace else nullcontext()
        try:
            with chunks:
                low, windows = phases.low_and_closed(CLOSED_SHARE * seconds)
                ladder = phases.ladder(low)
        finally:
            phases.close()
        ledger, outcomes, step_walls = (phases.ledger, phases.outcomes,
                                        phases.step_walls)
        saturation = {traced: count / elapsed
                      for traced, (count, elapsed) in windows.items()}
        node_rss = fleet.node_peak_rss_mb()
        cluster_stats = fleet.cluster.cluster_stats()
    finally:
        if fleet is not None:
            fleet.close()
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness, after both phases.
    bad, sampled = [], 0
    for circuit, inputs in enumerate(traffic.inputs):
        by_key = {(circuit, t.task_id): t for t in inputs.tasks}
        circuit_bad, circuit_sampled = check_witnesses(
            traffic.specs[circuit], by_key, ledger, seed, SAMPLE_PER_CIRCUIT)
        bad += circuit_bad
        sampled += circuit_sampled
    report.attempted = outcomes["attempted"]
    report.failed = outcomes["failed"]
    report.refused = outcomes["refused"]
    report.unverified = ledger.mismatched + sum(ledger.uses[k] for k in bad)
    if ledger.mismatched:
        report.problem(f"{ledger.mismatched} proofs differ from the first "
                       f"proof of their witness")
    if bad:
        report.problem(f"witnesses {bad} fail verification or differ "
                       f"from serial")
    report.notes.append(
        f"{ledger.checked} proofs byte-compared with the first proof of their "
        f"witness; {len(ledger.first)} first proofs verified, {sampled} "
        f"compared with serial")

    steps = [step for step, _ok, _why in ladder]
    for step, ok, why in ladder:
        tail = step.tail
        report.notes.append(
            f"step {step.rate:g} req/s: n={len(step.latencies)} "
            f"p50={median(step.latencies) * 1e3:.1f} ms "
            f"p95={'-' if tail is None else f'{tail * 1e3:.1f} ms'} "
            f"drain={step.drain_seconds * 1e3:.0f} ms "
            f"late_max={step.late_seconds * 1e3:.1f} ms -> {why}")
    capacity = max_rate(ladder, LIMIT_SECONDS)
    report.notes.append(
        f"max_rate_rps={capacity:.2f} (p95 limit {LIMIT_SECONDS * 1e3:.0f} ms, "
        f"ladder {', '.join(f'{r:g}' for r in RATES)})")
    for label, step in zip(("low", "mid"), steps):
        report.notes.append(
            f"latency_p50_ms.{label}={median(step.latencies) * 1e3:.2f} "
            f"latency_p95_ms.{label}={fmt_ms(step.tail)} (n={len(step.latencies)})")

    low = steps[0]
    report.notes.append(
        f"closed loop, {CLOSED_CLIENTS} in flight: {saturation[False]:.2f} proofs/s")
    report.e2e("proofs_per_s", saturation[False], "1/s", CLOSED_WINDOWS)
    report.e2e("latency_p50_ms", median(low.latencies) * 1e3, "ms",
               len(low.latencies))
    report.e2e("peak_rss_mb", own_rss + node_rss, "MB", 1 + NODES)
    report.e2e("setup_s", median(setup_times), "s", len(setup_times))

    if trace:
        overhead = 1.0 - saturation[True] / saturation[False]
        _report_layers(report, fleet, recorder, ladder, step_walls,
                       cluster_stats, node_misses, overhead, outcomes)
    return recorder


def _node_cache_misses(fleet):
    stats = fleet.cluster.cluster_stats()
    spec = enc = 0
    for node in stats["nodes"].values():
        spec += int((node.get("spec_cache") or {}).get("misses") or 0)
        enc += int((node.get("encoder_cache") or {}).get("misses") or 0)
    return spec, enc


def _report_layers(report, fleet, recorder, ladder, step_walls, cluster_stats,
                   node_misses, overhead, outcomes):
    service = fleet.service.stats
    sp = fleet.service_probe
    requests = sum(n for n, _s, _st in sp.calls)
    waits = sp.queue_waits
    report.layer("service.queue_wait_ms.p50", median(waits) * 1e3, "ms", len(waits))
    tail = percentile(waits, TAIL_Q)
    report.layer("service.queue_wait_ms.p95", None if tail is None else tail * 1e3,
                 "ms", len(waits))
    report.layer("service.batch_size.mean", service.mean_batch_size, "count",
                 len(sp.calls))
    report.layer("service.dispatches", len(sp.calls), "count")
    absorbed = service.cache_hits + service.coalesced
    report.layer("service.cache_absorbed_frac",
                 absorbed / service.submitted if service.submitted else 0.0,
                 "frac", service.submitted)
    report.layer("service.refused", service.rejected, "count")
    self_times = recorder.self_times()
    per_request = 1e3 / requests if requests else 0.0
    report.layer("service.self_ms",
                 self_times.get("service.prove_batch", 0.0) * per_request,
                 "ms/request", requests)

    calls = recorder.durations("cluster.call")
    report.layer("cluster.call_ms.p50", median(calls) * 1e3, "ms", len(calls))
    tail = percentile(calls, TAIL_Q)
    report.layer("cluster.call_ms.p95", None if tail is None else tail * 1e3,
                 "ms", len(calls))
    node_calls = [c for probe in fleet.node_probes for c in probe.calls]
    node_stats = [stats for _n, _s, stats in node_calls]
    proved = sum(r.prove_seconds for stats in node_stats for r in stats.records)
    node_wall = sum(seconds for _n, seconds, _st in node_calls)
    report.layer("cluster.node_busy_frac",
                 proved / (NODES * sum(step_walls)), "frac", len(node_calls))
    report.layer("cluster.wire_overhead_frac",
                 1.0 - proved / node_wall if node_wall else None, "frac",
                 len(node_calls))
    report.layer("cluster.tasks_per_node_call.mean",
                 sum(n for n, _s, _st in node_calls) / len(node_calls)
                 if node_calls else None, "count", len(node_calls))
    chunks = recorder.counter("cluster.node_prove", "chunks")
    report.layer("cluster.tasks_per_node_prove.mean",
                 recorder.counter("cluster.node_prove", "tasks") / chunks
                 if chunks else None, "count", int(chunks))
    report.layer("cluster.cache_affinity",
                 cluster_stats["cache_affinity"]["hit_rate"], "frac")
    report.layer("cluster.hedges_issued", cluster_stats["hedging"]["issued"],
                 "count")
    report.layer("cluster.hedges_won", cluster_stats["hedging"]["won"], "count")
    report.layer("cluster.self_ms",
                 self_times.get("cluster.call", 0.0) * per_request,
                 "ms/request", requests)

    report.layer("execution.retries",
                 sum(stats.retries for stats in node_stats), "count")
    report.layer("execution.failures", outcomes["failed"], "count")
    report_stages(report, node_stats)
    report.layer("kernels.spec_cache.misses", node_misses[0], "count", NODES)
    report.layer("kernels.encoder_cache.misses", node_misses[1], "count", NODES)
    report.layer("loadgen.late_ms.max",
                 max(step.late_seconds for step, _o, _w in ladder) * 1e3, "ms",
                 len(ladder))
    report.layer("trace.overhead_frac", overhead, "frac", CLOSED_WINDOWS)
