"""batch-256 and batch-4096: closed loop, one caller, repeated batches.

The caller proves the same batch of distinct witnesses of one circuit
again and again through ``resolve_backend("lanes:auto").prove_tasks``
in this process, until ``--seconds`` have passed.  Every proof of a
witness must come back byte-identical; after the timed interval the
first proof of every witness is verified and a seeded sample is
compared with ``serial``.
"""

from __future__ import annotations

import gc
import resource
import time

from repro.execution import resolve_backend
from repro.kernels import default_encoder_cache, default_spec_cache

from .checks import ProofLedger, check_witnesses
from .inputs import CircuitInputs
from .layers import BackendProbe, KernelProbes, SpanRecorder, report_kernels, report_stages
from .report import fmt_ms
from .rules import TAIL_Q, lane_fill, median, percentile

#: workload -> (gates per circuit, distinct witnesses per batch).
SHAPES = {"batch-256": (256, 256), "batch-4096": (4096, 64)}

SELECTOR = "lanes:auto"

#: Most set-ups per run (one before each timed batch); ``setup_s`` is
#: their median.
SETUP_REPEATS = 7

#: Tasks in the warm-up batch that fills the SpecCache and EncoderCache.
#: Two would fill them too, but a 2-task set-up (about 80 ms at 4096
#: gates) spread by 0.3 of its median over ten seeds on a 2-core host;
#: 16 tasks (about 0.6 s) spread about as little as a timed batch.
WARMUP_TASKS = 16

#: Fewest timed batches per run (per kind, when tracing alternates):
#: four batches of 64 proofs keep ten samples beyond p95.
MIN_BATCHES = 4


def measure_setup(inputs: CircuitInputs):
    """What a user pays before the first proof, from cold caches.

    Returns ``(seconds, spec, backend, cache misses)``; the misses are
    the SpecCache/EncoderCache misses of this set-up.
    """
    spec_cache, encoder_cache = default_spec_cache(), default_encoder_cache()
    spec_cache.clear()
    encoder_cache.clear()
    gc.collect()
    misses = (spec_cache.misses, encoder_cache.misses)
    t0 = time.perf_counter()
    spec = inputs.build_spec()
    backend = resolve_backend(SELECTOR)
    backend.prove_tasks(spec, inputs.tasks[:WARMUP_TASKS])
    seconds = time.perf_counter() - t0
    misses = (spec_cache.misses - misses[0], encoder_cache.misses - misses[1])
    return seconds, spec, backend, misses


def run(workload: str, seed: int, seconds: float, trace: bool, report):
    gates, width = SHAPES[workload]
    inputs = CircuitInputs(gates, seed, width, workload)
    tasks = inputs.tasks

    recorder = SpanRecorder()
    probes = KernelProbes(recorder)
    ledger = ProofLedger()
    setup_times = []
    walls = {False: [], True: []}
    traced_stats = []
    deadline = None
    k = 0
    while True:
        # Set-ups are spread between the timed batches, not run back to
        # back: host speed here shifts over seconds, and one burst of
        # set-ups would sample a single moment of it.
        if k < SETUP_REPEATS:
            setup_seconds, spec, backend, misses = measure_setup(inputs)
            setup_times.append(setup_seconds)
            probed = BackendProbe(backend, recorder, "execution.prove_tasks")
        if deadline is None:
            deadline = time.perf_counter() + seconds
        traced = trace and k % 2 == 1
        if traced:
            with probes.installed():
                t0 = time.perf_counter()
                proofs, stats = probed.prove_tasks(spec, tasks)
                wall = time.perf_counter() - t0
            traced_stats.append(stats)
        else:
            t0 = time.perf_counter()
            proofs, stats = backend.prove_tasks(spec, tasks)
            wall = time.perf_counter() - t0
        walls[traced].append(wall)
        report.attempted += len(tasks)
        for task, proof in zip(tasks, proofs):
            ledger.record(task.task_id, proof)
        k += 1
        kinds = (False, True) if trace else (False,)
        if (time.perf_counter() >= deadline
                and all(len(walls[kind]) >= MIN_BATCHES for kind in kinds)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness, after the timed interval.
    by_key = {task.task_id: task for task in tasks}
    bad, sampled = check_witnesses(spec, by_key, ledger, seed)
    report.unverified = ledger.mismatched + sum(ledger.uses[key] for key in bad)
    if ledger.mismatched:
        report.problem(f"{ledger.mismatched} timed proofs differ from the "
                       f"first proof of their witness")
    if bad:
        report.problem(f"witnesses {bad} fail verification or differ "
                       f"from serial")
    report.notes.append(
        f"{ledger.checked} timed proofs byte-compared with the first proof of "
        f"their witness; {len(ledger.first)} first proofs verified, "
        f"{sampled} compared with serial")

    # End-to-end metrics (untraced batches only).
    plain = walls[False]
    rates = [width / wall for wall in plain]
    latencies = [wall for wall in plain for _ in range(width)]
    report.e2e("proofs_per_s", median(rates), "1/s", len(rates))
    report.e2e("latency_p50_ms", median(latencies) * 1e3, "ms", len(latencies))
    report.notes.append(f"latency_p95_ms={fmt_ms(percentile(latencies, TAIL_Q))} "
                        f"(n={len(latencies)})")
    report.e2e("peak_rss_mb", peak_rss_mb, "MB", 1)
    report.e2e("setup_s", median(setup_times), "s", len(setup_times))

    if not trace:
        return None
    traced_walls = walls[True]
    traced_proofs = width * len(traced_walls)
    self_times = recorder.self_times()
    report.layer("execution.call_s",
                 median(recorder.durations("execution.prove_tasks")), "s",
                 len(traced_walls))
    lanes = recorder.counter("core.prove_lanes", "lanes")
    report.layer("execution.lane_fill", lane_fill(traced_proofs, lanes),
                 "frac", traced_proofs)
    report.layer("execution.retries",
                 sum(stats.retries for stats in traced_stats), "count")
    report.layer("execution.failures", 0, "count")
    for name, span in (("execution.self_ms", "execution.prove_tasks"),
                       ("core.self_ms", "core.prove_lanes")):
        report.layer(name, self_times.get(span, 0.0) * 1e3 / traced_proofs,
                     "ms/proof", traced_proofs)
    report_stages(report, traced_stats)
    report_kernels(report, recorder, traced_proofs)
    report.layer("kernels.spec_cache.misses", misses[0], "count", 1)
    report.layer("kernels.encoder_cache.misses", misses[1], "count", 1)
    untraced_rate = median(rates)
    traced_rate = median([width / wall for wall in traced_walls])
    report.layer("trace.overhead_frac", 1.0 - traced_rate / untraced_rate,
                 "frac", len(traced_walls))
    return recorder
