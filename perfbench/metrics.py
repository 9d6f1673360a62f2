"""The metric catalogue: every name the benchmark reports, with its unit.

``BENCHMARK.json`` lists the same names; ``perfbench/tests`` checks the
two agree.  Every workload reports every metric: a layer a workload
does not exercise in the benchmark process reads 0 and the text report
says so.
"""

#: Untraced runs, as ``(name, unit, better)``.  ``proofs_per_s`` is
#: verified proofs per second of batch wall on batch-*, and of the
#: closed-loop saturation phase on serve-fleet.  Latency runs per proof
#: from submission (batch-*: the batch call) or due time (serve-fleet:
#: the ladder's ``low`` step) until the proof is back.  The p95 beside it
#: is printed, not reported here: over ten seeds it spread by 0.3 of its
#: median on the 2-core host, more than any bound allows.
END_TO_END = (
    ("proofs_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Traced runs, as ``(name, unit, better)``.  Per-proof figures are
#: averages over the traced proofs.
PER_LAYER = (
    ("service.queue_wait_ms.p50", "ms", "lower"),
    ("service.queue_wait_ms.p95", "ms", "lower"),
    ("service.batch_size.mean", "count", "higher"),
    ("service.dispatches", "count", "lower"),
    ("service.cache_absorbed_frac", "frac", "higher"),
    ("service.refused", "count", "lower"),
    ("service.self_ms", "ms/request", "lower"),
    ("cluster.call_ms.p50", "ms", "lower"),
    ("cluster.call_ms.p95", "ms", "lower"),
    ("cluster.node_busy_frac", "frac", "higher"),
    ("cluster.wire_overhead_frac", "frac", "lower"),
    ("cluster.tasks_per_node_call.mean", "count", "higher"),
    ("cluster.tasks_per_node_prove.mean", "count", "higher"),
    ("cluster.cache_affinity", "frac", "higher"),
    ("cluster.hedges_issued", "count", "lower"),
    ("cluster.hedges_won", "count", "higher"),
    ("cluster.self_ms", "ms/request", "lower"),
    ("execution.call_s", "s", "lower"),
    ("execution.lane_fill", "frac", "higher"),
    ("execution.retries", "count", "lower"),
    ("execution.failures", "count", "lower"),
    ("execution.self_ms", "ms/proof", "lower"),
    ("core.self_ms", "ms/proof", "lower"),
    ("core.stage_ms.commit", "ms/proof", "lower"),
    ("core.stage_ms.encode", "ms/proof", "lower"),
    ("core.stage_ms.merkle", "ms/proof", "lower"),
    ("core.stage_ms.sumcheck1", "ms/proof", "lower"),
    ("core.stage_ms.sumcheck2", "ms/proof", "lower"),
    ("core.stage_ms.open", "ms/proof", "lower"),
    ("core.unattributed_frac", "frac", "lower"),
    ("commitment.encode_rows.calls", "count/proof", "lower"),
    ("commitment.encode_rows.ms", "ms/proof", "lower"),
    ("commitment.encode_rows.self_ms", "ms/proof", "lower"),
    ("commitment.commit_encoded.calls", "count/proof", "lower"),
    ("commitment.commit_encoded.ms", "ms/proof", "lower"),
    ("commitment.commit_encoded.self_ms", "ms/proof", "lower"),
    ("commitment.open.calls", "count/proof", "lower"),
    ("commitment.open.ms", "ms/proof", "lower"),
    ("commitment.open.self_ms", "ms/proof", "lower"),
    ("field.spmv.calls", "count/proof", "lower"),
    ("field.spmv.ms", "ms/proof", "lower"),
    ("field.spmv.elements", "count/proof", "lower"),
    ("field.spmv.bytes_computed", "B/proof", "lower"),
    ("hashing.compress_layer.calls", "count/proof", "lower"),
    ("hashing.compress_layer.ms", "ms/proof", "lower"),
    ("hashing.compress_layer.bytes_computed", "B/proof", "lower"),
    ("hashing.transcript.challenges", "count/proof", "lower"),
    ("hashing.transcript.ms", "ms/proof", "lower"),
    ("kernels.spec_cache.misses", "count", "lower"),
    ("kernels.encoder_cache.misses", "count", "lower"),
    ("loadgen.late_ms.max", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

#: Kernel layers patched from outside, reported per proof.
KERNEL_LAYERS = (
    "commitment.encode_rows",
    "commitment.commit_encoded",
    "commitment.open",
    "field.spmv",
    "hashing.compress_layer",
    "hashing.transcript",
)

#: Stages of ``RuntimeStats.stage_totals()`` (exclusive view).
STAGES = ("commit", "encode", "merkle", "sumcheck1", "sumcheck2", "open")
