"""Execution-layer tests (S24): backend parity, registry, sharding,
entry-point routing, and correlated trace replay."""

import io
import json

import pytest

from repro.core import (
    BatchProver,
    ProofTask,
    SnarkProver,
    make_pcs,
    random_circuit,
    verify_all,
)
from repro.core.serialize import serialize_proof
from repro.errors import ExecutionError
from repro.execution import (
    PoolBackend,
    ProvingBackend,
    SerialBackend,
    ShardedBackend,
    available_backends,
    format_lineage,
    largest_remainder_shares,
    lineage_of,
    load_trace,
    request_lineage,
    resolve_backend,
    span_index,
)
from repro.field import DEFAULT_FIELD
from repro.runtime import JsonlTraceSink, ProverSpec

F = DEFAULT_FIELD


@pytest.fixture(scope="module")
def setup():
    cc = random_circuit(F, 48, seed=3)
    pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    tasks = [ProofTask(i, cc.witness, cc.public_values) for i in range(6)]
    return prover, spec, tasks


@pytest.fixture(scope="module")
def serial_run(setup):
    _, spec, tasks = setup
    return SerialBackend().prove_tasks(spec, tasks)


def _wire(proofs):
    return [serialize_proof(p, F) for p in proofs]


# -- sharding arithmetic -------------------------------------------------------

class TestLargestRemainderShares:
    def test_shares_sum_to_total(self):
        for total in (1, 7, 64, 1000):
            shares = largest_remainder_shares(total, [3.0, 1.0, 2.0])
            assert sum(shares) == total

    def test_proportionality_bound(self):
        """No share is more than one above its exact proportion."""
        weights = [5.0, 2.0, 3.0]
        total = 97
        shares = largest_remainder_shares(total, weights)
        wsum = sum(weights)
        for share, w in zip(shares, weights):
            assert share <= total * w / wsum + 1

    def test_zero_weights_fall_back_to_even_split(self):
        assert largest_remainder_shares(10, [0.0, 0.0, 0.0]) == [4, 3, 3]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ExecutionError):
            largest_remainder_shares(-1, [1.0])
        with pytest.raises(ExecutionError):
            largest_remainder_shares(5, [])
        with pytest.raises(ExecutionError):
            largest_remainder_shares(5, [1.0, -2.0])

    def test_matches_multigpu_shard(self):
        """The farm simulator and the functional backend place identically."""
        from repro.pipeline.multigpu import MultiGpuBatchSystem

        farm = MultiGpuBatchSystem(["V100", "A100"], scale=1 << 12)
        shares = farm.shard(33)
        assert shares == largest_remainder_shares(33, farm.device_rates())


# -- registry ------------------------------------------------------------------

class TestRegistry:
    def test_stock_heads_registered(self):
        assert {"serial", "pool", "sharded"} <= set(available_backends())

    def test_selector_parsing(self):
        assert resolve_backend("serial").name == "serial"
        assert resolve_backend("pool:3").parallelism == 3
        sharded = resolve_backend("sharded:pool:2,serial")
        assert sharded.name == "sharded:pool:2,serial"
        assert sharded.parallelism == 3
        assert [type(c) for c in sharded.children] == [
            PoolBackend, SerialBackend,
        ]

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_backends_satisfy_protocol(self):
        for selector in ("serial", "pool:2", "sharded:serial,serial"):
            assert isinstance(resolve_backend(selector), ProvingBackend)

    def test_unknown_selector_lists_names_and_suggests(self):
        """Regression: the unknown-selector error must enumerate every
        registered head and offer a did-you-mean for a near miss."""
        with pytest.raises(ExecutionError) as excinfo:
            resolve_backend("warp:4")
        message = str(excinfo.value)
        for head in available_backends():
            assert head in message
        with pytest.raises(ExecutionError, match="did you mean 'serial'"):
            resolve_backend("serail")
        with pytest.raises(ExecutionError, match="did you mean 'cluster'"):
            resolve_backend("clustre:remote:h:1")

    def test_bad_selectors_raise_typed_errors(self):
        for bad in (
            "", "warp", "serial:3", "pool:many", "sharded:",
            "sharded:pool:2,,serial", "sharded:sharded:serial",
            "pipelined:2", "lanes:4:pipelined:2",
        ):
            with pytest.raises(ExecutionError):
                resolve_backend(bad)
        with pytest.raises(ExecutionError):
            resolve_backend(42)


# -- parity (the satellite acceptance property) --------------------------------

class TestBackendParity:
    def test_pool_proofs_byte_identical_to_serial(self, setup, serial_run):
        _, spec, tasks = setup
        serial_proofs, _ = serial_run
        pool_proofs, stats = PoolBackend(2).prove_tasks(spec, tasks)
        assert _wire(pool_proofs) == _wire(serial_proofs)
        assert stats.workers == 2

    def test_sharded_proofs_byte_identical_to_serial(self, setup, serial_run):
        _, spec, tasks = setup
        serial_proofs, _ = serial_run
        sharded = resolve_backend("sharded:pool:2,serial")
        sharded_proofs, stats = sharded.prove_tasks(spec, tasks)
        assert _wire(sharded_proofs) == _wire(serial_proofs)
        # Merged report covers every task and both children's workers.
        assert len(stats.records) == len(tasks)
        assert stats.workers == 3

    def test_all_backends_verify(self, setup):
        _, spec, tasks = setup
        verifier = spec.build_verifier()
        for selector in ("serial", "pool:2", "sharded:serial,serial"):
            proofs, _ = resolve_backend(selector).prove_tasks(spec, tasks)
            assert verify_all(verifier, proofs, tasks)

    def test_sharded_preserves_task_order(self, setup):
        _, spec, tasks = setup
        sharded = ShardedBackend([SerialBackend(), SerialBackend()])
        _, stats = sharded.prove_tasks(spec, tasks)
        assert sorted(r.task_id for r in stats.records) == [
            t.task_id for t in tasks
        ]

    def test_empty_batch(self, setup):
        _, spec, _ = setup
        for selector in ("serial", "sharded:serial,serial"):
            proofs, stats = resolve_backend(selector).prove_tasks(spec, [])
            assert proofs == []
            assert stats.records == []


# -- entry-point routing -------------------------------------------------------

class TestEntryPoints:
    def test_batch_prover_accepts_backend_selector(self, setup, serial_run):
        prover, _, tasks = setup
        serial_proofs, _ = serial_run
        batch = BatchProver(prover, backend="sharded:serial,serial")
        proofs, stats = batch.prove_all(tasks)
        assert _wire(proofs) == _wire(serial_proofs)
        assert stats.proofs_generated == len(tasks)
        assert batch.last_runtime_stats is not None
        assert batch.last_runtime_stats.workers == 2

    def test_batch_prover_per_call_backend_override(self, setup, serial_run):
        prover, _, tasks = setup
        serial_proofs, _ = serial_run
        batch = BatchProver(prover)
        proofs, _ = batch.prove_all(tasks, backend="serial")
        assert _wire(proofs) == _wire(serial_proofs)

    def test_runtime_proof_backend_accepts_selector(self, setup):
        from repro.service import RuntimeProofBackend, spec_key
        from repro.service.request import Priority, ProofRequest

        _, spec, tasks = setup
        backend = RuntimeProofBackend.from_specs(
            [spec], backend="sharded:serial,serial"
        )
        key = spec_key(spec)
        requests = [
            ProofRequest(
                request_id=100 + i, payload=task, circuit_key=key,
                witness_key=None, priority=Priority.BULK,
                submitted_at=0.0, deadline=None,
            )
            for i, task in enumerate(tasks[:3])
        ]
        proofs = backend.prove_batch(key, requests)
        verifier = backend.verifier_for(key)
        assert all(
            verifier.verify(p, t.public_values)
            for p, t in zip(proofs, tasks)
        )
        # Tasks were renumbered to request ids for trace correlation.
        assert sorted(
            r.task_id for r in backend.last_runtime_stats.records
        ) == [100, 101, 102]


# -- correlated trace replay ---------------------------------------------------

class TestTraceReplay:
    @pytest.fixture(scope="class")
    def trace_events(self, setup):
        """One service run, one shared JSONL sink, serial proving."""
        from repro.service import (
            BatchPolicy,
            ProofService,
            RuntimeProofBackend,
            spec_key,
            task_witness_key,
        )

        _, spec, tasks = setup
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        backend = RuntimeProofBackend.from_specs([spec], backend="serial")
        key = spec_key(spec)
        policy = BatchPolicy(max_batch_size=4, max_wait_seconds=0.005)
        with ProofService(backend, policy=policy, trace=sink) as svc:
            tickets = [
                svc.submit(
                    task,
                    circuit_key=key,
                    witness_key=task_witness_key(task)
                    + task.task_id.to_bytes(4, "little"),
                )
                for task in tasks
            ]
            # A duplicate of the first task: cache hit or coalesce.
            dup = svc.submit(
                tasks[0],
                circuit_key=key,
                witness_key=task_witness_key(tasks[0])
                + tasks[0].task_id.to_bytes(4, "little"),
            )
            svc.drain(timeout=60)
            for ticket in tickets:
                ticket.result(timeout=60)
            dup.result(timeout=60)
        return load_trace(buffer.getvalue().splitlines()), tickets, dup

    def test_every_event_is_span_stamped(self, trace_events):
        events, _, _ = trace_events
        assert events
        for event in events:
            assert {"span", "parent", "kind", "event", "t"} <= set(event)
            assert event["kind"] in (
                "service", "request", "batch", "backend", "task",
            )

    def test_lineage_reconstructs_full_span_tree(self, trace_events):
        """The tentpole acceptance: service → batch → backend → task from
        one JSONL file."""
        events, tickets, _ = trace_events
        rid = tickets[0].request_id
        lineage = request_lineage(events, rid)
        assert lineage.resolution == "proved"
        nodes = span_index(events)
        # The chain is connected: request under service, batch under
        # service, backend under batch, task under backend.
        assert nodes[lineage.request].parent == lineage.service
        assert nodes[lineage.service].kind == "service"
        assert lineage.batch is not None
        assert nodes[lineage.batch].parent == lineage.service
        assert lineage.backends, "no backend span under the batch"
        for backend_span in lineage.backends:
            assert nodes[backend_span].parent == lineage.batch
        assert lineage.tasks, "no task span for the request"
        for task_span in lineage.tasks:
            assert nodes[task_span].parent in lineage.backends
            assert any(
                e.get("task_id") == rid for e in nodes[task_span].events
            )

    def test_every_proved_request_has_a_task_span(self, trace_events):
        events, tickets, _ = trace_events
        for ticket in tickets:
            lineage = request_lineage(events, ticket.request_id)
            assert lineage.resolution == "proved"
            assert lineage.tasks

    def test_duplicate_resolves_without_backend_spans(self, trace_events):
        events, _, dup = trace_events
        lineage = request_lineage(events, dup.request_id)
        assert lineage.resolution in ("cache", "coalesced")
        assert lineage.tasks == []

    def test_format_lineage_renders_chain(self, trace_events):
        events, tickets, _ = trace_events
        text = format_lineage(request_lineage(events, tickets[0].request_id))
        assert "[proved]" in text
        assert "→" in text

    def test_unknown_request_raises(self, trace_events):
        events, _, _ = trace_events
        with pytest.raises(ExecutionError):
            request_lineage(events, 999_999)

    def test_lineage_of_reads_files(self, trace_events, tmp_path):
        events, tickets, _ = trace_events
        path = tmp_path / "trace.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events)
        )
        lineage = lineage_of(str(path), tickets[0].request_id)
        assert lineage.resolution == "proved"


# -- shared percentile ---------------------------------------------------------

class TestSharedPercentile:
    def test_single_source_of_truth(self):
        from repro import stats as shared
        from repro.runtime import stats as runtime_stats
        from repro.service import stats as service_stats

        assert runtime_stats.percentile is shared.percentile
        assert service_stats.percentile is shared.percentile

    def test_reexport_from_runtime_package(self):
        from repro.runtime import percentile as reexported
        from repro.stats import percentile as shared

        assert reexported is shared
