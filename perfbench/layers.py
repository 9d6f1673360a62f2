"""Per-layer instrumentation, applied from outside the program.

Two kinds of probe, both recording into one :class:`SpanRecorder`:

* :class:`BackendProbe` wraps an object the benchmark hands to the
  program (an execution backend, a cluster member, the service's
  ``prove_batch`` backend) and times every call through it.
* :class:`KernelProbes` patches class methods for the duration of a
  ``with`` block: the PCS stages, ``F61SpMV`` applies, ``Hasher`` layer
  hashing and ``Transcript`` hashing.  Only methods reached through a
  class attribute can be patched this way; kernels the program imports
  by name (``fold_table``, ``combine_rows``, the sum-check round
  kernels) are out of reach and reported as unmeasured.

Every wrapped boundary records a span ``(id, name, start, end, parent,
request)`` in memory; :meth:`SpanRecorder.dump` writes them out at the
end of a traced run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.cluster import protocol
from repro.commitment.brakedown import BrakedownPCS
from repro.core import SnarkProver
from repro.field.fast61 import F61SpMV
from repro.hashing.hashers import Hasher
from repro.hashing.transcript import Transcript

from .rules import self_seconds

#: Kernels the program imports by name, which a class patch cannot reach.
UNMEASURED_KERNELS = (
    "fold_table",
    "combine_rows",
    "eq_table_lanes",
    "product_round_quadratic",
    "constraint_round_cubic",
)


class SpanRecorder:
    """In-memory spans plus per-name counters, safe across threads."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counters: Dict[str, Dict[str, float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """The innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, request=None):
        """Time the block as one span; yields the span id."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, request))

    def add(self, name, start, end, parent=None, request=None) -> int:
        """Record a span timed elsewhere (e.g. a request's due → done)."""
        span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent, request))
        return span_id

    def count(self, name: str, **amounts: float) -> None:
        with self._lock:
            entry = self.counters.setdefault(name, {})
            for key, value in amounts.items():
                entry[key] = entry.get(key, 0.0) + value

    def counter(self, name: str, key: str) -> float:
        return self.counters.get(name, {}).get(key, 0.0)

    def durations(self, name: str) -> List[float]:
        return [end - start for _i, n, start, end, _p, _r in self.spans if n == name]

    def self_times(self) -> Dict[str, float]:
        return self_seconds([s[:5] for s in self.spans])

    def dump(self, path: str, header: dict) -> None:
        """Write a header line, then one JSON object per span."""
        with open(path, "w") as out:
            out.write(json.dumps({"header": header}) + "\n")
            for span_id, name, start, end, parent, request in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


class BackendProbe:
    """Times every ``prove_tasks``/``prove_batch`` call through ``inner``.

    It is handed to the program in place of ``inner`` and forwards every
    other attribute.
    """

    def __init__(self, inner, recorder: SpanRecorder, name: str):
        self._inner = inner
        self._recorder = recorder
        self._span_name = name
        #: Supplies the parent span for calls made on threads that have
        #: no open span (a cluster coordinator runs its shards on worker
        #: threads).
        self.parent_of: Optional["BackendProbe"] = None
        #: When False, calls pass straight through, unrecorded.
        self.enabled = True
        #: Span id of the call in flight (the program dispatches one
        #: batch at a time through each probed object).
        self.in_flight: Optional[int] = None
        #: ``(tasks, seconds, RuntimeStats or None)`` per call.
        self.calls: List[tuple] = []
        #: Service queue wait per request, seconds (``prove_batch`` only).
        self.queue_waits: List[float] = []

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def _timed(self, call):
        parent = None
        if self._recorder.current() is None and self.parent_of is not None:
            parent = self.parent_of.in_flight
        with self._recorder.span(self._span_name, parent) as span_id:
            self.in_flight = span_id
            t0 = time.perf_counter()
            try:
                result = call()
            finally:
                self.in_flight = None
            return result, time.perf_counter() - t0

    def prove_tasks(self, spec, tasks, **kwargs):
        if not self.enabled:
            return self._inner.prove_tasks(spec, tasks, **kwargs)
        tasks = list(tasks)
        (proofs, stats), seconds = self._timed(
            lambda: self._inner.prove_tasks(spec, tasks, **kwargs))
        self.calls.append((len(tasks), seconds, stats))
        return proofs, stats

    def prove_batch(self, circuit_key, requests):
        if not self.enabled:
            return self._inner.prove_batch(circuit_key, requests)
        now = time.monotonic()  # the service's clock
        self.queue_waits.extend(now - r.submitted_at for r in requests)
        results, seconds = self._timed(
            lambda: self._inner.prove_batch(circuit_key, requests))
        self.calls.append((len(requests), seconds, None))
        return results


@contextmanager
def count_node_chunks(recorder: SpanRecorder):
    """Count the ``RESULT`` frames nodes stream back, and their tasks.

    A node proves the tasks of one call in chunks and streams one
    ``RESULT`` frame per chunk, so tasks per frame is how many tasks the
    node's own backend proves at once — the lane group on a ``lanes:``
    node.  ``RemoteBackend`` reads frames through ``protocol.recv_frame``,
    which is patched while the block runs.  Only frames read inside an
    open span on the reading thread (a probed node call) are counted.
    """
    original = protocol.recv_frame

    def recv_frame(sock):
        kind, payload = original(sock)
        if kind == protocol.RESULT and recorder.current() is not None:
            recorder.count("cluster.node_prove", chunks=1.0,
                           tasks=float(len(payload["results"])))
        return kind, payload

    protocol.recv_frame = recv_frame
    try:
        yield
    finally:
        protocol.recv_frame = original


def _spmv_amounts(spmv, x) -> dict:
    rows = x.size // spmv.n_in if spmv.n_in else 0
    # Computed, not measured: per row the gather reads n_in words and
    # nnz edge weights, and the scatter writes n_out words (8 bytes each).
    return {"elements": float(x.size),
            "bytes_computed": 8.0 * rows * (spmv.n_in + spmv.nnz + spmv.n_out)}


def _layer_amounts(_hasher, layer) -> dict:
    return {"bytes_computed": float(sum(len(d) for d in layer))}


def _lane_amounts(_prover, witnesses, *_args, **_kwargs) -> dict:
    return {"lanes": float(len(witnesses))}


#: (class, method, layer name, amounts(self, *args) -> dict or None).
_PATCHES = (
    (BrakedownPCS, "encode_rows", "commitment.encode_rows", None),
    (BrakedownPCS, "encode_rows_lanes", "commitment.encode_rows", None),
    (BrakedownPCS, "commit_encoded", "commitment.commit_encoded", None),
    (BrakedownPCS, "commit_encoded_lanes", "commitment.commit_encoded", None),
    (BrakedownPCS, "open", "commitment.open", None),
    (BrakedownPCS, "open_lanes", "commitment.open", None),
    (F61SpMV, "apply", "field.spmv", _spmv_amounts),
    (F61SpMV, "apply_batch", "field.spmv", _spmv_amounts),
    (F61SpMV, "apply_lanes", "field.spmv", _spmv_amounts),
    (Hasher, "compress_layer", "hashing.compress_layer", _layer_amounts),
    (Hasher, "hash_many", "hashing.compress_layer", _layer_amounts),
    (Transcript, "absorb_bytes", "hashing.transcript", None),
    (Transcript, "challenge_bytes", "hashing.transcript",
     lambda *_a, **_k: {"challenges": 1.0}),
    (SnarkProver, "prove_lanes", "core.prove_lanes", _lane_amounts),
)


class KernelProbes:
    """Patch the class methods in ``_PATCHES`` while the block runs.

    Only the outermost call of a layer counts (``apply_lanes`` calls
    ``apply_batch``; ``challenge_field`` calls ``challenge_bytes``), so
    calls and milliseconds are never counted twice.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._active = threading.local()

    def _wrap(self, fn, layer: str, amounts):
        # Kept lean: the transcript layer alone is entered ~200 times per
        # proof, so every microsecond here shows in trace.overhead_frac.
        recorder, active = self.recorder, self._active
        spans, ids, clock = recorder.spans, recorder._ids, time.perf_counter

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            layers = active.__dict__.setdefault("layers", set())
            if layer in layers:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            layers.add(layer)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layers.discard(layer)
                spans.append((span_id, layer, start, end, parent, None))
                extra = amounts(*args, **kwargs) if amounts else {}
                recorder.count(layer, calls=1.0, seconds=end - start, **extra)

        return probe

    @contextmanager
    def installed(self):
        originals = []
        try:
            for cls, method, layer, amounts in _PATCHES:
                original = cls.__dict__[method]
                originals.append((cls, method, original))
                setattr(cls, method, self._wrap(original, layer, amounts))
            yield self
        finally:
            for cls, method, original in reversed(originals):
                setattr(cls, method, original)


def report_kernels(report, recorder: SpanRecorder, proofs: int) -> None:
    """Per-proof calls, time, self time and computed amounts per kernel layer."""
    from .metrics import KERNEL_LAYERS, PER_LAYER

    self_times = recorder.self_times()
    scale = 1.0 / proofs if proofs else 0.0
    for layer in KERNEL_LAYERS:
        counts = recorder.counters.get(layer, {})
        calls = int(counts.get("calls", 0))
        for name, unit, _better in PER_LAYER:
            if not name.startswith(layer + "."):
                continue
            key = name[len(layer) + 1:]
            if key == "ms":
                value = counts.get("seconds", 0.0) * 1e3
            elif key == "self_ms":
                value = self_times.get(layer, 0.0) * 1e3
            else:
                value = counts.get(key, 0.0)
            report.layer(name, value * scale, unit, calls)


def report_stages(report, runtime_stats: list) -> None:
    """Exclusive stage time per proof, and the share no stage covers."""
    from repro.kernels.profile import StageProfile

    from .metrics import STAGES

    totals = StageProfile()
    proved = 0.0
    records = 0
    for stats in runtime_stats:
        for record in stats.records:
            records += 1
            proved += record.prove_seconds
            if record.stage_seconds:
                totals.merge(record.stage_seconds)
    exclusive = totals.exclusive()
    scale = 1e3 / records if records else 0.0
    for stage in STAGES:
        report.layer(f"core.stage_ms.{stage}",
                     exclusive.get(stage, 0.0) * scale, "ms/proof", records)
    attributed = sum(exclusive.values())
    report.layer("core.unattributed_frac",
                 1.0 - attributed / proved if proved else None,
                 "frac", records)
