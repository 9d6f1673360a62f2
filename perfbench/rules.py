"""Pure measurement rules: percentiles, the rate-ladder verdicts, ratios.

Nothing here touches the proving system, so the rules are unit-tested
on their own (``perfbench/tests``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: The tail percentile the latency limit applies to.  With 200 requests
#: per ladder step, p95 is the highest percentile that keeps ten samples
#: beyond it.
TAIL_Q = 0.95

#: Ladder steps that run whatever their verdicts (``low`` and ``mid``), so
#: the latency at those fixed rates is always measured.
ALWAYS_STEPS = 2


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` when the tail is too thin.

    ``None`` means fewer than :data:`MIN_BEYOND` samples lie strictly beyond
    the reported rank, so the number would rest on a handful of points.
    Infinite samples (refused or failed requests) sort last, so they can
    be the reported value — a refusal misses every latency limit.
    """
    n = len(samples)
    if n == 0 or not 0.0 < q < 1.0:
        return None
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> Optional[float]:
    """The usual median (mean of the middle pair), ``None`` when empty."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def failed_fraction(
    attempted: int, failed: int = 0, refused: int = 0, unverified: int = 0
) -> float:
    """(failed + refused + unverified) / attempted; refusals are failures."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    return (failed + refused + unverified) / attempted


def lane_fill(real_tasks: float, lanes_proved: float) -> float:
    """Real tasks over lanes proved, pad lanes included (1.0 = no pads)."""
    return real_tasks / lanes_proved if lanes_proved else 0.0


def self_seconds(
    spans: Sequence[Tuple[int, str, float, float, Optional[int]]]
) -> dict:
    """Self time per span name: duration minus the part children cover.

    ``spans`` are ``(id, name, start, end, parent_id)`` tuples.  Child
    intervals are clipped to their parent and merged before being
    subtracted, so overlapping children are not subtracted twice.
    """
    children: dict = {}
    for span_id, _name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict = {}
    for span_id, name, start, end, _parent in spans:
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + max(0.0, end - start - covered)
    return totals


# -- the rate ladder ---------------------------------------------------------


@dataclass
class StepResult:
    """What one ladder step measured.

    ``latencies`` holds one entry per attempted request, in seconds from
    its due time; refused and failed requests are ``math.inf``.
    ``drain_seconds`` runs from the step's last due time until its last
    request finished, and ``late_seconds`` is the generator's worst
    lateness against the schedule.
    """

    rate: float
    latencies: List[float] = field(default_factory=list)
    refused: int = 0
    failed: int = 0
    drain_seconds: float = 0.0
    late_seconds: float = 0.0

    @property
    def tail(self) -> Optional[float]:
        return percentile(self.latencies, TAIL_Q)


def merge_steps(slices: Sequence[StepResult]) -> StepResult:
    """One step from slices sent at the same rate at different times.

    Latencies and refused/failed counts add up; the drain and the
    generator's lateness are the worst of any slice.
    """
    return StepResult(
        rate=slices[0].rate,
        latencies=[latency for step in slices for latency in step.latencies],
        refused=sum(step.refused for step in slices),
        failed=sum(step.failed for step in slices),
        drain_seconds=max(step.drain_seconds for step in slices),
        late_seconds=max(step.late_seconds for step in slices),
    )


def step_verdict(
    step: StepResult, limit_seconds: float, late_bound_seconds: float
) -> Tuple[bool, str]:
    """``(sustained, reason)`` for one step under the fixed latency limit.

    A step is sustained when the generator kept to its schedule, the
    tail percentile is supported and within the limit, nothing was
    refused or failed, and the backlog drained within the limit (a queue
    that grows across the step cannot drain that fast).
    """
    if step.late_seconds > late_bound_seconds:
        return False, "invalid: generator late"
    tail = step.tail
    if tail is None:
        return False, "invalid: too few samples"
    if step.refused or step.failed:
        return False, "refused or failed"
    if step.drain_seconds > limit_seconds:
        return False, "backlog"
    if tail > limit_seconds:
        return False, "tail over limit"
    return True, "ok"


def run_ladder(
    rates: Sequence[float],
    run_step: Callable[[float], StepResult],
    limit_seconds: float,
    late_bound_seconds: float,
) -> List[Tuple[StepResult, bool, str]]:
    """Run ascending steps, stopping after the first unsustained one.

    The first :data:`ALWAYS_STEPS` steps run whatever their verdicts.
    """
    out = []
    for index, rate in enumerate(rates):
        if index >= ALWAYS_STEPS and any(not ok for _s, ok, _r in out):
            break
        step = run_step(rate)
        ok, reason = step_verdict(step, limit_seconds, late_bound_seconds)
        out.append((step, ok, reason))
    return out


def _effective_tail(step: StepResult) -> float:
    """Tail latency a failed step stands for when interpolating capacity."""
    tail = step.tail
    if tail is None or step.refused or step.failed:
        return math.inf
    return max(tail, step.drain_seconds)


def max_rate(
    ladder: Sequence[Tuple[StepResult, bool, str]], limit_seconds: float
) -> float:
    """The rate at which the tail latency reaches the limit.

    Linear interpolation between the last sustained step and the first
    unsustained one, so the figure moves smoothly instead of jumping a
    whole ladder step when a borderline step flips.  A failed step whose
    failure has no latency (refusal, invalid) pins the answer to the
    last sustained rate; if every step held, the answer is the top rate.
    """
    last_rate, last_tail = 0.0, 0.0
    for step, ok, reason in ladder:
        if ok:
            last_rate, last_tail = step.rate, step.tail
            continue
        if reason.startswith("invalid"):
            return last_rate
        tail = _effective_tail(step)
        if not math.isfinite(tail) or tail <= last_tail:
            return last_rate
        share = (limit_seconds - last_tail) / (tail - last_tail)
        return last_rate + (step.rate - last_rate) * min(1.0, max(0.0, share))
    return last_rate
