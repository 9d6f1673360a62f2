"""Collected results of one run and how they are printed."""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from .rules import failed_fraction


class Report:
    """Metrics of one run: end-to-end, per-layer, counts and notes.

    Each metric keeps ``(value, unit, samples)``; the text report shows
    all three, and the final JSON line carries value and unit.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.end_to_end: Dict[str, Tuple[float, str, int]] = {}
        self.per_layer: Dict[str, Tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.unverified = 0
        self.problems: List[str] = []
        self.notes: List[str] = []

    def e2e(self, name: str, value: float, unit: str, samples: int) -> None:
        self.end_to_end[name] = (float(value), unit, int(samples))

    def layer(self, name: str, value: Optional[float], unit: str,
              samples: int = 0) -> None:
        """A per-layer metric; ``None`` (not measurable here) reads 0."""
        if value is None:
            self.notes.append(f"{name}: not measured on this workload")
            value = 0.0
        self.per_layer[name] = (float(value), unit, int(samples))

    def problem(self, text: str) -> None:
        """A correctness failure: the run exits nonzero."""
        self.problems.append(text)

    @property
    def correct(self) -> bool:
        return not self.problems

    def print_text(self, trace: bool, out=sys.stdout) -> None:
        frac = failed_fraction(max(1, self.attempted), self.failed,
                               self.refused, self.unverified)
        print(f"workload {self.workload}: attempted {self.attempted}, "
              f"failed {self.failed}, refused {self.refused}, "
              f"unverified {self.unverified}, failed_frac {frac:.4f}",
              file=out)
        for line in self.notes:
            print(f"  note: {line}", file=out)
        table = self.per_layer if trace else self.end_to_end
        for name, (value, unit, samples) in table.items():
            print(f"  {name:<40} {value:>14.6g} {unit:<12} n={samples}",
                  file=out)
        for line in self.problems:
            print(f"  FAILED CHECK: {line}", file=out)

    def result_json(self, trace: bool) -> str:
        table = self.per_layer if trace else self.end_to_end
        return json.dumps({
            "correct": self.correct,
            "attempted": max(1, int(self.attempted)),
            "failed": int(self.failed + self.refused + self.unverified),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _samples) in table.items()
            },
        })


def fmt_ms(seconds: Optional[float]) -> str:
    """Seconds as milliseconds for the text report; '-' when unsupported."""
    return "-" if seconds is None else f"{seconds * 1e3:.2f}"


def host_fingerprint(root: str, nodes: int) -> dict:
    """The repo's host fingerprint plus numpy, usable cores, git rev, nodes."""
    import numpy
    from repro.experiments.spec import current_git_rev, host_fingerprint

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    # Without a .git of its own the checkout has no revision; git is not
    # asked, since it would search the directories above the checkout.
    has_git = os.path.exists(os.path.join(root, ".git"))
    return dict(
        host_fingerprint(),
        nproc=cores,
        numpy=numpy.__version__,
        git_rev=current_git_rev(root) if has_git else "unknown",
        nodes=nodes,
    )
