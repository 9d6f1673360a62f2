#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch-256 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer metrics and writes the span file to
``.perfbench/spans-<workload>-<seed>.jsonl``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-256", "batch-4096", "serve-fleet")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro package under {os.path.join(ROOT, 'src')}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # Turn SIGTERM into SystemExit so cleanup (node processes) still runs.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    from perfbench import batch, fleet
    from perfbench.layers import UNMEASURED_KERNELS
    from perfbench.metrics import PER_LAYER
    from perfbench.report import Report, host_fingerprint

    trace = bool(args.trace)
    report = Report(args.workload)
    if args.workload == "serve-fleet":
        recorder = fleet.run(args.seed, args.seconds, trace, report, ROOT)
        nodes = fleet.NODES
    else:
        recorder = batch.run(args.workload, args.seed, args.seconds, trace,
                             report)
        nodes = 0
    host = host_fingerprint(ROOT, nodes)
    if trace:
        for name, unit, _better in PER_LAYER:
            if name not in report.per_layer:
                report.layer(name, None, unit)
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"spans-{args.workload}-{args.seed}.jsonl")
        recorder.dump(path, {"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "host": host})
        report.notes.append(f"{len(recorder.spans)} spans written to {path}")
        report.notes.append("kernels imported by name, not measured: "
                            + ", ".join(UNMEASURED_KERNELS))
    print("host " + json.dumps(host, sort_keys=True))
    report.print_text(trace)
    print(report.result_json(trace), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
