"""The repository benchmark: batch-256, batch-4096 and serve-fleet.

Run it from the repository root::

    python3 perfbench/run.py --workload batch-256 --seed 1 --seconds 40 --trace 0

See ``perfbench/README.md`` for what each workload and metric means.
"""
