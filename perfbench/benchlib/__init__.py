"""Building blocks of the repository benchmark (``perfbench/run.py``).

* :mod:`benchlib.procs` boots ``repro serve`` / ``repro fleet serve``
  through the public CLI and stops them cleanly.
* :mod:`benchlib.workloads` defines the workloads, their seeded inputs
  and the timed set-up (data, labels, fit, publish).
* :mod:`benchlib.loadgen` is the closed- and open-loop load generator
  with the bitwise correctness checker.
* :mod:`benchlib.ledger` turns a traced run into per-layer metrics.
* :mod:`benchlib.report` holds metric names, units and the report header.
"""
