"""The repo's performance benchmark (see ``benchmarks/perf/README.md``).

One harness, six workloads, two clocks: *host time* is what the Python
process takes, *simulated time* is what the modelled SSD/FPGA would
take.  Run ``python3 benchmarks/perf/run.py`` (or ``python -m
benchmarks.perf``) from the repo root.
"""
