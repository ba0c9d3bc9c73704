"""End-to-end benchmark of the spoilseg toolkit.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the root of a checkout.  See
``perfbench/README.md`` for the workloads and metrics.
"""
