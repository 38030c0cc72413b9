"""The repository benchmark: the P2Auth HTTP service under wire traffic.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds a seeded fixture, starts the service in its own
process (:mod:`perfbench.server`), drives it over real HTTP from this
process (:mod:`perfbench.loadgen`), checks every response against a
precomputed oracle (:mod:`perfbench.fixture`) and prints one JSON line
of metrics. See ``perfbench/README.md`` for the metric, layer and
workload names.
"""
