"""The repository's benchmark: four workloads, end-to-end and per-layer
metrics, and a traced run.  ``python -m bench --help``; see README.md."""
