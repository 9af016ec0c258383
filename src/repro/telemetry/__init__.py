"""In-sim metrics, probes, and span observability (deterministic).

The paper's central quantities — window of vulnerability, recovery
bandwidth under the 20%-of-80 MB/s cap, degraded-mode load — are
*time-varying* cluster properties; this package makes them observable
while a simulation runs, without perturbing it:

* :mod:`~repro.telemetry.metrics` — ``Counter`` / ``Gauge`` /
  ``Histogram`` instruments in a :class:`MetricRegistry`; snapshots are
  plain dicts and merge associatively, bit-identically across any worker
  count (the sweep runner folds them in run-index order).
* :mod:`~repro.telemetry.probes` — periodic read-only cluster samplers
  on the simulator's timers.
* :mod:`~repro.telemetry.spans` — per-block failure→re-replication span
  tracking feeding window-of-vulnerability histograms per group size.
* :mod:`~repro.telemetry.export` — JSONL (schema ``repro.telemetry.v1``),
  CSV, and Prometheus text-format exporters.

The DES accepts a nullable ``telemetry=`` :class:`Telemetry` handle;
when absent every instrumentation site is a single ``is not None`` test.
See ``docs/OBSERVABILITY.md`` for the full API and schema.
"""

from .export import (append_jsonl, canonical_json, default_telemetry_path,
                     read_jsonl, render_summary, snapshot_record,
                     to_prometheus, write_csv)
from .handle import Telemetry, TelemetryConfig
from .metrics import (TELEMETRY_SCHEMA, Counter, Gauge, Histogram,
                      MetricRegistry, empty_snapshot, log_bounds,
                      merge_into, merge_snapshots)
from .probes import ClusterProbes, ProbeSample
from .spans import SpanTracker

__all__ = [
    "TELEMETRY_SCHEMA",
    "Telemetry",
    "TelemetryConfig",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "log_bounds",
    "empty_snapshot",
    "merge_into",
    "merge_snapshots",
    "ClusterProbes",
    "ProbeSample",
    "SpanTracker",
    "append_jsonl",
    "canonical_json",
    "default_telemetry_path",
    "read_jsonl",
    "render_summary",
    "snapshot_record",
    "to_prometheus",
    "write_csv",
]
