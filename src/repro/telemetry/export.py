"""Telemetry snapshot exporters: JSONL, CSV, Prometheus text format.

The canonical on-disk form is JSON Lines, one merged snapshot per sweep
point::

    {"schema": "repro.telemetry.v1", "sweep": "...", "point": "farm",
     "n_runs": 100, "metrics": {...}}

``canonical_json`` (sorted keys, compact separators) is the byte-level
identity the ``sweep-check`` CLI asserts between serial and parallel runs.
The CSV form flattens every metric field to ``(name, labels, field,
value)`` rows; the Prometheus form follows the text exposition format
(``# HELP`` / ``# TYPE``, cumulative ``_bucket{le=...}`` histograms) so a
snapshot can be dropped behind any scrape endpoint.

``REPRO_TELEMETRY_PATH`` names the JSONL sink (empty string disables; no
default — telemetry is opt-in).
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import Any, Iterable, TextIO

from .metrics import TELEMETRY_SCHEMA


def default_telemetry_path() -> Path | None:
    """Where merged sweep snapshots go (None = telemetry sink disabled)."""
    env = os.environ.get("REPRO_TELEMETRY_PATH")
    if env:
        return Path(env)
    return None


def canonical_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


# --------------------------------------------------------------------- #
# JSONL
# --------------------------------------------------------------------- #
def snapshot_record(snapshot: dict, **meta: Any) -> dict:
    """Wrap a snapshot with metadata (sweep/point/n_runs) for JSONL."""
    if snapshot.get("schema") != TELEMETRY_SCHEMA:
        raise ValueError(f"not a telemetry snapshot: "
                         f"{snapshot.get('schema')!r}")
    record = {"schema": TELEMETRY_SCHEMA}
    record.update(meta)
    record["metrics"] = snapshot["metrics"]
    return record


def append_jsonl(path: str | Path, snapshot: dict, **meta: Any) -> None:
    """Append one snapshot record to a JSONL file (creating parents)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(canonical_json(snapshot_record(snapshot, **meta)) + "\n")


def read_jsonl(path: str | Path) -> list[dict]:
    """Load every snapshot record from a JSONL file (schema-checked)."""
    records = []
    with Path(path).open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("schema") != TELEMETRY_SCHEMA:
                raise ValueError(f"{path}:{line_no}: schema "
                                 f"{record.get('schema')!r} is not "
                                 f"{TELEMETRY_SCHEMA}")
            records.append(record)
    return records


# --------------------------------------------------------------------- #
# CSV
# --------------------------------------------------------------------- #
def _flat_fields(entry: dict) -> Iterable[tuple[str, Any]]:
    kind = entry["kind"]
    if kind == "counter":
        yield "value", entry["value"]
    elif kind == "gauge":
        for f in ("last", "min", "max", "sum", "samples"):
            yield f, entry[f]
    elif kind == "histogram":
        for f in ("sum", "count", "min", "max"):
            yield f, entry[f]
        for bound, n in zip(entry["bounds"] + [float("inf")],
                            entry["counts"]):
            yield f"bucket_le_{bound}", n


def write_csv(snapshot: dict, file: TextIO) -> int:
    """Flatten a snapshot to ``name,labels,kind,field,value`` rows."""
    writer = csv.writer(file)
    writer.writerow(["name", "labels", "kind", "field", "value"])
    rows = 0
    for key in sorted(snapshot["metrics"]):
        entry = snapshot["metrics"][key]
        labels = ",".join(f"{k}={v}"
                          for k, v in sorted(entry["labels"].items()))
        for field_name, value in _flat_fields(entry):
            writer.writerow([entry["name"], labels, entry["kind"],
                             field_name, value])
            rows += 1
    return rows


# --------------------------------------------------------------------- #
# Prometheus text exposition format
# --------------------------------------------------------------------- #
def _prom_labels(labels: dict[str, str], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_number(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    return repr(v) if isinstance(v, float) else str(v)


def to_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for key in sorted(snapshot["metrics"]):
        entry = snapshot["metrics"][key]
        name, kind = entry["name"], entry["kind"]
        if name not in seen_headers:
            seen_headers.add(name)
            if entry["help"]:
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {kind}")
        labels = entry["labels"]
        if kind == "counter":
            lines.append(f"{name}{_prom_labels(labels)} "
                         f"{_prom_number(entry['value'])}")
        elif kind == "gauge":
            lines.append(f"{name}{_prom_labels(labels)} "
                         f"{_prom_number(entry['last'])}")
        elif kind == "histogram":
            cumulative = 0
            for bound, n in zip(entry["bounds"] + [float("inf")],
                                entry["counts"]):
                cumulative += n
                le = _prom_labels(labels,
                                  f'le="{_prom_number(float(bound))}"')
                lines.append(f"{name}_bucket{le} {cumulative}")
            lines.append(f"{name}_sum{_prom_labels(labels)} "
                         f"{_prom_number(entry['sum'])}")
            lines.append(f"{name}_count{_prom_labels(labels)} "
                         f"{entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------- #
# Human summary (the `telemetry-summary` CLI)
# --------------------------------------------------------------------- #
def render_summary(records: list[dict]) -> str:
    """One compact block per JSONL record: headline counters + windows."""
    if not records:
        return "no telemetry records"
    out: list[str] = []
    for record in records:
        title = record.get("point", "snapshot")
        sweep = record.get("sweep")
        n_runs = record.get("n_runs")
        header = f"{sweep}/{title}" if sweep else str(title)
        if n_runs:
            header += f" ({n_runs} runs)"
        out.append(header)
        metrics = record["metrics"]

        def val(name: str, field: str = "value") -> Any:
            entry = metrics.get(name)
            return entry[field] if entry is not None else 0

        lost = val('repro_groups_lost_total')
        out.append(f"  disk failures {val('repro_disk_failures_total')}, "
                   f"rebuilds {val('repro_rebuilds_completed_total')}/"
                   f"{val('repro_rebuilds_started_total')} completed, "
                   f"groups lost {lost}")
        if n_runs and not lost:
            # Zero observed losses mostly measures budget, not safety:
            # surface the rule-of-three bound next to the zero.
            bound = min(1.0, 3.0 / n_runs)
            out.append(f"  zero-hit: no losses in {n_runs} runs; "
                       f"p_loss <= {bound:.3g} (rule of 3)")
        completed = val(
            "repro_window_of_vulnerability_seconds_spans_completed_total")
        span_sum = val("repro_window_of_vulnerability_seconds_sum_total")
        mean = span_sum / completed if completed else 0.0
        out.append(f"  windows: {completed} spans, mean {mean:,.1f} s")
        bw = metrics.get("repro_recovery_disk_bandwidth_bps")
        cap = metrics.get("repro_recovery_bandwidth_cap_bps")
        if bw is not None and bw["samples"]:
            cap_s = f" (cap {cap['last']:,.0f})" if cap is not None else ""
            out.append(f"  per-disk recovery bandwidth max "
                       f"{bw['max']:,.0f} B/s{cap_s}, "
                       f"{bw['samples']} probe samples")
    return "\n".join(out)
