#!/usr/bin/env python
"""Scenario: post-mortem of a double-failure incident.

At 02:00, disk 0 in a 40 TB pod dies.  Twelve minutes later — just after
FARM's parallel one-block rebuilds have finished, but while a traditional
spare would still be near the start of its multi-hour queue — three more
drives in the same shelf die, each sharing redundancy groups with the
first casualty.  Did we lose data?  This script replays the exact incident
under FARM and under the traditional scheme, prints the recovery
timelines, and finishes with a sensitivity ranking of which design knob
would have helped most.

Run:  python examples/incident_postmortem.py
"""

from repro import SystemConfig
from repro.reliability import Scenario, render_tornado, tornado
from repro.units import GB, HOUR, TB

INCIDENT_T0 = 2 * HOUR          # first failure
INCIDENT_T1 = 2 * HOUR + 700    # shelf failure, ~12 minutes later
SHELF_SIZE = 3

def replay(cfg: SystemConfig) -> None:
    out = (Scenario(cfg, seed=43)
           .fail(disk=0, at=INCIDENT_T0)
           .fail_partners_of(0, at=INCIDENT_T1, count=SHELF_SIZE)
           .run(horizon=24 * HOUR))
    print(out.summary())

    # Reconstruct the timeline from the event trace.
    detections = out.trace.counts()
    rebuild_events = out.trace.named("rebuild")
    if rebuild_events:
        first = min(r.time for r in rebuild_events)
        last = max(r.time for r in rebuild_events)
        print(f"  rebuild completions ran {first - INCIDENT_T0:,.0f}s to "
              f"{last - INCIDENT_T0:,.0f}s after the first failure "
              f"({len(rebuild_events)} blocks)")
    busiest = ", ".join(f"{k}={v}" for k, v in sorted(detections.items())
                        if v > 1)
    print(f"  trace: {sum(detections.values())} events ({busiest})")
    print()

def main() -> None:
    cfg = SystemConfig(total_user_bytes=40 * TB, group_user_bytes=10 * GB)
    print(f"incident replay on: {cfg.describe()}")
    print(f"  t=+0s      disk 0 fails ({cfg.blocks_per_disk:.0f} blocks)")
    print(f"  t=+700s    {SHELF_SIZE} partner disks fail (shared shelf)")
    print(f"  FARM window/block: "
          f"{cfg.detection_latency + cfg.rebuild_seconds_per_block:.0f}s; "
          f"traditional queue: up to {cfg.disk_rebuild_seconds:,.0f}s")
    print()

    print("--- with FARM " + "-" * 40)
    replay(cfg)
    print("--- traditional spare-disk recovery " + "-" * 18)
    replay(cfg.with_(use_farm=False))

    print("which knob would have helped most? (elasticity of the loss")
    print("rate; computed from the analytic window model at paper scale)")
    print(render_tornado(tornado(SystemConfig(use_farm=False))))

if __name__ == "__main__":
    main()
