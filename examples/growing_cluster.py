#!/usr/bin/env python
"""Scenario: growing a declustered system batch by batch.

Large systems are dynamic (paper §3.6): drives are added in batches to
replace failures and add capacity.  A good placement makes growth cheap —
only the new batch's fair share of data moves, and it moves *onto* the new
drives.  This example grows a RUSH-placed cluster through three batches
and measures, at each step:

* the fraction of blocks that migrated (should equal the batch's share);
* where the moved blocks landed (should be ~100% on the new batch);
* the balance of the resulting load (coefficient of variation).

It then runs the DES engine with batch replacement enabled to show the
cohort effect bookkeeping end to end.

Run:  python examples/growing_cluster.py
"""

import numpy as np

from repro import ReliabilitySimulation, RushPlacement, SystemConfig
from repro.units import GB, TB

def main() -> None:
    n_groups = 100_000
    grp_ids = np.arange(n_groups)
    placement = RushPlacement(initial_disks=1000, seed=11)

    print("growing a 1000-disk RUSH cluster:")
    before = placement.place_many(grp_ids, 2)
    for batch in (100, 250, 500):
        placement.add_cluster(batch)
        after = placement.place_many(grp_ids, 2)
        moved = before != after
        landed_new = after[moved] >= (placement.n_disks - batch)
        share = batch * 1.0 / placement.n_disks
        loads = np.bincount(after.ravel(), minlength=placement.n_disks)
        print(f"  +{batch:4d} disks: {moved.mean():6.2%} of blocks moved "
              f"(fair share {share:6.2%}); "
              f"{landed_new.mean():6.1%} landed on the new batch; "
              f"load CV {loads.std() / loads.mean():.3f}")
        before = after

    print("\nsix-year lifetime with batch replacement at 4% lost:")
    cfg = SystemConfig(total_user_bytes=100 * TB, group_user_bytes=10 * GB,
                       placement="rush", replacement_threshold=0.04)
    engine = ReliabilitySimulation(cfg, seed=5)
    s = engine.run()
    print(f"  disks: {cfg.n_disks} initial, "
          f"{engine.total_disks - cfg.n_disks} added in "
          f"{s.replacement_batches} batches")
    print(f"  {s.disk_failures} failures, {s.rebuilds_completed} blocks "
          f"rebuilt, {s.blocks_migrated} blocks migrated, "
          f"{s.groups_lost} groups lost")

if __name__ == "__main__":
    main()
