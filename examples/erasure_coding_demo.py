#!/usr/bin/env python
"""Byte-level tour of a redundancy group (the paper's Figure 1).

Takes a real "file", splits it into blocks, builds a 4/6 Reed–Solomon
redundancy group, places the six blocks on distinct disks with RUSH,
kills two disks, and reconstructs the lost blocks exactly the way FARM
does — reading m surviving buddies and writing the rebuilt block to a
new disk from the candidate list.

Run:  python examples/erasure_coding_demo.py
"""

import numpy as np

from repro import ReedSolomon, RedundancyScheme, RushPlacement

def main() -> None:
    rng = np.random.default_rng(2004)
    scheme = RedundancyScheme(4, 6)          # 4 data + 2 parity, m-available
    codec = scheme.make_codec()
    assert isinstance(codec, ReedSolomon)

    # --- a "file" broken into m user blocks (Figure 1) -------------------
    file_bytes = rng.integers(0, 256, 4 * 1024, dtype=np.uint8)
    data_blocks = file_bytes.reshape(scheme.m, -1)
    stored = codec.encode(data_blocks)       # n blocks: data verbatim + parity
    print(f"scheme {scheme}: {scheme.m} data + {scheme.tolerance} parity "
          f"blocks, storage efficiency {scheme.storage_efficiency:.0%}")

    # --- place the group's blocks on distinct disks with RUSH ------------
    placement = RushPlacement(initial_disks=64, seed=7)
    grp_id = 42
    disks = placement.place_group(grp_id, scheme.n)
    print(f"blocks <{grp_id}, 0..{scheme.n - 1}> placed on disks {disks}")

    # --- two disks fail ----------------------------------------------------
    dead = disks[1], disks[4]
    failed = {rep for rep, d in enumerate(disks) if d in dead}
    print(f"disks {dead} fail -> {scheme.n - len(failed)}/{scheme.n} "
          f"blocks survive")
    assert len(failed) <= scheme.tolerance, "4/6 tolerates two erasures"

    # --- FARM-style reconstruction ----------------------------------------
    survivors = {rep: stored[rep] for rep in range(scheme.n)
                 if rep not in failed}
    candidates = placement.candidates(grp_id, scheme.n + 8)
    for rep in sorted(failed):
        rebuilt = codec.reconstruct_shard(survivors, rep)
        assert np.array_equal(rebuilt, stored[rep]), "bit-exact rebuild"
        # constraints of paper §2.3: (a) alive, (b) no buddy on the disk
        target = next(d for d in candidates
                      if d not in dead and d not in disks)
        disks[rep] = target
        failed.discard(rep)
        survivors[rep] = rebuilt
        print(f"  block <{grp_id}, {rep}> rebuilt bit-exactly onto "
              f"disk {target}")

    # --- and the file itself is still intact -------------------------------
    recovered = codec.decode({r: survivors[r] for r in range(scheme.m)})
    assert np.array_equal(recovered.ravel(), file_bytes)
    print("file content verified intact after recovery — "
          f"{scheme.n - len(failed)}/{scheme.n} blocks healthy")

if __name__ == "__main__":
    main()
