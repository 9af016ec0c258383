"""Hierarchical failure domains: rack -> machine -> disk.

The paper evaluates recovery over a flat pool of disks, but real fleets
fail by shelf, machine, and rack (Rashmi et al., arXiv:1309.0186), and
that correlation is exactly what kills declustered redundancy.  This
module models the hierarchy as a :class:`Topology` — a stable mapping
from disk id to machine id (racks are contiguous runs of machines) —
shared by both recovery engines and by the domain fault injectors.

Design invariants:

* **Flat by default.**  ``Topology(1, 1, n)`` puts every disk in one
  machine in one rack, so the default :class:`~repro.config.SystemConfig`
  reproduces the paper's flat pool bit-for-bit.
* **Stable ids.**  Domain membership is keyed by disk id and never
  reassigned, so it survives ``compact_index()`` and migration (both
  leave disk ids untouched).
* **Slot inheritance.**  A replacement disk installed for a failed slot
  joins the slot's machine — a new drive goes into the old drive's bay.
  Disks added without a slot (capacity batches) tile round-robin, which
  keeps machine populations balanced within one disk.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..placement.base import PlacementAlgorithm, PlacementError


class Topology:
    """Rack/machine/disk tree with stable, append-only membership.

    Machines are numbered ``0 .. racks * machines_per_rack - 1``; rack
    ``r`` owns the contiguous machine range
    ``[r * machines_per_rack, (r + 1) * machines_per_rack)``.  Disks are
    assigned round-robin across machines at construction (balanced to
    within one disk) and appended via :meth:`add_disk`.
    """

    def __init__(self, racks: int, machines_per_rack: int,
                 n_disks: int = 0) -> None:
        if racks < 1 or machines_per_rack < 1:
            raise ValueError("topology needs >= 1 rack and >= 1 "
                             "machine per rack")
        if n_disks < 0:
            raise ValueError("n_disks cannot be negative")
        self.racks = racks
        self.machines_per_rack = machines_per_rack
        self.n_machines = racks * machines_per_rack
        self._machine_of: list[int] = [d % self.n_machines
                                       for d in range(n_disks)]

    # -- queries ---------------------------------------------------------- #
    @property
    def n_disks(self) -> int:
        return len(self._machine_of)

    @property
    def is_flat(self) -> bool:
        """True when the tree degenerates to the paper's flat pool."""
        return self.n_machines == 1

    def machine_of(self, disk_id: int) -> int:
        return self._machine_of[disk_id]

    def rack_of(self, disk_id: int) -> int:
        return self._machine_of[disk_id] // self.machines_per_rack

    def rack_of_machine(self, machine_id: int) -> int:
        return machine_id // self.machines_per_rack

    def machines_in_rack(self, rack_id: int) -> range:
        if not 0 <= rack_id < self.racks:
            raise ValueError(f"rack {rack_id} out of range")
        first = rack_id * self.machines_per_rack
        return range(first, first + self.machines_per_rack)

    def disks_in_machine(self, machine_id: int) -> list[int]:
        return [d for d, m in enumerate(self._machine_of)
                if m == machine_id]

    def disks_in_rack(self, rack_id: int) -> list[int]:
        machines = self.machines_in_rack(rack_id)
        return [d for d, m in enumerate(self._machine_of)
                if machines.start <= m < machines.stop]

    def domain_disks(self, level: str, domain_id: int) -> list[int]:
        """Disks in one domain, ``level`` being ``"rack"`` or ``"machine"``."""
        if level == "rack":
            return self.disks_in_rack(domain_id)
        if level == "machine":
            return self.disks_in_machine(domain_id)
        raise ValueError(f"unknown domain level {level!r}")

    def n_domains(self, level: str) -> int:
        if level == "rack":
            return self.racks
        if level == "machine":
            return self.n_machines
        raise ValueError(f"unknown domain level {level!r}")

    def rack_array(self) -> np.ndarray:
        """Rack id per disk id as an int64 array (vectorized callers)."""
        if not self._machine_of:
            return np.zeros(0, dtype=np.int64)
        return (np.asarray(self._machine_of, dtype=np.int64)
                // self.machines_per_rack)

    def rack_counts(self, disk_ids: Iterable[int]) -> dict[int, int]:
        """How many of ``disk_ids`` live in each rack."""
        counts: dict[int, int] = {}
        for d in disk_ids:
            r = self.rack_of(d)
            counts[r] = counts.get(r, 0) + 1
        return counts

    # -- growth ----------------------------------------------------------- #
    def add_disk(self, slot_of: int | None = None) -> int:
        """Register the next disk id; returns its machine id.

        ``slot_of`` names the disk whose physical slot the newcomer
        occupies (a replacement inherits that slot's machine); without a
        slot the disk tiles round-robin like the initial population.
        """
        if slot_of is not None:
            machine = self._machine_of[slot_of]
        else:
            machine = len(self._machine_of) % self.n_machines
        self._machine_of.append(machine)
        return machine


def enforce_domain_constraint(matrix: np.ndarray, topology: Topology,
                              limit: int | None,
                              placement: PlacementAlgorithm) -> np.ndarray:
    """Repair an initial placement matrix to honour the rack constraint.

    ``matrix`` is the (G, n) group->disks table the engines build from
    ``placement.place_many``.  Rows where some rack holds more than
    ``limit`` blocks are re-placed by walking the group's own candidate
    sequence (prefix-stable, no RNG consumed) and keeping the first n
    distinct disks that stay within the per-rack budget.  With
    ``limit is None`` the matrix is returned untouched, so flat configs
    and all golden pins are unaffected.
    """
    if limit is None or matrix.size == 0:
        return matrix
    n = matrix.shape[1]
    rack_arr = topology.rack_array()
    racks_mat = rack_arr[matrix]
    if limit >= n:
        return matrix
    # A rack exceeds the limit iff a sorted row has limit+1 equal
    # consecutive entries.
    srt = np.sort(racks_mat, axis=1)
    bad = (srt[:, limit:] == srt[:, :-limit]).any(axis=1)
    for g in np.flatnonzero(bad):
        matrix[g] = _constrained_row(int(g), n, topology, limit, placement)
    return matrix


def _constrained_row(grp_id: int, n: int, topology: Topology, limit: int,
                     placement: PlacementAlgorithm) -> list[int]:
    """First n distinct disks of the group's candidate walk within budget."""
    chosen: list[int] = []
    counts: dict[int, int] = {}

    def admit(d: int) -> bool:
        if d in chosen:
            return False
        r = topology.rack_of(d)
        if counts.get(r, 0) >= limit:
            return False
        chosen.append(d)
        counts[r] = counts.get(r, 0) + 1
        return True

    want = n
    while len(chosen) < n and want <= placement.n_disks:
        try:
            cands = placement.candidates(grp_id, want)
        except PlacementError:
            break
        for d in cands:
            if admit(d) and len(chosen) == n:
                return chosen
        if want == placement.n_disks:
            break
        want = min(want * 2, placement.n_disks)
    # Deterministic fallback: linear scan (feasibility is validated by
    # SystemConfig.__post_init__, so this always completes the row).
    for d in range(placement.n_disks):
        if admit(d) and len(chosen) == n:
            return chosen
    raise PlacementError(
        f"group {grp_id}: cannot satisfy max {limit} blocks/rack with "
        f"{placement.n_disks} disks in {topology.racks} racks")
