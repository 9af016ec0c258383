"""System configuration: Table 2 of the paper, as a frozen dataclass.

Every experiment is a :class:`SystemConfig` plus a seed.  Defaults are the
paper's base values; the ``Examined Value`` column of Table 2 is produced by
``dataclasses.replace`` sweeps in :mod:`repro.experiments`.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import astuple, dataclass, fields, replace
from functools import lru_cache
from typing import Any, Callable, Literal, Mapping

from .disks.failure import ELERATH_TABLE1, BathtubFailureModel, RatePeriod
from .disks.vintage import PAPER_VINTAGE, DiskVintage
from .redundancy.schemes import MIRROR_2, RedundancyScheme
from .units import DAY, GB, PB, YEAR


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one simulated storage system.

    Parameters mirror Table 2 (base values as defaults):

    * ``total_user_bytes`` — total data in the system (2 PB).
    * ``group_user_bytes`` — size of a redundancy group, user data only
      (10 GB; the paper also uses 50 GB and examines 1–100 GB).
    * ``scheme`` — group configuration (two-way mirroring).
    * ``detection_latency`` — latency to failure detection (30 s).
    * ``recovery_bandwidth_bps`` — disk bandwidth for recovery (16 MB/s,
      examined 8–40 MB/s); ``None`` uses the vintage's 20% cap.
    * ``use_farm`` — FARM distributed recovery vs. traditional spare-disk
      rebuild.
    * ``replacement_threshold`` — fraction of disks lost that triggers a
      replacement batch (Figure 7); ``None`` disables replacement.
    """

    total_user_bytes: float = 2 * PB
    group_user_bytes: float = 10 * GB
    scheme: RedundancyScheme = MIRROR_2
    vintage: DiskVintage = PAPER_VINTAGE
    detection_latency: float = 30.0
    recovery_bandwidth_bps: float | None = None
    target_utilization: float = 0.40
    spare_reserve_fraction: float = 0.04
    use_farm: bool = True
    use_smart: bool = False
    #: SMART monitor model (paper §2.3), consumed by *both* engines when
    #: ``use_smart`` is on: chance a failing drive is flagged inside the
    #: warning horizon, the horizon itself, and the spurious-flag rate.
    smart_detection_probability: float = 0.4
    smart_warning_horizon: float = 7 * DAY
    smart_false_positive_rate: float = 0.01
    replacement_threshold: float | None = None
    duration: float = 6 * YEAR
    placement: Literal["random", "rush", "copyset"] = "random"
    workload_peak_load: float = 0.0   # 0 disables the diurnal workload model
    #: Failure-domain topology (rack -> machine -> disk).  The default
    #: 1 x 1 degenerates to the paper's flat pool: one rack holding one
    #: machine holding every disk, so no behaviour changes.
    racks: int = 1
    machines_per_rack: int = 1
    #: Cap on how many blocks of one group may share a *rack*; ``None``
    #: (the default) disables the constraint entirely.  The machine-level
    #: bound follows a fortiori since machines nest inside racks.
    max_chunks_per_domain: int | None = None
    #: Lazy-recovery trigger (:mod:`repro.availability`): a group only
    #: enqueues rebuilds once >= this many of its blocks are lost or
    #: unavailable (transient outages count toward the trigger).  The
    #: default 1 is eager recovery — bit-identical to the pre-policy
    #: engines; values > 1 require a scheme that tolerates that many
    #: simultaneous losses.
    recovery_threshold: int = 1
    #: Rate-limited repair lane: cap the per-disk recovery bandwidth at
    #: this fraction of the vintage's *full* disk bandwidth, modelling
    #: foreground traffic claiming the rest.  ``None`` (the default)
    #: leaves ``recovery_bandwidth`` untouched; setting it is mutually
    #: exclusive with ``recovery_bandwidth_bps``.  Both engines reject
    #: a rate-limited config whose steady-state repair demand exceeds
    #: the lane (Luby bound; see :mod:`repro.availability.luby`).
    repair_bandwidth_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.total_user_bytes <= 0:
            raise ValueError("total_user_bytes must be positive")
        if not 0 < self.group_user_bytes <= self.total_user_bytes:
            raise ValueError("group size must be in (0, total data]")
        if self.detection_latency < 0:
            raise ValueError("detection latency cannot be negative")
        if not 0 < self.target_utilization < 1:
            raise ValueError("target utilization must be in (0, 1)")
        if not 0 <= self.spare_reserve_fraction < 1:
            raise ValueError("spare reserve must be in [0, 1)")
        if self.replacement_threshold is not None and not (
                0 < self.replacement_threshold < 1):
            raise ValueError("replacement threshold must be in (0, 1)")
        if not 0 <= self.smart_detection_probability <= 1:
            raise ValueError("smart detection probability must be in [0, 1]")
        if not 0 <= self.smart_false_positive_rate <= 1:
            raise ValueError("smart false positive rate must be in [0, 1]")
        if self.smart_warning_horizon < 0:
            raise ValueError("smart warning horizon cannot be negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.workload_peak_load < 1:
            raise ValueError("workload peak load must be in [0, 1)")
        if self.racks < 1 or self.machines_per_rack < 1:
            raise ValueError("topology needs at least 1 rack and 1 "
                             "machine per rack")
        if self.max_chunks_per_domain is not None:
            if self.max_chunks_per_domain < 1:
                raise ValueError("max_chunks_per_domain must be >= 1")
            if self.racks * self.max_chunks_per_domain < self.scheme.n:
                raise ValueError(
                    f"infeasible domain constraint: {self.racks} racks x "
                    f"{self.max_chunks_per_domain} chunks/rack cannot hold "
                    f"a group of {self.scheme.n} blocks")
            if self.n_disks < self.racks * self.machines_per_rack:
                raise ValueError(
                    "domain constraint needs every machine populated: "
                    f"{self.n_disks} disks < {self.racks} racks x "
                    f"{self.machines_per_rack} machines")
        if self.recovery_threshold < 1:
            raise ValueError("recovery_threshold must be >= 1")
        if self.recovery_threshold > max(1, self.scheme.tolerance):
            raise ValueError(
                f"recovery_threshold {self.recovery_threshold} exceeds the "
                f"scheme's fault tolerance ({self.scheme.tolerance}): the "
                f"group would be lost before recovery ever triggered")
        if self.repair_bandwidth_fraction is not None:
            if not 0 < self.repair_bandwidth_fraction <= 1:
                raise ValueError(
                    "repair_bandwidth_fraction must be in (0, 1]")
            if self.recovery_bandwidth_bps is not None:
                raise ValueError(
                    "recovery_bandwidth_bps and repair_bandwidth_fraction "
                    "are mutually exclusive ways to set the repair rate")
        block = self.scheme.block_bytes(self.group_user_bytes)
        usable = self.vintage.capacity_bytes * (
            1.0 - self.spare_reserve_fraction)
        if block > usable:
            raise ValueError(
                f"a single block ({block:.3g} B) does not fit on one disk "
                f"({usable:.3g} B usable); shrink the group or raise m")

    # -- derived geometry -------------------------------------------------- #
    @property
    def recovery_bandwidth(self) -> float:
        """Effective per-disk recovery bandwidth (bytes/s).

        The rate-limited repair lane (``repair_bandwidth_fraction``)
        takes precedence: it carves the lane out of the vintage's *full*
        disk bandwidth, so every consumer — the engines' transfer
        times, ``disk_rebuild_seconds``, and the Luby feasibility rail —
        sees the cap through this single property.
        """
        if self.repair_bandwidth_fraction is not None:
            return self.repair_bandwidth_fraction \
                * self.vintage.bandwidth_bps
        if self.recovery_bandwidth_bps is not None:
            return self.recovery_bandwidth_bps
        return self.vintage.recovery_bandwidth_bps

    @property
    def n_groups(self) -> int:
        """Number of redundancy groups in the system."""
        return max(1, round(self.total_user_bytes / self.group_user_bytes))

    @property
    def raw_bytes(self) -> float:
        """Raw storage consumed (user data times the scheme's stretch)."""
        return self.total_user_bytes * self.scheme.stretch

    @property
    def n_disks(self) -> int:
        """Disks needed to hold the raw data at the target utilization.

        2 PB under two-way mirroring on 1 TB disks at 40% => 10,000 disks;
        three-way mirroring => 15,000 (the paper's "up to 15,000 drives").
        """
        per_disk = self.vintage.capacity_bytes * self.target_utilization
        return max(self.scheme.n, math.ceil(self.raw_bytes / per_disk))

    @property
    def block_bytes(self) -> float:
        """Bytes of each stored block (user data / m)."""
        return self.scheme.block_bytes(self.group_user_bytes)

    @property
    def blocks_per_disk(self) -> float:
        """Mean number of group blocks per disk."""
        return self.n_groups * self.scheme.n / self.n_disks

    @property
    def rebuild_seconds_per_block(self) -> float:
        """Time to reconstruct one block at the recovery bandwidth.

        Paper §3.3: 64 s for 1 GB (mirroring) at 16 MB/s.
        """
        return self.block_bytes / self.recovery_bandwidth

    @property
    def disk_rebuild_seconds(self) -> float:
        """Time to rebuild a whole disk's data serially (traditional RAID)."""
        used = self.vintage.capacity_bytes * self.target_utilization
        return used / self.recovery_bandwidth

    # -- sweeps ------------------------------------------------------------- #
    def with_(self, **kwargs: Any) -> "SystemConfig":
        """``dataclasses.replace`` with a shorter name for sweep code."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """One-line human-readable summary."""
        from .units import fmt_bytes
        mode = "FARM" if self.use_farm else "traditional"
        return (f"{fmt_bytes(self.total_user_bytes)} user data, "
                f"scheme {self.scheme.name}, groups of "
                f"{fmt_bytes(self.group_user_bytes)}, {self.n_disks} disks, "
                f"{mode} recovery")


#: The paper's base configuration (Table 2).
PAPER_BASE = SystemConfig()


# --------------------------------------------------------------------- #
# Canonical serialization and content addressing
# --------------------------------------------------------------------- #
#: Schema tag stamped on every canonical config dict.
CONFIG_SCHEMA = "repro.config.v1"


def _failure_model_to_dict(fm: BathtubFailureModel) -> dict[str, Any]:
    return {
        "rate_multiplier": fm.rate_multiplier,
        # JSON has no Infinity under allow_nan=False; the unbounded final
        # period is encoded as null and restored on parse.
        "periods": [
            {"start_months": p.start_months,
             "end_months": (None if math.isinf(p.end_months)
                            else p.end_months),
             "pct_per_1000h": p.pct_per_1000h}
            for p in fm.periods],
    }


#: Table 1 as the flat ``(start, end, pct, ...)`` rows of a schedule.
_ELERATH_ROWS = tuple(x for p in ELERATH_TABLE1 for x in astuple(p))


def _failure_model_from_dict(data: Mapping[str, Any]) -> BathtubFailureModel:
    periods = data.get("periods")
    rows = _ELERATH_ROWS if periods is None else [
        x for p in periods for x in (
            float(p["start_months"]),
            (float("inf") if p.get("end_months") is None
             else float(p["end_months"])),
            float(p["pct_per_1000h"]))]
    multiplier = float(data.get("rate_multiplier", 1.0))
    # Keyed by the floats' bytes, not their values: 0.0 == -0.0, but a
    # config must serialize (and so hash) as it was posted.
    return _shared_failure_model(
        struct.pack(f"{len(rows) + 1}d", multiplier, *rows))


@lru_cache(maxsize=128)
def _shared_failure_model(schedule: bytes) -> BathtubFailureModel:
    """The one model of a packed ``(multiplier, start, end, pct, ...)``
    schedule: configs parsed with the same rates share it, and with it
    the hazards it has already evaluated."""
    multiplier, *rows = struct.unpack(f"{len(schedule) // 8}d", schedule)
    return BathtubFailureModel(
        periods=tuple(RatePeriod(*rows[i:i + 3])
                      for i in range(0, len(rows), 3)),
        rate_multiplier=multiplier)


def _vintage_to_dict(v: DiskVintage) -> dict[str, Any]:
    return {
        "name": v.name,
        "capacity_bytes": v.capacity_bytes,
        "bandwidth_bps": v.bandwidth_bps,
        "recovery_bandwidth_fraction": v.recovery_bandwidth_fraction,
        "eodl_seconds": v.eodl_seconds,
        "weight": v.weight,
        "failure_model": _failure_model_to_dict(v.failure_model),
    }


def _vintage_from_dict(data: Mapping[str, Any]) -> DiskVintage:
    defaults = PAPER_VINTAGE
    fm = data.get("failure_model")
    return DiskVintage(
        name=str(data.get("name", defaults.name)),
        capacity_bytes=float(data.get("capacity_bytes",
                                      defaults.capacity_bytes)),
        bandwidth_bps=float(data.get("bandwidth_bps",
                                     defaults.bandwidth_bps)),
        recovery_bandwidth_fraction=float(
            data.get("recovery_bandwidth_fraction",
                     defaults.recovery_bandwidth_fraction)),
        eodl_seconds=float(data.get("eodl_seconds", defaults.eodl_seconds)),
        weight=float(data.get("weight", defaults.weight)),
        failure_model=(_failure_model_from_dict(fm) if fm is not None
                       else defaults.failure_model),
    )


#: Encoders of the fields that are not JSON values themselves.
_ENCODERS: dict[str, Callable[[Any], Any]] = {
    "scheme": lambda scheme: {"m": scheme.m, "n": scheme.n},
    "vintage": _vintage_to_dict,
}

_FIELD_NAMES = tuple(f.name for f in fields(SystemConfig))


def config_to_dict(cfg: SystemConfig) -> dict[str, Any]:
    """Canonical JSON-safe dict of a config — *every* field, always.

    Emitting every field (never eliding defaults) is what makes the
    digest stable under default-equality: a config constructed with a
    field explicitly set to its default value serializes — and therefore
    hashes — identically to one that never mentioned the field.  Keys
    follow the schema tag in field order.
    """
    d: dict[str, Any] = {"schema": CONFIG_SCHEMA}
    for name in _FIELD_NAMES:
        value = getattr(cfg, name)
        encode = _ENCODERS.get(name)
        d[name] = value if encode is None else encode(value)
    return d


def _parse_scheme(value: Any) -> RedundancyScheme:
    if isinstance(value, RedundancyScheme):
        return value
    if isinstance(value, str):
        return RedundancyScheme.parse(value)
    if isinstance(value, Mapping):
        return RedundancyScheme(m=int(value["m"]), n=int(value["n"]))
    raise ValueError(f"cannot parse scheme from {value!r}; expected "
                     f"'m/n', {{'m': ..., 'n': ...}}, or a "
                     f"RedundancyScheme")


#: Keys :func:`config_from_dict` accepts beyond the config fields.
_EXTRA_DICT_KEYS = frozenset({"schema"})


def config_from_dict(data: Mapping[str, Any]) -> SystemConfig:
    """Build a config from a (possibly partial) canonical dict.

    The inverse of :func:`config_to_dict`: missing keys take the
    :class:`SystemConfig` defaults, unknown keys are an error (a typo'd
    field name silently falling back to a default would corrupt cache
    keys), and nested ``scheme``/``vintage`` dicts are reconstructed into
    their value objects.  Validation runs through ``__post_init__`` as
    for any other construction.
    """
    unknown = set(data) - set(_FIELD_NAMES) - _EXTRA_DICT_KEYS
    if unknown:
        raise ValueError(
            f"unknown config field(s) {sorted(unknown)}; expected a "
            f"subset of {sorted(_FIELD_NAMES)}")
    schema = data.get("schema")
    if schema is not None and schema != CONFIG_SCHEMA:
        raise ValueError(f"config schema {schema!r} is not "
                         f"{CONFIG_SCHEMA!r}")
    kwargs: dict[str, Any] = {}
    for name in _FIELD_NAMES:
        if name not in data:
            continue
        value = data[name]
        if name == "scheme":
            kwargs[name] = _parse_scheme(value)
        elif name == "vintage":
            kwargs[name] = (value if isinstance(value, DiskVintage)
                            else _vintage_from_dict(value))
        else:
            kwargs[name] = value
    return SystemConfig(**kwargs)


def canonical_config_json(cfg: SystemConfig) -> str:
    """Deterministic JSON form: sorted keys, compact, no NaN/Infinity."""
    return json.dumps(config_to_dict(cfg), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def config_digest(cfg: SystemConfig) -> str:
    """Content address of a config: blake2b over the canonical JSON.

    The key of the forecast service's result cache
    (:mod:`repro.service.cache`).  Stable across processes, field order,
    and default-vs-explicit construction; any semantic change to the
    config changes the digest.
    """
    h = hashlib.blake2b(canonical_config_json(cfg).encode("utf-8"),
                        digest_size=16)
    return h.hexdigest()
