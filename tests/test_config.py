"""Tests for SystemConfig (repro.config) — Table 2 geometry."""

import json
from dataclasses import fields, replace

import pytest

from repro.config import (CONFIG_SCHEMA, PAPER_BASE, SystemConfig,
                          canonical_config_json, config_digest,
                          config_from_dict, config_to_dict)
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.redundancy import ECC_8_10, MIRROR_2, MIRROR_3, RAID5_4_5
from repro.units import GB, MB, PB, TB, YEAR


class TestPaperGeometry:
    def test_base_values_match_table2(self):
        cfg = PAPER_BASE
        assert cfg.total_user_bytes == 2 * PB
        assert cfg.group_user_bytes == 10 * GB
        assert cfg.scheme == MIRROR_2
        assert cfg.detection_latency == 30.0
        assert cfg.recovery_bandwidth == pytest.approx(16 * MB)
        assert cfg.duration == 6 * YEAR

    def test_two_way_mirroring_needs_10000_disks(self):
        """2 PB * 2 / (1 TB * 40%) = 10,000."""
        assert PAPER_BASE.n_disks == 10_000

    def test_three_way_mirroring_needs_15000_disks(self):
        """The paper's 'up to 15,000 disk drives'."""
        assert PAPER_BASE.with_(scheme=MIRROR_3).n_disks == 15_000

    def test_group_count(self):
        assert PAPER_BASE.n_groups == 200_000
        assert PAPER_BASE.with_(group_user_bytes=50 * GB).n_groups == 40_000

    def test_rebuild_time_matches_paper_section_3_3(self):
        """'64 seconds to reconstruct a 1 GB group ... at 16 MB/sec' and
        '6400 seconds for a 100 GB group' (62.5 s and 6250 s exactly)."""
        one_gb = PAPER_BASE.with_(group_user_bytes=1 * GB)
        hundred = PAPER_BASE.with_(group_user_bytes=100 * GB)
        assert one_gb.rebuild_seconds_per_block == pytest.approx(62.5)
        assert hundred.rebuild_seconds_per_block == pytest.approx(6250.0)

    def test_detection_ratio_example(self):
        """Paper: 10 min detection = 90.4% of the window for 1 GB groups,
        8.6% for 100 GB groups."""
        for gb, expected in ((1, 0.9056), (100, 0.0876)):
            cfg = PAPER_BASE.with_(group_user_bytes=gb * GB,
                                   detection_latency=600.0)
            ratio = 600.0 / (600.0 + cfg.rebuild_seconds_per_block)
            assert ratio == pytest.approx(expected, abs=0.01)

    def test_blocks_per_disk(self):
        """400 GB per disk / 10 GB blocks = 40 for two-way mirroring."""
        assert PAPER_BASE.blocks_per_disk == pytest.approx(40.0)

    def test_disk_rebuild_seconds(self):
        """400 GB at 16 MB/s = 25,000 s (~7 h): why RAID can't keep up."""
        assert PAPER_BASE.disk_rebuild_seconds == pytest.approx(25_000.0)

    def test_ecc_block_bytes(self):
        cfg = PAPER_BASE.with_(scheme=ECC_8_10)
        assert cfg.block_bytes == pytest.approx(1.25 * GB)
        assert cfg.raw_bytes == pytest.approx(2.5 * PB)


class TestOverrides:
    def test_recovery_bandwidth_override(self):
        cfg = PAPER_BASE.with_(recovery_bandwidth_bps=40 * MB)
        assert cfg.recovery_bandwidth == 40 * MB

    def test_with_returns_new_frozen_config(self):
        cfg = PAPER_BASE.with_(detection_latency=0.0)
        assert cfg is not PAPER_BASE
        assert PAPER_BASE.detection_latency == 30.0
        with pytest.raises(Exception):
            cfg.detection_latency = 1.0   # type: ignore[misc]

    def test_n_disks_at_least_scheme_n(self):
        tiny = SystemConfig(total_user_bytes=10 * GB,
                            group_user_bytes=10 * GB, scheme=ECC_8_10)
        assert tiny.n_disks >= 10

    def test_describe_mentions_mode(self):
        assert "FARM" in PAPER_BASE.describe()
        assert "traditional" in PAPER_BASE.with_(use_farm=False).describe()


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"total_user_bytes": 0},
        {"group_user_bytes": 0},
        {"group_user_bytes": 3 * PB},
        {"detection_latency": -1.0},
        {"target_utilization": 0.0},
        {"target_utilization": 1.0},
        {"spare_reserve_fraction": 1.0},
        {"replacement_threshold": 0.0},
        {"replacement_threshold": 1.5},
        {"duration": 0.0},
        {"workload_peak_load": 1.0},
        # a 2 TB mirror block cannot fit on a 1 TB disk
        {"group_user_bytes": 2 * TB},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SystemConfig(**kw)

    def test_large_group_ok_when_split_by_m(self):
        """A 2 TB group is fine under 8/10: blocks are 250 GB."""
        from repro.redundancy import ECC_8_10
        cfg = SystemConfig(group_user_bytes=2 * TB, scheme=ECC_8_10)
        assert cfg.block_bytes == pytest.approx(0.25 * TB)


class TestCanonicalSerialization:
    """config_to_dict / config_from_dict / config_digest stability."""

    def test_round_trip_identity(self):
        cfg = PAPER_BASE.with_(scheme=ECC_8_10, racks=4,
                               machines_per_rack=10,
                               replacement_threshold=0.5)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_digest_ignores_default_equality(self):
        """Explicitly passing a default value hashes like omitting it."""
        implicit = SystemConfig()
        explicit = SystemConfig(detection_latency=30.0, use_farm=True,
                                placement="random")
        assert config_digest(implicit) == config_digest(explicit)

    def test_digest_ignores_dict_field_order(self):
        d = config_to_dict(PAPER_BASE)
        shuffled = dict(reversed(list(d.items())))
        assert config_from_dict(shuffled) == PAPER_BASE
        assert config_digest(config_from_dict(shuffled)) == \
            config_digest(PAPER_BASE)

    def test_digest_sensitive_to_every_changed_field(self):
        base = config_digest(PAPER_BASE)
        for cfg in (PAPER_BASE.with_(detection_latency=31.0),
                    PAPER_BASE.with_(scheme=MIRROR_3),
                    PAPER_BASE.with_(racks=2),
                    PAPER_BASE.with_(
                        vintage=PAPER_BASE.vintage.with_rate_multiplier(2.0))):
            assert config_digest(cfg) != base

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_config_json(PAPER_BASE)
        data = json.loads(text)
        assert data["schema"] == CONFIG_SCHEMA
        assert ": " not in text and ", " not in text
        assert list(data) == sorted(data)

    def test_partial_dict_fills_defaults(self):
        cfg = config_from_dict({"detection_latency": 600.0})
        assert cfg == SystemConfig(detection_latency=600.0)

    @pytest.mark.parametrize("failure_model, expected", [
        ({"rate_multiplier": 2.0}, BathtubFailureModel(rate_multiplier=2.0)),
        ({"periods": [{"start_months": 0.0, "end_months": None,
                       "pct_per_1000h": 0.5}]},
         BathtubFailureModel((RatePeriod(0.0, float("inf"), 0.5),))),
    ], ids=["rate_multiplier", "periods"])
    def test_partial_failure_model_fills_defaults(self, failure_model,
                                                  expected):
        """A failure model given in part takes Table 1's periods and a
        multiplier of 1 for what it leaves out."""
        cfg = config_from_dict({"vintage": {"failure_model": failure_model}})
        assert cfg.vintage.failure_model == expected

    def test_repeated_rate_schedule_shares_one_model(self):
        """Configs parsed with the same rates share one failure model
        (and the hazards it has evaluated); other rates do not."""
        flat = {"periods": [{"start_months": 0, "end_months": None,
                             "pct_per_1000h": 0.3}]}

        def model(failure_model):
            vintage = {"failure_model": failure_model}
            return config_from_dict({"vintage": vintage}).vintage \
                .failure_model

        assert model(flat) is model(json.loads(json.dumps(flat)))
        assert model({}) is model({"rate_multiplier": 1})
        assert model({}) == PAPER_BASE.vintage.failure_model
        assert model({"rate_multiplier": 2.0}) is not model({})
        assert model(flat) is not model({**flat, "rate_multiplier": 2.0})

    def test_shared_model_keeps_a_signed_zero(self):
        """0.0 == -0.0, but each config serializes as it was posted."""
        def cfg(start):
            periods = [{"start_months": start, "end_months": None,
                        "pct_per_1000h": 0.3}]
            return config_from_dict(
                {"vintage": {"failure_model": {"periods": periods}}})

        plus, minus = cfg(0.0), cfg(-0.0)
        assert plus == minus
        assert config_digest(plus) != config_digest(minus)
        assert repr(config_to_dict(minus)["vintage"]["failure_model"][
            "periods"][0]["start_months"]) == "-0.0"

    def test_scheme_string_accepted(self):
        cfg = config_from_dict({"scheme": "8/10"})
        assert cfg.scheme == ECC_8_10

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            config_from_dict({"detection_latencyy": 1.0})

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            config_from_dict({"schema": "repro.config.v999"})

    def test_infinite_period_round_trips(self):
        """The unbounded bathtub period survives JSON (no Infinity)."""
        d = json.loads(canonical_config_json(PAPER_BASE))
        assert d["vintage"]["failure_model"]["periods"][-1]["end_months"] \
            is None
        assert config_from_dict(d).vintage == PAPER_BASE.vintage

    def test_digests_of_earlier_versions_hold(self):
        """Digests written by earlier versions (cache journal keys) stay
        valid: keys, values and key order of the canonical dict."""
        racked = SystemConfig(
            total_user_bytes=10 * TB, group_user_bytes=50 * GB,
            scheme=RAID5_4_5, use_farm=False, detection_latency=77.7,
            racks=5, machines_per_rack=2, max_chunks_per_domain=1,
            replacement_threshold=0.05, placement="rush")
        lazy_smart = PAPER_BASE.with_(
            scheme=MIRROR_3, duration=2 * YEAR, recovery_threshold=2,
            repair_bandwidth_fraction=0.05, use_smart=True,
            smart_warning_horizon=3600.0, workload_peak_load=0.25,
            vintage=replace(PAPER_BASE.vintage,
                            failure_model=BathtubFailureModel(
                                (RatePeriod(0.0, float("inf"), 0.5),),
                                rate_multiplier=2.0)))
        assert config_digest(PAPER_BASE) == \
            "09b1420d2fc83d7f62b4c56c213268a0"
        assert config_digest(racked) == "f8a563b35e3b91e5a3a0ce34fad83d0a"
        assert config_digest(lazy_smart) == \
            "8761764467e0a44d7e4e66cb9667b9f2"
        assert list(config_to_dict(racked)) == \
            ["schema"] + [f.name for f in fields(SystemConfig)]
