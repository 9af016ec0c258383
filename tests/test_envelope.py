"""The envelope table (repro.reliability.envelope) and the routing it
drives in the forecast service's cascade."""

from dataclasses import fields

import numpy as np
import pytest

from repro.config import PAPER_BASE, SystemConfig, config_to_dict
from repro.redundancy import MIRROR_3
from repro.redundancy.composite import MirroredParity
from repro.redundancy.schemes import PAPER_SCHEMES
from repro.reliability.envelope import (ESTIMATORS, FIELDS, MARKOV, Pin,
                                        refusals)
from repro.service import ForecastCascade, GridStore
from repro.service.surrogate import Axis, SurrogateGrid
from repro.units import DAY, GB, TB, YEAR
from tests.test_flat_engine_pins import flat_vintage


def hundred_tb(scheme, use_farm: bool) -> SystemConfig:
    """100 TB, 10 GB groups, a flat 0.5 %/1000 h hazard."""
    return SystemConfig(total_user_bytes=100 * TB, group_user_bytes=10 * GB,
                        scheme=scheme, use_farm=use_farm,
                        vintage=flat_vintage(0.5))


class TestTable:
    def test_every_config_field_is_classified(self):
        """A new SystemConfig field is admitted by no estimator until it
        is listed here: free (None) or pinned to one value."""
        names = [f.name for f in fields(SystemConfig)]
        assert sorted(FIELDS) == sorted(names)
        for pin in FIELDS.values():
            assert pin is None or (isinstance(pin, Pin) and pin.estimators
                                   and set(pin.estimators) <= set(ESTIMATORS))

    def test_two_topology_fields_give_one_reason(self):
        refused = refusals(PAPER_BASE.with_(racks=4, machines_per_rack=10))
        assert len(refused["analytic"]) == 1
        assert refused["bulk"] == ()


# --------------------------------------------------------------------- #
# Routing: each config's tier, as the per-estimator predicates this table
# replaced routed it, except flat-hazard traditional configs, which the
# chain no longer answers.
# --------------------------------------------------------------------- #
_FLAT = PAPER_BASE.with_(vintage=flat_vintage(0.20))
_GOLD = SystemConfig(total_user_bytes=20 * TB, group_user_bytes=10 * GB,
                     detection_latency=2 * DAY)
_LAZY = SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB,
                     scheme=MIRROR_3, vintage=flat_vintage(2.0),
                     duration=2 * YEAR)
_LIVE = SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB,
                     racks=2, machines_per_rack=5)
_GRID_BASE = _LIVE.with_(group_user_bytes=50 * GB)

#: name -> (config, tier)
ROUTES = {
    "paper-base": (PAPER_BASE, "analytic"),
    # The window model's refusal cases.
    "racks-machines": (PAPER_BASE.with_(racks=4, machines_per_rack=10),
                       "live-bulk"),
    "rack-cap": (PAPER_BASE.with_(racks=4, max_chunks_per_domain=1),
                 "live-bulk"),
    "rush": (PAPER_BASE.with_(placement="rush"), "live-des"),
    "smart": (PAPER_BASE.with_(use_smart=True), "live-des"),
    "replacement": (PAPER_BASE.with_(replacement_threshold=0.5),
                    "live-des"),
    "workload": (PAPER_BASE.with_(workload_peak_load=0.5), "live-des"),
    "long-window": (PAPER_BASE.with_(
        detection_latency=2e6,
        vintage=PAPER_BASE.vintage.with_rate_multiplier(100.0)),
        "live-bulk"),
    # The chain's cases.
    "flat": (_FLAT, "markov"),
    "flat-smart": (_FLAT.with_(use_smart=True), "live-des"),
    "flat-racks": (_FLAT.with_(racks=2), "live-bulk"),
    "flat-rush": (_FLAT.with_(placement="rush"), "live-des"),
    "flat-workload": (_FLAT.with_(workload_peak_load=0.5), "live-des"),
    "flat-hot": (_FLAT.with_(
        vintage=_FLAT.vintage.with_rate_multiplier(500.0)), "markov"),
    # Lazy recovery.
    "lazy-eager": (_LAZY, "markov"),
    "lazy-r2": (_LAZY.with_(recovery_threshold=2), "live-des"),
    # The bulk engine's gating cases.
    "gold": (_GOLD, "analytic"),
    "gold-traditional": (_GOLD.with_(use_farm=False), "analytic"),
    "gold-set-based": (_GOLD.with_(scheme=MirroredParity(2)), "live-des"),
    "gold-smart": (_GOLD.with_(use_smart=True), "live-des"),
    "gold-workload": (_GOLD.with_(workload_peak_load=0.5), "live-des"),
    "gold-rush": (_GOLD.with_(placement="rush"), "live-des"),
    # One config per service-mix request kind.
    "mix-markov": (PAPER_BASE.with_(vintage=flat_vintage(0.3),
                                    detection_latency=60.0), "markov"),
    "mix-analytic": (PAPER_BASE.with_(detection_latency=60.0), "analytic"),
    "mix-surrogate": (_GRID_BASE.with_(detection_latency=300.0),
                      "surrogate"),
    "mix-live-hit": (_LIVE.with_(detection_latency=30.0), "live-bulk"),
    "mix-live-miss": (_LIVE.with_(detection_latency=77.7), "live-bulk"),
    # The serve --smoke probes.
    "smoke-analytic": (SystemConfig(), "analytic"),
    "smoke-markov": (_FLAT, "markov"),
    "smoke-live-bulk": (SystemConfig(racks=2, machines_per_rack=5),
                        "live-bulk"),
    "smoke-traditional": (_FLAT.with_(use_farm=False), "analytic"),
}
for _scheme in PAPER_SCHEMES:
    ROUTES[f"100tb-{_scheme.name}-farm"] = (hundred_tb(_scheme, True),
                                            "markov")
    ROUTES[f"100tb-{_scheme.name}-trad"] = (hundred_tb(_scheme, False),
                                            "analytic")


@pytest.fixture(scope="module")
def cascade():
    """A cascade with the service-mix benchmark's grid (values made up:
    routing only asks whether a grid covers the config)."""
    grid = SurrogateGrid("bench", config_to_dict(_GRID_BASE),
                         (Axis("detection_latency", (30.0, 600.0)),),
                         np.array([0.1, 0.2]), n_runs=4)
    return ForecastCascade(grids=GridStore([grid]))


@pytest.mark.parametrize("name", list(ROUTES))
def test_routing(cascade, name):
    cfg, tier = ROUTES[name]
    assert cascade.classify(cfg)[0] == tier


@pytest.mark.parametrize("scheme", PAPER_SCHEMES, ids=lambda s: s.name)
def test_markov_declines_traditional_recovery(cascade, scheme):
    """The chain repairs exponentially; a traditional rebuild queues a
    dead disk's blocks on one spare.  The chain once answered these with
    the FARM number (1/2: 0.477 % against the window model's 7.92 %)."""
    cfg = hundred_tb(scheme, use_farm=False)
    assert cascade.classify(cfg)[0] != "markov"
    assert any("traditional recovery" in r for r in refusals(cfg)[MARKOV])
    assert refusals(hundred_tb(scheme, use_farm=True))[MARKOV] == ()
