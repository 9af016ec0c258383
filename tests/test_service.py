"""Tests for the reliability-forecast service (repro.service).

Covers the wire protocol, the content-addressed evidence cache (and its
journal's recovery from a torn line or a failed compaction), the
interpolation surrogates, the cascade's tier routing and refinement,
and a full end-to-end pass against a live server on an ephemeral port:
closed-form/surrogate/live queries with their provenance tiers, cache
hits on repeat queries, and CI narrowing as background refinement lands.
"""

import asyncio
import json
import time
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import (PAPER_BASE, SystemConfig, _shared_failure_model,
                          config_digest, config_to_dict)
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.reliability import analytic, markov
from repro.reliability.envelope import hazard_window
from repro.reliability.montecarlo import estimate_p_loss_async
from repro.reliability.runner import SweepRunner
from repro.service import (Axis, CacheEntry, Forecast, ForecastCache,
                           ForecastCascade, ForecastError, ForecastService,
                           GridStore, InfeasibleConfig, SurrogateGrid,
                           build_grid, check_feasible, forecast_to_dict,
                           get_forecast, parse_forecast_request,
                           repair_utilization, request_forecast,
                           run_in_thread)
from repro.service.cascade import (TIER_ANALYTIC, TIER_LIVE_BULK,
                                   TIER_LIVE_DES, TIER_MARKOV,
                                   TIER_SURROGATE)
from repro.reliability.stats import Proportion
from repro.telemetry.metrics import MetricRegistry
from repro.units import GB, TB, YEAR


def _flat_rate_config(**overrides):
    """PAPER_BASE with one constant-rate period (markov-exact)."""
    flat = BathtubFailureModel((RatePeriod(0.0, float("inf"), 0.20),))
    vintage = replace(PAPER_BASE.vintage, failure_model=flat)
    return PAPER_BASE.with_(vintage=vintage, **overrides)


def _infeasible_config():
    """A config whose repair demand outruns recovery bandwidth."""
    mult = 2.0 / repair_utilization(PAPER_BASE)
    return PAPER_BASE.with_(
        vintage=PAPER_BASE.vintage.with_rate_multiplier(mult))


#: Live-tier config: topology puts it past both closed forms, random
#: placement keeps it on the bulk engine; small enough to be fast.
LIVE_CFG = SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB,
                        racks=2, machines_per_rack=5)

#: SMART pushes this one all the way down to the DES engine.
DES_CFG = SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB,
                       use_smart=True)


def _hazard_evaluations(monkeypatch):
    """The ages ``BathtubFailureModel.cumulative_hazard`` is evaluated
    at from now on, in call order."""
    calls = []
    full = BathtubFailureModel.cumulative_hazard

    def counted(self, age):
        calls.append(age)
        return full(self, age)

    monkeypatch.setattr(BathtubFailureModel, "cumulative_hazard", counted)
    return calls


def _runner():
    """A sweep runner with every filesystem side effect disabled."""
    return SweepRunner(n_jobs=1, telemetry_path="")


def _cascade(tmp_path=None, **kw):
    cache = ForecastCache(tmp_path / "cache.jsonl") if tmp_path \
        else ForecastCache()
    kw.setdefault("live_runs", 8)
    return ForecastCascade(cache=cache, runner=_runner(), **kw)


# --------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_parse_round_trip(self):
        body = json.dumps({"config": {"racks": 2, "machines_per_rack": 5},
                           "confidence": 0.9}).encode()
        cfg, confidence = parse_forecast_request(body)
        assert cfg == PAPER_BASE.with_(racks=2, machines_per_rack=5)
        assert confidence == 0.9

    def test_confidence_defaults(self):
        _, confidence = parse_forecast_request(b'{"config": {}}')
        assert confidence == 0.95

    @pytest.mark.parametrize("body,fragment", [
        (b"not json", "not JSON"),
        (b"[1, 2]", "JSON object"),
        (b'{"config": {}, "seed": 1}', "unknown request key"),
        (b'{"config": {}, "confidence": 2.0}', "confidence"),
        (b'{"config": {}, "confidence": "hi"}', "confidence"),
        (b'{"confidence": 0.9}', "'config' object"),
        (b'{"config": {"raks": 2}}', "bad config"),
        (b'{"config": {"duration": -1.0}}', "bad config"),
    ])
    def test_refusals_are_400s(self, body, fragment):
        with pytest.raises(ForecastError) as err:
            parse_forecast_request(body)
        assert err.value.status == 400
        assert fragment in err.value.message

    def test_forecast_to_dict_encodes_infinite_mttdl_as_null(self):
        p = Proportion(successes=0, trials=0, estimate=0.0, lo=0.0,
                       hi=0.0, confidence=0.95)
        base = Forecast(digest="d", p_loss=p, mttdl_s=None,
                        tier="markov", detail="x")
        for mttdl in (None, float("inf"), float("nan")):
            doc = forecast_to_dict(replace(base, mttdl_s=mttdl))
            assert doc["mttdl_s"] is None
        doc = forecast_to_dict(replace(base, mttdl_s=3.5))
        assert doc["mttdl_s"] == 3.5
        assert doc["schema"] == "repro.forecast.v1"
        assert doc["key"] == "d" and doc["ci_width"] == 0.0


# --------------------------------------------------------------------- #
# Feasibility rail
# --------------------------------------------------------------------- #
class TestFeasibilityRail:
    def test_paper_base_is_feasible(self):
        util = repair_utilization(PAPER_BASE)
        assert 0.0 < util < 1.0
        check_feasible(PAPER_BASE)

    def test_diverging_repair_queue_refused(self):
        with pytest.raises(InfeasibleConfig, match="repair utilization"):
            check_feasible(_infeasible_config())


# --------------------------------------------------------------------- #
# Evidence cache
# --------------------------------------------------------------------- #
class TestCache:
    ENTRY = CacheEntry(digest="abc", losses=3, trials=10, rounds=1,
                       engine="bulk")

    def test_proportion_and_merge(self):
        prop = self.ENTRY.proportion()
        assert prop.estimate == pytest.approx(0.3)
        assert prop.lo < 0.3 < prop.hi
        merged = self.ENTRY.merged(1, 10)
        assert (merged.losses, merged.trials, merged.rounds) == (4, 20, 2)
        assert merged.digest == "abc" and merged.engine == "bulk"

    def test_empty_entry_uninformative_interval(self):
        empty = CacheEntry(digest="x", losses=0, trials=0, rounds=0,
                           engine="des")
        prop = empty.proportion()
        assert (prop.lo, prop.hi) == (0.0, 1.0)

    def test_record_round_trip(self):
        assert CacheEntry.from_record(self.ENTRY.to_record()) == self.ENTRY

    def test_bad_records_rejected(self):
        record = self.ENTRY.to_record()
        del record["trials"]
        for bad in ({"schema": "nope"}, record, 3):
            with pytest.raises(ValueError):
                CacheEntry.from_record(bad)

    def test_put_get_and_persistence(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ForecastCache(path)
        cache.put(self.ENTRY)
        assert cache.get("abc") == self.ENTRY
        # a fresh process sees the journaled evidence
        assert ForecastCache(path).get("abc") == self.ENTRY

    def test_newest_record_wins_on_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ForecastCache(path)
        cache.put(self.ENTRY)
        cache.put(self.ENTRY.merged(2, 10))
        reloaded = ForecastCache(path)
        assert reloaded.get("abc").trials == 20

    def test_eviction_forgets_fast_path_not_evidence(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ForecastCache(path, capacity=2)
        entries = [replace(self.ENTRY, digest=f"d{i}") for i in range(3)]
        for entry in entries:
            cache.put(entry)
        assert len(cache) == 2          # d0 evicted from memory...
        assert cache.get("d0") == entries[0]   # ...but not from disk

    def test_miss_reads_journal_only_after_eviction(self, tmp_path,
                                                   monkeypatch):
        cache = ForecastCache(tmp_path / "cache.jsonl", capacity=2)
        reads = []
        read = cache._read_journal
        monkeypatch.setattr(cache, "_read_journal", lambda digest=None:
                            reads.append(digest) or read(digest))
        cache.put(self.ENTRY)
        # Nothing evicted: every journaled digest is resident.
        assert cache.get("missing") is None
        assert reads == []
        for i in range(2):
            cache.put(replace(self.ENTRY, digest=f"d{i}"))
        assert cache.get("abc") == self.ENTRY        # evicted, then read
        assert reads == ["abc"]

    def test_memory_only_cache_loses_evicted(self):
        cache = ForecastCache(capacity=1)
        cache.put(self.ENTRY)
        cache.put(replace(self.ENTRY, digest="other"))
        assert cache.get("abc") is None

    def test_compaction_rewrites_one_line_per_digest(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ForecastCache(path)
        entry = self.ENTRY
        for _ in range(12):             # 12 appends, 1 live digest
            entry = entry.merged(0, 5)
            cache.put(entry)
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        assert len(lines) <= 4          # auto-compaction bounds growth
        cache.compact()
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        assert len(lines) == 1
        assert ForecastCache(path).get("abc").trials == entry.trials

    def test_torn_line_does_not_swallow_the_next_record(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ForecastCache(path).put(self.ENTRY)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"digest": "bbb", "los')     # crash mid-append
        survivor = replace(self.ENTRY, digest="ccc")
        ForecastCache(path).put(survivor)
        reloaded = ForecastCache(path)
        assert reloaded.get("abc") == self.ENTRY
        assert reloaded.get("ccc") == survivor
        assert reloaded.skipped_lines == 1

    def test_lines_without_a_record_are_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('3\n{"schema": "nope"}\n'
                        + json.dumps(self.ENTRY.to_record()) + "\n")
        cache = ForecastCache(path)
        assert cache.get("abc") == self.ENTRY
        assert cache.skipped_lines == 2

    def test_unreadable_journal_raises(self, tmp_path):
        # Only a missing journal means "no evidence yet": a service whose
        # appends would all fail must not start with an empty cache.
        assert len(ForecastCache(tmp_path / "missing.jsonl")) == 0
        with pytest.raises(IsADirectoryError):
            ForecastCache(tmp_path)

    def test_failed_compaction_leaves_old_journal(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "cache.jsonl"
        cache = ForecastCache(path)
        cache.put(self.ENTRY)
        cache.put(self.ENTRY.merged(2, 10))
        before = path.read_text()

        def torn_write(target, data, *args, **kwargs):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            cache.compact()
        monkeypatch.undo()
        assert path.read_text() == before
        assert ForecastCache(path).get("abc").trials == 20


# --------------------------------------------------------------------- #
# Interpolation surrogates
# --------------------------------------------------------------------- #
class TestSurrogate:
    def _grid_1d(self):
        return SurrogateGrid(
            name="latency", base=config_to_dict(PAPER_BASE),
            axes=(Axis("detection_latency", (30.0, 90.0)),),
            p_loss=[0.1, 0.3], n_runs=50)

    def test_axis_validation(self):
        with pytest.raises(ValueError, match=">= 2 values"):
            Axis("detection_latency", (30.0,))
        with pytest.raises(ValueError, match="strictly increasing"):
            Axis("detection_latency", (90.0, 30.0))

    def test_covers_hull_and_base(self):
        grid = self._grid_1d()
        assert grid.covers(PAPER_BASE)                       # endpoint
        assert grid.covers(PAPER_BASE.with_(detection_latency=60.0))
        assert not grid.covers(PAPER_BASE.with_(detection_latency=120.0))
        # any off-axis difference is an exact-match failure
        assert not grid.covers(PAPER_BASE.with_(group_user_bytes=50 * GB))

    def test_interpolation_exact_at_nodes_linear_between(self):
        grid = self._grid_1d()
        assert grid.interpolate(PAPER_BASE) == pytest.approx(0.1)
        mid = grid.interpolate(PAPER_BASE.with_(detection_latency=60.0))
        assert mid == pytest.approx(0.2)

    def test_extrapolation_refused(self):
        with pytest.raises(ValueError, match="extrapolate"):
            self._grid_1d().interpolate(
                PAPER_BASE.with_(detection_latency=600.0))

    def test_bilinear_midpoint_is_corner_mean(self):
        grid = SurrogateGrid(
            name="plane", base=config_to_dict(PAPER_BASE),
            axes=(Axis("detection_latency", (30.0, 90.0)),
                  Axis("duration", (2 * YEAR, 6 * YEAR))),
            p_loss=[[0.0, 0.2], [0.4, 0.8]], n_runs=50)
        mid = grid.interpolate(PAPER_BASE.with_(detection_latency=60.0,
                                                duration=4 * YEAR))
        assert mid == pytest.approx((0.0 + 0.2 + 0.4 + 0.8) / 4)

    def test_proportion_inherits_grid_budget(self):
        prop = self._grid_1d().proportion(
            PAPER_BASE.with_(detection_latency=60.0))
        assert prop.estimate == pytest.approx(0.2)
        assert prop.trials == 50
        assert prop.lo < 0.2 < prop.hi

    def test_serialization_round_trip(self, tmp_path):
        grid = self._grid_1d()
        store = GridStore([grid])
        store.save_dir(tmp_path)
        loaded = GridStore.load_dir(tmp_path)
        assert len(loaded) == 1
        again = loaded.grids[0]
        assert again.name == grid.name and again.base == grid.base
        assert again.interpolate(
            PAPER_BASE.with_(detection_latency=60.0)) == pytest.approx(0.2)

    def test_load_dir_missing_is_empty(self, tmp_path):
        assert len(GridStore.load_dir(tmp_path / "nope")) == 0

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="repro.surrogate-grid.v1"):
            SurrogateGrid.from_dict({"schema": "other"})

    def test_store_lookup_first_cover_wins(self):
        grid = self._grid_1d()
        store = GridStore([grid])
        assert store.lookup(PAPER_BASE) is grid
        assert store.lookup(PAPER_BASE.with_(racks=2)) is None

    def test_build_grid_sweeps_the_bulk_engine(self):
        base = LIVE_CFG
        grid = build_grid(base, {"detection_latency": [30.0, 600.0]},
                          n_runs=4, engine="bulk", n_jobs=1,
                          name="built")
        assert grid.values.shape == (2,)
        assert grid.covers(base.with_(detection_latency=300.0))
        # the cascade now answers from this grid instead of going live
        cascade = ForecastCascade(grids=GridStore([grid]),
                                  runner=_runner())
        tier, detail = cascade.classify(
            base.with_(detection_latency=300.0))
        assert tier == TIER_SURROGATE and "built" in detail


# --------------------------------------------------------------------- #
# Cascade routing and refinement
# --------------------------------------------------------------------- #
class TestCascade:
    def test_classify_tiers(self):
        cascade = _cascade()
        assert cascade.classify(_flat_rate_config())[0] == TIER_MARKOV
        assert cascade.classify(PAPER_BASE)[0] == TIER_ANALYTIC
        assert cascade.classify(LIVE_CFG)[0] == TIER_LIVE_BULK
        tier, detail = cascade.classify(DES_CFG)
        assert tier == TIER_LIVE_DES and "bulk refused" in detail

    def test_markov_answer_is_degenerate_interval(self):
        fc = asyncio.run(_cascade().forecast(_flat_rate_config()))
        assert fc.tier == TIER_MARKOV and not fc.refining
        assert fc.p_loss.lo == fc.p_loss.estimate == fc.p_loss.hi
        assert fc.p_loss.estimate == pytest.approx(
            markov.p_loss_config(_flat_rate_config()))
        assert fc.mttdl_s == pytest.approx(
            markov.mttdl_config(_flat_rate_config()))

    def test_analytic_answer_carries_truncation_bound(self):
        fc = asyncio.run(_cascade().forecast(PAPER_BASE))
        assert fc.tier == TIER_ANALYTIC and not fc.refining
        assert fc.p_loss.lo < fc.p_loss.estimate < fc.p_loss.hi
        assert "truncation bound" in fc.detail
        # One window-model evaluation gives the same bits as the three
        # separate calls.
        p, rel = analytic.p_loss(PAPER_BASE), hazard_window(PAPER_BASE)
        assert fc.p_loss.estimate == p
        assert (fc.p_loss.lo, fc.p_loss.hi) == (p * (1.0 - rel),
                                                p * (1.0 + rel))
        assert fc.mttdl_s == analytic.mttdl_estimate(PAPER_BASE)

    def test_live_answer_caches_and_repeats_hit(self, tmp_path):
        cascade = _cascade(tmp_path)
        first = asyncio.run(cascade.forecast(LIVE_CFG))
        assert first.tier == TIER_LIVE_BULK
        assert first.p_loss.trials == cascade.live_runs
        again = asyncio.run(cascade.forecast(LIVE_CFG))
        assert again.p_loss.trials == cascade.live_runs  # hit, not rerun
        entry = cascade.cache.get(first.digest)
        assert entry.rounds == 1 and entry.engine == "bulk"
        assert first.digest == config_digest(LIVE_CFG)

    def test_live_rounds_are_deterministic(self, tmp_path):
        a = asyncio.run(_cascade(tmp_path / "a").forecast(LIVE_CFG))
        b = asyncio.run(_cascade(tmp_path / "b").forecast(LIVE_CFG))
        assert a.p_loss.successes == b.p_loss.successes
        assert a.p_loss.trials == b.p_loss.trials

    def test_empty_cache_grids_and_registry_are_kept(self, tmp_path):
        """An empty cache, grid store or registry is falsy (``__len__``
        is 0); the objects passed in must still be the ones used, so a
        cache on a new journal file records the first live answer."""
        cache = ForecastCache(tmp_path / "j.jsonl")
        grids = GridStore()
        cascade = ForecastCascade(cache=cache, grids=grids,
                                  runner=_runner(), live_runs=8)
        assert cascade.cache is cache and cascade.grids is grids
        asyncio.run(cascade.forecast(LIVE_CFG))
        assert len((tmp_path / "j.jsonl").read_text().splitlines()) == 1
        registry = MetricRegistry()
        assert ForecastService(cascade, registry=registry).registry \
            is registry

    def test_refine_once_tightens_widest_entry(self, tmp_path):
        cascade = _cascade(tmp_path, target_ci_width=0.01)
        first = asyncio.run(cascade.forecast(LIVE_CFG))
        assert first.refining
        assert cascade.refinement_queue()[0].digest == first.digest
        refined = asyncio.run(cascade.refine_once())
        assert refined.trials == 2 * cascade.live_runs
        assert refined.rounds == 2
        assert refined.proportion().width < first.p_loss.width

    def test_refine_once_idle_returns_none(self):
        assert asyncio.run(_cascade().refine_once()) is None

    def test_infeasible_refused_before_any_tier(self):
        with pytest.raises(InfeasibleConfig):
            asyncio.run(_cascade().forecast(_infeasible_config()))

    def test_shared_model_evaluates_hazard_once_per_horizon(
            self, monkeypatch):
        """Forecasts of configs that share one failure model evaluate
        its cumulative hazard once per horizon, whatever the tier."""
        calls = _hazard_evaluations(monkeypatch)
        elerath = replace(PAPER_BASE.vintage,
                          failure_model=BathtubFailureModel())
        flat = _flat_rate_config().vintage.failure_model.scaled(1.0)
        cascade = _cascade()
        for duration in (3 * YEAR, 6 * YEAR):
            for latency in (10.0, 30.0, 120.0):
                for cfg in (
                        PAPER_BASE.with_(vintage=elerath),
                        LIVE_CFG.with_(vintage=elerath),
                        PAPER_BASE.with_(vintage=replace(
                            elerath, failure_model=flat))):
                    asyncio.run(cascade.forecast(cfg.with_(
                        duration=duration, detection_latency=latency)))
        assert sorted(calls) == [3 * YEAR, 3 * YEAR, 6 * YEAR, 6 * YEAR]

    @pytest.mark.parametrize("cfg", [_flat_rate_config(), PAPER_BASE,
                                     LIVE_CFG],
                             ids=["markov", "analytic", "live-bulk"])
    def test_fresh_model_evaluates_hazard_once_per_request(
            self, cfg, monkeypatch):
        calls = _hazard_evaluations(monkeypatch)
        cascade = _cascade()
        for multiplier in (1.0, 1.5, 2.0):
            model = cfg.vintage.failure_model.scaled(multiplier)
            asyncio.run(cascade.forecast(cfg.with_(
                vintage=replace(cfg.vintage, failure_model=model))))
        assert calls == [cfg.duration] * 3

    def test_repeated_schedule_is_parsed_into_one_model(self, monkeypatch):
        """Posting a rate schedule again builds no model and evaluates
        no hazard: the parse returns the model that already has it."""
        _shared_failure_model.cache_clear()
        calls = _hazard_evaluations(monkeypatch)
        cascade = _cascade()
        bodies = [json.dumps({"config": config_to_dict(
            _flat_rate_config(detection_latency=latency))}).encode()
            for latency in (10.0, 20.0, 40.0)]
        for body in bodies + bodies:
            asyncio.run(cascade.forecast(*parse_forecast_request(body)))
        assert calls == [PAPER_BASE.duration]
        assert _shared_failure_model.cache_info().misses == 1

    def test_async_estimator_matches_seed_schedule(self):
        """Two identical async rounds agree bit for bit."""
        async def _run():
            return await estimate_p_loss_async(
                LIVE_CFG, n_runs=6, base_seed=11, engine="bulk",
                runner=_runner())
        a, b = asyncio.run(_run()), asyncio.run(_run())
        assert a.aggregate.losses == b.aggregate.losses
        assert a.n_runs == b.n_runs


class TestStop:
    """``ForecastService.stop`` with a stub refinement task."""

    def test_cancelling_stop_cancels_it(self):
        """A refine task slow to wind down must not swallow a
        cancellation of ``stop()`` itself."""
        async def scenario():
            release = asyncio.Event()

            async def slow_refine():
                try:
                    await asyncio.Event().wait()
                finally:
                    await release.wait()

            service = ForecastService(_cascade())
            service._refine_task = asyncio.create_task(slow_refine())
            await asyncio.sleep(0)
            stopper = asyncio.create_task(service.stop())
            await asyncio.sleep(0)      # stop() cancels the stub ...
            await asyncio.sleep(0)      # ... which starts winding down
            stopper.cancel()
            await asyncio.wait([stopper], timeout=5.0)
            release.set()
            await asyncio.wait_for(service.stop(), timeout=5.0)
            return stopper.cancelled(), service._refine_task

        assert asyncio.run(scenario()) == (True, None)

    def test_dead_refine_loop_raises(self):
        async def scenario():
            async def broken():
                raise RuntimeError("refine loop died")

            service = ForecastService(_cascade())
            service._refine_task = asyncio.create_task(broken())
            await asyncio.sleep(0)
            await service.stop()

        with pytest.raises(RuntimeError, match="died"):
            asyncio.run(scenario())


# --------------------------------------------------------------------- #
# End-to-end over HTTP
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """A live service on an ephemeral port, with one surrogate grid."""
    tmp = tmp_path_factory.mktemp("service")
    grid_base = LIVE_CFG.with_(group_user_bytes=50 * GB)
    grid = build_grid(grid_base, {"detection_latency": [30.0, 600.0]},
                      n_runs=4, engine="bulk", n_jobs=1, name="e2e")
    cascade = ForecastCascade(
        cache=ForecastCache(tmp / "cache.jsonl"),
        grids=GridStore([grid]), runner=_runner(),
        live_runs=8, target_ci_width=0.2)
    handle = run_in_thread(ForecastService(cascade))
    yield handle
    handle.stop()


def _poll_until(fn, timeout_s=30.0):
    """Poll ``fn`` until it returns truthy; fail the test on timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = fn()
        if value:
            return value
        time.sleep(0.05)
    pytest.fail("condition not reached within timeout")


class TestServiceEndToEnd:
    def test_healthz(self, server):
        with urllib.request.urlopen(server.url + "/healthz") as resp:
            assert json.loads(resp.read()) == {"status": "ok"}

    def test_analytic_tier_over_http(self, server):
        doc = request_forecast(server.url, {"config": {}})
        assert doc["tier"] == TIER_ANALYTIC
        assert doc["p_loss"] == pytest.approx(analytic.p_loss(PAPER_BASE))
        assert doc["trials"] == 0 and not doc["refining"]
        assert doc["key"] == config_digest(PAPER_BASE)

    def test_markov_tier_over_http(self, server):
        doc = request_forecast(
            server.url, {"config": config_to_dict(_flat_rate_config())})
        assert doc["tier"] == TIER_MARKOV
        assert doc["ci_width"] == 0.0
        assert doc["mttdl_s"] == pytest.approx(
            markov.mttdl_config(_flat_rate_config()))

    def test_zero_hazard_answers_200(self, server):
        """Drives that never fail: no loss and no finite MTTDL (the
        chain's absorption time is infinite), not a 500."""
        never = BathtubFailureModel((RatePeriod(0.0, float("inf"), 0.0),))
        cfg = PAPER_BASE.with_(
            vintage=replace(PAPER_BASE.vintage, failure_model=never))
        doc = request_forecast(server.url, {"config": config_to_dict(cfg)})
        assert doc["tier"] == TIER_MARKOV
        assert doc["p_loss"] == 0.0
        assert doc["mttdl_s"] is None

    def test_surrogate_tier_over_http(self, server):
        cfg = LIVE_CFG.with_(group_user_bytes=50 * GB,
                             detection_latency=300.0)
        doc = request_forecast(server.url, {"config": config_to_dict(cfg)})
        assert doc["tier"] == TIER_SURROGATE
        assert "e2e" in doc["detail"]
        assert 0.0 <= doc["p_loss"] <= 1.0

    def test_live_tier_and_cache_hit(self, server):
        doc = request_forecast(server.url,
                               {"config": config_to_dict(LIVE_CFG)})
        assert doc["tier"] == TIER_LIVE_BULK
        assert doc["trials"] >= 8
        again = request_forecast(server.url,
                                 {"config": config_to_dict(LIVE_CFG)})
        assert again["key"] == doc["key"]
        assert again["trials"] >= doc["trials"]   # refinement only adds
        cached = get_forecast(server.url, doc["key"])
        assert cached["tier"] == TIER_LIVE_BULK
        assert cached["trials"] >= doc["trials"]

    def test_des_tier_over_http(self, server):
        doc = request_forecast(server.url,
                               {"config": config_to_dict(DES_CFG)})
        assert doc["tier"] == TIER_LIVE_DES
        assert "bulk refused" in doc["detail"]

    def test_background_refinement_narrows_ci(self, server):
        cfg = LIVE_CFG.with_(group_user_bytes=20 * GB)
        first = request_forecast(server.url,
                                 {"config": config_to_dict(cfg)})
        assert first["trials"] == 8 and first["refining"]
        final = _poll_until(
            lambda: (lambda d: d if d["trials"] > first["trials"]
                     else None)(get_forecast(server.url, first["key"])))
        assert final["ci_width"] < first["ci_width"]

    def test_infeasible_is_422(self, server):
        cfg = config_to_dict(_infeasible_config())
        with pytest.raises(ForecastError) as err:
            request_forecast(server.url, {"config": cfg})
        assert err.value.status == 422
        assert "repair utilization" in err.value.message

    def test_unknown_config_field_is_400(self, server):
        with pytest.raises(ForecastError) as err:
            request_forecast(server.url, {"config": {"raks": 2}})
        assert err.value.status == 400

    def test_unknown_key_is_404(self, server):
        with pytest.raises(ForecastError) as err:
            get_forecast(server.url, "deadbeef")
        assert err.value.status == 404
        assert "re-POST" in err.value.message

    def test_wrong_method_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/forecast")
        assert err.value.code == 405

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/nothing")
        assert err.value.code == 404

    def test_metrics_expose_journal_skipped_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"digest": "torn\n', encoding="utf-8")
        cascade = ForecastCascade(cache=ForecastCache(path),
                                  runner=_runner())
        handle = run_in_thread(ForecastService(cascade, refine=False))
        try:
            with urllib.request.urlopen(handle.url + "/metrics") as resp:
                text = resp.read().decode()
        finally:
            handle.stop()
        assert "service_cache_skipped_lines 1.0" in text

    def test_metrics_count_client_disconnects(self):
        service = ForecastService(ForecastCascade(runner=_runner()),
                                  refine=False)

        class GoneClient:               # the response write finds it gone
            def write(self, data):
                pass

            async def drain(self):
                raise ConnectionResetError

            def close(self):
                pass

        async def serve():
            # Gone mid-request, then gone before the response.
            for head in (b"GET /heal", b"GET /healthz HTTP/1.1\r\n\r\n"):
                reader = asyncio.StreamReader()
                reader.feed_data(head)
                reader.feed_eof()
                await service._handle_connection(reader, GoneClient())
            return await service._route("GET", "/metrics", b"")

        status, text, _ = asyncio.run(serve())
        assert status == 200
        assert "service_client_disconnects_total 2" in text

    def test_unrouted_paths_share_one_route_label(self):
        """Client-chosen paths cannot add series to /metrics."""
        service = ForecastService(ForecastCascade(runner=_runner()),
                                  refine=False)

        class Client:
            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

        async def serve():
            for i in range(50):
                reader = asyncio.StreamReader()
                reader.feed_data(f"GET /no/route/{i} HTTP/1.1\r\n\r\n"
                                 .encode())
                reader.feed_eof()
                await service._handle_connection(reader, Client())
            return await service._route("GET", "/metrics", b"")

        _, text, _ = asyncio.run(serve())
        series = [line for line in text.splitlines()
                  if line.startswith("service_requests_total{")]
        assert series == ['service_requests_total{route="<unrouted>",'
                          'status="404"} 50']

    @pytest.mark.parametrize("kib", [20, 70])
    def test_oversized_head_is_400(self, server, kib):
        """Also past asyncio's default 64 KiB stream limit."""
        req = urllib.request.Request(server.url + "/healthz",
                                     headers={"X-Pad": "a" * kib * 1024})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400
        assert json.loads(err.value.read()) == {
            "error": "request head too large"}

    def test_metrics_expose_requests_and_latency(self, server):
        with urllib.request.urlopen(server.url + "/metrics") as resp:
            text = resp.read().decode()
        assert "service_requests_total" in text
        assert "service_request_seconds" in text
        assert 'route="/forecast/<key>"' in text
        assert 'tier="live-bulk"' in text
