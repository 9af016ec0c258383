import statistics

import pytest

from bench.stats import latency_summary, quartiles, spread, tail_percentile


@pytest.mark.parametrize("n, pct", [
    (19, 100.0),     # not even the median has ten beyond: the maximum
    (20, 50.0),
    (99, 50.0),      # p90 would leave 9 beyond
    (100, 90.0),
    (999, 90.0),     # p99 would leave 9 beyond
    (1000, 99.0),
    (9000, 99.0),    # the service's 300 req/s x 30 s: 90 beyond p99
    (9999, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_latency_summary_uses_nearest_rank_in_ms():
    seconds = [i / 1000 for i in range(1, 1001)]     # 1..1000 ms
    s = latency_summary(reversed(seconds))
    assert s["n"] == 1000
    assert s["p50_ms"] == pytest.approx(500.0)
    assert s["tail_pct"] == 99.0
    assert s["tail_ms"] == pytest.approx(990.0)      # 10 samples beyond


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, med, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / med)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert spread([7.0]) == 0.0
