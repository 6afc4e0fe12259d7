"""The metrics registry: counters, gauges, histograms, reporting."""

import json

from repro.obs import MetricsRegistry


class TestCounters:
    def test_totals_sum_across_sites(self):
        m = MetricsRegistry()
        m.inc("fired", site="a")
        m.inc("fired", n=2, site="b")
        assert m.counter("fired") == 3
        assert m.counter("fired", site="a") == 1
        assert m.counter("fired", site="b") == 2
        assert m.counter("fired", site="elsewhere") == 0
        assert m.counter("never_touched") == 0

    def test_unlabelled_counts_join_the_total(self):
        m = MetricsRegistry()
        m.inc("messages")
        m.inc("messages", site="a")
        assert m.counter("messages") == 2
        entry = m.as_dict()["counters"]["messages"]
        assert entry["total"] == 2
        assert entry["sites"] == {"a": 1}
        assert entry["unlabelled"] == 1


class TestGauges:
    def test_adjust_tracks_level_and_peak(self):
        m = MetricsRegistry()
        m.gauge_adjust("parked_depth", +1, site="a")
        m.gauge_adjust("parked_depth", +1, site="a")
        m.gauge_adjust("parked_depth", -1, site="a")
        entry = m.as_dict()["gauges"]["parked_depth"]
        assert entry["sites"]["a"] == {"value": 1.0, "peak": 2.0}
        assert entry["total"] == {"value": 1.0, "peak": 2.0}


class TestHistograms:
    def test_summary_statistics(self):
        m = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            m.observe("latency", value, site="a")
        entry = m.as_dict()["histograms"]["latency"]
        stats = entry["sites"]["a"]
        assert stats["count"] == 3
        assert stats["sum"] == 6.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["mean"] == 2.0

    def test_cross_site_merge(self):
        m = MetricsRegistry()
        m.observe("latency", 1.0, site="a")
        m.observe("latency", 5.0, site="b")
        total = m.as_dict()["histograms"]["latency"]["total"]
        assert total == {
            "count": 2, "sum": 6.0, "min": 1.0, "max": 5.0, "mean": 3.0,
        }


class TestReport:
    def test_as_dict_is_json_serializable(self):
        m = MetricsRegistry()
        m.inc("fired", site="a")
        m.gauge_adjust("depth", 1, site="a")
        m.observe("latency", 0.5, site="a")
        json.dumps(m.as_dict())  # must not raise

    def test_empty_registry_reports_empty_sections(self):
        assert MetricsRegistry().as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
