"""Merging per-shard traces and metrics reports (repro.obs.merge)."""

import pytest

from repro.obs.check import check_records
from repro.obs.merge import merge_metrics, merge_traces, shard_prefix
from repro.obs.prom import lint_prometheus, render_prometheus
from repro.obs.tracer import Tracer


class TestMergeTraces:
    def _two_shards(self):
        a = Tracer()
        mid, lc = a.message_send(1.0, "x", "y", "announce")
        a.message_recv(2.0, "x", "y", "announce", mid, lc)
        b = Tracer()
        mid, lc = b.message_send(0.5, "x", "y", "announce")
        b.message_recv(1.5, "x", "y", "announce", mid, lc)
        mid2, lc2 = b.message_send(2.5, "y", "x", "promise")
        b.message_recv(3.5, "y", "x", "promise", mid2, lc2)
        return a, b

    def test_sites_prefixed_and_sorted_by_time(self):
        a, b = self._two_shards()
        merged = merge_traces([a.records, b.records])
        assert [r["t"] for r in merged] == sorted(r["t"] for r in merged)
        assert {r["site"] for r in merged} == {
            "s0/x", "s0/y", "s1/x", "s1/y",
        }
        # src/dst renamed consistently with site
        for record in merged:
            assert record["src"].split("/")[0] == record["site"].split("/")[0]

    def test_mids_offset_past_collisions(self):
        a, b = self._two_shards()
        merged = merge_traces([a.records, b.records])
        sends = [r for r in merged if r["op"] == "send"]
        mids = [r["mid"] for r in sends]
        assert len(set(mids)) == len(mids)
        # shard 1's mids are shifted past shard 0's maximum
        shard1 = [r["mid"] for r in sends if r["site"].startswith("s1/")]
        shard0 = [r["mid"] for r in sends if r["site"].startswith("s0/")]
        assert min(shard1) > max(shard0)

    def test_merged_trace_passes_checker(self):
        a, b = self._two_shards()
        assert check_records(merge_traces([a.records, b.records])) == []

    def test_inputs_untouched(self):
        a, b = self._two_shards()
        before = [dict(r) for r in a.records]
        merge_traces([a.records, b.records])
        assert a.records == before
        assert a.records[0]["site"] == "x"

    def test_same_shard_times_keep_record_order(self):
        a = Tracer()
        a.local(1.0, "x", "actor", "attempted", event="e")
        a.local(1.0, "x", "actor", "fired", event="e")
        merged = merge_traces([a.records])
        assert [r["op"] for r in merged] == ["attempted", "fired"]

    def test_prefix_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_traces([[], []], prefixes=["a/"])

    def test_shard_prefix_shape(self):
        assert shard_prefix(3) == "s3/"


class TestMergeMetrics:
    def test_counters_sum_and_sites_prefixed(self):
        a = {"counters": {"fired": {
            "total": 3, "sites": {"x": 2, "y": 1},
        }}, "gauges": {}, "histograms": {}}
        b = {"counters": {"fired": {
            "total": 5, "sites": {"x": 5},
        }}, "gauges": {}, "histograms": {}}
        merged = merge_metrics([a, b])
        entry = merged["counters"]["fired"]
        assert entry["total"] == 8
        assert entry["sites"] == {"s0/x": 2, "s0/y": 1, "s1/x": 5}

    def test_unlabelled_entries_fold_into_unlabelled(self):
        # shard 0 recorded only unlabelled observations (totals-only
        # entry); shard 1 has a per-site breakdown
        a = {"counters": {"ticks": {"total": 4}},
             "gauges": {}, "histograms": {}}
        b = {"counters": {"ticks": {
            "total": 2, "sites": {"x": 1}, "unlabelled": 1,
        }}, "gauges": {}, "histograms": {}}
        merged = merge_metrics([a, b])
        entry = merged["counters"]["ticks"]
        assert entry["total"] == 6
        assert entry["sites"] == {"s1/x": 1}
        assert entry["unlabelled"] == 5

    def test_gauges_sum_value_max_peak(self):
        a = {"counters": {}, "histograms": {}, "gauges": {"parked": {
            "total": {"value": 2.0, "peak": 6.0},
            "sites": {"x": {"value": 2.0, "peak": 6.0}},
        }}}
        b = {"counters": {}, "histograms": {}, "gauges": {"parked": {
            "total": {"value": 1.0, "peak": 3.0},
            "sites": {"x": {"value": 1.0, "peak": 3.0}},
        }}}
        merged = merge_metrics([a, b])
        entry = merged["gauges"]["parked"]
        assert entry["total"] == {"value": 3.0, "peak": 6.0}
        assert entry["sites"]["s0/x"] == {"value": 2.0, "peak": 6.0}

    def test_histograms_pool_summary_stats(self):
        a = {"counters": {}, "gauges": {}, "histograms": {"lat": {
            "total": {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
                      "mean": 2.0},
        }}}
        b = {"counters": {}, "gauges": {}, "histograms": {"lat": {
            "total": {"count": 1, "sum": 8.0, "min": 8.0, "max": 8.0,
                      "mean": 8.0},
        }}}
        merged = merge_metrics([a, b])
        assert merged["histograms"]["lat"]["total"] == {
            "count": 3, "sum": 12.0, "min": 1.0, "max": 8.0, "mean": 4.0,
        }

    def test_network_sums_and_prefixes_per_site(self):
        base = {"counters": {}, "gauges": {}, "histograms": {}}
        a = dict(base, network={
            "messages": 10, "max_queue_wait": 2.0,
            "by_kind": {"announce": 7},
            "per_site_handled": {"x": 10},
        })
        b = dict(base, network={
            "messages": 4, "max_queue_wait": 5.0,
            "by_kind": {"announce": 2, "promise": 2},
            "per_site_handled": {"x": 4},
        })
        merged = merge_metrics([a, b])
        net = merged["network"]
        assert net["messages"] == 14
        assert net["max_queue_wait"] == 5.0
        assert net["by_kind"] == {"announce": 9, "promise": 2}
        assert net["per_site_handled"] == {"s0/x": 10, "s1/x": 4}

    def test_kernel_elementwise_max_and_faults_sum(self):
        base = {"counters": {}, "gauges": {}, "histograms": {}}
        a = dict(base, kernel={"guard_cache": {"hits": 10, "size": 5}},
                 faults={"crashes": 1})
        b = dict(base, kernel={"guard_cache": {"hits": 3, "size": 9}},
                 faults={"crashes": 2})
        merged = merge_metrics([a, b])
        assert merged["kernel"] == {"guard_cache": {"hits": 10, "size": 9}}
        assert merged["faults"] == {"crashes": 3}

    def test_merged_report_renders_and_lints(self):
        a = {
            "counters": {"fired": {"total": 1, "sites": {"x": 1}}},
            "gauges": {"parked": {
                "total": {"value": 0.0, "peak": 2.0},
                "sites": {"x": {"value": 0.0, "peak": 2.0}},
            }},
            "histograms": {"lat": {"total": {
                "count": 1, "sum": 2.0, "min": 2.0, "max": 2.0, "mean": 2.0,
            }}},
            "network": {"messages": 3, "by_kind": {"announce": 3},
                        "per_site_handled": {"x": 3}},
            "kernel": {"interned": 12},
        }
        merged = merge_metrics([a, a])
        assert lint_prometheus(render_prometheus(merged)) == []

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            merge_metrics([])
        with pytest.raises(ValueError):
            merge_metrics(
                [{"counters": {}, "gauges": {}, "histograms": {}}],
                prefixes=["a/", "b/"],
            )


class TestMergeKernelWatch:
    def test_watch_counters_sum_while_caches_max(self):
        base = {"counters": {}, "gauges": {}, "histograms": {}}
        a = dict(base, kernel={
            "interning": {"events": 30},
            "watch": {"wakes": 10, "skips": 2},
        })
        b = dict(base, kernel={
            "interning": {"events": 40},
            "watch": {"wakes": 4, "skips": 1},
        })
        merged = merge_metrics([a, b])["kernel"]
        # cache snapshots: hottest shard's shape
        assert merged["interning"] == {"events": 40}
        # wake / skip counts: real per-shard work, additive
        assert merged["watch"] == {"wakes": 14, "skips": 3}

    def test_watch_absent_in_some_shards(self):
        base = {"counters": {}, "gauges": {}, "histograms": {}}
        a = dict(base, kernel={"interning": {"events": 1}})
        b = dict(base, kernel={"interning": {"events": 2},
                               "watch": {"wakes": 7}})
        merged = merge_metrics([a, b])["kernel"]
        assert merged["watch"] == {"wakes": 7}


class TestMergeTimeseries:
    def _reg(self, interval, points):
        return {"interval": interval, "series": points}

    def test_step_function_sum_over_union(self):
        from repro.obs.merge import merge_timeseries
        from repro.obs.timeseries import monotone_in_time

        a = self._reg(1.0, {"parked": [[0.0, 2.0], [2.0, 0.0]]})
        b = self._reg(2.0, {"parked": [[1.0, 5.0]],
                            "backlog": [[0.0, 1.0]]})
        merged = merge_timeseries([a, b])
        assert merged["interval"] == 2.0  # coarsest input
        assert merged["series"]["parked"] == [
            [0.0, 2.0], [1.0, 7.0], [2.0, 5.0],
        ]
        assert merged["series"]["backlog"] == [[0.0, 1.0]]
        for pts in merged["series"].values():
            assert monotone_in_time(pts)

    def test_rides_through_merge_metrics(self):
        from repro.obs.timeseries import TimeSeriesRegistry

        base = {"counters": {}, "gauges": {}, "histograms": {}}
        regs = []
        for k in range(2):
            reg = TimeSeriesRegistry(interval=1.0)
            reg.record("parked", float(k), 3.0)
            regs.append(dict(base, timeseries=reg.as_dict()))
        merged = merge_metrics(regs)
        assert merged["timeseries"]["series"]["parked"] == [
            [0.0, 3.0], [1.0, 6.0],
        ]

    def test_rejects_empty(self):
        from repro.obs.merge import merge_timeseries

        with pytest.raises(ValueError):
            merge_timeseries([])
