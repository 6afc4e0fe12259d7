"""Prometheus text-format export of the live metrics report."""

import os
import random

from repro.obs.prom import lint_prometheus, render_prometheus, write_prometheus
from repro.scheduler.guard_scheduler import DistributedScheduler
from repro.workloads.scenarios import make_travel_booking

from ..conftest import assert_run_kernel_schema


def metrics_report():
    scenario = make_travel_booking()
    workflow = scenario.workflow
    sched = DistributedScheduler(
        workflow.dependencies,
        sites=workflow.sites,
        attributes=workflow.attributes,
        rng=random.Random(11),
        drop_probability=0.2,
        reliable=True,
    )
    sched.run(scenario.scripts, verify=False)
    return sched.metrics_report()


class TestRender:
    def test_real_report_lints_clean(self):
        text = render_prometheus(metrics_report())
        assert lint_prometheus(text) == []

    def test_counters_get_total_suffix_and_site_labels(self):
        text = render_prometheus(metrics_report())
        assert "# TYPE repro_attempts_total counter" in text
        assert "repro_attempts_total " in text
        assert 'repro_attempts_total{site="airline"} ' in text

    def test_gauges_emit_value_and_peak(self):
        text = render_prometheus(metrics_report())
        assert "# TYPE repro_parked_depth gauge" in text
        assert "# TYPE repro_parked_depth_peak gauge" in text

    def test_histograms_emit_summary_and_extrema(self):
        text = render_prometheus(metrics_report())
        assert (
            "# TYPE repro_lifecycle_attempt_to_park summary" in text
        )
        assert "repro_lifecycle_attempt_to_park_sum " in text
        assert "repro_lifecycle_attempt_to_park_count " in text

    def test_network_and_kernel_sections_present(self):
        report = metrics_report()
        assert_run_kernel_schema(report["kernel"])
        text = render_prometheus(report)
        assert "repro_network_messages" in text
        assert 'repro_network_by_kind{kind="announce"}' in text
        assert "repro_kernel_" in text
        assert "repro_kernel_watch_wakes" in text
        assert "repro_kernel_watch_skips" in text

    def test_custom_prefix(self):
        text = render_prometheus(metrics_report(), prefix="wf_")
        assert "wf_attempts_total" in text
        assert "repro_" not in text
        assert lint_prometheus(text) == []

    def test_write_is_atomic_and_returns_text(self, tmp_path):
        path = tmp_path / "metrics.prom"
        text = write_prometheus(metrics_report(), str(path))
        assert path.read_text() == text
        assert lint_prometheus(text) == []
        # no tmp droppings left behind
        assert os.listdir(tmp_path) == ["metrics.prom"]


class TestLint:
    GOOD = (
        "# HELP x_total a counter\n"
        "# TYPE x_total counter\n"
        "x_total 1\n"
        'x_total{site="a"} 1\n'
    )

    def test_accepts_well_formed(self):
        assert lint_prometheus(self.GOOD) == []

    def test_rejects_bad_metric_name(self):
        bad = "# TYPE 9bad counter\n9bad 1\n"
        assert any("name" in p for p in lint_prometheus(bad))

    def test_rejects_duplicate_type_line(self):
        bad = self.GOOD + "# TYPE x_total counter\nx_total 2\n"
        assert lint_prometheus(bad) != []

    def test_rejects_interleaved_families(self):
        bad = (
            "# TYPE a counter\na 1\n"
            "# TYPE b counter\nb 1\n"
            "a 2\n"
        )
        assert lint_prometheus(bad) != []

    def test_rejects_duplicate_sample(self):
        bad = "# TYPE a counter\na 1\na 2\n"
        assert lint_prometheus(bad) != []

    def test_rejects_non_numeric_value(self):
        bad = "# TYPE a counter\na one\n"
        assert lint_prometheus(bad) != []

    def test_rejects_bad_label(self):
        bad = '# TYPE a counter\na{9bad="x"} 1\n'
        assert lint_prometheus(bad) != []

    def test_rejects_unknown_type(self):
        bad = "# TYPE a sparkline\na 1\n"
        assert lint_prometheus(bad) != []
