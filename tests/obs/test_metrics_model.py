"""The metrics registry against a tuple-keyed reference.

:class:`TupleKeyedRegistry` keeps one entry per ``(name, site)`` key,
each gauge and histogram a dict of its statistics: the registry's
former layout.  Random calls drive both, and after every call their
reports, counters and totals must agree to the ``repr`` -- the same
names, sites and order, and the same numbers down to an int against a
float or ``-0.0`` against ``0.0``.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.obs.metrics import _finish_histogram, _pool_gauges, _pool_histograms


class TupleKeyedRegistry:
    """The reference: a dict per store keyed by ``(name, site)``."""

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    def inc(self, name, n=1, site=""):
        key = (name, site)
        self._counters[key] = self._counters.get(key, 0) + n

    def gauge_adjust(self, name, delta, site=""):
        gauge = self._gauges.setdefault(
            (name, site), {"value": 0.0, "peak": 0.0}
        )
        gauge["value"] += delta
        gauge["peak"] = max(gauge["peak"], gauge["value"])

    def observe(self, name, value, site=""):
        h = self._histograms.get((name, site))
        if h is None:
            self._histograms[name, site] = {
                "count": 1, "sum": value, "min": value, "max": value,
            }
            return
        h["count"] += 1
        h["sum"] += value
        h["min"] = min(h["min"], value)
        h["max"] = max(h["max"], value)

    def counter(self, name, site=""):
        if site == "":
            return self.totals(name)[name]
        return self._counters.get((name, site), 0)

    def totals(self, *names):
        out = dict.fromkeys(names, 0)
        for (name, _site), value in self._counters.items():
            if name in out:
                out[name] += value
        return out

    def as_dict(self):
        return {
            "counters": self._group(self._counters, lambda v: v, sum),
            "gauges": self._group(self._gauges, dict, _pool_gauges),
            "histograms": self._group(
                self._histograms, _finish_histogram, _pool_histograms
            ),
        }

    @staticmethod
    def _group(store, finish, combine):
        names = {}
        for (name, site), value in sorted(store.items()):
            names.setdefault(name, {})[site] = value
        out = {}
        for name, by_site in names.items():
            entry = {"total": combine(list(by_site.values()))}
            sites = {s: finish(v) for s, v in by_site.items() if s != ""}
            if sites:
                entry["sites"] = sites
            if "" in by_site and sites:
                entry["unlabelled"] = finish(by_site[""])
            out[name] = entry
        return out


NAMES = st.sampled_from(["a", "b", "parked"])
#: ``""`` is the unlabelled site; ``"unknown"`` is only ever read
SITES = st.sampled_from(["", "s1", "s2", "a"])
READ_SITES = st.sampled_from(["", "s1", "unknown"])
VALUES = st.one_of(
    st.sampled_from([0, 1, -1, 2, 0.0, -0.0, 1.0, -2.5]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), NAMES, VALUES, SITES),
        st.tuples(st.just("gauge_adjust"), NAMES, VALUES, SITES),
        st.tuples(st.just("observe"), NAMES, VALUES, SITES),
        st.tuples(
            st.just("counter"), st.sampled_from(["a", "never"]), READ_SITES
        ),
        st.tuples(
            st.just("totals"), st.lists(NAMES | st.just("never"), max_size=3)
        ),
    ),
    max_size=40,
)


def reading(registry, names=("a", "b", "parked", "never")):
    """Everything the registry reports, as one ``repr``."""
    return repr((
        registry.as_dict(),
        registry.totals(*names),
        [
            registry.counter(name, site)
            for name in names for site in ("", "s1", "a")
        ],
    ))


@given(OPERATIONS)
# equal values, -0.0 first and after 0.0, a negative gauge level that
# leaves the peak at 0.0, an int count against a float
@example([
    ("inc", "a", -0.0, "s1"),
    ("inc", "a", 1, "s1"),
    ("gauge_adjust", "parked", -1, "s2"),
    ("gauge_adjust", "parked", 1, "s2"),
    ("observe", "b", -0.0, ""),
    ("observe", "b", 0.0, ""),
    ("observe", "b", 0.0, "s1"),
    ("observe", "b", -0.0, "s1"),
])
def test_same_reports_as_the_tuple_keyed_registry(operations):
    registry, reference = MetricsRegistry(), TupleKeyedRegistry()
    for op, *args in operations:
        if op == "counter":
            got, want = registry.counter(*args), reference.counter(*args)
            assert repr(got) == repr(want)
        elif op == "totals":
            got, want = registry.totals(*args[0]), reference.totals(*args[0])
            assert repr(got) == repr(want)
        else:
            getattr(registry, op)(*args)
            getattr(reference, op)(*args)
        assert reading(registry) == reading(reference)


@given(OPERATIONS)
def test_reading_an_unknown_name_or_site_inserts_nothing(operations):
    registry = MetricsRegistry()
    for op, *args in operations:
        if op in ("inc", "gauge_adjust", "observe"):
            getattr(registry, op)(*args)
    before = registry.as_dict()
    assert registry.counter("never") == 0
    assert registry.counter("never", site="s1") == 0
    assert registry.counter("a", site="unknown") == 0
    assert registry.totals("never", "a")["never"] == 0
    assert repr(registry.as_dict()) == repr(before)
