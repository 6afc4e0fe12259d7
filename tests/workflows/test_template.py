"""Template-instantiated guard synthesis (repro.workflows.template)."""

import pytest

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.temporal.guards import render, workflow_guards
from repro.workflows import WorkflowTemplate
from repro.workflows import template as template_module
from repro.workflows.spec import Workflow
from repro.workflows.template import (
    rename_event,
    rename_expr,
    rename_script,
)
from repro.workloads.generators import (
    chain_workflow,
    diamond_workflow,
    fanout_workflow,
    saga_workflow,
)
from repro.workloads.scenarios import make_mutex_family, make_travel_booking


class TestRenameHelpers:
    def test_rename_event_preserves_polarity(self):
        e = Event("e")
        mapping = {e: Event("e_i0")}
        assert rename_event(e, mapping) == Event("e_i0")
        assert rename_event(~e, mapping) == ~Event("e_i0")
        assert rename_event(Event("other"), mapping) == Event("other")

    def test_rename_expr_matches_fresh_parse(self):
        expr = parse("~e + f . g + e . (f | g)")
        mapping = {
            Event(name): Event(f"{name}_i1") for name in ("e", "f", "g")
        }
        renamed = rename_expr(expr, mapping)
        # interned nodes: renaming must land on the same canonical node
        # a fresh parse of the renamed text produces
        assert renamed is parse("~e_i1 + f_i1 . g_i1 + e_i1 . (f_i1 | g_i1)")

    def test_rename_expr_identity_without_hits(self):
        expr = parse("~e + f")
        assert rename_expr(expr, {Event("zzz"): Event("zzz_i0")}) is expr

    def test_rename_script_suffixes_site_and_events(self):
        e, f = Event("e"), Event("f")
        mapping = {e: Event("e_i2"), f: Event("f_i2")}
        script = AgentScript(
            "site_a",
            [
                ScriptedAttempt(1.0, e),
                ScriptedAttempt(2.0, ~f, after=e),
            ],
        )
        renamed = rename_script(script, mapping, "_i2")
        assert renamed.site == "site_a_i2"
        assert renamed.attempts[0].event == Event("e_i2")
        assert renamed.attempts[0].time == 1.0
        assert renamed.attempts[1].event == ~Event("f_i2")
        assert renamed.attempts[1].after == Event("e_i2")


class TestWorkflowTemplate:
    def test_travel_instances_match_from_scratch_synthesis(self):
        template = WorkflowTemplate(make_travel_booking().workflow)
        for suffix in ("_i0", "_i7", "_i123"):
            workflow, guards = template.instantiate_merged([suffix])
            direct = make_travel_booking(suffix=suffix).workflow
            assert workflow.dependencies == direct.dependencies
            assert workflow.sites == direct.sites
            assert workflow.attributes == direct.attributes
            assert render(guards) == workflow_guards(direct.dependencies)
        assert template.fast_instantiations == 3
        assert template.fallback_instantiations == 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda s: chain_workflow(5, suffix=s),
            lambda s: fanout_workflow(4, suffix=s),
            lambda s: saga_workflow(4, suffix=s),
            lambda s: diamond_workflow(3, suffix=s),
        ],
        ids=["chain", "fanout", "saga", "diamond"],
    )
    def test_generator_instances_match_from_scratch(self, make):
        template = WorkflowTemplate(make(""))
        workflow, guards = template.instantiate_merged(["_i3"])
        direct = make("_i3")
        assert workflow.dependencies == direct.dependencies
        assert render(guards) == workflow_guards(direct.dependencies)

    def test_order_violating_suffix_falls_back_and_still_matches(self):
        # "t1" < "t10" but "t1_x" > "t10_x": suffixing flips the
        # canonical order, so the rename fast path is unsound here and
        # the template must re-synthesize -- transparently
        w = Workflow("prefixy")
        w.add("~t1 + t10")
        w.add("~t10 + ~t2 + t10 . t2")
        template = WorkflowTemplate(w)
        workflow, guards = template.instantiate_merged(["_x"])
        assert template.fallback_instantiations == 1
        assert template.fast_instantiations == 0
        assert render(guards) == workflow_guards(workflow.dependencies)

    def test_parametrized_events_keep_their_parameters(self):
        # regression: the rename dropped event parameters, so e[1] . e[2]
        # stamped as e_i0 . e_i0 -- which is 0 -- with an empty table
        w = Workflow("tokens")
        w.add("e[1] . e[2]")
        template = WorkflowTemplate(w)
        workflow, guards = template.instantiate_merged(["_i0"])
        e1, e2 = Event("e_i0", params=(1,)), Event("e_i0", params=(2,))
        assert workflow.dependencies == [parse("e_i0[1] . e_i0[2]")]
        assert set(guards) == {e1, ~e1, e2, ~e2}
        assert render(guards) == workflow_guards(workflow.dependencies)
        assert template.fast_instantiations == 1

    def test_mapping_is_computed_once_per_suffix(self):
        template = WorkflowTemplate(make_travel_booking().workflow)
        mapping = template.mapping_for("_i4")
        template.instantiate_merged(["_i4"])
        assert template.mapping_for("_i4") is mapping

    def test_empty_suffix_is_identity(self):
        workflow = make_travel_booking().workflow
        template = WorkflowTemplate(workflow)
        merged, guards = template.instantiate_merged([""])
        assert merged.dependencies == workflow.dependencies
        assert guards == template.guards

    def test_guards_synthesized_once(self):
        template = WorkflowTemplate(make_travel_booking().workflow)
        first = template.guards
        template.instantiate_merged(["_i0"])
        template.instantiate_merged(["_i1"])
        assert template.guards is first

    def test_instantiate_merged_unions_instances(self):
        template = WorkflowTemplate(make_travel_booking().workflow)
        merged, guards = template.instantiate_merged(["_i0", "_i1", "_i2"])
        _single, single = template.instantiate_merged(["_i0"])
        assert len(merged.dependencies) == 3 * len(
            template.workflow.dependencies
        )
        assert len(guards) == 3 * len(single)
        for event, g in render(single).items():
            assert guards[event].guard == g

    def test_instantiate_merged_is_the_merged_fold_without_folding(
        self, monkeypatch
    ):
        # regression: folding with Workflow.merged re-copied every list
        # and dict and re-joined the name per instance (quadratic)
        suffixes = [f"_i{k}" for k in range(5)]
        template = WorkflowTemplate(make_travel_booking().workflow)
        fold, tables = None, {}
        for suffix in suffixes:
            instance, tables[suffix] = template.instantiate_merged([suffix])
            fold = instance if fold is None else fold.merged(instance)

        def no_fold(self, other, name=None):
            raise AssertionError("instantiate_merged called Workflow.merged")

        monkeypatch.setattr(Workflow, "merged", no_fold)
        merged, guards = template.instantiate_merged(suffixes)
        assert merged == fold
        assert merged.name == fold.name == "+".join(
            f"{template.workflow.name}{suffix}" for suffix in suffixes
        )
        assert list(merged.attributes) == list(fold.attributes)
        assert list(merged.sites) == list(fold.sites)
        assert render(guards) == {
            event: guard
            for suffix in suffixes
            for event, guard in render(tables[suffix]).items()
        }
        single, _guards = template.instantiate_merged(["_i7"])
        assert single.name == f"{template.workflow.name}_i7"

    def test_instantiate_merged_rejects_a_suffix_given_twice(self):
        template = WorkflowTemplate(make_travel_booking().workflow)
        clash = min(template.mapping_for("_i0").values(), key=Event.sort_key)
        clashing = f"not event-disjoint: {clash!r} "
        with pytest.raises(ValueError, match=clashing):
            template.instantiate_merged(["_i0", "_i1", "_i0"])

    def test_instantiate_merged_rejects_bases_two_suffixes_share(self):
        # "" keeps a_x, and "_x" renames a to a_x as well
        w = Workflow("overlap")
        w.add("~a + a_x")
        template = WorkflowTemplate(w)
        with pytest.raises(ValueError, match="not event-disjoint: a_x "):
            template.instantiate_merged(["", "_x"])
        merged, guards = template.instantiate_merged(["", "_y"])
        assert len(merged.dependencies) == 2 and len(guards) == 8

    def test_merged_workflow_synthesizes_and_stamps_nothing(
        self, monkeypatch
    ):
        """The merged workflow alone reads no guard table: the one a
        scheduler then synthesizes is the only one built."""
        suffixes = ["_i0", "_i1", "_i2"]
        template = WorkflowTemplate(make_travel_booking().workflow)
        expected, _guards = WorkflowTemplate(
            template.workflow
        ).instantiate_merged(suffixes)

        def no_synthesis(dependencies):
            raise AssertionError("a guard table was built")

        monkeypatch.setattr(template_module, "workflow_bindings", no_synthesis)
        assert template.merged_workflow(suffixes) == expected
        family = make_mutex_family(8, cluster=4)
        workflow, scripts = family.merged()
        assert len(workflow.dependencies) == 2 * 8 + len(
            family.cross_dependencies
        )
        with pytest.raises(ValueError, match="not event-disjoint"):
            template.merged_workflow(["_i0", "_i0"])

    def test_instantiate_merged_rejects_empty(self):
        template = WorkflowTemplate(make_travel_booking().workflow)
        with pytest.raises(ValueError):
            template.instantiate_merged([])

    def test_instance_script_rename(self):
        template = WorkflowTemplate(make_travel_booking().workflow)
        mapping = template.mapping_for("_i5")
        scripts = [
            rename_script(s, mapping, "_i5")
            for s in make_travel_booking("failure").scripts
        ]
        direct = make_travel_booking("failure", suffix="_i5").scripts
        assert [s.site for s in scripts] == [s.site for s in direct]
        assert [
            [(a.time, a.event, a.after) for a in s.attempts] for s in scripts
        ] == [
            [(a.time, a.event, a.after) for a in s.attempts] for s in direct
        ]
