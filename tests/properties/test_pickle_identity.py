"""Interned nodes pickle (and copy) to themselves.

Every expression node reduces to a call of its own interning
constructor with its raw parts, as :class:`Event` does, so a copy or an
unpickled node *is* the interned one -- in the process that made it and
in any other.  :mod:`repro.scale` relies on it: shard tasks and
outcomes carry workflows, scripts and results as they are.

Nodes are built inside the tests: other modules drop the expression
intern table, after which a node built at import time is no longer the
table's.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

from hypothesis import given

from repro.algebra.expressions import (
    Atom,
    Choice,
    Conj,
    Seq,
    TOP,
    ZERO,
    intern_stats,
)
from repro.algebra.parser import parse
from repro.algebra.symbols import Event, Variable
from repro.scale import instance_spec, plan_shards
from repro.scale.shards import run_shard
from repro.scheduler.agents import AgentScript, ScriptedAttempt
from repro.workloads.scenarios import make_mutex_family
from tests.properties.strategies import expressions

ROOT = Path(__file__).resolve().parents[2]


def assert_is_itself(node):
    size = intern_stats()["exprs"]["size"]
    # from 2: a ``Variable`` has slots, which protocols 0 and 1 refuse
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(node, protocol)) is node, protocol
    assert copy.deepcopy(node) is node
    assert copy.copy(node) is node
    assert intern_stats()["exprs"]["size"] == size


@given(expressions())
def test_drawn_expressions_round_trip_to_themselves(expr):
    assert_is_itself(expr)


def test_every_node_kind_round_trips_to_itself():
    e, f = Event("e"), Event("f")
    f1 = Event("f", params=(1,))
    fx = Event("f", params=(Variable("x"),))
    atoms = [Atom(e), Atom(~e), Atom(f1), Atom(~f1), Atom(fx), Atom(~fx)]
    nodes = [ZERO, TOP, *atoms]
    nodes += [
        Seq((Atom(e), Atom(f))),
        Choice((Atom(~e), Seq((Atom(e), Atom(f1))))),
        Conj((Atom(fx), Choice((Atom(e), Atom(~f1))))),
        # a raw node ``.of`` would have collapsed: reproduced as it is
        Seq((Atom(e), Atom(e))),
    ]
    assert {type(node).__name__ for node in nodes} == {
        "Zero", "Top", "Atom", "Seq", "Choice", "Conj",
    }
    for node in nodes:
        assert_is_itself(node)
    clone = pickle.loads(pickle.dumps(nodes))
    assert all(a is b for a, b in zip(clone, nodes))


def in_child(code: str, stdin: bytes = b"", hashseed: int = 0) -> bytes:
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hashseed),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_another_hash_seed_unpickles_example_13_to_the_same_reprs():
    family = make_mutex_family(8, cluster=4)
    dependencies = family.template.dependencies + family.cross_dependencies
    assert len(dependencies) == 2 + 12
    blob = pickle.dumps(dependencies)
    for hashseed in (1, 2):
        printed = in_child(
            "import pickle, sys\n"
            "deps = pickle.loads(sys.stdin.buffer.read())\n"
            "again = pickle.loads(pickle.dumps(deps))\n"
            "assert all(a is b for a, b in zip(deps, again))\n"
            "print('\\n'.join(map(repr, deps)))\n",
            stdin=blob, hashseed=hashseed,
        )
        assert printed.decode().splitlines() == [
            repr(dep) for dep in dependencies
        ]


def test_a_node_first_built_in_another_process_is_interned_here():
    text = "~made_elsewhere + made_elsewhere . also[1] | ~also[x]"
    blob = in_child(
        "import pickle, sys\n"
        "from repro.algebra.parser import parse\n"
        f"sys.stdout.buffer.write(pickle.dumps(parse({text!r})))\n",
        hashseed=3,
    )
    first = pickle.loads(blob)
    size = intern_stats()["exprs"]["size"]
    assert pickle.loads(blob) is first
    assert intern_stats()["exprs"]["size"] == size
    assert_is_itself(first)
    assert parse(text) is first


def test_a_script_naming_parametrized_events_survives_the_trip():
    f1 = Event("f", params=(1,))
    script = AgentScript(
        "site_a", [ScriptedAttempt(1.0, f1), ScriptedAttempt(2.0, ~f1, f1)]
    )
    clone = pickle.loads(pickle.dumps(instance_spec("_i0", [script])))
    [rebuilt] = clone.scripts
    assert rebuilt == script and rebuilt is not script
    assert [(a.event, a.after) for a in rebuilt.attempts] == [
        (f1, None), (f1.complement, f1),
    ]
    assert rebuilt.attempts[1].event is f1.complement


def test_shard_tasks_and_outcomes_round_trip_to_equal_values():
    family = make_mutex_family(4)
    tasks = plan_shards(
        family.template,
        [instance_spec(sfx, scripts) for sfx, scripts in family.instances],
        2,
        seed=5,
        trace=True,
        profile=True,
        placement="min_cut",
        cross_deps=family.cross_dependencies,
    )
    assert len(tasks) == 2
    for task in tasks:
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task and clone.workflow is not task.workflow
        assert all(
            a is b
            for a, b in zip(clone.cross_dependencies, task.cross_dependencies)
        )
        outcome = run_shard(task)
        assert outcome.result.ok and outcome.result.entries
        assert pickle.loads(pickle.dumps(outcome)) == outcome
        # and the clone is the same work: same run, record for record
        again = run_shard(clone)
        assert again.result == outcome.result
