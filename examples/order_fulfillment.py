#!/usr/bin/env python3
"""Order fulfilment with compensation, on both schedulers.

A payment transaction, a compensatable inventory reservation, and a
shipping task, wired with the paper's primitives: implication for
triggering, precedence for ordering, and a compensation dependency for
the failure path.  The script compares the distributed scheduler with
the centralized residuation baseline on the same runs, showing the
message/bottleneck trade-off of Section 6.  The automata baseline of
[2] runs the centralized procedure, so it adds only the size of the
automata that scheduler walks.

Run:  python examples/order_fulfillment.py
"""

from repro.scheduler import CentralizedScheduler, DistributedScheduler
from repro.scheduler.automata import automata_size
from repro.workloads.scenarios import make_order_fulfillment

SCHEDULERS = [
    ("distributed (guards)", DistributedScheduler, {}),
    ("centralized (residuation)", CentralizedScheduler,
     {"decision_service_time": 0.2}),
]


def run_path(pay_clears: bool) -> None:
    scenario = make_order_fulfillment(pay_clears)
    print(f"\n=== {scenario.description} ===")
    for label, cls, kwargs in SCHEDULERS:
        workflow = scenario.workflow
        sched = cls(
            workflow.dependencies,
            sites=workflow.sites,
            attributes=workflow.attributes,
            **kwargs,
        )
        result = sched.run(scenario.scripts)
        positive = [
            en.event.name for en in result.entries if not en.event.negated
        ]
        print(f"  {label}:")
        print(f"    events: {' -> '.join(positive)}")
        print(
            f"    ok={result.ok}  makespan={result.makespan:.1f}"
            f"  messages={result.messages}"
            f"  busiest_site={result.max_site_load}"
        )
        if cls is CentralizedScheduler:
            states, transitions = automata_size(workflow.dependencies)
            print(
                f"    precompiled automata (the baseline of [2]):"
                f" {states} states, {transitions} transitions"
            )


def main() -> None:
    run_path(pay_clears=True)
    run_path(pay_clears=False)
    print(
        "\nNote the shape: the distributed scheduler sends more messages"
        "\nbut spreads them across sites; the centralized baselines do"
        "\nless messaging yet funnel every decision through one node."
    )


if __name__ == "__main__":
    main()
