"""Rendering: DOT graphs and text reports for specs, automata, runs.

Purely presentational -- nothing here affects scheduling.  DOT output
renders with Graphviz (``dot -Tpng``); the text renderers target
terminals and logs.
"""

from __future__ import annotations

from repro.algebra.expressions import Expr
from repro.algebra.normal_form import to_normal_form
from repro.algebra.symbols import Event
from repro.scheduler.events import ExecutionResult
from repro.temporal.guards import ResidualAutomaton
from repro.workflows.spec import Workflow


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def automaton_to_dot(automaton: ResidualAutomaton, title: str = "") -> str:
    """Render a dependency automaton (Figure 2 style, minimized) as DOT."""
    lines = ["digraph dependency {", "  rankdir=LR;"]
    if title:
        lines.append(f'  label="{_dot_escape(title)}";')
    table = automaton.minimized()
    index = {state: i for i, state in enumerate(table)}
    for state, i in index.items():
        label = _dot_escape(repr(state))
        shape = "doublecircle" if automaton.accepting(state) else "circle"
        if automaton.dead(state):
            shape = "octagon"
        marker = ' style=bold' if state is automaton.root else ""
        lines.append(f'  s{i} [label="{label}" shape={shape}{marker}];')
    # merge parallel edges by (src, dst)
    grouped: dict[tuple[int, int], list[str]] = {}
    for src, row in table.items():
        for event, dst in sorted(row.items(), key=lambda kv: repr(kv[0])):
            if src is dst:
                continue  # foreign/self loops clutter the figure
            grouped.setdefault((index[src], index[dst]), []).append(repr(event))
    for (src, dst), labels in grouped.items():
        label = _dot_escape(", ".join(labels))
        lines.append(f'  s{src} -> s{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def workflow_to_dot(workflow: Workflow) -> str:
    """Render a workflow's event/dependency structure as DOT.

    Events are nodes (clustered by site when placements exist);
    each dependency becomes a labelled hyper-edge node connected to
    the bases it mentions.
    """
    lines = ["digraph workflow {", "  rankdir=LR;", "  node [fontsize=10];"]
    lines.append(f'  label="{_dot_escape(workflow.name)}";')
    by_site: dict[str, list[Event]] = {}
    for base in sorted(workflow.bases(), key=Event.sort_key):
        site = workflow.sites.get(base, "")
        by_site.setdefault(site, []).append(base)
    for i, (site, bases) in enumerate(sorted(by_site.items())):
        if site:
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append(f'    label="{_dot_escape(site)}";')
        for base in bases:
            attrs = workflow.attributes.get(base)
            style = ""
            if attrs is not None and attrs.triggerable:
                style = " style=filled fillcolor=lightblue"
            if attrs is not None and attrs.guaranteed:
                style = " style=filled fillcolor=lightyellow"
            lines.append(
                f'    "{_dot_escape(repr(base))}" [shape=ellipse{style}];'
            )
        if site:
            lines.append("  }")
    for i, dep in enumerate(workflow.dependencies):
        label = _dot_escape(repr(dep))
        lines.append(f'  d{i} [shape=box label="{label}" fontsize=9];')
        for base in sorted(dep.bases(), key=Event.sort_key):
            lines.append(f'  d{i} -> "{_dot_escape(repr(base))}" [dir=none];')
    lines.append("}")
    return "\n".join(lines)


def result_to_text(result: ExecutionResult, width: int = 60) -> str:
    """An ASCII timeline of a run: one row per settled event."""
    if not result.entries:
        return "(no events settled)"
    horizon = max(result.makespan, max(e.time for e in result.entries), 1.0)
    lines = []
    for entry in result.entries:
        start = int(entry.attempted_at / horizon * (width - 1))
        end = max(int(entry.time / horizon * (width - 1)), start)
        row = [" "] * width
        for k in range(start, end):
            row[k] = "-"  # parked / in flight
        row[end] = "*"  # occurrence
        lines.append(f"{repr(entry.event):>14} |{''.join(row)}|")
    lines.append(f"{'':>14} 0{'':{width - 2}}t={horizon:.1f}")
    stats = (
        f"messages={result.messages} parked={result.parked_total}"
        f" promises={result.promises_granted}"
        f" triggered={result.triggered} ok={result.ok}"
    )
    lines.append(stats)
    return "\n".join(lines)


def guards_to_text(guards: dict[Event, object]) -> str:
    """A table of per-event guards (the compiler's main output)."""
    lines = []
    width = max((len(repr(e)) for e in guards), default=0)
    for event in sorted(guards, key=Event.sort_key):
        lines.append(f"G({repr(event):>{width}}) = {guards[event]!r}")
    return "\n".join(lines)


def dependency_to_dot(dependency: Expr, title: str = "") -> str:
    """Shorthand: residual automaton of one dependency as DOT."""
    return automaton_to_dot(
        ResidualAutomaton(to_normal_form(dependency)),
        title or repr(dependency),
    )


def message_sequence_text(
    journal: list[tuple[float, float, str, str, str]],
    limit: int = 40,
) -> str:
    """Render a network journal as a message-sequence listing.

    One line per delivered message: send time, arrow between sites,
    and message kind.  ``limit`` truncates long runs (the count of
    omitted messages is appended).
    """
    if not journal:
        return "(no messages)"
    lines = []
    for sent, delivered, src, dst, kind in journal[:limit]:
        if src == dst:
            lines.append(f"t={sent:7.2f}  {src} (local {kind})")
        else:
            lines.append(
                f"t={sent:7.2f}  {src} --{kind}--> {dst} (arrives {delivered:.2f})"
            )
    omitted = len(journal) - limit
    if omitted > 0:
        lines.append(f"... {omitted} more messages")
    return "\n".join(lines)


_MASK_PHRASES = {
    1: "{e} has occurred",
    2: "{e} can no longer occur",
    3: "{e} has settled (either way)",
    4: "{e} is still pending and will occur",
    5: "{e} is guaranteed to occur",
    6: "{e} can no longer occur, or is pending-and-coming",
    7: "{e} has settled or is guaranteed",
    8: "{e} is still pending and will never occur",
    9: "{e} has occurred, or is pending-and-doomed",
    10: "{e} is guaranteed never to occur",
    11: "{e} has occurred or will never occur",
    12: "{e} has not settled yet",
    13: "{e} will not be precluded (no complement yet)",
    14: "{e} has not occurred yet",
    15: "anything about {e}",
}


def explain_guard(guard) -> str:
    """A plain-English reading of a cube guard.

    >>> from repro.temporal.guards import guard as g
    >>> from repro.algebra.parser import parse
    >>> from repro.algebra.symbols import Event
    >>> explain_guard(g(parse("~e + ~f + e . f"), Event("e")))
    'f has not occurred yet'
    """
    if guard.is_true:
        return "always allowed"
    if guard.is_false:
        return "never allowed"
    clauses = []
    for cube in guard.sorted_cubes():
        parts = [
            _MASK_PHRASES[mask].format(e=repr(base)) for base, mask in cube
        ]
        clauses.append(" and ".join(parts))
    if len(clauses) == 1:
        return clauses[0]
    return "; or ".join(clauses)
