"""A small text format for workflow specifications.

The paper assumes a front-end notation translated into the algebra
(Section 3); this loader provides a file format so workflows can be
shipped, versioned, and fed to the CLI:

.. code-block:: text

    # travel booking (Example 4)
    workflow travel
    dep  ~s_buy + s_book
    dep  ~c_buy + c_book . c_buy
    dep  ~c_book + c_buy + s_cancel
    attr s_book   triggerable
    attr s_cancel triggerable
    site airline     s_buy c_buy
    site car_rental  s_book c_book s_cancel

Directives:

* ``workflow NAME`` -- optional, names the workflow (default: the stem);
* ``dep EXPRESSION`` -- one dependency in the concrete syntax;
* ``attr EVENT FLAG...`` -- flags: ``triggerable``, ``guaranteed``,
  ``nonrejectable``, ``manual`` (no automatic complement settlement);
* ``site NAME EVENT...`` -- place events' agents at a network site;
* ``#`` starts a comment; blank lines are ignored.
"""

from __future__ import annotations

from pathlib import Path

from repro.algebra.parser import parse
from repro.algebra.symbols import Event
from repro.scheduler.events import EventAttributes
from repro.workflows.spec import Workflow


class SpecError(ValueError):
    """Raised for malformed workflow spec files."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


_KNOWN_FLAGS = {"triggerable", "guaranteed", "nonrejectable", "manual"}


def loads(text: str, default_name: str = "workflow") -> Workflow:
    """Parse a workflow spec from a string."""
    workflow = Workflow(default_name)
    flags: dict[Event, set[str]] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, _, rest = line.partition(" ")
        rest = rest.strip()
        if directive == "workflow":
            if not rest:
                raise SpecError(line_number, "workflow needs a name")
            workflow.name = rest
        elif directive == "dep":
            try:
                workflow.add(parse(rest))
            except ValueError as exc:
                raise SpecError(line_number, f"bad dependency: {exc}") from exc
        elif directive == "attr":
            parts = rest.split()
            if len(parts) < 2:
                raise SpecError(line_number, "attr needs an event and flags")
            event = _parse_event(parts[0], line_number)
            for flag in parts[1:]:
                if flag not in _KNOWN_FLAGS:
                    raise SpecError(line_number, f"unknown flag: {flag}")
                flags.setdefault(event.base, set()).add(flag)
        elif directive == "site":
            parts = rest.split()
            if len(parts) < 2:
                raise SpecError(line_number, "site needs a name and events")
            site = parts[0]
            for name in parts[1:]:
                workflow.place(_parse_event(name, line_number), site)
        else:
            raise SpecError(line_number, f"unknown directive: {directive}")
    for base, flag_set in flags.items():
        workflow.attributes[base] = EventAttributes(
            triggerable="triggerable" in flag_set,
            guaranteed="guaranteed" in flag_set,
            rejectable="nonrejectable" not in flag_set,
            auto_complement="manual" not in flag_set,
        )
    return workflow


def _parse_event(text: str, line_number: int) -> Event:
    try:
        expr = parse(text)
    except ValueError as exc:
        raise SpecError(line_number, f"bad event: {text!r}") from exc
    from repro.algebra.expressions import Atom

    if not isinstance(expr, Atom):
        raise SpecError(line_number, f"expected a single event, got {text!r}")
    return expr.event


def load(path: str | Path) -> Workflow:
    """Load a workflow spec from a file."""
    path = Path(path)
    return loads(path.read_text(), default_name=path.stem)


def dumps(workflow: Workflow) -> str:
    """Serialize a workflow back to the spec format (round-trippable)."""
    lines = [f"workflow {workflow.name}"]
    for dep in workflow.dependencies:
        lines.append(f"dep {dep!r}")
    for base, attrs in sorted(
        workflow.attributes.items(), key=lambda kv: kv[0].sort_key()
    ):
        flag_words = []
        if attrs.triggerable:
            flag_words.append("triggerable")
        if attrs.guaranteed:
            flag_words.append("guaranteed")
        if not attrs.rejectable:
            flag_words.append("nonrejectable")
        if not attrs.auto_complement:
            flag_words.append("manual")
        if flag_words:
            lines.append(f"attr {base!r} {' '.join(flag_words)}")
    by_site: dict[str, list[Event]] = {}
    for base, site in workflow.sites.items():
        by_site.setdefault(site, []).append(base)
    for site, bases in sorted(by_site.items()):
        names = " ".join(repr(b) for b in sorted(bases, key=Event.sort_key))
        lines.append(f"site {site} {names}")
    return "\n".join(lines) + "\n"
