"""Graphviz DOT export of marked graphs."""

from __future__ import annotations

from repro.petri.marked_graph import MarkedGraph


def _quote(name: str) -> str:
    return '"' + name.replace('"', r'\"') + '"'


def marked_graph_to_dot(graph: MarkedGraph) -> str:
    """Render a marked graph in the compact edge form used by the paper's
    figures: transitions as nodes, places as edges with token dots."""
    lines = [f"digraph {_quote(graph.name)} {{", "  rankdir=LR;"]
    for transition in graph.transitions.values():
        label = transition.label or transition.name
        lines.append(f"  {_quote(transition.name)} "
                     f"[shape=plaintext, label={_quote(label)}];")
    for edge in graph.edges():
        marks = " &bull;" * edge.tokens
        attrs = [f"label={_quote(marks.strip())}"] if edge.tokens else []
        if edge.delay:
            attrs.append(f"taillabel={_quote(f'{edge.delay:.0f}ps')}")
        attr_text = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quote(edge.source)} -> "
                     f"{_quote(edge.target)}{attr_text};")
    lines.append("}")
    return "\n".join(lines)
