"""DOT export for complexes and link graphs."""

from __future__ import annotations

from .complexes import PreComplex
from .links import LinkGraph


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot_complex(c: PreComplex) -> str:
    """The 1-skeleton as a digraph, edges labeled by id, in stored order."""
    lines = ["digraph complex {"]
    for v in c.vertices:
        lines.append(f"  {_quote(v)};")
    for e, (tail, head) in c.edges.items():
        lines.append(f"  {_quote(tail)} -> {_quote(head)} [label={_quote(e)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot_link(lg: LinkGraph) -> str:
    """A link graph as an undirected graph; edges carry the face id and
    traversal index of the corner they came from."""
    lines = ["graph " + _quote(f"link_{lg.center}") + " {"]
    labels = lg.vertex_labels()
    for label in labels:
        lines.append(f"  {_quote(label)};")
    uw = lg.dart_vertex
    for label, u, w in zip(lg.edge_labels(), uw[::2], uw[1::2]):
        lines.append(f"  {_quote(labels[u])} -- {_quote(labels[w])} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
