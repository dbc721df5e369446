"""Text formats for graphs, digraphs and spectra.

Graph files are line records:  `graph <name>` / `vertices <N>` /
`edge <id> <tail> <head> <length> <weight> <class>`; digraph files use
`digraph <name>` / `vertices <N>` / `arc <tail> <head>`.  `#` starts a
comment; numbers are decimal literals.
"""

from __future__ import annotations

import math

from .graphs import Digraph, Edge, GraphError, MetricGraph


class FormatError(GraphError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def graph_to_text(g: MetricGraph) -> str:
    lines = [f"graph {g.name}", f"vertices {g.vertex_count}"]
    for e in g.edges:
        lines.append(f"edge {e.id} {e.tail} {e.head} {_fmt(e.length)} {_fmt(e.weight)} {e.cls}")
    return "\n".join(lines) + "\n"


def digraph_to_text(g: Digraph) -> str:
    lines = [f"digraph {g.name}", f"vertices {g.vertex_count}"]
    for t, h in g.arcs:
        lines.append(f"arc {t} {h}")
    return "\n".join(lines) + "\n"


def _records(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def graph_from_text(text: str) -> MetricGraph:
    name = None
    vertices = None
    edges = []
    for lineno, parts in _records(text):
        kind = parts[0]
        try:
            if kind == "graph":
                name = parts[1]
            elif kind == "vertices":
                vertices = int(parts[1])
            elif kind == "edge":
                eid, tail, head = int(parts[1]), int(parts[2]), int(parts[3])
                length, weight = float(parts[4]), float(parts[5])
                edges.append(Edge(eid, tail, head, length, weight, parts[6]))
            else:
                raise FormatError(f"line {lineno}: unknown record '{kind}'")
        except (IndexError, ValueError) as exc:
            raise FormatError(f"line {lineno}: malformed record") from exc
    if name is None or vertices is None:
        raise FormatError("missing graph/vertices header")
    return MetricGraph(vertices, tuple(edges), name)


def digraph_from_text(text: str) -> Digraph:
    name = None
    vertices = None
    arcs = []
    for lineno, parts in _records(text):
        kind = parts[0]
        try:
            if kind == "digraph":
                name = parts[1]
            elif kind == "vertices":
                vertices = int(parts[1])
            elif kind == "arc":
                arcs.append((int(parts[1]), int(parts[2])))
            else:
                raise FormatError(f"line {lineno}: unknown record '{kind}'")
        except (IndexError, ValueError) as exc:
            raise FormatError(f"line {lineno}: malformed record") from exc
    if name is None or vertices is None:
        raise FormatError("missing digraph/vertices header")
    return Digraph(vertices, tuple(arcs), name)


def write_graph(g: MetricGraph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(g))


def read_graph(path) -> MetricGraph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_text(fh.read())


def write_digraph(g: Digraph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(digraph_to_text(g))


def read_digraph(path) -> Digraph:
    with open(path, encoding="utf-8") as fh:
        return digraph_from_text(fh.read())


def spectrum_to_csv(spectrum) -> str:
    lines = ["k,lambda,multiplicity"]
    for lam, mult in spectrum.entries:
        lines.append(f"{_fmt(math.sqrt(lam))},{_fmt(lam)},{mult}")
    return "\n".join(lines) + "\n"
