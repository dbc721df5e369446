"""Text formats for graphs, digraphs and spectra.

Graph files are line records:  `graph <name>` / `vertices <N>` /
`edge <id> <tail> <head> <length> <weight> <class>`, the class one of
`polygon`, `tooth` and `plain`; digraph files use `digraph <name>` /
`vertices <N>` / `arc <tail> <head>`.  `#` starts a comment; numbers are
decimal literals.
"""

from __future__ import annotations

import math

from .graphs import PLAIN, POLYGON, TOOTH, Digraph, Edge, GraphError, MetricGraph


class FormatError(GraphError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _records_to_text(header: str, g, records) -> str:
    return "\n".join([f"{header} {g.name}", f"vertices {g.vertex_count}", *records]) + "\n"


def graph_to_text(g: MetricGraph) -> str:
    return _records_to_text("graph", g, (f"edge {e.id} {e.tail} {e.head} {_fmt(e.length)} "
                                         f"{_fmt(e.weight)} {e.cls}" for e in g.edges))


def digraph_to_text(g: Digraph) -> str:
    return _records_to_text("digraph", g, (f"arc {t} {h}" for t, h in g.arcs))


def _edge_class(cls: str) -> str:
    if cls not in (POLYGON, TOOTH, PLAIN):
        raise FormatError(f"unknown edge class '{cls}'")
    return cls


def _read_records(text: str, header: str, record: str, layout: tuple) -> tuple:
    """(name, vertex count, records) of a file of `header <name>`,
    `vertices <N>` and `record` lines; ``layout`` parses a record's fields,
    every line has exactly the fields of its layout, and the two header
    records appear once each."""
    layouts = {header: (str,), "vertices": (int,), record: layout}
    found = {kind: [] for kind in layouts}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        kind, fields = words[0], words[1:]
        if kind not in layouts:
            raise FormatError(f"line {lineno}: unknown record '{kind}'")
        if len(fields) != len(layouts[kind]):
            raise FormatError(f"line {lineno}: malformed record")
        if kind != record and found[kind]:
            raise FormatError(f"line {lineno}: duplicate '{kind}' record")
        try:
            found[kind].append(tuple(parse(x) for parse, x in zip(layouts[kind], fields)))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise FormatError(f"line {lineno}: malformed record") from exc
    if not (found[header] and found["vertices"]):
        raise FormatError(f"missing {header}/vertices header")
    return found[header][0][0], found["vertices"][0][0], found[record]


def graph_from_text(text: str) -> MetricGraph:
    name, vertices, edges = _read_records(text, "graph", "edge",
                                          (int, int, int, float, float, _edge_class))
    return MetricGraph(vertices, tuple(Edge(*edge) for edge in edges), name)


def digraph_from_text(text: str) -> Digraph:
    name, vertices, arcs = _read_records(text, "digraph", "arc", (int, int))
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
