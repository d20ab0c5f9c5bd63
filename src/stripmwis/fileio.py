"""The line rules of every input file, and the graph format.

Every input file (graph, strip decomposition, tree decomposition,
decomposer outcome) skips blank lines and lines starting with "c"; any
other line is a list of whitespace-separated tokens, the first naming
its kind.  `records` yields these lines and `fields` reads the integers
of one.  A malformed, duplicate or misplaced line raises a ParseError
with its line number; a count the lines do not match raises one without.

Graph format: a header "p <n> <m>"; then n lines "v <id> <weight>" with
ids 1..n; then m lines "e <u> <v>".  The writer emits vertex lines with
ascending ids and edges in lexicographic order.  Vertex labels of a
parsed graph are the 1-based file ids.
"""

from __future__ import annotations

from .errors import ParseError
from .graph import WeightedGraph


def records(text: str):
    """(line number, tokens) for every line that is neither blank nor a
    comment; line numbers are 1-based."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("c"):
            yield lineno, tokens


def fields(lineno, tokens, form: str) -> list:
    """The integer fields of a line that must read `form`, such as
    'e <u> <v>', in order.  A `<...>` token of the form takes one integer
    and a '...' token a list of distinct integers, running up to the next
    token of the form; every other token must appear as written."""
    spec = form.split()
    out = []
    i = 0
    try:
        for k, s in enumerate(spec):
            if s == "...":
                j = tokens.index(spec[k + 1], i) if k + 1 < len(spec) else len(tokens)
                items = [int(tok) for tok in tokens[i:j]]
                if len(set(items)) < len(items):
                    raise ParseError("an integer repeats within a list", lineno)
                out.append(items)
                i = j
            elif s[0] == "<":
                out.append(int(tokens[i]))
                i += 1
            elif tokens[i] == s:
                i += 1
            else:
                raise ValueError
        if i == len(tokens):
            return out
    except (IndexError, ValueError):
        pass
    raise ParseError(f"line must read '{form}'", lineno)


_GRAPH_FORMS = {"v": "v <id> <weight>", "e": "e <u> <v>"}


def read_graph(text: str) -> WeightedGraph:
    n = m = None
    weights = {}
    edges = {}
    # The two integers of a vertex or edge line are parsed inline: this is
    # the one reader on the benchmark's set-up path.
    for lineno, parts in records(text):
        kind = parts[0]
        if kind == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            n, m = fields(lineno, parts, "p <n> <m>")
            if n < 0 or m < 0:
                raise ParseError("negative counts in header", lineno)
            continue
        if kind not in _GRAPH_FORMS:
            raise ParseError(f"unknown line kind {kind!r}", lineno)
        if n is None:
            raise ParseError(f"'{kind}' line before the 'p' header", lineno)
        try:
            _, a, b = parts
            a, b = int(a), int(b)
        except ValueError:
            raise ParseError(f"line must read '{_GRAPH_FORMS[kind]}'", lineno) from None
        if kind == "v":
            if not 1 <= a <= n:
                raise ParseError(f"vertex id {a} out of range 1..{n}", lineno)
            if a in weights:
                raise ParseError(f"duplicate vertex line for id {a}", lineno)
            if b < 0:
                raise ParseError("negative vertex weight", lineno)
            weights[a] = b
        else:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ParseError(f"edge endpoint out of range 1..{n}", lineno)
            if a == b:
                raise ParseError("self-loop", lineno)
            key = frozenset((a, b))
            if key in edges:
                raise ParseError(f"duplicate edge {a} {b}", lineno)
            edges[key] = (a, b)
    if n is None:
        raise ParseError("missing 'p' header")
    if len(weights) != n:
        raise ParseError(f"expected {n} vertex lines, found {len(weights)}")
    if len(edges) != m:
        raise ParseError(f"expected {m} edge lines, found {len(edges)}")
    labels = list(range(1, n + 1))
    return WeightedGraph(labels, [weights[i] for i in labels], edges.values())


def write_graph(G: WeightedGraph, comments=()) -> str:
    """Canonical text form; vertices are renumbered 1..n in current order."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p {G.n} {G.edge_count()}")
    for i in range(G.n):
        lines.append(f"v {i + 1} {G.weights[i]}")
    for u, v in sorted(G.edges_ids()):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
