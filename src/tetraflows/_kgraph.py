"""Oriented graphs with sinks, their text encoding, and the one contraction
engine behind every graph sum: the flows and the Schouten bracket.

A graph has sinks S1..Sm and k >= 1 internal vertices; every internal vertex
carries a bi-vector of its own and issues an ordered pair (L, R) of edges.
Each edge carries a summation index 1..n; an edge into a vertex applies the
corresponding partial derivative to that vertex's bi-vector, and the L/R
out-edges of a vertex pick its first/second superscript.  The edge into
each sink carries a free index of the resulting tensor.

Text encoding: ``"<k>; (t,t) (t,t) ..."`` with one ordered target pair per
internal vertex; a target is ``S<i>`` or ``V<idx>``.  Tadpoles
(self-loops) are rejected; double edges and two-edge loops are allowed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from operator import itemgetter

from .polyring import ContextMismatchError, Polynomial, addmul, finish


class GraphParseError(ValueError):
    """Graph text does not conform to the grammar."""


class GraphStructureError(ValueError):
    """Graph violates a structural invariant (tadpole, bad target, bad sinks)."""


@dataclass(frozen=True)
class KGraph:
    """Oriented graph: sinks, n_internal vertices with ordered out-pairs."""

    n_internal: int
    edges: tuple  # edges[v-1] = (left_target, right_target)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(pair) for pair in self.edges))
        if self.n_internal < 1:
            raise GraphStructureError("need at least one internal vertex")
        if len(self.edges) != self.n_internal:
            raise GraphStructureError(
                f"expected {self.n_internal} target pairs, got {len(self.edges)}"
            )
        for v, pair in enumerate(self.edges, start=1):
            if len(pair) != 2:
                raise GraphStructureError(f"vertex {v} must have exactly 2 out-edges")
            for t in pair:
                kind, idx = t
                if kind == "S" and idx >= 1:
                    continue
                if kind != "V" or not 1 <= idx <= self.n_internal:
                    raise GraphStructureError(f"bad edge target {t!r} at vertex {v}")
                if idx == v:
                    raise GraphStructureError(f"tadpole at vertex {v}")


_PAIR = re.compile(r"\(\s*([SV]\d+)\s*,\s*([SV]\d+)\s*\)")


def parse_kgraph(text: str) -> KGraph:
    """Parse ``"<k>; (t,t) (t,t) ..."`` into a validated KGraph."""
    head, sep, body = text.partition(";")
    if not sep:
        raise GraphParseError("missing ';' after the vertex count")
    try:
        k = int(head.strip())
    except ValueError:
        raise GraphParseError(f"bad vertex count {head.strip()!r}") from None
    pairs = []
    pos = 0
    while pos < len(body):
        if body[pos].isspace():
            pos += 1
            continue
        m = _PAIR.match(body, pos)
        if m is None:
            raise GraphParseError(f"bad target pair near {body[pos : pos + 20]!r}")
        pairs.append(tuple((tok[0], int(tok[1:])) for tok in m.groups()))
        pos = m.end()
    if len(pairs) != k:
        raise GraphParseError(f"declared {k} vertices but found {len(pairs)} pairs")
    return KGraph(k, tuple(pairs))


def render_kgraph(g: KGraph) -> str:
    def t(target):
        kind, idx = target
        return f"{kind}{idx}"

    body = " ".join(f"({t(l)},{t(r)})" for l, r in g.edges)
    return f"{g.n_internal}; {body}"


def derivative_tensor(p, m: int, mirrored: bool) -> dict:
    """Nonzero m-th derivatives of a bi-vector's matrix, a < b unless mirrored.

    Keys are (a, b, c1, ..., cm) with c1 <= ... <= cm, values the nonzero
    d^m P^{ab} / dx_{c1} ... dx_{cm}; derivatives commute, so every other
    order of the c's has the same value.
    """
    n = p.ctx.dim
    table = dict(p.comps)
    for step in range(m):
        table = {
            key + (c,): d
            for key, poly in table.items()
            for c in range(key[-1] if step else 1, n + 1)
            if (d := poly.diff(c))
        }
    if mirrored:
        table.update({(key[1], key[0]) + key[2:]: -poly for key, poly in table.items()})
    return table


def graph_sum(g: KGraph, assignments: list, skew: bool = False) -> dict:
    """Sum of a graph's evaluations over assignments of bi-vectors to it.

    An assignment is a tuple of bi-vectors, one per vertex, vertex 1 first.
    The result is {(index into S1, ..., index into Sm): nonzero polynomial}.
    With ``skew`` a product goes to the key of its sorted sink indices,
    negated when the sort is an odd permutation, or is dropped when a sink
    index repeats.

    A vertex holding two sinks is taken only for a < b on its out-edges:
    the entries with a > b are the negations and are left out, so with
    ``skew`` the pair counts once.

    Every vertex is a sparse tensor over its edges (L, R, in-edges): {index
    tuple: derivative of P^{LR} along the in-edge indices}.  Tensors are
    contracted pairwise along shared edges (see ``_next_pair``), and the
    products of the last step go straight into the result.  Derivatives
    commute: a vertex whose in-edges (two or more) all meet its partner in
    one step is enumerated over ascending indices on them, after the
    partner is summed onto ascending indices on those edges.
    """
    k = g.n_internal
    in_edges: dict = {v: [] for v in range(1, k + 1)}
    sink_edges: dict = {}
    for e in range(2 * k):
        kind, idx = g.edges[e // 2][e % 2]
        (sink_edges if kind == "S" else in_edges).setdefault(idx, []).append(e)
    m = max(sink_edges, default=0)
    for s in range(1, m + 1):
        if len(sink_edges.get(s, ())) != 1:
            raise GraphStructureError(
                f"sink {s} has in-degree {len(sink_edges.get(s, ()))}; "
                "evaluation needs exactly one edge into each sink"
            )
    sinks = [sink_edges[s][0] for s in range(1, m + 1)]
    paired = [v for v, (l, r) in enumerate(g.edges, start=1) if l[0] == r[0] == "S"]
    ctx = assignments[0][0].ctx
    for p in (p for ps in assignments for p in ps):
        if p.degree != 2:
            raise ValueError("expected a bi-vector (degree 2)")
        if p.ctx != ctx:
            raise ContextMismatchError("bi-vectors from different contexts")

    derivs: dict = {}  # (id(p), m, mirrored) -> derivative_tensor(p, m, mirrored)

    def vertex_tensor(p, v: int, ascending: bool) -> dict:
        m = len(in_edges[v])
        which = (id(p), m, v not in paired)
        if which not in derivs:
            derivs[which] = derivative_tensor(p, m, v not in paired)
        table = derivs[which]
        if ascending or m < 2:
            return table
        return {
            key[:2] + cs: poly
            for key, poly in table.items()
            for cs in set(permutations(key[2:]))
        }

    plus: dict = {}  # result key -> term dict
    minus: dict = {}  # result key -> term dict of odd sorts, subtracted at the end

    def sink_slot(key: tuple):
        placed = _sort_sign(key) if skew else (key, 0)
        if placed:
            return (minus if placed[1] else plus).setdefault(placed[0], {})

    for ps in assignments:
        # Operands are (edges, tensor); a vertex stays its number until a step
        # picks its expansion.  A lone vertex is contracted with the unit tensor.
        operands = [((2 * v - 2, 2 * v - 1, *in_edges[v]), v) for v in range(1, k + 1)]
        if k == 1:
            operands.append(((), {(): Polynomial.one(ctx)}))
        while len(operands) > 1:
            i, j = _next_pair(operands)
            (eb, tb), (ea, ta) = operands.pop(j), operands.pop(i)
            shared = set(ea) & set(eb)
            if isinstance(tb, int) and len(eb) > 3 and set(eb[2:]) <= shared:
                (ea, ta), (eb, tb) = (eb, tb), (ea, ta)
            ascending = isinstance(ta, int) and len(ea) > 3 and set(ea[2:]) <= shared
            if isinstance(ta, int):
                ta = vertex_tensor(ps[ta - 1], ta, ascending)
            if isinstance(tb, int):
                tb = vertex_tensor(ps[tb - 1], tb, False)
            if ascending:
                tb = _fold(tb, [eb.index(e) for e in ea[2:]])
            edges = tuple(e for e in ea + eb if e not in shared)
            if operands:
                acc = _contract(ea, ta, eb, tb, lambda key: {})
                tensor = {key: poly for key, terms in acc.items() if (poly := finish(ctx, terms))}
                operands.append((edges, tensor))
            else:
                pick = _picker([edges.index(e) for e in sinks])
                _contract(ea, ta, eb, tb, lambda key: sink_slot(pick(key)))

    for key, terms in minus.items():
        acc = plus.setdefault(key, {})
        for mono, c in terms.items():
            acc[mono] = acc.get(mono, 0) - c
    return {key: poly for key, terms in plus.items() if (poly := finish(ctx, terms))}


@cache
def _sort_sign(key: tuple):
    """(sorted key, parity of the sort), or None when an index repeats."""
    if len(set(key)) == len(key):
        return tuple(sorted(key)), sum(a > b for a, b in combinations(key, 2)) % 2


def _next_pair(operands: list) -> tuple:
    """Positions (i < j) of the pair to contract next.

    The pair sharing an edge whose result has the fewest edges, the first
    such pair on a tie; a pair sharing no edge only when no other is left.
    """

    def rank(pair):
        ea, eb = (set(operands[at][0]) for at in pair)
        return not ea & eb, len(ea ^ eb)

    return min(combinations(range(len(operands)), 2), key=rank)


def _picker(positions: list):
    """The function taking an index tuple to its entries at ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (at,) = positions
        return lambda key: (key[at],)
    return lambda key: ()


def _fold(tensor: dict, positions: list) -> dict:
    """Sum a tensor onto ascending indices at ``positions``."""
    pick = _picker(positions)
    groups: dict = {}
    for key, poly in tensor.items():
        key = list(key)
        for at, c in zip(positions, sorted(pick(key))):
            key[at] = c
        groups.setdefault(tuple(key), []).append(poly)
    out = {}
    for key, polys in groups.items():
        if len(polys) == 1:
            out[key] = polys[0]
            continue
        acc = dict(polys[0].terms)
        for poly in polys[1:]:
            for mono, c in poly.terms.items():
                acc[mono] = acc.get(mono, 0) + c
        total = finish(polys[0].ctx, acc)
        if total:
            out[key] = total
    return out


def _contract(ea: tuple, ta: dict, eb: tuple, tb: dict, slot) -> dict:
    """Add the contraction of two tensors along their shared edges into term
    dicts, one per key over the free edges (a's, then b's): ``slot(key)``
    gives the dict at the key's first product, or None to drop the key.
    Returns {key: term dict or None}.
    """
    shared = [e for e in ea if e in eb]
    link_a = _picker([ea.index(e) for e in shared])
    link_b = _picker([eb.index(e) for e in shared])
    rest_a = _picker([at for at, e in enumerate(ea) if e not in eb])
    rest_b = _picker([at for at, e in enumerate(eb) if e not in ea])
    groups: dict = {}
    for key, poly in tb.items():
        groups.setdefault(link_b(key), []).append((rest_b(key), poly))
    slots: dict = {}
    for key, pa in ta.items():
        head = rest_a(key)
        for tail, pb in groups.get(link_a(key), ()):
            full = head + tail
            if full not in slots:
                slots[full] = slot(full)
            terms = slots[full]
            if terms is not None:
                addmul(terms, pa, pb)
    return slots
