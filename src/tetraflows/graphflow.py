"""Oriented graph encodings of polydifferential operators and the two
tetrahedral flows on bi-vectors.

A graph has two sinks and k >= 1 internal vertices; every internal vertex
carries a copy of the bi-vector and issues an ordered pair (L, R) of edges.
Each edge carries a summation index 1..n; an edge into a vertex applies the
corresponding partial derivative to that vertex's bi-vector copy, and the L/R
out-edges of a vertex pick the first/second superscript of its copy.  The
edges into the sinks carry the two free indices of the resulting raw
coefficient matrix, whose antisymmetrization is the encoded bi-vector.

Text encoding: ``"<k>; (t,t) (t,t) ..."`` with one ordered target pair per
internal vertex; a target is ``S1``, ``S2`` or ``V<idx>``.  Tadpoles
(self-loops) are rejected; double edges and two-edge loops are allowed.

The two tetrahedral flows are the k = 4 graphs GAMMA1_GRAPH and
GAMMA2_GRAPH; they encode

    gamma1:  R^{ij} = sum d^3 P^{ij}/dx_k dx_l dx_m *
                      dP^{kk'}/dx_{l'} * dP^{ll'}/dx_{m'} * dP^{mm'}/dx_{k'}

    gamma2:  R^{im} = sum d^2 P^{ij}/dx_k dx_l * d^2 P^{km}/dx_{k'} dx_{l'} *
                      dP^{k'l}/dx_{m'} * dP^{m'l'}/dx_j

(inner sums over all repeated indices 1..n).  The gamma1 matrix is
antisymmetric by construction; the gamma2 matrix generally is not and may
have a nonzero diagonal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, permutations
from operator import itemgetter

from .multivector import (
    MultiVector,
    RawMatrix,
    bivector_from_raw,
    derivative_tensor,
    mv_linear_combination,
)
from .polyring import Polynomial, addmul, finish

__all__ = [
    "GraphParseError",
    "GraphStructureError",
    "KGraph",
    "FlowResult",
    "parse_kgraph",
    "render_kgraph",
    "evaluate_kgraph",
    "gamma1",
    "gamma2",
    "balanced_flow",
    "GAMMA1_GRAPH",
    "GAMMA2_GRAPH",
    "SKEW_VANISHING_GRAPH",
    "WEDGE_GRAPH",
]


class GraphParseError(ValueError):
    """Graph text does not conform to the grammar."""


class GraphStructureError(ValueError):
    """Graph violates a structural invariant (tadpole, bad target, bad sinks)."""


SINK1 = ("S", 1)
SINK2 = ("S", 2)


@dataclass(frozen=True)
class KGraph:
    """Oriented graph: two sinks, n_internal vertices with ordered out-pairs."""

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
                if t in (SINK1, SINK2):
                    continue
                kind, idx = t
                if kind != "V" or not 1 <= idx <= self.n_internal:
                    raise GraphStructureError(f"bad edge target {t!r} at vertex {v}")
                if idx == v:
                    raise GraphStructureError(f"tadpole at vertex {v}")

    def with_sinks_swapped(self) -> "KGraph":
        swap = {SINK1: SINK2, SINK2: SINK1}
        return KGraph(
            self.n_internal,
            tuple((swap.get(l, l), swap.get(r, r)) for l, r in self.edges),
        )


_PAIR = re.compile(r"\(\s*(S[12]|V\d+)\s*,\s*(S[12]|V\d+)\s*\)")


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
        pairs.append((_target(m.group(1)), _target(m.group(2))))
        pos = m.end()
    if len(pairs) != k:
        raise GraphParseError(f"declared {k} vertices but found {len(pairs)} pairs")
    return KGraph(k, tuple(pairs))


def _target(tok: str) -> tuple:
    if tok == "S1":
        return SINK1
    if tok == "S2":
        return SINK2
    return ("V", int(tok[1:]))


def render_kgraph(g: KGraph) -> str:
    def t(target):
        kind, idx = target
        return f"{kind}{idx}"

    body = " ".join(f"({t(l)},{t(r)})" for l, r in g.edges)
    return f"{g.n_internal}; {body}"


@dataclass(frozen=True)
class FlowResult:
    """A graph/flow evaluation: full coefficient matrix plus its skew part."""

    raw: RawMatrix
    skew: MultiVector


def evaluate_kgraph(g: KGraph, p: MultiVector) -> FlowResult:
    """Evaluate the polydifferential operator of a graph on a bi-vector.

    Every internal vertex is a sparse tensor over its edges (L, R, in-edges):
    {index tuple: derivative of P^{LR} along the in-edge indices}.  Tensors
    are contracted pairwise along shared edges, each step taking the pair
    whose result has the fewest edges (a pair without a shared edge only
    when no other is left), until one tensor over the two sink edges remains:
    the raw matrix.

    Derivatives commute: a vertex whose in-edges (two or more) all meet its
    partner in one step is enumerated over ascending indices on them, and
    the partner is first summed onto ascending indices on those edges.  A
    vertex holding both sink edges is contracted last and only for a < b;
    the mirror entry is its negation, so that raw matrix is antisymmetric.
    """
    if p.degree != 2:
        raise ValueError("expected a bi-vector (degree 2)")
    ctx = p.ctx
    n = ctx.dim
    k = g.n_internal

    # Edge 2*(v-1) + side leaves vertex v, side 0 = L / 1 = R.
    in_edges: dict = {v: [] for v in range(1, k + 1)}
    sink_edges: dict = {1: [], 2: []}
    for e in range(2 * k):
        kind, idx = g.edges[e // 2][e % 2]
        (sink_edges if kind == "S" else in_edges)[idx].append(e)
    for s in (1, 2):
        if len(sink_edges[s]) != 1:
            raise GraphStructureError(
                f"sink {s} has in-degree {len(sink_edges[s])}; "
                "evaluation needs exactly one edge into each sink"
            )
    (s1,), (s2,) = sink_edges[1], sink_edges[2]
    skew_vertex = s1 // 2 + 1 if s1 // 2 == s2 // 2 else None

    derivs: dict = {}  # m -> derivative_tensor(p, m)

    def vertex_tensor(v: int, ascending: bool) -> dict:
        m = len(in_edges[v])
        if m not in derivs:
            derivs[m] = derivative_tensor(p, m)
        table = derivs[m]
        if v == skew_vertex:
            table = {key: poly for key, poly in table.items() if key[0] < key[1]}
        if ascending or m < 2:
            return table
        return {
            key[:2] + cs: poly
            for key, poly in table.items()
            for cs in set(permutations(key[2:]))
        }

    # Operands are (edges, tensor); a vertex not expanded yet has its number
    # as tensor, so that its expansion can depend on the step that uses it.
    operands = [((2 * v - 2, 2 * v - 1, *in_edges[v]), v) for v in range(1, k + 1)]
    while len(operands) > 1:
        i, j = _next_pair(operands, skew_vertex)
        (eb, tb), (ea, ta) = operands.pop(j), operands.pop(i)
        shared = set(ea) & set(eb)
        if isinstance(tb, int) and len(eb) > 3 and set(eb[2:]) <= shared:
            (ea, ta), (eb, tb) = (eb, tb), (ea, ta)
        ascending = isinstance(ta, int) and len(ea) > 3 and set(ea[2:]) <= shared
        if isinstance(ta, int):
            ta = vertex_tensor(ta, ascending)
        if isinstance(tb, int):
            tb = vertex_tensor(tb, False)
        if ascending:
            tb = _fold(tb, [eb.index(e) for e in ea[2:]])
        operands.append(_contract(ctx, ea, ta, eb, tb))

    edges, tensor = operands[0]
    if isinstance(tensor, int):  # a single vertex
        tensor = vertex_tensor(tensor, False)
    zero = Polynomial.zero(ctx)
    result = [[zero] * n for _ in range(n)]
    at1, at2 = edges.index(s1), edges.index(s2)
    for key, poly in tensor.items():
        a, b = key[at1], key[at2]
        result[a - 1][b - 1] = poly
        if skew_vertex is not None:
            result[b - 1][a - 1] = -poly
    raw = RawMatrix(ctx, result)
    return FlowResult(raw, bivector_from_raw(raw))


def _next_pair(operands: list, skew_vertex) -> tuple:
    """Positions (i < j) of the pair to contract next.

    The pair sharing an edge whose result has the fewest edges, the first
    such pair on a tie; a pair sharing no edge only when no other is left.
    The vertex holding both sinks waits until it is one of the last two.
    """
    best = None
    for i, j in combinations(range(len(operands)), 2):
        (ea, ta), (eb, tb) = operands[i], operands[j]
        if len(operands) > 2 and skew_vertex in (ta, tb):
            continue
        rank = (not set(ea) & set(eb), len(set(ea) ^ set(eb)))
        if best is None or rank < best[0]:
            best = (rank, i, j)
    return best[1], best[2]


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


def _contract(ctx, ea: tuple, ta: dict, eb: tuple, tb: dict) -> tuple:
    """Contract two tensors along their shared edges: (edges, tensor)."""
    shared = [e for e in ea if e in eb]
    free_a = [at for at, e in enumerate(ea) if e not in eb]
    free_b = [at for at, e in enumerate(eb) if e not in ea]
    link_a = _picker([ea.index(e) for e in shared])
    link_b = _picker([eb.index(e) for e in shared])
    rest_a, rest_b = _picker(free_a), _picker(free_b)
    groups: dict = {}
    for key, poly in tb.items():
        groups.setdefault(link_b(key), []).append((rest_b(key), poly))
    acc: dict = {}
    for key, pa in ta.items():
        head = rest_a(key)
        for tail, pb in groups.get(link_a(key), ()):
            addmul(acc.setdefault(head + tail, {}), pa, pb)
    out = {}
    for key, terms in acc.items():
        poly = finish(ctx, terms)
        if poly:
            out[key] = poly
    edges = tuple(ea[at] for at in free_a) + tuple(eb[at] for at in free_b)
    return edges, out


def gamma1(p: MultiVector) -> FlowResult:
    """First tetrahedral flow; its raw matrix is antisymmetric."""
    return evaluate_kgraph(GAMMA1_GRAPH, p)


def gamma2(p: MultiVector) -> FlowResult:
    """Second tetrahedral flow; its raw matrix is generally not
    antisymmetric and may have a nonzero diagonal."""
    return evaluate_kgraph(GAMMA2_GRAPH, p)


def balanced_flow(p: MultiVector, a, b) -> MultiVector:
    """The combination a * gamma1(P).skew + b * gamma2(P).skew."""
    return mv_linear_combination([(a, gamma1(p).skew), (b, gamma2(p).skew)])


# The two tetrahedra of the module docstring, the single-wedge graph encoding
# the bi-vector itself, and the graph that vanishes for every skew input by
# the symmetry of its double loops.
GAMMA1_GRAPH = parse_kgraph("4; (S1,S2) (V1,V4) (V1,V2) (V1,V3)")
GAMMA2_GRAPH = parse_kgraph("4; (S1,V4) (V1,S2) (V2,V1) (V3,V2)")
WEDGE_GRAPH = parse_kgraph("1; (S1,S2)")
SKEW_VANISHING_GRAPH = parse_kgraph("4; (S1,S2) (V1,V4) (V1,V4) (V2,V3)")
