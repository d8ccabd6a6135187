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

The two flows with k = 4 are also provided in closed form:

    gamma1:  R^{ij} = sum d^3 P^{ij}/dx_k dx_l dx_m *
                      dP^{kk'}/dx_{l'} * dP^{ll'}/dx_{m'} * dP^{mm'}/dx_{k'}

    gamma2:  R^{im} = sum d^2 P^{ij}/dx_k dx_l * d^2 P^{km}/dx_{k'} dx_{l'} *
                      dP^{k'l}/dx_{m'} * dP^{m'l'}/dx_j

(inner sums over all repeated indices 1..n).  The gamma1 matrix is
antisymmetric by construction; the gamma2 matrix generally is not and may
have a nonzero diagonal.  The graph encodings GAMMA1_GRAPH / GAMMA2_GRAPH
evaluate to exactly these closed forms (covered by tests, not assumed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .multivector import (
    MultiVector,
    RawMatrix,
    bivector_from_raw,
    first_derivatives,
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


class _MatrixDerivatives:
    """Memoized iterated derivatives of a bi-vector's full matrix entries.

    Keys are (a, b, ds) with ds an ascending tuple of derivative indices;
    cache entries share prefixes, so each derivative is computed once.
    """

    def __init__(self, p: MultiVector):
        self.p = p
        self.cache: dict = {}

    def get(self, a: int, b: int, ds: tuple) -> Polynomial:
        key = (a, b, ds)
        val = self.cache.get(key)
        if val is None:
            if ds:
                val = self.get(a, b, ds[:-1]).diff(ds[-1])
            else:
                val = self.p.entry(a, b)
            self.cache[key] = val
        return val


def evaluate_kgraph(g: KGraph, p: MultiVector) -> FlowResult:
    """Evaluate the polydifferential operator of a graph on a bi-vector.

    Sums over all assignments of an index 1..n to every edge the product,
    over internal vertices, of the vertex's derivative factor; the pair of
    sink indices addresses the raw output matrix.  Assignments are pruned as
    soon as any completed factor vanishes.
    """
    if p.degree != 2:
        raise ValueError("expected a bi-vector (degree 2)")
    ctx = p.ctx
    n = ctx.dim
    k = g.n_internal

    # Edge ids: 2*(v-1) + side for vertex v, side 0 = L / 1 = R.
    tails = [e // 2 + 1 for e in range(2 * k)]
    in_edges: list = [[] for _ in range(k + 1)]
    sink_edges = {1: [], 2: []}
    for e in range(2 * k):
        kind, idx = g.edges[e // 2][e % 2]
        if kind == "S":
            sink_edges[idx].append(e)
        else:
            in_edges[idx].append(e)
    for s in (1, 2):
        if len(sink_edges[s]) != 1:
            raise GraphStructureError(
                f"sink {s} has in-degree {len(sink_edges[s])}; "
                "evaluation needs exactly one edge into each sink"
            )
    s1_edge = sink_edges[1][0]
    s2_edge = sink_edges[2][0]

    # Static assignment order over vertices, chosen greedily so that vertex
    # factors complete (and prune) as early as possible.
    order: list = []
    placed: set = set()
    pending = set(range(1, k + 1))

    def completes_with(v, have):
        return [
            w
            for w in range(1, k + 1)
            if w not in placed_factors
            and (w in have or w == v)
            and all(tails[e] in have or tails[e] == v for e in in_edges[w])
        ]

    placed_factors: set = set()
    completes_at: list = []
    while pending:
        best = max(
            sorted(pending),
            key=lambda v: len(completes_with(v, placed | {v})),
        )
        pending.discard(best)
        placed.add(best)
        done = completes_with(best, placed)
        placed_factors.update(done)
        order.append(best)
        completes_at.append(done)

    derivs = _MatrixDerivatives(p)
    sums: dict = {}  # (sink-1 index, sink-2 index) -> term dict
    idx = [0] * (2 * k)
    indices = range(1, n + 1)

    def assign(step: int, product: Polynomial):
        v = order[step]
        el, er = 2 * (v - 1), 2 * (v - 1) + 1
        ready = completes_at[step]
        last = step == k - 1  # every edge, the sink edges too, is set here
        for a in indices:
            idx[el] = a
            for b in indices:
                idx[er] = b
                factors = []
                for w in ready:
                    ew = 2 * (w - 1)
                    ds = tuple(sorted(idx[e] for e in in_edges[w]))
                    factor = derivs.get(idx[ew], idx[ew + 1], ds)
                    if factor.is_zero:
                        break
                    factors.append(factor)
                else:
                    prod = product
                    if last:
                        # The last vertex's own factor always completes here.
                        for factor in factors[:-1]:
                            prod = prod * factor
                        key = (idx[s1_edge], idx[s2_edge])
                        addmul(sums.setdefault(key, {}), prod, factors[-1])
                    else:
                        for factor in factors:
                            prod = prod * factor
                        assign(step + 1, prod)

    assign(0, Polynomial.one(ctx))
    zero = Polynomial.zero(ctx)
    result = [[zero for _ in range(n)] for _ in range(n)]
    for (a, b), acc in sums.items():
        result[a - 1][b - 1] = finish(ctx, acc)
    raw = RawMatrix(ctx, result)
    return FlowResult(raw, bivector_from_raw(raw))


def gamma1(p: MultiVector) -> FlowResult:
    """First tetrahedral flow, closed form; the raw matrix is antisymmetric."""
    if p.degree != 2:
        raise ValueError("expected a bi-vector (degree 2)")
    ctx = p.ctx
    n = ctx.dim
    d1 = first_derivatives(p)
    by_s2: dict = {}
    by_s2_deriv: dict = {}
    for (a, b, c), poly in d1.items():
        by_s2.setdefault(b, []).append((a, c, poly))
        by_s2_deriv.setdefault((b, c), []).append((a, poly))

    # t1[(k,l,m)] = sum_{k',l',m'} dP^{kk'}/dx_{l'} dP^{ll'}/dx_{m'} dP^{mm'}/dx_{k'},
    # summed over the permutations of (k,l,m) and keyed by the sorted triple:
    # the third derivative it multiplies is symmetric in k, l, m.
    t1: dict = {}
    for (k, k1, l1), p1 in d1.items():
        for (l, m1, p2) in by_s2.get(l1, ()):
            p12 = p1 * p2
            for (m, p3) in by_s2_deriv.get((m1, k1), ()):
                addmul(t1.setdefault(tuple(sorted((k, l, m))), {}), p12, p3)
    t1 = {key: finish(ctx, acc) for key, acc in t1.items()}

    zero = Polynomial.zero(ctx)
    result = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pij = p.entry(i, j)
            if pij.is_zero:
                continue
            acc: dict = {}
            for k in range(1, n + 1):
                pk = pij.diff(k)
                if pk.is_zero:
                    continue
                for l in range(k, n + 1):
                    pkl = pk.diff(l)
                    if pkl.is_zero:
                        continue
                    for m in range(l, n + 1):
                        t = t1.get((k, l, m))
                        if t is not None:
                            addmul(acc, pkl.diff(m), t)
            entry = finish(ctx, acc)
            if not entry.is_zero:
                result[i - 1][j - 1] = entry
                result[j - 1][i - 1] = -entry
    raw = RawMatrix(ctx, result)
    return FlowResult(raw, bivector_from_raw(raw))


def gamma2(p: MultiVector) -> FlowResult:
    """Second tetrahedral flow, closed form; the raw matrix is generally not
    antisymmetric and may have a nonzero diagonal."""
    if p.degree != 2:
        raise ValueError("expected a bi-vector (degree 2)")
    ctx = p.ctx
    n = ctx.dim
    d1 = first_derivatives(p)
    by_s1: dict = {}
    for (a, b, c), poly in d1.items():
        by_s1.setdefault(a, []).append((b, c, poly))

    # Second derivatives of the full matrix, over ordered index pairs.
    d2: dict = {}
    d2_second: dict = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            pab = p.entry(a, b)
            if pab.is_zero:
                continue
            for c in range(1, n + 1):
                pc = pab.diff(c)
                if pc.is_zero:
                    continue
                for d in range(c, n + 1):
                    pcd = pc.diff(d)
                    if pcd.is_zero:
                        continue
                    for cc, dd in {(c, d), (d, c)}:
                        d2.setdefault((a, b), {})[(cc, dd)] = pcd
                        d2_second.setdefault((a, b, dd), []).append((cc, pcd))

    # w[(k',l,l',j)] = sum_{m'} dP^{k'l}/dx_{m'} * dP^{m'l'}/dx_j
    w: dict = {}
    for (k1, l, m1), p3 in d1.items():
        for (l2, j, p4) in by_s1.get(m1, ()):
            addmul(w.setdefault((k1, l, l2, j), {}), p3, p4)

    # y[(i,k,k',l')] = sum_{j,l} d2P^{ij}/dx_k dx_l * w[(k',l,l',j)]
    y: dict = {}
    for (k1, l, l2, j), acc in w.items():
        wval = finish(ctx, acc)
        for a in range(1, n + 1):
            for (k, p1) in d2_second.get((a, j, l), ()):
                addmul(y.setdefault((a, k, k1, l2), {}), p1, wval)

    out: dict = {}
    for (a, k, k1, l2), acc in y.items():
        yval = finish(ctx, acc)
        for m in range(1, n + 1):
            p2 = d2.get((k, m), {}).get((k1, l2))
            if p2 is not None:
                addmul(out.setdefault((a, m), {}), yval, p2)
    zero = Polynomial.zero(ctx)
    result = [[zero for _ in range(n)] for _ in range(n)]
    for (a, m), acc in out.items():
        result[a - 1][m - 1] = finish(ctx, acc)
    raw = RawMatrix(ctx, result)
    return FlowResult(raw, bivector_from_raw(raw))


def balanced_flow(p: MultiVector, a, b) -> MultiVector:
    """The combination a * gamma1(P).skew + b * gamma2(P).skew."""
    return mv_linear_combination([(a, gamma1(p).skew), (b, gamma2(p).skew)])


# The tetrahedron encodings matching the closed forms (tested equal), the
# single-wedge graph encoding the bi-vector itself, and the graph that
# vanishes for every skew input by the symmetry of its double loops.
GAMMA1_GRAPH = parse_kgraph("4; (S1,S2) (V1,V4) (V1,V2) (V1,V3)")
GAMMA2_GRAPH = parse_kgraph("4; (S1,V4) (V1,S2) (V2,V1) (V3,V2)")
WEDGE_GRAPH = parse_kgraph("1; (S1,S2)")
SKEW_VANISHING_GRAPH = parse_kgraph("4; (S1,S2) (V1,V4) (V1,V4) (V2,V3)")
