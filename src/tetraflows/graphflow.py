"""Two-sink graph encodings of polydifferential operators and the two
tetrahedral flows on bi-vectors.

Graphs (sinks S1..Sm, one bi-vector per vertex) and the one contraction
engine for every graph sum live in ``_kgraph``.  Here every vertex carries
the same bi-vector P, and the edges into S1 and S2 carry the two free
indices of the raw coefficient matrix, whose antisymmetrization is the
encoded bi-vector.

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

from fractions import Fraction
from functools import cached_property
from itertools import combinations

from ._kgraph import (
    GraphParseError,
    GraphStructureError,
    KGraph,
    check_sum,
    graph_sum,
    parse_kgraph,
    render_kgraph,
)
from .multivector import MultiVector, RawMatrix
from .polyring import Polynomial, _norm_coeff, _quotient

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
]


class FlowResult:
    """A two-sink graph on a bi-vector: the full coefficient matrix ``raw``
    and its skew part ``skew``, each evaluated on its first read and kept.
    ``skew`` read first is the skew graph sum, which runs no product for the
    diagonal; read after ``raw``, it is read off the raw matrix."""

    def __init__(self, g: KGraph, p: MultiVector):
        self._graph, self._p = g, p

    @cached_property
    def raw(self) -> RawMatrix:
        """Entry (a, b): the graph with index a into S1 and b into S2."""
        ctx = self._p.ctx
        zero = Polynomial.zero(ctx)
        result = [[zero] * ctx.dim for _ in range(ctx.dim)]
        for (a, b), poly in graph_sum(self._graph, [(self._p,) * self._graph.n_internal]).items():
            result[a - 1][b - 1] = poly
            if _paired(self._graph):  # graph_sum leaves out the mirror entries
                result[b - 1][a - 1] = -poly
        return RawMatrix(ctx, result)

    @cached_property
    def skew(self) -> MultiVector:
        """The upper triangle of ``raw`` when a vertex holds both sinks (the
        matrix is then antisymmetric), else (M^{ab} - M^{ba}) / 2."""
        if "raw" not in self.__dict__:
            return _skew_sum([(1, self._graph)], self._p)
        entry, ctx = self.raw.entry, self._p.ctx
        # (M^{ab} - M^{ba}) / 2 is also the upper triangle of an antisymmetric M
        pairs = combinations(range(1, ctx.dim + 1), 2)
        return MultiVector(ctx, 2, {(a, b): _quotient(ctx, (entry(a, b) - entry(b, a)).terms, 2) for a, b in pairs})


def _paired(g: KGraph) -> bool:
    """Whether one vertex of g holds both sinks."""
    return any(l[0] == r[0] == "S" for l, r in g.edges)


def _skew_sum(combination: list, p: MultiVector) -> MultiVector:
    """sum_i w_i * (the skew part of graph g_i on P) over the (w_i, g_i) of
    ``combination``, as one skew graph sum.  The skew sum of a graph whose
    sinks sit on one vertex is that skew part; of any other graph it is
    M^{ab} - M^{ba}, twice the skew part, so its weight is halved."""
    halved = [(w if _paired(g) else Fraction(_norm_coeff(w), 2), g) for w, g in combination]
    most = max(g.n_internal for _, g in combination)
    return MultiVector(p.ctx, 2, graph_sum(halved, [(p,) * most], skew=True))


def evaluate_kgraph(g: KGraph, p: MultiVector) -> FlowResult:
    """Evaluate the polydifferential operator of a two-sink graph on a bi-vector.

    Entry (a, b) of the raw matrix is the graph with P on every vertex,
    index a on the edge into S1 and b on the edge into S2; its
    antisymmetrization is the skew part.  The graph and the bi-vector are
    checked here; the products run when a part of the result is first read.
    """
    if {t for pair in g.edges for t in pair if t[0] == "S"} != {("S", 1), ("S", 2)}:
        raise GraphStructureError("flow evaluation needs exactly the two sinks S1 and S2")
    check_sum(g, [(p,) * g.n_internal])
    return FlowResult(g, p)


def gamma1(p: MultiVector) -> FlowResult:
    """First tetrahedral flow; its raw matrix is antisymmetric."""
    return evaluate_kgraph(GAMMA1_GRAPH, p)


def gamma2(p: MultiVector) -> FlowResult:
    """Second tetrahedral flow; its raw matrix is generally not
    antisymmetric and may have a nonzero diagonal."""
    return evaluate_kgraph(GAMMA2_GRAPH, p)


def balanced_flow(p: MultiVector, a, b) -> MultiVector:
    """The combination a * gamma1(P).skew + b * gamma2(P).skew, as one skew
    graph sum: 1:6 runs with the integer weights (1, 3)."""
    return _skew_sum([(a, GAMMA1_GRAPH), (b, GAMMA2_GRAPH)], p)


# The two tetrahedra of the module docstring.
GAMMA1_GRAPH = parse_kgraph("4; (S1,S2) (V1,V4) (V1,V2) (V1,V3)")
GAMMA2_GRAPH = parse_kgraph("4; (S1,V4) (V1,S2) (V2,V1) (V3,V2)")
