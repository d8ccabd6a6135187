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

from ._kgraph import (
    GraphParseError,
    GraphStructureError,
    KGraph,
    check_sum,
    graph_sum,
    parse_kgraph,
    render_kgraph,
)
from .multivector import MultiVector, RawMatrix, mv_linear_combination
from .polyring import Polynomial

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
        self._graph, self._assignments, self._ctx = g, [(p,) * g.n_internal], p.ctx
        self._paired = any(l[0] == r[0] == "S" for l, r in g.edges)

    @cached_property
    def raw(self) -> RawMatrix:
        """Entry (a, b): the graph with index a into S1 and b into S2."""
        n = self._ctx.dim
        zero = Polynomial.zero(self._ctx)
        result = [[zero] * n for _ in range(n)]
        for (a, b), poly in graph_sum(self._graph, self._assignments).items():
            result[a - 1][b - 1] = poly
            if self._paired:  # graph_sum leaves out the mirror entries
                result[b - 1][a - 1] = -poly
        return RawMatrix(self._ctx, result)

    @cached_property
    def skew(self) -> MultiVector:
        """The upper triangle of ``raw`` when a vertex holds both sinks (the
        matrix is then antisymmetric), else (M^{ab} - M^{ba}) / 2."""
        if "raw" in self.__dict__:
            entry, n = self.raw.entry, self._ctx.dim
            comps = {
                (a, b): entry(a, b) if self._paired else entry(a, b) - entry(b, a)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
            }
        else:
            comps = graph_sum(self._graph, self._assignments, skew=True)
        skew = MultiVector(self._ctx, 2, comps)
        return skew if self._paired else skew.scale(Fraction(1, 2))


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
    """The combination a * gamma1(P).skew + b * gamma2(P).skew."""
    return mv_linear_combination([(a, gamma1(p).skew), (b, gamma2(p).skew)])


# The two tetrahedra of the module docstring.
GAMMA1_GRAPH = parse_kgraph("4; (S1,S2) (V1,V4) (V1,V2) (V1,V3)")
GAMMA2_GRAPH = parse_kgraph("4; (S1,V4) (V1,S2) (V2,V1) (V3,V2)")
