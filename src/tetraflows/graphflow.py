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

from dataclasses import dataclass

from ._kgraph import (
    GraphParseError,
    GraphStructureError,
    KGraph,
    graph_sum,
    parse_kgraph,
    render_kgraph,
)
from .multivector import MultiVector, RawMatrix, bivector_from_raw, mv_linear_combination
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
    "SKEW_VANISHING_GRAPH",
    "WEDGE_GRAPH",
]


@dataclass(frozen=True)
class FlowResult:
    """A graph/flow evaluation: full coefficient matrix plus its skew part."""

    raw: RawMatrix
    skew: MultiVector


def evaluate_kgraph(g: KGraph, p: MultiVector) -> FlowResult:
    """Evaluate the polydifferential operator of a two-sink graph on a bi-vector.

    Entry (a, b) of the raw matrix is the graph with P on every vertex,
    index a on the edge into S1 and b on the edge into S2.  A vertex holding
    both sinks makes the matrix antisymmetric.
    """
    if {t for pair in g.edges for t in pair if t[0] == "S"} != {("S", 1), ("S", 2)}:
        raise GraphStructureError("flow evaluation needs exactly the two sinks S1 and S2")
    paired = any(l[0] == r[0] == "S" for l, r in g.edges)
    n = p.ctx.dim
    zero = Polynomial.zero(p.ctx)
    result = [[zero] * n for _ in range(n)]
    for (a, b), poly in graph_sum(g, [(p,) * g.n_internal]).items():
        result[a - 1][b - 1] = poly
        if paired:  # graph_sum leaves out the mirror entries
            result[b - 1][a - 1] = -poly
    raw = RawMatrix(p.ctx, result)
    return FlowResult(raw, bivector_from_raw(raw))


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
