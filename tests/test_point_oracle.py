"""Index sums at integer points as an oracle for the flows in dims 6 and 8.

The naive graph oracle runs in dims 3-5 and the sympy one in dims 3 and 4.
Here the raw matrices of gamma1 and gamma2, their skew parts read alone,
the 1:6 balanced flow and the bracket [[P, gamma2(P)]] on builtin rows 1,
3-6, 10 and 11, on row 10 with a rational phi and on the flows benchmark's
dim-8 and dim-6 inputs, and a weighted
sum of the two flows on row 3 and dim 8, are evaluated at
seeded integer points and compared, entry by entry, with
``helpers.point_oracle``: the graphs' index sums at those points, built from
the edge tuples and ``numpy.einsum``.  Agreement at random points is a
Schwartz-Zippel check, in exact ints and Fractions.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from tetraflows._kgraph import graph_sum
from tetraflows.analysis import FLAG_NAMES, builtin_rows
from tetraflows.generators import VanhaeckeSpec, build_bivector
from tetraflows.graphflow import GAMMA1_GRAPH, GAMMA2_GRAPH, balanced_flow, gamma1, gamma2, parse_kgraph
from tetraflows.multivector import schouten
from tetraflows.polyring import Context, Polynomial

from helpers import SKEW_VANISHING_GRAPH, naive_graph_tensor, point_oracle, random_bivector, value_at

pytest.importorskip("numpy")

ROWS = {f"row {rid}": (spec, dict(zip(FLAG_NAMES, flags))) for rid, _, spec, flags in builtin_rows()}
INPUTS = {
    "row 11": ROWS["row 11"][0],
    # a determinant bracket whose entries are all one term: its flows multiply one term by one term only
    "row 3": ROWS["row 3"][0],
    # with row 3, the rows where gamma1's first step is halved under its rotation and runs fewer products
    **{name: ROWS[name][0] for name in ("row 1", "row 4", "row 5", "row 6", "row 10")},
    # row 10 with phi = x^3*y^3 / 3: a rational P0, read through its integral form 3 * P0
    "row 10 phi/3": VanhaeckeSpec(2, [(3, 3, Fraction(1, 3))]),
    "dim 8": VanhaeckeSpec(4, [(2, 1, 1)]),  # the flows workload's Vanhaecke d=4, phi=x^2*y
    "dim 6": VanhaeckeSpec(3, [(3, 1, 1)]),  # and d=3, phi=x^3*y
}


# Q = P1 + 6*P2 is exactly zero on these rows (the grid's q_zero flag): rows 4 and 5.
Q_ZERO = {name for name, (_, flags) in ROWS.items() if flags["q_zero"]}


def _points(rng, n, count):
    return [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(count)]


def test_point_oracle_matches_naive_evaluation():
    # The oracle against full iteration on small graphs in dim 3: two and
    # three sinks, a vertex with three in-edges, a two-edge loop, a double
    # edge and a graph that vanishes on every skew input, with two
    # bi-vectors assigned at random.
    rng = random.Random(61)
    ctx = Context(3)
    graphs = [
        GAMMA1_GRAPH,
        GAMMA2_GRAPH,
        SKEW_VANISHING_GRAPH,
        parse_kgraph("2; (S1,S2) (V1,S3)"),
        parse_kgraph("3; (S1,V3) (V3,V3) (V2,S2)"),
        parse_kgraph("3; (S1,V2) (V3,S2) (V2,S3)"),
    ]
    nonzero = 0
    for graph in graphs:
        pq = [random_bivector(rng, ctx, max_terms=3, max_degree=4) for _ in range(2)]
        ps = tuple(rng.choice(pq) for _ in range(graph.n_internal))
        naive = naive_graph_tensor(graph, ps)
        for x in _points(rng, 3, 2):
            got = point_oracle(graph, ps, x)
            for key in product(range(1, 4), repeat=got.ndim):
                want = value_at(naive[key], x) if key in naive else 0
                assert got[tuple(i - 1 for i in key)] == want, (graph, x, key)
                nonzero += want != 0
    assert nonzero


@pytest.mark.parametrize("name", INPUTS)
def test_flows_and_the_balanced_flow_match_the_point_oracle(name):
    # gamma1 and gamma2 raw and balanced_flow(P, 1, 6), whose (a, b) entry
    # is (M1 - M1^T) / 2 + 6 (M2 - M2^T) / 2 of the two raw matrices, at 3
    # seeded points; some entries are nonzero there, so the check bites,
    # except that the balanced flow vanishes at every point on the q_zero rows.
    p = build_bivector(INPUTS[name])
    n = p.ctx.dim
    raws = gamma1(p).raw, gamma2(p).raw
    balanced = balanced_flow(p, 1, 6)
    nonzero = [0, 0, 0]
    for x in _points(random.Random(62), n, 3):
        m1, m2 = (point_oracle(g, (p,) * 4, x) for g in (GAMMA1_GRAPH, GAMMA2_GRAPH))
        for a, b in product(range(n), repeat=2):
            for at, (raw, m) in enumerate(zip(raws, (m1, m2))):
                assert value_at(raw.entry(a + 1, b + 1), x) == m[a, b], (name, x, at, a, b)
                nonzero[at] += m[a, b] != 0
            want = Fraction(m1[a, b] - m1[b, a], 2) + 6 * Fraction(m2[a, b] - m2[b, a], 2)
            assert value_at(balanced.entry(a + 1, b + 1), x) == want, (name, x, a, b)
            nonzero[2] += want != 0
    assert nonzero[0] and nonzero[1] and bool(nonzero[2]) != (name in Q_ZERO), nonzero


# The bracket graph of the multivector docstring: d_l P^{ij} Q^{lk}.
BRACKET_GRAPH = parse_kgraph("2; (S1,S2) (V1,S3)")


@pytest.mark.parametrize("name", INPUTS)
def test_skew_parts_and_the_bracket_match_the_point_oracle(name):
    # gamma1(P).skew and gamma2(P).skew each read alone, which runs the skew
    # graph sum, not the raw matrix: entry (a, b) is (M - M^T) / 2 of the
    # oracle's raw matrix M.  And [[P, Q]] for Q = gamma2(P).skew: entry
    # (i, j, k) is the cyclic sum of R_PQ + R_QP, R_PQ the oracle's bracket
    # graph with P on V1 and Q on V2.  At 3 seeded points, some entries of
    # each nonzero.
    p = build_bivector(INPUTS[name])
    n = p.ctx.dim
    skews = gamma1(p).skew, gamma2(p).skew
    q = skews[1]
    bracket = schouten(p, q)
    zero = Polynomial.zero(p.ctx)
    nonzero = [0, 0, 0]
    for x in _points(random.Random(63), n, 3):
        for at, (graph, skew) in enumerate(zip((GAMMA1_GRAPH, GAMMA2_GRAPH), skews)):
            m = point_oracle(graph, (p,) * 4, x)
            for a, b in combinations(range(n), 2):
                want = Fraction(m[a, b] - m[b, a], 2)
                assert value_at(skew.entry(a + 1, b + 1), x) == want, (name, x, at, a, b)
                nonzero[at] += want != 0
        r = point_oracle(BRACKET_GRAPH, (p, q), x) + point_oracle(BRACKET_GRAPH, (q, p), x)
        for i, j, k in combinations(range(n), 3):
            want = r[i, j, k] + r[j, k, i] + r[k, i, j]
            got = value_at(bracket.comps.get((i + 1, j + 1, k + 1), zero), x)
            assert got == want, (name, x, i, j, k)
            nonzero[2] += want != 0
    assert all(nonzero), nonzero


@pytest.mark.parametrize("name", ["row 3", "dim 8"])
def test_a_weighted_sum_of_the_flows_matches_the_point_oracle(name):
    # graph_sum of 2 * gamma1 - 5/3 * gamma2, raw and skew, run after both
    # flows on the same P, so that it reads the derivative tables stored on
    # P.  gamma1's vertex holding both sinks is taken for a < b only, so
    # the raw sum's (a, b) entry is 2 M1^{ab} [a < b] - 5/3 M2^{ab}, and the
    # skew sum's, for a < b, 2 M1^{ab} - 5/3 (M2^{ab} - M2^{ba}), M1 and M2
    # the oracle's raw matrices.  At 3 seeded points, some entries nonzero.
    p = build_bivector(INPUTS[name])
    n = p.ctx.dim
    gamma1(p).raw, gamma2(p).raw
    combination = [(2, GAMMA1_GRAPH), (Fraction(-5, 3), GAMMA2_GRAPH)]
    raw, skew = (graph_sum(combination, [(p,) * 4], skew=s) for s in (False, True))
    zero = Polynomial.zero(p.ctx)
    nonzero = [0, 0]
    for x in _points(random.Random(64), n, 3):
        m1, m2 = (point_oracle(g, (p,) * 4, x) for g in (GAMMA1_GRAPH, GAMMA2_GRAPH))
        for a, b in product(range(n), repeat=2):
            want = 2 * m1[a, b] * (a < b) + Fraction(-5, 3) * m2[a, b]
            assert value_at(raw.get((a + 1, b + 1), zero), x) == want, (name, x, a, b)
            nonzero[0] += want != 0
            if a < b:
                want = 2 * m1[a, b] + Fraction(-5, 3) * (m2[a, b] - m2[b, a])
                assert value_at(skew.get((a + 1, b + 1), zero), x) == want, (name, x, a, b)
                nonzero[1] += want != 0
    assert all(nonzero), nonzero
