import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

import tetraflows._kgraph as kgraph_module
from tetraflows._kgraph import graph_sum
from tetraflows.graphflow import (
    GAMMA1_GRAPH,
    GAMMA2_GRAPH,
    SKEW_VANISHING_GRAPH,
    WEDGE_GRAPH,
    GraphParseError,
    GraphStructureError,
    KGraph,
    balanced_flow,
    evaluate_kgraph,
    gamma1,
    gamma2,
    parse_kgraph,
    render_kgraph,
)
from tetraflows.multivector import MultiVector, RawMatrix, is_poisson, jacobiator, schouten
from tetraflows.polyring import Context, Polynomial

from example4d import P1_UPPER, P2_RAW, P2_SKEW, ctx4, p0, parse4
from helpers import (
    brute_gamma1_raw,
    brute_gamma2_raw,
    naive_evaluate_kgraph_raw,
    naive_graph_tensor,
    random_bivector,
)


# -- parsing and validation -------------------------------------------------


def test_parse_render_roundtrip():
    for text in (
        "1; (S1,S2)",
        "4; (S1,S2) (V1,V4) (V1,V2) (V1,V3)",
        "4; (S1,V4) (V1,S2) (V2,V1) (V3,V2)",
        "4; (S1,S2) (V1,V4) (V1,V4) (V2,V3)",
    ):
        g = parse_kgraph(text)
        assert render_kgraph(g) == text
        assert parse_kgraph(render_kgraph(g)) == g


def test_parse_accepts_loose_whitespace():
    assert parse_kgraph(" 2 ;  ( S1 , S2 )   (V1,S1) ") == KGraph(
        2, ((("S", 1), ("S", 2)), (("V", 1), ("S", 1)))
    )


def test_parse_rejects_bad_input():
    with pytest.raises(GraphParseError):
        parse_kgraph("nope")
    with pytest.raises(GraphParseError):
        parse_kgraph("2; (S1,S2)")  # declared two vertices, one pair
    with pytest.raises(GraphParseError):
        parse_kgraph("1; (S1 S2)")
    with pytest.raises(GraphStructureError):
        parse_kgraph("1; (V1,S1)")  # tadpole
    with pytest.raises(GraphStructureError):
        parse_kgraph("1; (V2,S1)")  # dangling vertex index


def test_double_edges_and_two_edge_loops_allowed():
    assert parse_kgraph("2; (V2,V2) (S1,S2)").n_internal == 2
    assert parse_kgraph("2; (V2,S1) (V1,S2)").n_internal == 2


def test_evaluation_requires_single_edge_per_sink():
    bad = parse_kgraph("2; (S1,S1) (S2,S2)")
    with pytest.raises(GraphStructureError):
        evaluate_kgraph(bad, p0())


def test_flow_evaluation_requires_exactly_two_sinks():
    # A raw matrix has two indices: evaluate_kgraph keeps the two-sink
    # contract, while the text encoding and the engine take m sinks.
    assert parse_kgraph("2; (S1,S2) (V1,S3)").edges[1] == (("V", 1), ("S", 3))
    for text in ("2; (S1,S2) (V1,S3)", "2; (S1,V2) (V1,V1)", "1; (S2,S3)"):
        with pytest.raises(GraphStructureError, match="two sinks"):
            evaluate_kgraph(parse_kgraph(text), p0())
    with pytest.raises(GraphStructureError):
        parse_kgraph("1; (S0,S1)")


# -- evaluation semantics ----------------------------------------------------


def test_wedge_graph_is_the_identity_encoding():
    bi = p0()
    result = evaluate_kgraph(WEDGE_GRAPH, bi)
    full = tuple(tuple(bi.entry(i, j) for j in range(1, 5)) for i in range(1, 5))
    assert result.raw.entries == full
    assert result.skew == bi


def test_gamma1_closed_form_matches_reference_matrix():
    res = gamma1(p0())
    assert res.raw.is_antisymmetric()
    for (i, j), text in P1_UPPER.items():
        assert res.raw.entry(i, j) == parse4(text)
        assert res.raw.entry(j, i) == -parse4(text)


def test_gamma2_closed_form_matches_reference_matrix():
    res = gamma2(p0())
    for i in range(4):
        for j in range(4):
            assert res.raw.entry(i + 1, j + 1) == parse4(P2_RAW[i][j])
    assert {k: v.render() for k, v in res.skew.comps.items()} == {
        k: parse4(v).render() for k, v in P2_SKEW.items()
    }


def test_gamma_flows_vanish_on_low_degree_coefficients():
    ctx = ctx4()
    # constant coefficients: all derivatives vanish for both flows
    const = MultiVector(ctx, 2, {(1, 2): Polynomial.one(ctx), (3, 4): Polynomial.one(ctx)})
    assert gamma1(const).skew.is_zero and gamma1(const).raw == RawMatrix.zero(ctx)
    assert gamma2(const).skew.is_zero and gamma2(const).raw == RawMatrix.zero(ctx)
    # affine coefficients: third derivatives vanish, so gamma1 is zero
    affine = MultiVector(
        ctx, 2, {(1, 2): parse4("x3 + 1"), (1, 3): parse4("x4"), (2, 4): parse4("2*x1 - x2")}
    )
    assert gamma1(affine).skew.is_zero


def test_graph_encodings_match_closed_forms_on_reference_bivector():
    # The closed forms are the displayed formulas, looped in tests/helpers.py.
    bi = p0()
    assert gamma1(bi).raw == RawMatrix(bi.ctx, brute_gamma1_raw(bi))
    assert gamma2(bi).raw == RawMatrix(bi.ctx, brute_gamma2_raw(bi))


def test_graph_encodings_match_closed_forms_on_random_bivectors():
    rng = random.Random(21)
    for dim in (2, 3):
        ctx = Context(dim)
        for _ in range(3):
            p = random_bivector(rng, ctx, max_terms=2, max_degree=3)
            assert evaluate_kgraph(GAMMA1_GRAPH, p).raw == RawMatrix(ctx, brute_gamma1_raw(p))
            assert evaluate_kgraph(GAMMA2_GRAPH, p).raw == RawMatrix(ctx, brute_gamma2_raw(p))


def test_gamma1_raw_is_antisymmetric_for_random_input():
    rng = random.Random(22)
    for dim in (3, 4):
        p = random_bivector(rng, Context(dim))
        assert gamma1(p).raw.is_antisymmetric()


def test_skew_vanishing_graph_kills_arbitrary_skew_input():
    rng = random.Random(23)
    for dim in (3, 4):
        ctx = Context(dim)
        p = random_bivector(rng, ctx)
        while is_poisson(p):  # the vanishing must not rely on the Jacobi identity
            p = random_bivector(rng, ctx)
        res = evaluate_kgraph(SKEW_VANISHING_GRAPH, p)
        assert res.raw == RawMatrix.zero(ctx)


def test_sink_swap_transposes_raw_and_negates_skew():
    rng = random.Random(24)
    for graph in (WEDGE_GRAPH, GAMMA1_GRAPH, GAMMA2_GRAPH):
        p = random_bivector(rng, Context(3), max_terms=2, max_degree=2)
        plain = evaluate_kgraph(graph, p)
        text = re.sub(r"S([12])", lambda m: "S" + "21"[int(m[1]) - 1], render_kgraph(graph))
        swapped = evaluate_kgraph(parse_kgraph(text), p)
        for i, j in product(range(1, 4), repeat=2):
            assert swapped.raw.entry(i, j) == plain.raw.entry(j, i)
        assert swapped.skew == plain.skew.scale(-1)


def test_pruned_evaluator_matches_naive_full_iteration():
    rng = random.Random(25)
    graphs = (WEDGE_GRAPH, GAMMA1_GRAPH, GAMMA2_GRAPH, SKEW_VANISHING_GRAPH)
    for dim in (2, 3):
        ctx = Context(dim)
        p = random_bivector(rng, ctx, max_terms=2, max_degree=3)
        for graph in graphs:
            naive = naive_evaluate_kgraph_raw(graph, p)
            assert evaluate_kgraph(graph, p).raw == RawMatrix(ctx, naive)


def _random_graph(rng, k, sinkless, sinks=2):
    """A random graph with one edge into each of its sinks and no tadpole.

    Its last ``sinkless`` vertices target only each other.  A vertex sends
    both edges to one target (a double edge) when it has no other choice,
    and otherwise with probability 1/4.
    """
    main = k - sinkless
    targets = [None] * (2 * k)
    for e, sink in zip(rng.sample(range(2 * main), sinks), range(1, sinks + 1)):
        targets[e] = ("S", sink)
    for v in range(1, k + 1):
        block = range(1, main + 1) if v <= main else range(main + 1, k + 1)
        others = [("V", w) for w in block if w != v]
        free = [e for e in (2 * v - 2, 2 * v - 1) if targets[e] is None]
        if not free:
            continue
        if len(others) < len(free) or rng.random() < 0.25:
            picks = [rng.choice(others)] * len(free)
        else:
            picks = rng.sample(others, len(free))
        for e, t in zip(free, picks):
            targets[e] = t
    return KGraph(k, tuple(zip(targets[0::2], targets[1::2])))


def _has_sinkless_component(graph):
    component = list(range(graph.n_internal + 1))  # union-find over vertices

    def root(v):
        while component[v] != v:
            v = component[v]
        return v

    for v, pair in enumerate(graph.edges, start=1):
        for kind, w in pair:
            if kind == "V":
                component[root(v)] = root(w)
    with_sinks = {
        root(v) for v, pair in enumerate(graph.edges, start=1) if ("S", 1) in pair or ("S", 2) in pair
    }
    return any(root(v) not in with_sinks for v in range(1, graph.n_internal + 1))


def test_contraction_matches_naive_evaluation_on_random_graphs(monkeypatch):
    # Seeded random graphs with k <= 5 at n = 3, checked against full
    # iteration.  The sample is checked to contain a fold over only some of
    # the partner's edges, a double edge (whose graph always vanishes: a
    # symmetric second derivative meets the skew P^{ab}), and nonzero
    # results with the sinks on two different vertices and with a component
    # without sinks.
    partial_folds = []

    def recording_fold(tensor, positions):
        partial_folds.append(len(positions) < len(next(iter(tensor), ())))
        return fold(tensor, positions)

    fold = kgraph_module._fold
    monkeypatch.setattr(kgraph_module, "_fold", recording_fold)
    rng = random.Random(28)
    ctx = Context(3)
    seen = set()
    for k, sinkless in ((2, 0), (3, 0), (4, 0), (4, 3)) * 5 + ((5, 4),):
        graph = _random_graph(rng, k, sinkless)
        p = random_bivector(rng, ctx, max_terms=3, max_degree=4)
        raw = evaluate_kgraph(graph, p).raw
        assert raw == RawMatrix(ctx, naive_evaluate_kgraph_raw(graph, p)), render_kgraph(graph)
        nonzero = raw != RawMatrix.zero(ctx)
        sink_vertices = {v for v, pair in enumerate(graph.edges) for t in pair if t[0] == "S"}
        features = {
            "double edge": any(l == r for l, r in graph.edges),
            "nonzero, split sinks": nonzero and len(sink_vertices) == 2,
            "nonzero, sinkless component": nonzero and _has_sinkless_component(graph),
        }
        seen.update(name for name, hit in features.items() if hit)
    assert seen == set(features)
    assert any(partial_folds), "no fold over part of the partner's edges"


def test_three_sink_graph_sums_match_naive_evaluation():
    # Seeded random graphs with three sinks and k <= 4 at n = 3, two
    # distinct bi-vectors assigned at random to the vertices, and a sum over
    # two assignments, checked against full iteration.  Without skew, a
    # vertex holding two sinks is taken for a < b only; with skew, each
    # product goes to the sorted key with the sign of the sort, which is the
    # full antisymmetrization, halved when such a vertex counts its pair once.
    rng = random.Random(29)
    ctx = Context(3)
    seen = set()
    for k, sinkless in ((2, 0), (3, 0), (4, 0), (4, 2)) * 5:
        graph = _random_graph(rng, k, sinkless, sinks=3)
        pq = [random_bivector(rng, ctx, max_terms=3, max_degree=4) for _ in range(2)]
        assignments = [tuple(rng.choice(pq) for _ in range(k)) for _ in range(2)]
        pairs = [(l[1], r[1]) for l, r in graph.edges if l[0] == r[0] == "S"]
        naive = {}
        for ps in assignments:
            for key, poly in naive_graph_tensor(graph, ps).items():
                naive[key] = naive.get(key, Polynomial.zero(ctx)) + poly
        half = {
            key: poly
            for key, poly in naive.items()
            if all(key[i - 1] < key[j - 1] for i, j in pairs) and not poly.is_zero
        }
        assert graph_sum(graph, assignments) == half, render_kgraph(graph)
        full = Polynomial.zero(ctx)
        for perm in permutations(range(3)):
            sign = (-1) ** sum(perm[a] > perm[b] for a, b in combinations(range(3), 2))
            key = tuple(i + 1 for i in perm)
            full = full + naive.get(key, Polynomial.zero(ctx)).scale(sign)
        expected = full.scale(Fraction(1, 2) if pairs else 1)
        skew = graph_sum(graph, assignments, skew=True)
        assert skew == ({} if expected.is_zero else {(1, 2, 3): expected}), render_kgraph(graph)
        seen.add(("paired" if pairs else "split", bool(skew)))
    assert {("paired", True), ("split", True)} <= seen


def test_dim2_balanced_flow_brackets_trivially():
    rng = random.Random(26)
    ctx = Context(2)
    p = random_bivector(rng, ctx)
    q = balanced_flow(p, 1, 6)
    assert schouten(p, q).is_zero  # no index triple exists in dim 2
    assert jacobiator(p).is_zero


def test_balanced_flow_weights():
    bi = p0()
    assert balanced_flow(bi, 0, 0).is_zero
    assert balanced_flow(bi, 1, 0) == gamma1(bi).skew
    assert balanced_flow(bi, 0, 1) == gamma2(bi).skew
