import random
import re
from collections import Counter
from contextlib import contextmanager, nullcontext
from functools import cache
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

import pytest

import tetraflows._kgraph as kgraph_module
import tetraflows.graphflow as graphflow_module
from tetraflows._kgraph import graph_sum
from tetraflows.analysis import builtin_rows
from tetraflows.generators import VanhaeckeSpec, build_bivector
from tetraflows.graphflow import (
    GAMMA1_GRAPH,
    GAMMA2_GRAPH,
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
from tetraflows.multivector import (
    _BRACKET_GRAPH,
    MultiVector,
    RawMatrix,
    is_poisson,
    jacobiator,
    mv_linear_combination,
    schouten,
)
from tetraflows.polyring import EXPONENT_LIMIT, Context, ExponentOverflowError, Polynomial

from example4d import P1_UPPER, P2_RAW, P2_SKEW, ctx4, p0, parse4
from helpers import (
    SKEW_VANISHING_GRAPH,
    WEDGE_GRAPH,
    brute_gamma1_raw,
    brute_gamma2_raw,
    count_products,
    naive_evaluate_kgraph_raw,
    naive_graph_sum,
    naive_graph_tensor,
    random_bivector,
    skew_of_raw,
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
    e = res.raw.entries
    assert all((e[i][j] + e[j][i]).is_zero for i in range(4) for j in range(i, 4))
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
    for flow in (gamma1(const), gamma2(const)):
        assert flow.skew.is_zero and all(p.is_zero for row in flow.raw.entries for p in row)
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
        e = gamma1(p).raw.entries
        assert all((e[i][j] + e[j][i]).is_zero for i in range(dim) for j in range(i, dim))


def test_skew_vanishing_graph_kills_arbitrary_skew_input():
    rng = random.Random(23)
    for dim in (3, 4):
        ctx = Context(dim)
        p = random_bivector(rng, ctx)
        while is_poisson(p):  # the vanishing must not rely on the Jacobi identity
            p = random_bivector(rng, ctx)
        res = evaluate_kgraph(SKEW_VANISHING_GRAPH, p)
        assert all(q.is_zero for row in res.raw.entries for q in row)


def test_skew_read_alone_equals_skew_read_after_raw():
    # .skew read first runs the skew graph sum (no diagonal, halved for
    # gamma2, whose sinks sit on two vertices); read after .raw it is read
    # off the raw matrix.  Both must equal the skew part of the raw matrix,
    # and of the naive evaluator's where it is cheap: it loops over n^8 index
    # assignments (13 s over rows 1-10, far longer in dim 8).
    rng = random.Random(36)
    rows = {rid: spec for rid, _, spec, _ in builtin_rows()}
    inputs = [(build_bivector(rows[rid]), rid in (1, 2, 8)) for rid in range(1, 11)]
    inputs.append((build_bivector(VanhaeckeSpec(4, [(2, 1, 1)])), False))
    eps_ctx = Context(3).with_epsilon()
    eps = Polynomial.epsilon(eps_ctx)
    for _ in range(3):
        p = random_bivector(rng, Context(3), max_terms=3)
        scales = {idx: Fraction(rng.choice((-5, 1, 3)), rng.randint(1, 6)) for idx in p.comps}
        rational = MultiVector(p.ctx, 2, {idx: q.scale(scales[idx]) for idx, q in p.comps.items()})
        delta = random_bivector(rng, eps_ctx, max_terms=2, max_degree=2)
        inputs += [(rational, True), (rational.lift(eps_ctx) + delta.mul_poly(eps), True)]
    eps_orders = set()
    for p, naive in inputs:
        for graph in (GAMMA1_GRAPH, GAMMA2_GRAPH):
            alone = evaluate_kgraph(graph, p).skew
            flow = evaluate_kgraph(graph, p)
            raw = flow.raw
            assert alone == flow.skew == skew_of_raw(raw), render_kgraph(graph)
            if naive:
                assert raw == RawMatrix(p.ctx, naive_evaluate_kgraph_raw(graph, p))
            if p.ctx.has_epsilon:
                eps_orders.update(k for q in alone.comps.values() for k in q.epsilon_split())
    assert eps_orders > {0, 1}


def test_each_part_read_first_runs_one_graph_sum(monkeypatch):
    calls = []

    def counting_graph_sum(g, assignments, skew=False):
        calls.append(skew)
        return graph_sum(g, assignments, skew)

    monkeypatch.setattr(graphflow_module, "graph_sum", counting_graph_sum)
    p = random_bivector(random.Random(37), Context(3), max_terms=3)
    for graph in (GAMMA1_GRAPH, GAMMA2_GRAPH, WEDGE_GRAPH):
        flow = evaluate_kgraph(graph, p)
        assert calls == []
        flow.raw, flow.skew, flow.raw
        assert calls == [False]
        calls.clear()
        flow = evaluate_kgraph(graph, p)
        flow.skew, flow.skew
        assert calls == [True]
        calls.clear()


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


def _plan_folds(graph):
    """(site, partial) for each fold in the graph's contraction plan: the site
    is "produced tensor" when a step's result is summed onto ascending
    indices as it is built; partial when the fold covers only some of the
    tensor's edges."""
    _, steps, *_ = kgraph_module._plan(graph)
    return [("produced tensor", len(fold) < len(ec)) for *_, ec, fold in steps if fold]


def test_contraction_matches_naive_evaluation_on_random_graphs():
    # Seeded random graphs with k <= 5 at n = 3, checked against full
    # iteration.  The sample is checked to contain a fold over only some of
    # the partner's edges, folds only where a step's result is built, a
    # double edge (whose graph always vanishes: a symmetric second
    # derivative meets the skew P^{ab}), and nonzero results with the sinks
    # on two different vertices and with a component without sinks.
    folds = []
    rng = random.Random(28)
    ctx = Context(3)
    seen = set()
    for k, sinkless in ((2, 0), (3, 0), (4, 0), (4, 3)) * 5 + ((5, 4),):
        graph = _random_graph(rng, k, sinkless)
        p = random_bivector(rng, ctx, max_terms=3, max_degree=4)
        flow = evaluate_kgraph(graph, p)
        raw = flow.raw
        assert raw == RawMatrix(ctx, naive_evaluate_kgraph_raw(graph, p)), render_kgraph(graph)
        assert flow.skew == evaluate_kgraph(graph, p).skew == skew_of_raw(raw), render_kgraph(graph)
        nonzero = any(not q.is_zero for row in raw.entries for q in row)
        sink_vertices = {v for v, pair in enumerate(graph.edges) for t in pair if t[0] == "S"}
        features = {
            "double edge": any(l == r for l, r in graph.edges),
            "nonzero, split sinks": nonzero and len(sink_vertices) == 2,
            "nonzero, sinkless component": nonzero and _has_sinkless_component(graph),
        }
        seen.update(name for name, hit in features.items() if hit)
        folds += _plan_folds(graph)
    assert seen == set(features)
    assert any(partial for _, partial in folds), "no fold over part of the partner's edges"
    assert {site for site, _ in folds} == {"produced tensor"}


def _all_graphs(k):
    """Every graph with k internal vertices and one edge into each sink: an
    edge goes to another vertex or to a sink, the sinks in every order."""
    choices = [[("V", w) for w in range(1, k + 1) if w != e // 2 + 1] + [None] for e in range(2 * k)]
    for targets in product(*choices):
        free = [e for e, t in enumerate(targets) if t is None]
        for order in permutations(range(1, len(free) + 1)):
            placed = list(targets)
            for e, s in zip(free, order):
                placed[e] = ("S", s)
            yield KGraph(k, tuple(zip(placed[0::2], placed[1::2])))


@contextmanager
def _no_symmetry_search(monkeypatch):
    """Plans made inside hold no automorphisms, as above SYMMETRY_SEARCH_LIMIT;
    the plan caches are emptied on entry and on exit."""
    with monkeypatch.context() as patch:
        patch.setattr(kgraph_module, "_automorphisms", lambda graph: ())
        try:
            kgraph_module._plan.cache_clear()
            kgraph_module._orbit_rules.cache_clear()
            yield
        finally:
            kgraph_module._plan.cache_clear()
            kgraph_module._orbit_rules.cache_clear()


def test_graphs_with_a_double_edge_vanish(monkeypatch):
    # Both out-edges of W into V contract the symmetric d_i d_j P_V with the
    # skew P_W^{ij}, so the graph is zero for any bi-vectors on its vertices.
    # Swapping W's L and R is then an odd automorphism, so with the search
    # on the engine skips such a graph before any product runs.  With the
    # search off, as above SYMMETRY_SEARCH_LIMIT, the contraction runs (and
    # may halve a step), and it must give the exact zero too, on every such
    # graph with k <= 3.  Support pruning leaves 804 of them with a product
    # (868 without it).
    rng = random.Random(33)
    ctx = Context(3)
    p, q = (random_bivector(rng, ctx, max_terms=3, max_degree=4) for _ in range(2))
    assert all(kgraph_module.derivative_tensor(b, 2, True) for b in (p, q))
    graphs = [g for k in (1, 2, 3) for g in _all_graphs(k) if any(l == r for l, r in g.edges)]
    assert len(graphs) == 905  # 473 of them with at most two sinks
    counts = count_products(monkeypatch)

    def graphs_with_products():
        ran = 0
        for graph in graphs:
            counts[:] = [0, 0]
            k = graph.n_internal
            for assignment in ((p, q, p)[:k], (q, p, q)[:k]):
                assert graph_sum(graph, [assignment]) == {}, render_kgraph(graph)
            ran += bool(counts[0])
        return ran

    assert graphs_with_products() == 0
    with _no_symmetry_search(monkeypatch):
        assert not any(kgraph_module._plan(g)[3] for g in graphs)
        assert graphs_with_products() == 804


def _has_odd_automorphism(graph):
    """Whether some relabelling of the vertices, with L and R swapped at an
    odd number of them, fixes the sinks and carries the edges onto
    themselves: brute force over the k! maps and 2^k swaps."""
    k = graph.n_internal
    for image in permutations(range(1, k + 1)):
        for swaps in product((0, 1), repeat=k):
            if sum(swaps) % 2 == 0:
                continue
            moved = {
                (("V", image[v]), side ^ swaps[v]): target if target[0] == "S" else ("V", image[target[1] - 1])
                for v, pair in enumerate(graph.edges)
                for side, target in enumerate(pair)
            }
            if all(moved[("V", v + 1), side] == t for v, pair in enumerate(graph.edges) for side, t in enumerate(pair)):
                return True
    return False


def test_graphs_with_an_odd_automorphism_vanish_with_no_product(monkeypatch):
    # An automorphism with an odd number of L/R swaps negates the evaluation,
    # so such a graph is zero for P on every vertex; a double edge is one
    # case.  Over every graph with k <= 3 and at most two sinks, exactly
    # those graphs sum to zero here, and none of them runs a product.  The
    # eight without a double edge are sinkless 3-cycles.
    rng = random.Random(34)
    p = random_bivector(rng, Context(3), max_terms=3, max_degree=4)
    counts = count_products(monkeypatch)
    graphs = [
        g
        for k in (1, 2, 3)
        for g in _all_graphs(k)
        if sum(t[0] == "S" for pair in g.edges for t in pair) <= 2
    ]
    odd = [g for g in graphs if _has_odd_automorphism(g)]
    assert (len(graphs), len(odd)) == (755, 481)
    assert sum(all(l != r for l, r in g.edges) for g in odd) == 8
    for graph in graphs:
        counts[:] = [0, 0]
        total = graph_sum(graph, [(p,) * graph.n_internal])
        if graph in odd:
            assert total == {} and not counts[0], render_kgraph(graph)
        else:
            assert total, render_kgraph(graph)


def test_orbit_folds_match_naive_evaluation():
    # Every graph with k <= 3, at most three sinks and no odd automorphism
    # whose plan folds a step result with a symmetry (a swap of two vertices
    # that both feed a third: weights 2, or 1 for equal indices), with P on
    # every vertex, checked against full iteration in both modes.
    rng = random.Random(36)
    ctx = Context(3)
    graphs = []
    for graph in (g for k in (1, 2, 3) for g in _all_graphs(k)):
        try:
            *_, symmetries = kgraph_module._plan(graph)
        except GraphStructureError:  # more than three sinks
            continue
        odd = any(sum(swaps) % 2 for _, swaps in symmetries)
        if not odd and any(kgraph_module._orbit_rules(graph, tuple(range(len(symmetries))))):
            graphs.append(graph)
    assert len(graphs) == 24
    for graph in graphs:
        p = random_bivector(rng, ctx, max_terms=3, max_degree=5)
        for skew in (False, True):
            got = graph_sum(graph, [(p,) * 3], skew=skew)
            assert got == naive_graph_sum(graph, [(p,) * 3], skew), (render_kgraph(graph), skew)


def _copy(p):
    """An equal bi-vector that is another object."""
    return MultiVector(p.ctx, 2, dict(p.comps))


def test_gamma1_rotation_is_used_only_where_the_assignment_respects_it(monkeypatch):
    # The rotation V2 -> V3 -> V4 -> V2 of gamma1 counts for (P, Q, Q, Q) but
    # not for (P, P, Q, Q).  Equal copies on V3 and V4 hide it (the engine
    # compares the bi-vectors by identity), so (P, Q, Q', Q'') runs every
    # product of the cycle step: the reduced run does fewer, the other one
    # the same.  Both agree with full iteration, in both modes; so does the
    # probe's P + eps*Delta on every vertex.  The first step (V2 with V3)
    # enumerates V2 over a < b and adds the negated mirror of each entry,
    # under the rotation too, where it also keeps e2 <= e4 and weighs each
    # image on its own (before support pruning, (P, P, Q, Q) ran 95 / 966
    # halved and 125 / 1,062 unhalved).  Support pruning takes (P, P, Q, Q)
    # from 95 / 966 to 80 / 838; (P, Q, Q, Q) ran 61 / 500, then 46 / 426
    # with V2's full table in the first step, and 39 / 398 halved.
    rng = random.Random(35)
    ctx = Context(3)
    p, q = (random_bivector(rng, ctx, max_terms=4, max_degree=5) for _ in range(2))
    counts = count_products(monkeypatch)

    def run(assignment, skew):
        counts[:] = [0, 0]
        got = graph_sum(GAMMA1_GRAPH, [assignment], skew=skew)
        return got, tuple(counts)

    for assignment, hidden, reduced in (
        ((p, q, q, q), (p, q, _copy(q), _copy(q)), True),
        ((p, p, q, q), (p, _copy(p), q, _copy(q)), False),
    ):
        for skew in (False, True):
            got, pinned = run(assignment, skew)
            assert got and got == naive_graph_sum(GAMMA1_GRAPH, [assignment], skew)
            full, every = run(hidden, skew)
            assert full == got
            assert (pinned[1] < every[1]) if reduced else (pinned == every)
        assert pinned == ((39, 398) if reduced else (80, 838))
    eps_ctx = Context(3, has_epsilon=True)
    p, delta = (random_bivector(rng, eps_ctx, max_terms=4, max_degree=5) for _ in range(2))
    p_tilde = p + delta.mul_poly(Polynomial.epsilon(eps_ctx))
    for skew in (False, True):
        got, pinned = run((p_tilde,) * 4, skew)
        assert got and got == naive_graph_sum(GAMMA1_GRAPH, [(p_tilde,) * 4], skew)
        assert pinned[1] < run((p_tilde, *(_copy(p_tilde) for _ in range(3))), skew)[1][1]


def test_graph_above_the_search_limit_is_summed_without_a_search(monkeypatch):
    # Seven vertices: the plan skips the automorphism search and the engine
    # still gives the answer of full iteration.  Six vertices are searched.
    searches = []

    def counting_search(graph):
        searches.append(graph)
        return automorphisms(graph)

    automorphisms = kgraph_module._automorphisms
    monkeypatch.setattr(kgraph_module, "_automorphisms", counting_search)
    graph = parse_kgraph("7; (S1,S2) (V1,V3) (V1,V4) (V2,V5) (V3,V6) (V4,V7) (V5,V6)")
    assert graph.n_internal > kgraph_module.SYMMETRY_SEARCH_LIMIT
    ctx = Context(2)
    p = MultiVector(ctx, 2, {(1, 2): Polynomial.parse("x1^4*x2^3 - 2*x1^2*x2^5 + 3*x1^5", ctx)})
    got = graph_sum(graph, [(p,) * 7])
    assert got and got == naive_graph_sum(graph, [(p,) * 7])
    assert kgraph_module._plan(graph)[3] == () and searches == []
    at_limit = parse_kgraph("6; (S1,S2) (V1,V3) (V1,V4) (V2,V5) (V3,V6) (V4,V5)")
    kgraph_module._plan.__wrapped__(at_limit)  # the plan without its cache
    assert searches == [at_limit]


def _halved_steps(graph):
    """The steps of the graph's plan that enumerate a vertex over a < b."""
    return [mirror for *_, mirror, _, _ in kgraph_module._plan(graph)[1] if mirror]


def test_halved_steps_match_naive_evaluation(monkeypatch):
    # A middle step in which a vertex keeps both of its out-edges enumerates
    # it over a < b only and adds each entry again at its L/R mirror,
    # negated (P^{ba} = -P^{ab}).  Checked against full iteration on every
    # graph with k <= 3 and at most two sinks whose plan halves a step: under
    # the mixed assignments (P, Q, P) and (Q, P, Q) at n = 3 in both modes,
    # then once with rational bi-vectors and once with P + eps*Delta at
    # n = 2.  A 7-vertex chain above SYMMETRY_SEARCH_LIMIT halves five steps;
    # full iteration over its 2^14 index tuples is slow, so it runs each
    # mixed assignment in one mode.  The small graphs with a double edge are
    # zero and skipped with no product; with the search off their halved
    # steps run, and must cancel exactly.
    graphs = [
        g
        for k in (1, 2, 3)
        for g in _all_graphs(k)
        if sum(t[0] == "S" for pair in g.edges for t in pair) <= 2 and _halved_steps(g)
    ]
    doubled = [g for g in graphs if any(l == r for l, r in g.edges)]
    assert (len(graphs), len(doubled)) == (200, 168)
    chain = parse_kgraph("7; (S1,V3) (V1,S2) (V2,V1) (V3,V2) (V4,V3) (V5,V4) (V6,V5)")
    assert chain.n_internal > kgraph_module.SYMMETRY_SEARCH_LIMIT and len(_halved_steps(chain)) == 5
    rng = random.Random(62)
    ctx2, ctx3, eps2 = Context(2), Context(3), Context(2, has_epsilon=True)
    p, q = (random_bivector(rng, ctx3, max_terms=3, max_degree=4) for _ in range(2))
    rational = [random_bivector(rng, ctx2, max_terms=3, max_degree=5).scale(Fraction(c, 6)) for c in (1, -5)]
    with_eps = [
        random_bivector(rng, eps2, max_terms=3, max_degree=5)
        + random_bivector(rng, eps2, max_terms=2, max_degree=5).mul_poly(Polynomial.epsilon(eps2))
        for _ in range(2)
    ]
    assert _denominators(rational) != {1}
    assert [len(b.comps) for b in (p, q, *rational, *with_eps)] == [3, 3, 1, 1, 1, 1]
    texts = ("x1^4*x2^3 - 2*x1^2*x2^5 + 3*x1^5", "x1^3*x2^4 + x2^6 - 5*x1*x2^2")
    long = [MultiVector(ctx2, 2, {(1, 2): Polynomial.parse(text, ctx2)}) for text in texts]

    def naive_checks(graph, runs):
        nonzero = 0
        for pair, skew in runs:
            assignment = (tuple(pair) * graph.n_internal)[: graph.n_internal]  # P, Q, P, ...
            got = graph_sum(graph, [assignment], skew=skew)
            assert got == naive_graph_sum(graph, [assignment], skew), (render_kgraph(graph), skew)
            nonzero += bool(got)
        return nonzero

    extra = [(rational, False), (with_eps, True)]
    mixed = [(pair, skew) for pair in ((p, q), (q, p)) for skew in (False, True)]
    nonzero = sum(naive_checks(graph, mixed + extra) for graph in graphs if graph not in doubled)
    assert nonzero == 192  # every run of the 32 graphs without a double edge
    assert naive_checks(chain, [(long, False), (long[::-1], True)] + extra) == 4
    with _no_symmetry_search(monkeypatch):
        for graph in doubled:
            assert graph_sum(graph, [(p, q, p)]) == graph_sum(graph, [(q, p, q)]) == {}, render_kgraph(graph)


def _sinks_in_order(k):
    """Every graph with k internal vertices whose two free edges go to S1
    and S2, in that order."""
    for s1, s2 in combinations(range(2 * k), 2):
        others = [e for e in range(2 * k) if e not in (s1, s2)]
        for targets in product(*([("V", w) for w in range(1, k + 1) if w != e // 2 + 1] for e in others)):
            placed = dict(zip(others, targets)) | {s1: ("S", 1), s2: ("S", 2)}
            yield KGraph(k, tuple((placed[2 * v], placed[2 * v + 1]) for v in range(k)))


def _halves_a_weighted_step(graph) -> bool:
    """Whether a step of the graph's plan both halves a vertex and carries
    an orbit rule under (P, P, P, P), the graph having no odd automorphism
    (it would be zero and run no product).  An orbit rule needs an
    automorphism but the identity, which swaps a double edge (an odd one)
    or moves a vertex holding no sink to another of the same in-degree, so
    any other graph is passed over unplanned."""
    indegree = Counter(t for pair in graph.edges for t in pair)
    free = Counter(indegree["V", v] for v, pair in enumerate(graph.edges, 1) if "S" not in {pair[0][0], pair[1][0]})
    if any(l == r for l, r in graph.edges) or max(free.values(), default=0) < 2:
        return False
    _, steps, _, symmetries = kgraph_module._plan(graph)
    if any(sum(swaps) % 2 for _, swaps in symmetries):
        return False
    rules = kgraph_module._orbit_rules(graph, tuple(range(len(symmetries))))
    return any(mirror and rule for (*_, mirror, _, _), rule in zip(steps, rules))


def test_halved_steps_with_orbit_weights_match_naive_evaluation():
    # A halved step that carries an orbit rule writes each entry at its key
    # and at its L/R-exchanged key, each image times its own orbit weight.
    # No graph with k <= 3 runs such a step (the 32 that have one also have
    # an odd automorphism, so they are zero), gamma1 does: of the 20,412
    # four-vertex graphs whose free edges go to S1 and S2 in that order, 64
    # have one and no odd automorphism.  A seeded sample of 12 against full
    # iteration at n = 3 in both modes, under (P, P, P, P) and (P, Q, Q, Q).
    graphs = list(_sinks_in_order(4))
    found = [g for g in graphs if _halves_a_weighted_step(g)]
    assert (len(graphs), len(found)) == (20412, 64)
    rng = random.Random(33)
    p, q = (random_bivector(rng, Context(3), max_terms=3, max_degree=4) for _ in range(2))
    nonzero = 0
    for graph in rng.sample(found, 12):
        for assignment in ((p, p, p, p), (p, q, q, q)):
            for skew in (False, True):
                got = graph_sum(graph, [assignment], skew=skew)
                assert got == naive_graph_sum(graph, [assignment], skew), (render_kgraph(graph), skew)
                nonzero += bool(got)
    assert nonzero == 48


def test_fold_maps_match_the_sort_definition():
    # _fold_key builds a two-position fold as one comparison choosing one of
    # two permutations, and a longer one by a sort.  Both are checked against
    # the definition (exchange the entries at ``swapped``, then put the
    # entries at ``positions`` in order) on every key at n = 3 of widths 2
    # to 5, every ordered position tuple of length 0, 2 and 3, and every
    # swapped pair as well as none.
    for width in range(2, 6):
        keys = list(product(range(1, 4), repeat=width))
        folds = [(), *permutations(range(width), 2), *permutations(range(width), 3)]
        for swapped in [(), *combinations(range(width), 2)]:
            for positions in folds:
                fold = kgraph_module._fold_key(width, positions, swapped)
                for key in keys:
                    want = list(key)
                    if swapped:
                        i, j = swapped
                        want[i], want[j] = want[j], want[i]
                    for at, index in zip(positions, sorted(want[at] for at in positions)):
                        want[at] = index
                    assert fold(key) == tuple(want), (width, positions, swapped, key)


def test_contract_matches_a_plain_join_and_tallies_every_product(monkeypatch):
    # _contract on seeded random tensors whose entries have one to three
    # terms, so that one-term times one-term products (run in place) mix
    # with addmul's, and some keys are dropped by the slot: each result dict
    # equals addmul summed over every kept pair of a plain nested join, and
    # the tally gains exactly the kept pairs and their term pairs.
    rng = random.Random(47)
    counts = count_products(monkeypatch)
    in_place = 0

    def terms():
        coeffs = (-2, -1, 1, 3, Fraction(1, 2))
        return {rng.randrange(1 << 20): rng.choice(coeffs) for _ in range(rng.choice((1, 1, 2, 3)))}

    def tensor(edges):
        return {key: terms() for key in product(range(1, 4), repeat=len(edges)) if rng.random() < 0.6}

    for trial in range(40):
        ea, eb = (0, 1, 2), rng.choice(((2, 3), (1, 2, 3), (4,)))
        ta, tb = tensor(ea), tensor(eb)
        shared = [e for e in ea if e in eb]
        free_a, free_b = [e for e in ea if e not in eb], [e for e in eb if e not in ea]
        drop = {key for key in product(range(1, 4), repeat=len(free_a + free_b)) if rng.random() < 0.3}
        want, pairs = {}, [0, 0]
        for ka, pa in ta.items():
            for kb, pb in tb.items():
                key = tuple(ka[ea.index(e)] for e in free_a) + tuple(kb[eb.index(e)] for e in free_b)
                if all(ka[ea.index(e)] == kb[eb.index(e)] for e in shared) and key not in drop:
                    kgraph_module.addmul(want.setdefault(key, {}), pa, pb)
                    pairs[0] += 1
                    pairs[1] += len(pa) * len(pb)
                    in_place += len(pa) == len(pb) == 1
        got: dict = {}
        counts[:] = [0, 0]
        kgraph_module._contract(ea, ta, eb, tb, lambda key: None if key in drop else got.setdefault(key, {}))
        assert got == want and counts == pairs, trial
    assert in_place


def test_plan_pins_products_and_term_pairs(monkeypatch):
    # (products, term pairs) at the engine's one product loop.  On gamma2 the
    # plan joins V2, then V1, each with all of its in-edges present, so both
    # are enumerated over ascending indices: 1,376 / 126,266 on row 10 where
    # joining V1 with one in-edge open runs 1,600 / 150,834, and 10,685 /
    # 26,440 where it runs 11,327 / 27,882 in dim 8.  V3 and then V2 keep
    # both out-edges in their step's result, so each is enumerated a < b and
    # the step adds the negated mirror: 1,376 / 126,266 -> 800 / 82,371 on
    # row 10 and 10,685 / 26,440 -> 5,795 / 15,326 in dim 8.  On gamma1 the
    # rotation of V2, V3, V4 keeps only the least rotation of each key of the
    # step that closes their cycle, and e2 <= e4 in the step before: 335 /
    # 26,637 where computing every key runs 591 / 49,393.  That first step
    # also halves V2, each image weighed on its own: 287 / 24,711 on row 10
    # and 329 -> 314 on row 3 (dim 8 and dim 6 keep theirs).  The Jacobiator
    # and the brackets have no symmetry to use and keep their counts.  The skew part
    # read alone runs the skew sum, which runs no product for a repeated
    # sink index: gamma2's diagonal costs 56 / 9,646 on row 10 and 115 / 553
    # in dim 8.  Support pruning drops the keys of a middle step that can
    # meet no partner later on: no change on the dense row 10; in dim 8
    # gamma2 5,795 / 15,326 -> 4,437 / 12,019 (skew 5,680 / 14,773 -> 4,322
    # / 11,466) and gamma1 3,142 / 7,488 -> 371 / 1,119, in dim 6 gamma1
    # 1,642 / 12,578 -> 546 / 4,479.  Row 3's bi-vector has one-term
    # entries only, so every product is one term times one term, run in
    # place in the join and not by ``addmul``: one term pair each.
    rows = {rid: spec for rid, _, spec, _ in builtin_rows()}
    p = build_bivector(rows[10])
    row3 = build_bivector(rows[3])
    p1, p2 = gamma1(p).skew, gamma2(p).skew
    dim8, dim6 = build_bivector(VanhaeckeSpec(4, [(2, 1, 1)])), build_bivector(VanhaeckeSpec(3, [(3, 1, 1)]))
    counts = count_products(monkeypatch)
    cases = {
        "gamma2, row 10": (lambda: gamma2(p).raw, (800, 82371)),
        "gamma2, dim 8": (lambda: gamma2(dim8).raw, (4437, 12019)),
        "gamma2 skew, row 10": (lambda: gamma2(p).skew, (744, 72725)),
        "gamma2 skew, dim 8": (lambda: gamma2(dim8).skew, (4322, 11466)),
        "gamma1, row 10": (lambda: gamma1(p).raw, (287, 24711)),
        "gamma1, dim 8": (lambda: gamma1(dim8).raw, (371, 1119)),
        "gamma1, dim 6": (lambda: gamma1(dim6).raw, (546, 4479)),
        "gamma2, row 3": (lambda: gamma2(row3).raw, (948, 948)),
        "gamma1, row 3": (lambda: gamma1(row3).raw, (314, 314)),
        "Jacobiator, row 10": (lambda: jacobiator(p), (16, 792)),
        "[[P0, P1]], row 10": (lambda: schouten(p, p1), (32, 14124)),
        "[[P0, P2]], row 10": (lambda: schouten(p, p2), (48, 18358)),
    }
    for name, (run, expected) in cases.items():
        counts[:] = [0, 0]
        run()
        assert tuple(counts) == expected, name


def test_plan_is_built_once_per_graph():
    rng = random.Random(32)
    gamma2(random_bivector(rng, Context(3)))
    before = kgraph_module._plan.cache_info()
    gamma2(random_bivector(rng, Context(4)))
    after = kgraph_module._plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # The layout of a support test, once per (graph, step, tested edges):
    # dim-8 gamma1 builds one from a later test, and its second call none.
    p = build_bivector(VanhaeckeSpec(4, [(2, 1, 1)]))
    gamma1(p).raw
    layout, layouts = kgraph_module._layout, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kgraph_module, "_layout", lambda *key: layouts.append(key) or layout(*key))
        before = layout.cache_info()
        gamma1(p).raw
    after = layout.cache_info()
    assert any(tested for *_, tested in layouts) and len(set(layouts)) == len(layouts)
    assert (after.hits, after.misses) == (before.hits + len(layouts), before.misses)


def test_plan_caches_keep_their_most_recent_entries_only():
    # Each graph's plan, orbit rules and layouts are kept for PLANS_KEPT
    # graphs, not for every graph planned (about 2 KB each: enumerating
    # the 20,412 four-vertex graphs with sinks S1, S2 would keep 41 MB).
    kept = kgraph_module.PLANS_KEPT
    tables = (kgraph_module._plan, kgraph_module._orbit_rules, kgraph_module._layout)
    graphs = list(zip(range(kept + 10), _sinks_in_order(4)))
    for _, graph in graphs:
        _, steps, _, _ = kgraph_module._plan(graph)
        kgraph_module._orbit_rules(graph, ())
        for s in range(len(steps) - 1):
            kgraph_module._layout(steps, graph.n_internal, s, ())
    assert [table.cache_info()[2:] for table in tables] == [(kept, kept)] * 3  # (maxsize, currsize)
    # the last graph's plan is kept, the first one's is planned again
    before = kgraph_module._plan.cache_info()
    kgraph_module._plan(graphs[-1][1])
    kgraph_module._plan(graphs[0][1])
    after = kgraph_module._plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)


@contextmanager
def _no_pruning(monkeypatch):
    """Graph sums made inside install no support test in any step."""
    with monkeypatch.context() as patch:
        patch.setattr(kgraph_module, "_supports", lambda middle, *_: [None] * len(middle))
        yield


def _carries_a_test_back_over_two_steps(graph) -> bool:
    """Whether the graph's plan has middle steps s, t and u, s's result next
    meeting a vertex in t, t's in u and u's in a later step, with t and u
    never halved: u's support test is then carried back into t's, and t's
    into s's (``_supports``)."""
    _, steps, *_ = kgraph_module._plan(graph)
    k = graph.n_internal
    # middle step -> the step in which its result next meets a vertex
    meets = {x - k - 1: t for t, (a, b, *_) in enumerate(steps) for x in (a, b) if min(a, b) < k < x}
    return any(meets.get(t) in meets and not steps[t][4] and not steps[meets[t]][4] for t in meets.values())


def test_support_pruning_matches_naive_and_unpruned_sums(monkeypatch):
    # A middle step drops the keys that can meet no partner in a later step
    # (``_supports``).  Seeded sparse random bi-vectors in dims 3 to 5, on
    # both flows and on random graphs with k <= 4 and two or three sinks,
    # summed over mixed assignments of two bi-vectors and as weighted
    # combinations: the sums equal those with pruning off in both modes, and
    # those of full iteration where it is small enough.  Graphs with k = 5
    # and 6, checked against pruning off only, include plans that carry a
    # test back over two steps.  The sample prunes: it runs fewer products
    # than with pruning off.
    rng = random.Random(41)
    products = count_products(monkeypatch)
    ran, deep = {True: 0, False: 0}, 0

    def check(combination, assignments, naive):
        for skew in (False, True):
            before = products[0]
            got = graph_sum(combination, assignments, skew=skew)
            ran[True] += products[0] - before
            with _no_pruning(monkeypatch):
                before = products[0]
                assert got == graph_sum(combination, assignments, skew=skew), (combination, skew)
                ran[False] += products[0] - before
            if naive:
                want = _combine((w, naive_graph_sum(g, assignments, skew)) for w, g in combination)
                assert got == want, (combination, skew)

    for dim in (3, 4, 5):
        ctx = Context(dim)
        for trial in range(2):
            p, q = (random_bivector(rng, ctx, max_terms=2, max_degree=3) for _ in range(2))
            assignments = [tuple(rng.choice((p, q)) for _ in range(6)) for _ in range(2)]
            graphs = [GAMMA1_GRAPH, GAMMA2_GRAPH]
            graphs += [_random_graph(rng, k, 0, sinks) for k in (2, 3, 4) for sinks in (2, 3) if dim ** (2 * k) <= 5**6]
            graphs += [_random_graph(rng, k, 0) for k in (5, 6)] * (dim == 3)
            for graph in graphs:
                check([(1, graph)], assignments, dim ** (2 * graph.n_internal) <= 3**8)
                deep += _carries_a_test_back_over_two_steps(graph)
            weights = [rng.choice((Fraction(-3, 4), Fraction(5, 6), 2, -1)) for _ in range(2)]
            check(list(zip(weights, (GAMMA1_GRAPH, GAMMA2_GRAPH))), assignments, dim == 3)
    assert ran[True] < ran[False] and deep


def test_support_pruning_runs_fewer_products_on_sparse_inputs(monkeypatch):
    # The flows workload's dim-8 and dim-6 inputs and grid rows 2 and 8 have
    # sparse derivative tables: on each, the two flows run strictly fewer
    # products with pruning than without (none more on either flow), with
    # the same raw matrices.
    products = count_products(monkeypatch)
    rows = {rid: spec for rid, _, spec, _ in builtin_rows()}
    specs = [VanhaeckeSpec(4, [(2, 1, 1)]), VanhaeckeSpec(3, [(3, 1, 1)]), rows[2], rows[8]]
    for spec in specs:
        p = build_bivector(spec)
        counts = {}
        for pruned in (True, False):
            for flow in (gamma1, gamma2):
                with nullcontext() if pruned else _no_pruning(monkeypatch):
                    before = products[0]
                    counts[pruned, flow] = flow(p).raw, products[0] - before
        for flow in (gamma1, gamma2):
            assert counts[True, flow][0] == counts[False, flow][0], (spec, flow)
            assert counts[True, flow][1] <= counts[False, flow][1], (spec, flow)
        assert sum(counts[True, f][1] for f in (gamma1, gamma2)) < sum(counts[False, f][1] for f in (gamma1, gamma2))


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


# -- weighted combinations of graphs ------------------------------------------------


def _combine(weighted_sums):
    """sum_i w_i * S_i over (w_i, S_i) pairs of graph sums, zeros left out."""
    total = {}
    for w, sums in weighted_sums:
        for key, poly in sums.items():
            total[key] = total.get(key, Polynomial.zero(poly.ctx)) + poly.scale(w)
    return {key: poly for key, poly in total.items() if not poly.is_zero}


def test_weighted_graph_sums_match_naive_and_separate_sums():
    # A weighted combination of graphs with k = 1..4 vertices over shared
    # assignments (a graph reads the first k bi-vectors of each), with
    # rational and zero weights and a double-edge graph, on bi-vectors with
    # different denominators: the one graph_sum call equals the weighted sum
    # of the naive evaluator's sums and of separate graph_sum calls, in both
    # modes.  A graph with fewer vertices than the most carries the factor
    # D^(K - k) inside the sum, and the weights' lcm is divided out at the end.
    rng = random.Random(38)
    ctx = Context(3)
    double = parse_kgraph("3; (S1,V3) (V3,V3) (V2,S2)")  # V2's double edge: it vanishes
    nonzero, seen = set(), set()
    for sinks in (2, 3):
        for trial in range(3):
            graphs = [double] if sinks == 2 else []
            graphs += [_random_graph(rng, k, 0, sinks) for k in (1, 2, 3, 4) if k * 2 >= sinks]
            weights = [rng.choice((Fraction(-3, 4), Fraction(5, 6), 2, -1, 0)) for _ in graphs]
            weights[1], weights[-1] = weights[1] if trial else 0, Fraction(2, 3)
            combination = list(zip(weights, graphs))
            seen.update(w == 0 for w in weights)
            seen.update("double edge" for w, g in combination if w and g is double)
            p, q = _rational_bivector(rng, ctx), _rational_bivector(rng, ctx)
            assignments = [tuple(rng.choice((p, q)) for _ in range(4)) for _ in range(2)]
            for skew in (False, True):
                got = graph_sum(combination, assignments, skew=skew)
                naive = _combine((w, naive_graph_sum(g, assignments, skew)) for w, g in combination)
                separate = _combine((w, graph_sum(g, assignments, skew)) for w, g in combination)
                assert got == naive == separate, ([render_kgraph(g) for g in graphs], weights, skew)
                nonzero.update((sinks, skew) for _ in got)
    assert nonzero == {(2, False), (2, True), (3, False), (3, True)}
    assert seen == {True, False, "double edge"}
    assert graph_sum([(0, GAMMA1_GRAPH), (0, GAMMA2_GRAPH)], [(p,) * 4]) == {}
    with pytest.raises(TypeError):
        graph_sum([(1.5, GAMMA1_GRAPH)], [(p,) * 4])


def test_balanced_flow_is_the_combination_of_the_skew_parts():
    # The one weighted skew sum equals the linear combination of the two
    # skew parts on grid rows 1-10, the flows workload's dim-8 input, and
    # rational and eps-context inputs, with integer, rational and zero weights.
    rng = random.Random(39)
    rows = {rid: spec for rid, _, spec, _ in builtin_rows()}
    inputs = [build_bivector(rows[rid]) for rid in range(1, 11)]
    inputs.append(build_bivector(VanhaeckeSpec(4, [(2, 1, 1)])))
    eps_ctx = Context(3).with_epsilon()
    for _ in range(2):
        rational = _rational_bivector(rng, Context(3))
        inputs += [rational, _rational_bivector(rng, eps_ctx, extra=_rational_bivector(rng, eps_ctx))]
    weights = [(1, 6), (Fraction(2, 3), Fraction(-5, 7)), (3, Fraction(1, 2)), (0, 5), (-2, 0)]
    for at, p in enumerate(inputs):
        for a, b in (weights[0], weights[at % len(weights)]):
            want = mv_linear_combination([(a, gamma1(p).skew), (b, gamma2(p).skew)])
            assert balanced_flow(p, a, b) == want, (at, a, b)


def _probe_p_tilde():
    """The eps-probe's P~ on grid row 2: P + eps * Delta, scaled by D = 12 as
    ``perturb_probe`` does.  Delta has the shape of the probe benchmark's:
    per component c, a multiple of 1/3 times x^(2, 1, 0) rotated by c places
    and a multiple of 1/4 times x1*x2*x3."""
    p = build_bivector(next(spec for rid, _, spec, _ in builtin_rows() if rid == 2))
    ctx = p.ctx.with_epsilon()
    delta = MultiVector(
        ctx,
        2,
        {
            (1, 2): Polynomial(ctx, {(2, 1, 0, 0): Fraction(-2, 3), (1, 1, 1, 0): Fraction(3, 4)}),
            (1, 3): Polynomial(ctx, {(1, 0, 2, 0): Fraction(1, 3), (1, 1, 1, 0): Fraction(-1, 4)}),
            (2, 3): Polynomial(ctx, {(0, 2, 1, 0): Fraction(2, 3), (1, 1, 1, 0): Fraction(1, 4)}),
        },
    )
    return (p.lift(ctx) + delta.mul_poly(Polynomial.epsilon(ctx))).scale(12)


def _counting_builds(monkeypatch) -> list:
    """Wraps the engine's derivative table builder; the returned list gets
    one (bi-vector, (order, ascending, mirrored)) per table built."""
    builds = []
    build = kgraph_module._build_table

    def counting_build(p, *which):
        builds.append((p, which))
        return build(p, *which)

    monkeypatch.setattr(kgraph_module, "_build_table", counting_build)
    return builds


# The tables gamma1 builds on a fresh bi-vector: its ascending order 3 from
# orders 2, 1 and 0, and the mirrored order 1.  gamma2 then adds only the
# mirror of the ascending order 2, and the Schouten bracket the mirrored
# order 0.
GAMMA1_TABLES = [(0, False, False), (1, False, False), (1, False, True), (2, True, False), (3, True, False)]
GAMMA2_EXTRA_TABLES = [(2, True, True)]
BRACKET_EXTRA_TABLES = [(0, False, True)]


def test_balanced_flow_runs_the_products_of_both_skew_parts_with_shared_tables(monkeypatch):
    # One weighted sum runs exactly the products and term pairs of
    # gamma1(P).skew and gamma2(P).skew together.  Its weights 1 and 6 / 2 =
    # 3 are integers, so no coefficient is divided.  Support pruning takes
    # it from 351 / 15,115 to 303 / 13,726, and halving gamma1's first step
    # under its rotation to 299 / 13,668.  (The probe benchmark's seeded
    # Deltas give 299 products and 13,627-13,668 term pairs on seeds 1-10,
    # 303 and 13,685-13,727 before that halving, 351 and 15,067-15,116
    # before support pruning.)  The derivative tables live on P, and
    # each is built once: balanced_flow after the two flows builds none, and
    # on a fresh P it builds the six tables the two flows build between
    # them, after which no flow or repeated call builds one.
    p = _probe_p_tilde()
    counts, builds = count_products(monkeypatch), _counting_builds(monkeypatch)
    parts = []
    for run in (lambda: gamma1(p).skew, lambda: gamma2(p).skew, lambda: balanced_flow(p, 1, 6)):
        counts[:], builds[:] = [0, 0], []
        run()
        parts.append((*counts, sorted(which for _, which in builds)))
    (p1, t1, b1), (p2, t2, b2), (pb, tb, bb) = parts
    assert (pb, tb) == (p1 + p2, t1 + t2) == (299, 13668)
    assert (b1, b2, bb) == (GAMMA1_TABLES, GAMMA2_EXTRA_TABLES, [])
    fresh = _probe_p_tilde()
    builds.clear()
    balanced_flow(fresh, 1, 6)
    assert sorted(which for _, which in builds) == sorted(GAMMA1_TABLES + GAMMA2_EXTRA_TABLES)
    assert all(q is fresh for q, _ in builds)
    builds.clear()
    balanced_flow(fresh, 1, 6), gamma1(fresh).raw, gamma2(fresh).raw, gamma2(fresh).skew
    assert builds == []


# Where a table is read: grid rows 3 and 10, row 10 with phi = x^3*y^3 / 3
# (a rational P0, read through its integral form) and the flows workload's
# dim-8 input.
TABLE_INPUTS = {
    "row 3": next(spec for rid, _, spec, _ in builtin_rows() if rid == 3),
    "row 10": next(spec for rid, _, spec, _ in builtin_rows() if rid == 10),
    "row 10 phi/3": VanhaeckeSpec(2, [(3, 3, Fraction(1, 3))]),
    "dim 8": VanhaeckeSpec(4, [(2, 1, 1)]),
}


def _table_from_scratch(p, m, ascending, mirrored) -> dict:
    """The nonzero d^m P^{ab} / dx_{c1} ... dx_{cm} by ``Polynomial.diff``
    from the full matrix, a < b (every a != b when ``mirrored``), every
    order of the c's (only ascending ones when ``ascending``)."""
    n = p.ctx.dim

    @cache
    def derivative(a, b, cs):
        return derivative(a, b, cs[:-1]).diff(cs[-1]) if cs else p.entry(a, b)

    table = {}
    for a, b in permutations(range(1, n + 1), 2):
        for cs in product(range(1, n + 1), repeat=m):
            if (a < b or mirrored) and (not ascending or list(cs) == sorted(cs)):
                if not (poly := derivative(a, b, cs)).is_zero:
                    table[(a, b, *cs)] = poly.terms
    return table


@pytest.mark.parametrize("name", TABLE_INPUTS)
def test_stored_derivative_tables_equal_tables_built_from_scratch(name):
    # The Jacobi test, both flows raw and skew, the balanced flow and the
    # bracket [[P, Q]] fill the stores of P and Q, or of their integral
    # forms D * P and D * Q, which the stores of P and Q keep when D != 1;
    # then every table of orders 0-3, ascending or in every order, mirrored
    # or not, is read once more.  Each stored table equals one
    # differentiated from scratch: one built from a wrong order below it,
    # or an entry a graph sum wrote into, would differ.  The graph sums give
    # the same results again when they read the stored tables.
    p = build_bivector(TABLE_INPUTS[name])

    def graph_sums():
        q = balanced_flow(p, 1, 6)
        flows = [(flow(p).raw, flow(p).skew) for flow in (gamma1, gamma2)]
        return jacobiator(p), flows, q, schouten(p, q)

    first = graph_sums()
    assert graph_sums() == first
    q = first[2]
    assert (_denominators([p]) != {1}) == (name == "row 10 phi/3")
    for bivector in (p, q):
        d, form = kgraph_module._integral(bivector)
        assert d == lcm(*_denominators([bivector])) and form == bivector.scale(d)
        assert (form is bivector) == (d == 1) and bivector._tables["integral"] == (d, None if d == 1 else form)
        for m, ascending, mirrored in product(range(4), (False, True), (False, True)):
            kgraph_module.derivative_tensor(form, m, ascending, mirrored)
        tables = {which: table for which, table in form._tables.items() if which != "integral"}
        assert len(tables) == 12  # orders 0 and 1 have one table each
        assert set(bivector._tables) == ({"integral", *tables} if d == 1 else {"integral"})
        for (m, ascending, mirrored), table in tables.items():
            assert table == _table_from_scratch(form, m, ascending, mirrored), (m, ascending, mirrored)


# -- integer arithmetic for rational bi-vectors ------------------------------------


def _rational_bivector(rng, ctx, extra=None):
    """A random bi-vector whose components have denominators 1..12, plus
    eps times ``extra`` when given."""
    p = random_bivector(rng, ctx, max_terms=3, max_degree=4)
    if extra is not None:
        p = p + extra.mul_poly(Polynomial.epsilon(ctx))
    comps = {idx: poly.scale(Fraction(1, rng.randint(1, 12))) for idx, poly in p.comps.items()}
    return MultiVector(ctx, 2, comps)


def _denominators(bivectors):
    return {c.denominator for p in bivectors for poly in p.comps.values() for c in poly.terms.values()}


def test_rational_graph_sums_match_naive_fraction_evaluation():
    # graph_sum scales every distinct bi-vector of a call by the lcm D of all
    # their denominators and divides the result by D^k.  Checked against
    # the naive evaluator, which runs in plain Fraction arithmetic, in both
    # modes: the flows, the bracket graph, the one-vertex wedge, and seeded
    # random graphs with two and three sinks, each summed over assignments
    # of two bi-vectors with different denominators; then once over eps.
    rng = random.Random(30)
    ctx = Context(3)
    graphs = [GAMMA1_GRAPH, GAMMA2_GRAPH, _BRACKET_GRAPH, WEDGE_GRAPH]
    graphs += [_random_graph(rng, k, 0) for k in (2, 3, 4)]
    graphs += [_random_graph(rng, k, 0, sinks=3) for k in (2, 3, 4)]
    nonzero = set()
    for graph in graphs:
        k = graph.n_internal
        p, q = _rational_bivector(rng, ctx), _rational_bivector(rng, ctx)
        assert _denominators([p]) != _denominators([q]) and _denominators([p, q]) != {1}
        assignments = [tuple(rng.choice((p, q)) for _ in range(k)) for _ in range(2)]
        for skew in (False, True):
            got = graph_sum(graph, assignments, skew=skew)
            assert got == naive_graph_sum(graph, assignments, skew), (render_kgraph(graph), skew)
            if got and _denominators(assignments[0]) != {1}:
                nonzero.add((k, skew))
    assert {(1, False), (2, True), (4, False), (4, True)} <= nonzero
    eps_ctx = Context(3, has_epsilon=True)
    p = _rational_bivector(rng, eps_ctx, extra=_rational_bivector(rng, eps_ctx))
    q = _rational_bivector(rng, eps_ctx)
    for graph, assignments in ((_BRACKET_GRAPH, [(p, q), (q, p)]), (GAMMA2_GRAPH, [(p, q, p, p)])):
        for skew in (False, True):
            got = graph_sum(graph, assignments, skew=skew)
            assert got and got == naive_graph_sum(graph, assignments, skew)


def test_rational_bracket_runs_its_products_on_ints(monkeypatch):
    # Grid row 8: P2 = gamma2(P0).skew has half-integer coefficients, and no
    # Fraction coefficient reaches the engine's products in [[P0, P2]].
    p0 = build_bivector(next(spec for rid, _, spec, _ in builtin_rows() if rid == 8))
    p2 = gamma2(p0).skew
    assert 2 in _denominators([p2])
    fractions = []
    contract = kgraph_module._contract

    def count_fractions(ea, ta, eb, tb, slot):
        fractions.append(sum(isinstance(c, Fraction) for t in (ta, tb) for x in t.values() for c in x.values()))
        contract(ea, ta, eb, tb, slot)

    monkeypatch.setattr(kgraph_module, "_contract", count_fractions)
    bracket = schouten(p0, p2)
    assert fractions and sum(fractions) == 0
    monkeypatch.undo()
    # the bracket is bilinear: [[P0, P2]] = [[P0, 2*P2]] / 2, the latter integral
    assert bracket == schouten(p0, p2.scale(2)).scale(Fraction(1, 2))


def test_rational_bivectors_share_one_derivative_table_each(monkeypatch):
    # A rational bi-vector p is read through its integral form D * p, which
    # p's store keeps: its flows build the tables of an integral bi-vector,
    # each once, on that one copy, and a repeated flow or bracket builds
    # none, as on an integral bi-vector.  p's own store holds only the form.
    builds = _counting_builds(monkeypatch)
    p = _rational_bivector(random.Random(31), Context(3))
    integral = p.scale(27720)  # 27720 = lcm(1, ..., 12)
    d, form = kgraph_module._integral(p)
    assert d != 1 and form == p.scale(d) and kgraph_module._integral(integral) == (1, integral)
    runs = []
    for bivector in (p, integral, p, integral):
        owner = kgraph_module._integral(bivector)[1]
        for run in (
            lambda: graph_sum(GAMMA1_GRAPH, [(bivector,) * 4]),
            lambda: graph_sum(GAMMA2_GRAPH, [(bivector,) * 4]),
            lambda: schouten(bivector, bivector),
        ):
            builds.clear()
            run()
            assert all(q is owner for q, _ in builds)
            runs.append(sorted(which for _, which in builds))
    first = [GAMMA1_TABLES, GAMMA2_EXTRA_TABLES, BRACKET_EXTRA_TABLES]
    assert runs == first + first + [[]] * 6
    assert set(p._tables) == {"integral"} and len(form._tables) == len(integral._tables) - 1 == 7


def test_exponent_overflow_inside_a_flow_fails_loudly():
    # Every entry of P carries x3^E with 4E - 6 >= 2^16: a product of two
    # vertex factors sets the guard bit of x3, and a product of all four
    # would carry past it into x2 and leave a field that looks valid.  The
    # check after each contraction step catches it before the carry.
    ctx = Context(3)
    e = EXPONENT_LIMIT // 2 + 2
    comps = {
        (1, 2): Polynomial(ctx, {(2, 1, e): 1}),
        (1, 3): Polynomial(ctx, {(1, 2, e): 1}),
        (2, 3): Polynomial(ctx, {(1, 1, e): -1}),
    }
    p = MultiVector(ctx, 2, comps)
    with pytest.raises(ExponentOverflowError):
        gamma1(p).skew
    with pytest.raises(ExponentOverflowError):
        gamma1(p).raw


def test_guard_bits_are_checked_between_steps_only_when_an_exponent_can_overflow(monkeypatch):
    # Derivatives only lower exponents, so no product of k vertex factors has
    # an exponent above k * E, E the largest exponent of the call's
    # bi-vectors.  Below EXPONENT_LIMIT no guard bits are checked between
    # steps, and the flows keep their reference values; at k * E ==
    # EXPONENT_LIMIT both middle steps of gamma2 are checked again (no
    # product overflows here: one vertex carries the high power).
    calls = []

    def counting_check(ctx, monos):
        calls.append(len(monos))
        check_guard(ctx, monos)

    check_guard = kgraph_module._check_guard
    monkeypatch.setattr(kgraph_module, "_check_guard", counting_check)
    res1, res2 = gamma1(p0()), gamma2(p0())
    for (i, j), text in P1_UPPER.items():
        assert res1.raw.entry(i, j) == parse4(text)
    assert [[entry.render() for entry in row] for row in res2.raw.entries] == [
        [parse4(text).render() for text in row] for row in P2_RAW
    ]
    assert calls == []
    ctx = Context(3)
    q = random_bivector(random.Random(34), ctx, max_terms=3, max_degree=4)
    top = EXPONENT_LIMIT // GAMMA2_GRAPH.n_internal
    for e, checks in ((top - 1, 0), (top, 2)):
        p = MultiVector(ctx, 2, {(1, 2): Polynomial(ctx, {(2, 1, e): 1, (1, 1, 2): 3})})
        calls.clear()
        got = graph_sum(GAMMA2_GRAPH, [(p, q, q, q)])
        assert len(calls) == checks
        assert got and got == naive_graph_sum(GAMMA2_GRAPH, [(p, q, q, q)])


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
    for a, b in ((1.5, 6), (1, 6.0), (True, 6), (1, True)):
        with pytest.raises(TypeError):
            balanced_flow(bi, a, b)
