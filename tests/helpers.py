"""Shared randomized builders and independent reference evaluators.

The evaluators here are deliberately written from the defining formulas with
plain nested loops and no pruning, caching, or index bookkeeping shared with
the package, so they can serve as independent oracles.
"""

from itertools import product

from tetraflows.multivector import MultiVector
from tetraflows.polyring import Context, Polynomial


def random_polynomial(rng, ctx, max_terms=3, max_degree=4, zero_ok=False):
    """Sparse random polynomial with total degree <= max_degree per monomial."""
    terms = {}
    for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
        exps = [0] * ctx.nslots
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(ctx.dim)] += 1
        coeff = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(ctx, terms)


def random_bivector(rng, ctx, max_terms=2, max_degree=3):
    comps = {}
    for i in range(1, ctx.dim + 1):
        for j in range(i + 1, ctx.dim + 1):
            p = random_polynomial(rng, ctx, max_terms, max_degree, zero_ok=True)
            if not p.is_zero:
                comps[(i, j)] = p
    return MultiVector(ctx, 2, comps)


def brute_jacobi_tensor(p):
    """Eq-style Jacobi tensor over ALL ordered index triples, no shortcuts."""
    n = p.ctx.dim
    tensor = {}
    for i, j, k in product(range(1, n + 1), repeat=3):
        acc = Polynomial.zero(p.ctx)
        for l in range(1, n + 1):
            acc = acc + p.entry(i, j).diff(l) * p.entry(l, k)
            acc = acc + p.entry(j, k).diff(l) * p.entry(l, i)
            acc = acc + p.entry(k, i).diff(l) * p.entry(l, j)
        tensor[(i, j, k)] = acc
    return tensor


def naive_graph_tensor(graph, bivectors):
    """Graph evaluation by full iteration over every edge assignment.

    Vertex v carries bivectors[v-1]; the graph may have any number m of
    sinks.  Enumerates all n^(2k) assignments and recomputes every factor
    from scratch; returns {(index into S1, ..., index into Sm): polynomial}
    with the zero entries left out.
    """
    ctx = bivectors[0].ctx
    n = ctx.dim
    k = graph.n_internal
    targets = [t for pair in graph.edges for t in pair]
    m = max((i for kind, i in targets if kind == "S"), default=0)
    sinks = [targets.index(("S", s)) for s in range(1, m + 1)]
    tensor = {}
    for assign in product(range(1, n + 1), repeat=2 * k):
        term = Polynomial.one(ctx)
        for v in range(1, k + 1):
            factor = bivectors[v - 1].entry(assign[2 * (v - 1)], assign[2 * (v - 1) + 1])
            for e, target in enumerate(targets):
                if target == ("V", v):
                    factor = factor.diff(assign[e])
            term = term * factor
            if term.is_zero:
                break
        if not term.is_zero:
            key = tuple(assign[e] for e in sinks)
            tensor[key] = tensor.get(key, Polynomial.zero(ctx)) + term
    return {key: poly for key, poly in tensor.items() if not poly.is_zero}


def naive_evaluate_kgraph_raw(graph, p):
    """The raw matrix of a two-sink graph with p on every vertex, by
    naive_graph_tensor, as a nested list of polynomials."""
    tensor = naive_graph_tensor(graph, [p] * graph.n_internal)
    n = p.ctx.dim
    zero = Polynomial.zero(p.ctx)
    return [[tensor.get((a, b), zero) for b in range(1, n + 1)] for a in range(1, n + 1)]


def _entry_derivative(p, a, b, *indices):
    """d P^{ab} / dx_{c1} ... dx_{cm}, recomputed from the full matrix."""
    poly = p.entry(a, b)
    for c in indices:
        poly = poly.diff(c)
    return poly


def brute_gamma1_raw(p):
    """The first tetrahedral flow from its displayed formula, every index looped:

    R^{ij} = sum d^3 P^{ij}/dx_k dx_l dx_m * dP^{kk'}/dx_{l'} * dP^{ll'}/dx_{m'}
                 * dP^{mm'}/dx_{k'}.
    """
    ctx = p.ctx
    n = ctx.dim
    d = _entry_derivative
    result = [[Polynomial.zero(ctx) for _ in range(n)] for _ in range(n)]
    for i, j, k, l, m in product(range(1, n + 1), repeat=5):
        head = d(p, i, j, k, l, m)
        if head.is_zero:
            continue
        for k1, l1, m1 in product(range(1, n + 1), repeat=3):
            term = head * d(p, k, k1, l1) * d(p, l, l1, m1) * d(p, m, m1, k1)
            result[i - 1][j - 1] = result[i - 1][j - 1] + term
    return result


def brute_gamma2_raw(p):
    """The second tetrahedral flow from its displayed formula, every index looped:

    R^{im} = sum d^2 P^{ij}/dx_k dx_l * d^2 P^{km}/dx_{k'} dx_{l'}
                 * dP^{k'l}/dx_{m'} * dP^{m'l'}/dx_j.
    """
    ctx = p.ctx
    n = ctx.dim
    d = _entry_derivative
    result = [[Polynomial.zero(ctx) for _ in range(n)] for _ in range(n)]
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        head = d(p, i, j, k, l)
        if head.is_zero:
            continue
        for m, k1, l1, m1 in product(range(1, n + 1), repeat=4):
            term = head * d(p, k, m, k1, l1) * d(p, k1, l, m1) * d(p, m1, l1, j)
            result[i - 1][m - 1] = result[i - 1][m - 1] + term
    return result


def lie_derivative_bracket(p, vector_comps):
    """The bi-vector [[P, X]] for a 1-vector X (ad hoc, for identity tests).

    Components: sum_l ( X^l d_l P^{ij} - P^{lj} d_l X^i - P^{il} d_l X^j ).
    """
    ctx = p.ctx
    n = ctx.dim
    comps = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            acc = Polynomial.zero(ctx)
            for l in range(1, n + 1):
                acc = acc + vector_comps[l - 1] * p.entry(i, j).diff(l)
                acc = acc - p.entry(l, j) * vector_comps[i - 1].diff(l)
                acc = acc - p.entry(i, l) * vector_comps[j - 1].diff(l)
            if not acc.is_zero:
                comps[(i, j)] = acc
    return MultiVector(ctx, 2, comps)
