"""Shared randomized builders, independent reference evaluators, the former
polynomial parser and phi reader as reference parsers, and a counter of the
engine's products.

The evaluators here are deliberately written from the defining formulas with
plain nested loops and no pruning or index bookkeeping shared with the
package, so they can serve as independent oracles.  The one cache, of the
vertex factors in ``naive_graph_tensor``, holds values of the definition.
"""

import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd
from typing import Sequence

import tetraflows._kgraph as kgraph_module
from tetraflows.analysis import RatioSolution
from tetraflows.graphflow import gamma1, gamma2, parse_kgraph
from tetraflows.multivector import MultiVector, mv_linear_combination
from tetraflows.polyring import EXPONENT_LIMIT, Context, PolyParseError, Polynomial, _grammar, _tokenize, finish

# Fixed seed for the randomized property suites (reproducible runs).
DEFAULT_SEED = 20160613

# The single-wedge graph encoding the bi-vector itself, and the graph that
# vanishes for every skew input by the symmetry of its double loops.
WEDGE_GRAPH = parse_kgraph("1; (S1,S2)")
SKEW_VANISHING_GRAPH = parse_kgraph("4; (S1,S2) (V1,V4) (V1,V4) (V2,V3)")


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
    sinks.  Enumerates all n^(2k) assignments and multiplies the k vertex
    factors of each; a factor, the entry P^{ab} differentiated along the
    vertex's in-edges, is built once per tuple of the vertex's own edge
    indices.  Returns {(index into S1, ..., index into Sm): polynomial}
    with the zero entries left out.
    """
    ctx = bivectors[0].ctx
    n = ctx.dim
    k = graph.n_internal
    targets = [t for pair in graph.edges for t in pair]
    m = max((i for kind, i in targets if kind == "S"), default=0)
    sinks = [targets.index(("S", s)) for s in range(1, m + 1)]
    # vertex v's own edges: its out-edges L and R, then its in-edges
    own = [
        (2 * v - 2, 2 * v - 1, *(e for e, target in enumerate(targets) if target == ("V", v)))
        for v in range(1, k + 1)
    ]
    factors = [{} for _ in range(k)]  # per vertex: own edge indices -> factor

    def factor(v, idx):
        if idx not in factors[v]:
            poly = bivectors[v].entry(idx[0], idx[1])
            for c in idx[2:]:
                poly = poly.diff(c)
            factors[v][idx] = poly
        return factors[v][idx]

    one, tensor = Polynomial.one(ctx), {}
    for assign in product(range(1, n + 1), repeat=2 * k):
        term = one
        for v in range(k):
            term = term * factor(v, tuple(assign[e] for e in own[v]))
            if term.is_zero:
                break
        if not term.is_zero:
            key = tuple(assign[e] for e in sinks)
            tensor[key] = tensor.get(key, Polynomial.zero(ctx)) + term
    return {key: poly for key, poly in tensor.items() if not poly.is_zero}


def naive_graph_sum(graph, assignments, skew=False):
    """The contract of ``_kgraph.graph_sum`` from naive_graph_tensor.

    Sums the naive tensors of the assignments, keeping at a vertex that
    holds two sinks i, j only the entries with index(Si) < index(Sj).  With
    ``skew``, entries with a repeated index are dropped and every other
    entry moves to its sorted key, negated when the sort is odd.
    """
    ctx = assignments[0][0].ctx
    pairs = [(l[1], r[1]) for l, r in graph.edges if l[0] == r[0] == "S"]
    total = {}
    for bivectors in assignments:
        for key, poly in naive_graph_tensor(graph, bivectors).items():
            if not all(key[i - 1] < key[j - 1] for i, j in pairs):
                continue
            if skew:
                if len(set(key)) < len(key):
                    continue
                odd = sum(a > b for a, b in combinations(key, 2)) % 2
                key, poly = tuple(sorted(key)), -poly if odd else poly
            total[key] = total.get(key, Polynomial.zero(ctx)) + poly
    return {key: poly for key, poly in total.items() if not poly.is_zero}


def naive_evaluate_kgraph_raw(graph, p):
    """The raw matrix of a two-sink graph with p on every vertex, by
    naive_graph_tensor, as a nested list of polynomials."""
    tensor = naive_graph_tensor(graph, [p] * graph.n_internal)
    n = p.ctx.dim
    zero = Polynomial.zero(p.ctx)
    return [[tensor.get((a, b), zero) for b in range(1, n + 1)] for a in range(1, n + 1)]


def skew_of_raw(raw):
    """The bi-vector with comps (a, b) = (M^{ab} - M^{ba}) / 2 of a raw matrix."""
    n = raw.ctx.dim
    comps = {
        (a, b): (raw.entry(a, b) - raw.entry(b, a)).scale(Fraction(1, 2))
        for a, b in combinations(range(1, n + 1), 2)
    }
    return MultiVector(raw.ctx, 2, comps)


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


def value_at(poly, x):
    """A Polynomial's exact value at the integer point x."""
    return sum(c * _monomial_at(exps, (), x) for exps, c in poly.items())


def _monomial_at(exps, cs, x):
    """d^m x^exps / dx_{c1} ... dx_{cm} at the point x (0-based c's): per
    variable i, differentiated k times, e (e-1) ... (e-k+1) x_i^(e-k)."""
    value = 1
    for i, (xi, e) in enumerate(zip(x, exps)):
        k = cs.count(i)
        if k > e:
            return 0
        for j in range(k):
            value *= e - j
        value *= xi ** (e - k)
    return value


def point_oracle(graph, bivectors, x):
    """A graph's tensor at an integer point x, by one ``numpy.einsum``.

    Vertex v carries bivectors[v-1].  Its factor is the n x n x n^m object
    array of d^m P^{ab} / dx_{c1} ... dx_{cm} at x, m its in-edges, each
    value summed exactly from the monomials of P^{ab}.  Every edge of the
    graph gets one letter; a vertex's subscripts are its L and R out-edges,
    then its in-edges, and the output's are the edges into S1, S2, ...
    Nothing but the graph's edge tuple is read.  Returns the object array
    of the graph with every index summed, entry [i1 - 1, ..., im - 1] for
    index i_s into S_s.
    """
    import numpy as np  # only this oracle needs numpy

    n = len(x)
    targets = [t for pair in graph.edges for t in pair]
    letter = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    factors = {}  # (id of P, m) -> its factor

    def factor(p, m):
        if (id(p), m) not in factors:
            table = np.zeros((n,) * (2 + m), dtype=object)
            for (a, b), poly in p.comps.items():
                terms = list(poly.items())
                for cs in combinations_with_replacement(range(n), m):
                    value = sum(c * _monomial_at(exps, cs, x) for exps, c in terms)
                    for order in set(permutations(cs)):
                        table[(a - 1, b - 1, *order)], table[(b - 1, a - 1, *order)] = value, -value
            factors[id(p), m] = table
        return factors[id(p), m]

    subscripts, operands = [], []
    for v, p in enumerate(bivectors[: graph.n_internal], start=1):
        ins = [e for e, t in enumerate(targets) if t == ("V", v)]
        subscripts.append("".join(letter[e] for e in (2 * v - 2, 2 * v - 1, *ins)))
        operands.append(factor(p, len(ins)))
    sinks = sorted((t[1], e) for e, t in enumerate(targets) if t[0] == "S")
    out = "".join(letter[e] for _, e in sinks)
    return np.einsum(",".join(subscripts) + "->" + out, *operands, optimize=True)


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


def brute_schouten(p, q):
    """The Schouten bracket of two bi-vectors from the six-term formula of
    the ``multivector`` docstring, one plain polynomial sum per i < j < k:

    [[P,Q]]^{ijk} = sum_l ( d_l P^{ij} Q^{lk} + d_l Q^{ij} P^{lk}
                          + d_l P^{jk} Q^{li} + d_l Q^{jk} P^{li}
                          + d_l P^{ki} Q^{lj} + d_l Q^{ki} P^{lj} ).
    """
    n = p.ctx.dim
    comps = {}
    for i, j, k in combinations(range(1, n + 1), 3):
        acc = Polynomial.zero(p.ctx)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l in range(1, n + 1):
                acc = acc + p.entry(a, b).diff(l) * q.entry(l, c)
                acc = acc + q.entry(a, b).diff(l) * p.entry(l, c)
        if not acc.is_zero:
            comps[(i, j, k)] = acc
    return MultiVector(p.ctx, 3, comps)


def fraction_perturb_probe(p, delta):
    """The eps-graded brackets of P~ = P + eps*Delta, taken by brute_schouten
    on P~ itself, with no integer scaling and no division per order
    (reference for ``analysis.perturb_probe``; the flows of P~ are the
    package's, checked against naive_graph_sum elsewhere)."""
    eps = Polynomial.epsilon(p.ctx)
    p_tilde = p + delta.mul_poly(eps)
    q_tilde = mv_linear_combination([(1, gamma1(p_tilde).skew), (6, gamma2(p_tilde).skew)])
    j_parts = brute_schouten(p_tilde, p_tilde).epsilon_split()
    c_parts = brute_schouten(p_tilde, q_tilde).epsilon_split()
    zero = MultiVector(p.ctx.without_epsilon(), 3)
    return {
        k: (j_parts.get(k, zero), c_parts.get(k, zero))
        for k in sorted(set(j_parts) | set(c_parts))
    }


def fraction_find_ratios(p, basis):
    """The null space of sum_i c_i * [[P, B_i]] = 0 from brute_schouten
    brackets by sympy's Matrix.nullspace, each vector scaled to primitive
    integers with its first nonzero entry positive (reference for
    ``analysis.find_ratios``)."""
    import sympy

    brackets = [brute_schouten(p, b) for b in basis]
    rows = sorted({(idx, m) for t in brackets for idx, poly in t.comps.items() for m in poly.terms})
    entries = [
        sympy.Rational(t.comps[idx].terms.get(m, 0) if idx in t.comps else 0)
        for idx, m in rows
        for t in brackets
    ]
    vectors = []
    for v in sympy.Matrix(len(rows), len(basis), entries).nullspace():
        den = sympy.ilcm(1, *(x.q for x in v))
        ints = [int(x * den) for x in v]
        g = gcd(*ints)
        sign = -1 if next(x for x in ints if x) < 0 else 1
        vectors.append(tuple(sign * x // g for x in ints))
    return RatioSolution(len(vectors), tuple(vectors))


def count_products(monkeypatch):
    """Count the contraction engine's products from here on.

    Swaps the engine's tally ``_kgraph._tally`` for a fresh list [products,
    term pairs] and returns it; each contraction adds its counts to it in
    place (reset it with ``counts[:] = [0, 0]``).
    """
    counts = [0, 0]
    monkeypatch.setattr(kgraph_module, "_tally", counts)
    return counts


# The former reader of ``gen --vanhaecke --phi``, kept verbatim as the
# reference for the parser's names: it rewrites x and y to x1 and x2, parses
# in the default grammar and maps each error back to the text as typed.
_PHI_VAR = re.compile(r"(?<![A-Za-z_])[xy]\d*")  # also right after a number: "2x"


def _parse_phi(text: str) -> "list[tuple]":
    """Parse a bivariate polynomial in x, y into (a, b, coeff) triples.

    x and y are read as x1 and x2; a parse error gives its position in ``text``.
    """
    starts = []
    for m in _PHI_VAR.finditer(text):
        if m.end() - m.start() > 1:  # x1, y2, ...: not a name of phi
            raise PolyParseError(f"unknown variable {m.group()!r} (phi is in x and y)", m.start())
        starts.append(m.start())
    translated = _PHI_VAR.sub(lambda m: "x1" if m.group() == "x" else "x2", text)
    try:
        poly = Polynomial.parse(translated, Context(2))
    except PolyParseError as exc:
        # the i-th rewrite put one character at start + i + 1 of `translated`
        inserted = sum(start + i + 1 < exc.position for i, start in enumerate(starts))
        at, message = exc.position - inserted, exc.message
        if at in starts:  # the offending token is a rewritten x or y: name it as typed
            rewritten = translated[exc.position : exc.position + 2]
            message = message.replace(repr(rewritten), repr(text[at]))
        for slot, name in (("x1", "x"), ("x2", "y")):  # an exponent error names the slot
            message = message.replace(f" of {slot} ", f" of {name} ")
        raise PolyParseError(message, at) from None
    return sorted((a, b, c) for (a, b), c in poly.items())


# The former ``Polynomial.parse``, kept verbatim (as a function) as the
# reference for the one-token-lookahead parser: the same grammar, results,
# error messages and positions.
def reference_parse(text: str, ctx: Context, names: Sequence[str] = ()) -> "Polynomial":
    """Parse the bit-exact grammar, e.g. ``-2*x1*x2^3*x3^5*x4``.

    polynomial := term (("+"|"-") term)*
    term       := [sign] [rational "*"] factor ("*" factor)* | [sign] rational
    factor     := var ["^" positive-int];  var := one of the names
    rational   := int ["/" positive-int];  whitespace is ignored.

    ``names`` gives the variables' names slot by slot, by default
    ``ctx.names``; ``names=("x", "y")`` reads phi(x, y) in ``Context(2)``.
    The exponent of each variable in a term must be below EXPONENT_LIMIT.
    """
    names = tuple(names) or ctx.names
    if len(set(names)) != ctx.nslots or not all(n.rstrip("0123456789") for n in names):
        raise ValueError(f"need {ctx.nslots} distinct variable names, not only digits: {names!r}")
    token, slots = _grammar(names)
    tokens = _tokenize(text, token)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "", len(text))

    terms: dict = {}
    ns = ctx.nslots

    def add_term(exps, coeff):
        mono = ctx.pack(exps)
        terms[mono] = terms.get(mono, 0) + coeff

    first = True
    while True:
        kind, val, at = peek()
        if kind == "end":
            if first:
                raise PolyParseError("empty polynomial", at)
            break
        sign = 1
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            pos += 1
            kind, val, at = peek()
        elif not first:
            raise PolyParseError(f"expected '+' or '-', found {val!r}", at)
        first = False

        coeff = None
        if kind == "num":
            pos += 1
            numer = int(val)
            kind, val, at = peek()
            if kind == "op" and val == "/":
                pos += 1
                kind, val, at = peek()
                if kind != "num" or int(val) == 0:
                    raise PolyParseError("expected positive denominator", at)
                coeff = Fraction(numer, int(val))
                pos += 1
                kind, val, at = peek()
            else:
                coeff = numer
            if kind == "op" and val == "*":
                pos += 1
                kind, val, at = peek()
                if kind != "name":
                    raise PolyParseError("expected variable after '*'", at)
            elif kind == "name":
                raise PolyParseError(f"missing '*' before {val!r}", at)
            else:
                add_term((0,) * ns, sign * coeff)  # constant term
                continue
        if kind != "name":
            raise PolyParseError(f"expected term, found {val!r}", at)

        exps = [0] * ns
        while True:
            slot = slots.get(val)
            if slot is None:
                raise PolyParseError(f"unknown variable {val!r} (variables: {', '.join(names)})", at)
            pos += 1
            e = 1
            e_at = at
            kind, val, at = peek()
            if kind == "op" and val == "^":
                pos += 1
                kind, val, at = peek()
                if kind != "num" or int(val) == 0:
                    raise PolyParseError("expected positive exponent", at)
                e = int(val)
                e_at = at
                pos += 1
                kind, val, at = peek()
            exps[slot] += e
            if exps[slot] >= EXPONENT_LIMIT:
                raise PolyParseError(
                    f"exponent {exps[slot]} of {names[slot]} is not below "
                    f"the limit {EXPONENT_LIMIT}",
                    e_at,
                )
            if kind == "op" and val == "*":
                pos += 1
                kind, val, at = peek()
                if kind != "name":
                    raise PolyParseError("expected variable after '*'", at)
                continue
            break
        add_term(exps, sign * (1 if coeff is None else coeff))

    return finish(ctx, terms)
