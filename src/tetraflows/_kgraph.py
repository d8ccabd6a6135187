"""Oriented graphs with sinks, their text encoding, and the one contraction
engine behind every graph sum: the flows and the Schouten bracket.

A graph has sinks S1..Sm and k >= 1 internal vertices; every internal vertex
carries a bi-vector of its own and issues an ordered pair (L, R) of edges.
Each edge carries a summation index 1..n; an edge into a vertex applies the
corresponding partial derivative to that vertex's bi-vector, and the L/R
out-edges of a vertex pick its first/second superscript.  The edge into
each sink carries a free index of the resulting tensor.

Every tensor of the engine maps index tuples to term dicts (see
``polyring``); only the entries of a result become Polynomials.  The steps
of a contraction depend on the edges alone, so each graph's plan is worked
out once, on its first sum (``_plan``).

Text encoding: ``"<k>; (t,t) (t,t) ..."`` with one ordered target pair per
internal vertex; a target is ``S<i>`` or ``V<idx>``, every number in ASCII
digits.  Tadpoles (self-loops) are rejected; double edges and two-edge loops
are allowed.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache, reduce
from itertools import chain, combinations, permutations, product
from math import comb, lcm, prod
from operator import itemgetter, or_

from .polyring import EXPONENT_LIMIT, ContextMismatchError, PolyParseError, _denominator_lcm, addmul, addto
from .polyring import _Record, _check_guard, _diff, _integer, _nonzero, _norm_coeff, _quotient


class GraphParseError(ValueError):
    """Graph text does not conform to the grammar."""


class GraphStructureError(ValueError):
    """Graph violates a structural invariant (tadpole, bad target, bad sinks)."""


class KGraph(_Record):
    """Oriented graph: sinks, n_internal vertices with ordered out-pairs;
    ``edges[v-1]`` is (left_target, right_target)."""

    __match_args__ = __slots__ = ("n_internal", "edges")

    def __init__(self, n_internal: int, edges: tuple):
        self._init(n_internal, tuple(tuple(pair) for pair in edges))
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
                kind, idx = t
                if kind == "S" and idx >= 1:
                    continue
                if kind != "V" or not 1 <= idx <= self.n_internal:
                    raise GraphStructureError(f"bad edge target {t!r} at vertex {v}")
                if idx == v:
                    raise GraphStructureError(f"tadpole at vertex {v}")

    # Every plan lookup hashes the graph: the fields directly, not _values().
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n_internal == other.n_internal and self.edges == other.edges
        return NotImplemented

    def __hash__(self):
        return hash((self.n_internal, self.edges))


_PAIR = re.compile(r"\(\s*([SV][0-9]+)\s*,\s*([SV][0-9]+)\s*\)")


def parse_kgraph(text: str) -> KGraph:
    """Parse ``"<k>; (t,t) (t,t) ..."`` into a validated KGraph."""
    head, sep, _ = text.partition(";")
    if not sep:
        raise GraphParseError("missing ';' after the vertex count")
    if not re.fullmatch("[0-9]+", head.strip()):
        raise GraphParseError(f"bad vertex count {head.strip()!r}")
    pairs = []
    pos = len(head) + 1
    try:
        k = _integer(head.strip(), len(head) - len(head.lstrip()))
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _PAIR.match(text, pos)
            if m is None:
                raise GraphParseError(f"bad target pair near {text[pos : pos + 20]!r}")
            pairs.append(tuple((m[g][0], _integer(m[g][1:], m.start(g) + 1)) for g in (1, 2)))  # after S or V
            pos = m.end()
    except PolyParseError as exc:  # a number too long for int()
        raise GraphParseError(str(exc)) from None
    if len(pairs) != k:
        raise GraphParseError(f"declared {k} vertices but found {len(pairs)} pairs")
    return KGraph(k, tuple(pairs))


def render_kgraph(g: KGraph) -> str:
    def t(target):
        kind, idx = target
        return f"{kind}{idx}"

    body = " ".join(f"({t(l)},{t(r)})" for l, r in g.edges)
    return f"{g.n_internal}; {body}"


def derivative_tensor(p, m: int, ascending: bool, mirrored: bool = False) -> dict:
    """Nonzero m-th derivatives of a bi-vector's matrix, a < b.

    Keys are (a, b, c1, ..., cm), values the term maps of the nonzero
    d^m P^{ab} / dx_{c1} ... dx_{cm}: every order of the c's, or only
    c1 <= ... <= cm when ``ascending`` (derivatives commute, so the other
    orders repeat these values).  ``mirrored`` adds the a > b entries, the
    negations.

    The tables live in the bi-vector's own store (``MultiVector._tables``)
    for as long as the bi-vector does, and each is built once, on its first
    read: order m from the stored order m - 1 of the same index order
    (orders 0 and 1 have one table each), a mirrored table from the one it
    mirrors, whose entries it shares.  Nobody writes into a stored table.
    ``graph_sum`` reads the tables of a bi-vector's integral form
    (``_integral``), which a rational bi-vector keeps in its store.
    """
    which = (m, ascending and m > 1, mirrored)
    table = p._tables.get(which)
    if table is None:
        table = p._tables[which] = _build_table(p, *which)
    return table


def _build_table(p, m: int, ascending: bool, mirrored: bool) -> dict:
    """The derivative table ``which`` of ``derivative_tensor``, from the
    stored ones below it."""
    if mirrored:
        return _mirror(derivative_tensor(p, m, ascending))
    if not m:
        return {key: poly.terms for key, poly in p.comps.items()}
    shifts = [None] + [p.ctx.slot_shift(c - 1) for c in range(1, p.ctx.dim + 1)]
    return {
        key + (c,): d
        for key, terms in derivative_tensor(p, m - 1, ascending).items()
        for c in range(key[-1] if ascending else 1, len(shifts))
        if (d := _diff(terms, shifts[c]))
    }


def _integral(p) -> tuple:
    """(D, D * p), D the lcm of the coefficient denominators of the
    bi-vector p ((1, p) when p is integral), worked out once and kept in p's
    store with the tables built on D * p: graph sums on p share them."""
    if "integral" not in p._tables:
        d = _denominator_lcm(p.comps.values())
        # an integral p keeps no reference to itself, which would be a cycle
        p._tables["integral"] = d, p.scale(d) if d != 1 else None
    d, q = p._tables["integral"]
    return d, p if q is None else q


def _mirror(table: dict) -> dict:
    """An a < b derivative table with its a > b entries, the negations, added."""
    return table | {(k[1], k[0]) + k[2:]: {m: -c for m, c in t.items()} for k, t in table.items()}


def graph_sum(g: KGraph | list, assignments: list, skew: bool = False) -> dict:
    """Sum of a graph's evaluations over assignments of bi-vectors to it.

    An assignment is a tuple of bi-vectors, one per vertex, vertex 1 first.
    The result is {(index into S1, ..., index into Sm): nonzero polynomial}.
    With ``skew`` a product goes to the key of its sorted sink indices,
    negated when the sort is an odd permutation, or is dropped when a sink
    index repeats.

    ``g`` is a graph, or a weighted combination of graphs with the same
    sinks: a list of (weight, graph) pairs, int or Fraction weights, whose
    sum is sum_i w_i * graph_sum(g_i, assignments, skew) in one pass, with
    one accumulator.  A graph with k vertices reads the first k bi-vectors
    of each assignment; a zero weight runs no product.

    Every vertex is a sparse tensor over its edges (L, R, in-edges): {index
    tuple: term map of the derivative of P^{LR} along the in-edge indices},
    read from the tables stored on P (``derivative_tensor``), so the graph
    sums on one bi-vector build each of its tables once between them.
    They are contracted pairwise along shared edges as the graph's cached
    ``_plan`` says; after a step, zero terms are dropped.  The products of
    the last step go straight into the result.
    Derivatives commute: a vertex whose in-edges (two or more) all meet a
    step's result is enumerated ascending on them, and that result is summed
    onto ascending indices there as it is built.  Any other vertex table
    holds every order of its in-edge indices.

    A vertex holding two sinks is taken only for a < b on its out-edges:
    the entries with a > b are the negations and are left out, so with
    ``skew`` the pair counts once.  A middle step in which a vertex keeps
    both of its out-edges, not both into sinks, is halved the same way: the
    plan enumerates the vertex a < b, and each entry is also written,
    negated, at the key with L and R exchanged.  The automorphisms that
    respect an assignment (v and its image carry the same bi-vector) are
    used twice.  One with an odd number of L/R swaps negates the evaluation,
    so the assignment is zero and runs no product (a double edge is such a
    swap).  An even one that maps a step's result onto itself, moving only
    fold positions, leaves it unchanged: an image of an entry is written
    only if it is the least of its orbit, times the orbit size
    (``_orbit_rules``).  An entry whose only image is itself at weight 1
    goes straight into the step's result, any other after the step's
    products.

    Every product runs in integers: each bi-vector p is read through its
    integral form D_p * p (``_integral``), D_p the lcm of its coefficient
    denominators, kept in p's store with the tables built on it.  So the
    products of a graph's k vertices under an assignment carry Pi, the
    product of their D_p.  With M the lcm of the Pi of all (graph,
    assignment) pairs of nonzero weight and L the lcm of the weights'
    denominators, a pair contributes L * w * M / Pi times its products (a
    factor put on the smaller operand of its last step, none when it is
    1), and each result coefficient is divided by L * M once, at the end
    (``_quotient``).

    Support pruning: before its first product, a middle step works out
    from the index keys of the vertex tables alone which of its keys can
    still meet a partner in a later step, and drops every other key as it
    is made (the semi-join reduction of join processing; Yannakakis, VLDB
    1981; ``_supports``).  A dropped key has no partner, so the sum is
    unchanged.  In dim 8 (Vanhaecke d=4, phi=x^2*y) gamma1 runs 3,142 ->
    371 products.

    Derivatives only lower exponents, so no product of k vertex factors
    reaches k * E, E the largest field of the OR of all the monomials of the
    bi-vectors.  Only when k * E >= EXPONENT_LIMIT are the guard bits checked
    after each step, before a field can carry; ``finish`` checks each result.
    An ExponentOverflowError that only a dropped product would reach is not
    raised: that product never runs, and the result stays exact.
    """
    combination, distinct = _weighted(g), check_sum(g, assignments)
    ctx = assignments[0][0].ctx
    monos = (m for p in distinct.values() for poly in p.comps.values() for m in poly.terms)
    top = max(ctx.unpack(reduce(or_, monos, 0)))
    forms = {key: _integral(p) for key, p in distinct.items()}
    common = lcm(*(w.denominator for w, _ in combination))
    runs = [(w, h, ps, prod(forms[id(p)][0] for p in ps[: h.n_internal])) for w, h in combination if w for ps in assignments]
    lcm_pi = lcm(*(pi for *_, pi in runs))

    plus: dict = {}  # result key -> term dict
    minus: dict = {}  # result key -> term dict of odd sorts, subtracted at the end

    def sink_slot(key: tuple):
        placed = _sort_sign(key) if skew else (key, 0)
        if placed:
            return (minus if placed[1] else plus).setdefault(placed[0], {})

    for w, graph, ps, pi in runs:
        factor, ps = (w * common).numerator * (lcm_pi // pi), tuple(forms[id(p)][1] for p in ps)
        vertices, steps, sinks, symmetries = _plan(graph)
        *middle, last = steps
        respected = tuple(
            i for i, (image, _) in enumerate(symmetries) if all(ps[w] is p for w, p in zip(image, ps))
        )
        if any(sum(symmetries[i][1]) % 2 for i in respected):
            continue  # an odd automorphism negates this assignment's graph: it is zero
        rules = _orbit_rules(graph, respected)
        # Operands in plan order: the vertices, the unit tensor, step results.
        tensors = [
            derivative_tensor(p, m, ascending, mirrored)
            for p, (m, mirrored, ascending) in zip(ps, vertices)
        ] + [{(): {0: 1}}]
        tests = _supports(steps, tensors, rules, ctx.dim)
        for (a, b, ea, eb, mirror, ec, fold), weigh, test in zip(middle, rules, tests):
            pick, allowed = test or (None, None)
            out, flip = _fold_key(len(ec), fold), _fold_key(len(ec), fold, mirror[1:])
            swap = _fold_key(len(ec), (), mirror[1:]) if mirror else None
            acc: dict = {}
            later: dict = {(1, -1): {}}  # (coefficient at out, at flip) -> key -> term dict
            target, place = (later[1, -1], tuple) if mirror else (acc, out)  # each key when all weigh 1

            def slot(key: tuple):
                if allowed is None or pick(key) in allowed or swap and pick(swap(key)) in allowed:  # either image
                    if weigh is None:
                        return target.setdefault(place(key), {})
                    weights = weigh(key), -weigh(swap(key)) if swap else 0
                    if weights == (1, 0):
                        return acc.setdefault(out(key), {})
                    if weights != (0, 0):
                        return later.setdefault(weights, {}).setdefault(key, {})

            _contract(ea, tensors[a], eb, tensors[b], slot)
            for (weight, image), part in later.items():
                for key, terms in part.items():
                    if image:  # the halved vertex's entry at (b, a) is minus the one at (a, b)
                        if (at := flip(key)) in acc:
                            addto(acc[at], terms, image)
                        else:
                            acc[at] = {m: image * c for m, c in terms.items()}
                    if weight:  # a new key takes the entry itself
                        into = acc.setdefault(out(key), terms if weight == 1 else {})
                        if into is not terms:
                            addto(into, terms, weight)
            if graph.n_internal * top >= EXPONENT_LIMIT:
                _check_guard(ctx, list(chain.from_iterable(acc.values())))
            tensors.append({key: kept for key, terms in acc.items() if (kept := _nonzero(terms))})
        a, b, ea, eb, *_ = last
        if factor != 1:  # the graph's factor goes on its smaller last operand
            x = min((a, b), key=lambda x: sum(map(len, tensors[x].values())))
            tensors[x] = {key: {m: factor * c for m, c in t.items()} for key, t in tensors[x].items()}
        pick = _picker(sinks)
        _contract(ea, tensors[a], eb, tensors[b], lambda key: sink_slot(pick(key)))

    for key, terms in minus.items():
        addto(plus.setdefault(key, {}), terms, -1)
    q = common * lcm_pi
    return {key: poly for key, terms in plus.items() if (poly := _quotient(ctx, terms, q))}


def check_sum(g: KGraph | list, assignments: list) -> dict:
    """The checks of ``graph_sum`` that need no product: the plan of each
    graph (every sink needs in-degree one), the weights (int or Fraction)
    and the assigned bi-vectors, of degree 2 and one context.  Returns the
    distinct bi-vectors by id."""
    for _, h in _weighted(g):
        _plan(h)
    ctx = assignments[0][0].ctx
    distinct = {id(p): p for ps in assignments for p in ps}
    for p in distinct.values():
        if p.degree != 2:
            raise ValueError("expected a bi-vector (degree 2)")
        if p.ctx != ctx:
            raise ContextMismatchError("bi-vectors from different contexts")
    return distinct


def _weighted(g: KGraph | list) -> list:
    """A graph or a list of (weight, graph) pairs as (weight, graph) pairs."""
    return [(1, g)] if isinstance(g, KGraph) else [(_norm_coeff(w), h) for w, h in g]


@cache
def _sort_sign(key: tuple):
    """(sorted key, parity of the sort), or None when an index repeats."""
    if len(set(key)) == len(key):
        return tuple(sorted(key)), sum(a > b for a, b in combinations(key, 2)) % 2


# The plans, orbit rules and layouts kept, each table its most recent ones:
# a graph's plan is about 2 KB, and enumerating graphs would keep them all.
PLANS_KEPT = 1024


@lru_cache(PLANS_KEPT)
def _plan(g: KGraph) -> tuple:
    """How ``graph_sum`` contracts a graph, worked out once from its edges.

    Returns (vertices, steps, sinks, symmetries).  Per vertex: its number of
    in-edges, whether its table is mirrored (neither halved nor holding two
    sinks), and whether it is enumerated ascending.  Per step (a, b, ea, eb,
    mirror, ec, fold): operands a and b, over the edges ea and eb, contract
    into a tensor over ec whose indices at ``fold`` are summed onto
    ascending order as it is built.  ``mirror`` is (x, i, j) when operand x
    is a vertex that keeps its L and R, at positions i and j of ec, and
    holds no two sinks: x is halved, enumerated a < b, and its step adds the
    negated mirror of each entry; else ().  Only a middle step can have one
    (the last keeps only sink edges).  Operand v - 1 is vertex v, k the unit
    tensor and k + s the result of step s.  ``sinks`` are the positions in
    the last ec of the edges into S1, S2, ...  ``symmetries``: the graph's
    automorphisms but the identity (``_automorphisms``), or none above
    SYMMETRY_SEARCH_LIMIT vertices.

    A step takes a pair sharing an edge with the fewest result edges; on a
    tie, one in which a vertex finds all of its two or more in-edges in a
    step's result (the vertex is enumerated ascending on them and that
    result folded there); then the first.  A pair sharing no edge comes
    last.  (A vertex finding them all in another vertex is the end of a
    double edge; swapping that vertex's L and R is an odd automorphism, so
    ``graph_sum`` runs no product for such a graph.)
    """
    k = g.n_internal
    in_edges: dict = {v: [] for v in range(1, k + 1)}
    sink_edges: dict = {}
    for e in range(2 * k):
        kind, idx = g.edges[e // 2][e % 2]
        (sink_edges if kind == "S" else in_edges).setdefault(idx, []).append(e)
    for s in range(1, max(sink_edges, default=0) + 1):
        if len(sink_edges.get(s, ())) != 1:
            raise GraphStructureError(
                f"sink {s} has in-degree {len(sink_edges.get(s, ()))}; "
                "evaluation needs exactly one edge into each sink"
            )
    paired = {v for v, (l, r) in enumerate(g.edges, start=1) if l[0] == r[0] == "S"}

    def whole(pair) -> bool:
        # vertices precede step results in the operand list, so a vertex comes first
        (ea, a), (eb, b) = pair
        return a < k < b and len(ea) > 3 and set(ea[2:]) <= set(eb)

    def rank(pair):
        (ea, _), (eb, _) = pair
        return not set(ea) & set(eb), len(set(ea) ^ set(eb)), not whole(pair)

    operands = [((2 * v - 2, 2 * v - 1, *in_edges[v]), v - 1) for v in range(1, k + 1)]
    if k == 1:
        operands.append(((), k))
    ascending, steps = set(), []
    while len(operands) > 1:
        pair = min(combinations(operands, 2), key=rank)
        operands = [operand for operand in operands if operand not in pair]
        (ea, a), (eb, b) = pair
        if whole(pair):
            ascending.add(a + 1)
            steps[b - k - 1][-1] = tuple(eb.index(e) for e in ea[2:])
        shared = set(ea) & set(eb)
        ec = tuple(e for e in ea + eb if e not in shared)
        # Of two operands sharing an edge, at most one keeps its L and R.
        mirror = next(
            (
                (x, ec.index(e[0]), ec.index(e[1]))
                for e, x in pair
                if x < k and x + 1 not in paired and {*e[:2]} <= {*ec}
            ),
            (),
        )
        steps.append([a, b, ea, eb, mirror, ec, ()])
        operands.append((ec, k + len(steps)))
    halved = {mirror[0] + 1 for *_, mirror, _, _ in steps if mirror}
    vertices = tuple((len(in_edges[v]), v not in paired | halved, v in ascending) for v in in_edges)
    sinks = tuple(steps[-1][5].index(sink_edges[s][0]) for s in sorted(sink_edges))
    steps = tuple(map(tuple, steps))
    return vertices, steps, sinks, _automorphisms(g) if k <= SYMMETRY_SEARCH_LIMIT else ()


def _supports(steps: tuple, tensors: list, rules: tuple, n: int) -> list:
    """Per middle step of ``steps``, the test of a new key, whether it can
    still meet a partner in a later step, from the keys of the vertex tables
    alone (``tensors``: those, then the unit tensor), last step first:
    (pick, allowed), a key passing when ``pick`` takes it to an allowed
    tuple; None when all n^free * C(n + f - 1, f) possible keys pass, f on
    fold edges.

    When step s's result next meets vertex x, in step t, its test is a set
    of index tuples over named edges (``_layout``): those s shares with x,
    then those it hands on into t's own test.  That is the join of x's keys
    with t's allowed tuples, less those t's orbit rule drops when they hold
    t's whole key; with no test at t, x's keys projected (one hop).
    Unfolded into every order of its fold entries, it tests a key before it
    is folded, and all members of an orbit pass or fail together.  A halved
    step keeps a key when either of its images passes (``graph_sum``), so
    its test is not carried back: that would need both images of every
    partner entry.
    """
    k = len(tensors) - 1
    tests: list = [None] * (len(steps) - 1)
    found: dict = {}  # operand -> (edges, allowed) of the test of the step consuming it
    for s in reversed(range(len(steps) - 1)):
        tested, after = found.get(k + 1 + s, ((), ()))
        if (layout := _layout(steps, k, s, tested)) is None:
            continue  # the result next meets another step's result
        x, t, edges, link, by, wx, ws, whole, pick, unfolds = layout
        if tested:
            heads: dict = {}  # x's entries at the tested edges -> its entries at the shared ones
            for y in tensors[x]:
                heads.setdefault(by(y), set()).add(link(y))
            weigh = rules[t] if whole else None
            kept = (w for w in after if not weigh or weigh(whole(w)))  # step t drops the others
            allowed = {head + tail for w in kept for tail in [ws(w)] for head in heads.get(wx(w), ())}
        else:
            allowed = set(map(link, tensors[x]))
        a, b, _, _, mirror, _, fold = steps[s]
        f = len(fold)
        if len(allowed) < n ** (len(edges) - f) * comb(n + f - 1, f):
            if f:
                allowed = {unfold(w) for w in allowed for unfold in unfolds}
            tests[s] = pick, allowed
            if not mirror:  # the step is never halved
                found[a] = found[b] = edges, allowed
    return tests


@lru_cache(PLANS_KEPT)
def _layout(steps: tuple, k: int, s: int, tested: tuple):
    """How middle step s's result meets its partner in the step t that
    consumes it, given the edges ``tested`` of t's own test (none when it
    has none); None unless that partner is a vertex, operand x.  Returns (x,
    t, edges, link, by, wx, ws, whole, pick, unfolds): the edges of s's
    allowed tuples, and pickers.  ``link`` and ``by`` take a key of x to its
    entries at the shared edges and at ``tested``; ``wx`` and ``ws`` take an
    allowed tuple of t to its entries at x's edges and at the others,
    ``whole`` to t's key when it holds all of it (else None); ``pick`` takes
    a key of s to its entries at ``edges``; ``unfolds`` take an allowed
    tuple to every order of its fold entries.
    """
    t, (a, b, ea, eb, _, later, _) = next((t, step) for t, step in enumerate(steps) if k + 1 + s in step[:2])
    x, partner = (b, eb) if a == k + 1 + s else (a, ea)
    if x >= k:
        return None
    *_, ec, fold = steps[s]

    def take(names, wanted):
        return _picker([names.index(e) for e in wanted])

    shared = [e for e in ec if e in partner]
    common, handed = [e for e in tested if e in partner], [e for e in tested if e not in partner]
    edges = (*shared, *handed)
    folds = [ec[at] for at in fold]
    unfolds = [take(edges, [dict(zip(folds, order)).get(e, e) for e in edges]) for order in permutations(folds)]
    whole = take(tested, later) if len(tested) == len(later) else None
    link, by, wx, ws = take(partner, shared), take(partner, common), take(tested, common), take(tested, handed)
    return x, t, edges, link, by, wx, ws, whole, _picker([ec.index(e) for e in edges]), unfolds


# Above this many vertices the plan skips the automorphism search (k! maps).
SYMMETRY_SEARCH_LIMIT = 6


def _automorphisms(g: KGraph) -> tuple:
    """(image, swaps) per automorphism of g but the identity: vertex v
    (0-based) goes to image[v], and its out-pair (L, R) to the image's (R, L)
    when swaps[v].  Sinks stay put.  Brute force over the k! vertex maps:
    a vertex whose edges share a target may swap or not."""
    k = g.n_internal
    found = []
    for image in permutations(range(k)):
        moved = [t if t[0] == "S" else ("V", image[t[1] - 1] + 1) for pair in g.edges for t in pair]
        options = [
            [swap for swap, pair in enumerate((to, to[::-1])) if pair == tuple(moved[2 * v : 2 * v + 2])]
            for v, to in enumerate(g.edges[w] for w in image)
        ]
        found += [(image, swaps) for swaps in product(*options) if any(swaps) or image != tuple(range(k))]
    return tuple(found)


@lru_cache(PLANS_KEPT)
def _orbit_rules(g: KGraph, respected: tuple) -> tuple:
    """Per middle step of g's plan, under the automorphisms at ``respected``:
    key -> its weight, 0 to drop it; or None when every key weighs 1.

    An automorphism mapping a step's vertices onto themselves, with an even
    number of swaps among them and no edge of the result moved outside the
    fold, leaves the result unchanged.  The step keeps a key whose fold
    indices, in fold order, are the least of their orbit, weighted by the
    orbit size.  The first fold edge then holds its orbit's least index, so
    an earlier step with it and another edge of that orbit in its result
    (an ancestor: fold edges lead into a vertex no step has joined) drops
    the keys where it holds the larger one.
    """
    k = g.n_internal
    _, steps, _, symmetries = _plan(g)
    within, moves, pairs = [], [[] for _ in steps], [[] for _ in steps]
    for s, (a, b, *_, ec, fold) in enumerate(steps):
        within.append(set().union(*(within[x - k - 1] if x > k else {x} for x in (a, b) if x != k)))
        for image, swaps in map(symmetries.__getitem__, respected):
            edge = [2 * image[e // 2] + (e % 2 ^ swaps[e // 2]) for e in range(2 * k)]
            if (
                fold
                and {image[v] for v in within[s]} == within[s]
                and sum(swaps[v] for v in within[s]) % 2 == 0
                and all(edge[e] == e for at, e in enumerate(ec) if at not in fold)
            ):
                moves[s].append(tuple(ec.index(edge[ec[at]]) for at in fold))
                ends = (ec[fold[0]], edge[ec[fold[0]]])
                for r, (*_, earlier, _) in enumerate(steps[:s]):
                    if ends[0] != ends[1] and set(ends) <= set(earlier):
                        pairs[r].append(tuple(map(earlier.index, ends)))

    def weigher(orbit, ordered):
        own, *others = orbit

        def weigh(key: tuple) -> int:
            for p, q in ordered:
                if key[p] > key[q]:
                    return 0
            if not others:
                return 1
            least = own(key)
            images = {least}
            for image in others:
                moved = image(key)
                if moved < least:
                    return 0
                images.add(moved)
            return len(images)

        return weigh

    return tuple(
        weigher([_picker(at) for at in (step[-1], *found)], rule) if found or rule else None
        for step, found, rule in zip(steps[:-1], moves, pairs)
    )


def _picker(positions: list):
    """The function taking an index tuple to its entries at ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (at,) = positions
        return lambda key: (key[at],)
    return lambda key: ()


@cache
def _fold_key(width: int, positions: tuple, swapped: tuple = ()):
    """The map putting a ``width``-index key's entries at ``positions`` in
    order, after exchanging its two entries at ``swapped`` when given."""
    source = list(range(width))  # the key position read at each position
    if swapped:
        i, j = swapped
        source[i], source[j] = j, i
    keep = _picker(source) if swapped else tuple  # tuple(key) is key itself
    if not positions:
        return keep
    if len(positions) == 2:
        # one comparison: source, or source with the fold positions exchanged
        i, j = positions
        lo, hi = source[i], source[j]
        source[i], source[j] = hi, lo
        cross = _picker(source)
        return lambda key: keep(key) if key[lo] <= key[hi] else cross(key)
    pick = _picker([source[at] for at in positions])
    # The key with its sorted picked indices appended, read back in key order.
    order = [width + positions.index(at) if at in positions else source[at] for at in range(width)]
    rebuild = _picker(order)
    return lambda key: rebuild(key + tuple(sorted(pick(key))))


# [products, term pairs] of every ``_contract`` so far, added once per call.
_tally = [0, 0]


def _contract(ea: tuple, ta: dict, eb: tuple, tb: dict, slot) -> None:
    """Add the contraction of two tensors along their shared edges into term
    dicts, one per key over the free edges (a's, then b's): ``slot(key)``
    gives the dict at the key's first product, or None to drop the key.
    The smaller tensor is grouped by its shared indices.  No context is
    checked here.

    An entry with one term also carries its (monomial, coefficient) pair,
    and a product of two such entries is one update of its dict, in place;
    every other product calls ``addmul``, the only product loop.  The
    products and term pairs go to ``_tally`` once per call: the products
    are the visits less the dropped ones, and only a call of ``addmul``
    adds its term pairs, which it returns, beyond the one of an in-place
    product."""
    a_outer = len(ta) >= len(tb)
    if not a_outer:  # so that ta is the larger
        ea, ta, eb, tb = eb, tb, ea, ta
    shared = [e for e in ea if e in eb]
    link_a = _picker([ea.index(e) for e in shared])
    link_b = _picker([eb.index(e) for e in shared])
    rest_a = _picker([at for at, e in enumerate(ea) if e not in eb])
    rest_b = _picker([at for at, e in enumerate(eb) if e not in ea])
    groups: dict = {}
    for key, terms in tb.items():
        if len(terms) == 1:
            [(m, c)] = terms.items()
        else:
            m = c = None
        groups.setdefault(link_b(key), []).append((rest_b(key), terms, m, c))
    slots: dict = {}
    visits = dropped = extra = 0
    for key, pa in ta.items():
        group = groups.get(link_a(key))
        if group is None:
            continue
        visits += len(group)
        head = rest_a(key)
        if len(pa) == 1:
            [(m1, c1)] = pa.items()
        else:
            m1 = c1 = None
        for tail, pb, m2, c2 in group:
            full = head + tail if a_outer else tail + head
            terms = slots.get(full, False)  # one hash when the key has a slot
            if terms is False:
                terms = slots[full] = slot(full)
            if terms is None:
                dropped += 1
            elif m1 is None or m2 is None:
                extra += addmul(terms, pa, pb) - 1
            else:
                m = m1 + m2
                terms[m] = terms.get(m, 0) + c1 * c2
    products = visits - dropped
    _tally[0] += products
    _tally[1] += products + extra
