"""Verification experiments over generated Poisson bi-vectors.

* compatibility reports: the five exact zero-tests for a Poisson bi-vector
  P0 and its flows P1 = gamma1(P0), P2 = gamma2(P0), Q = P1 + 6*P2;
* the exact ratio solver: the rational null space of
  sum_i c_i * [[P, B_i]] = 0.  The brackets' values at integer points
  narrow the candidates (a point only excludes combinations that are not
  solutions), and only the candidates are bracketed and solved by
  monomial-coefficient matching;
* the eps-perturbation probe: eps-graded brackets of P~ = P + eps*Delta;
* reproduction of the builtin grid of eleven finite-dimensional examples
  (two 3D determinant+prefactor rows, four pure determinant rows in
  dimensions 4..5, five even-dimensional rows).

All zero-tests are exact canonical-form equalities, never numeric.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, gcd, lcm, prod
from operator import mul
from typing import Sequence

from ._kgraph import _integral, check_sum
from .generators import (
    build_bivector,
    generator_from_json_dict,
    generator_to_json_dict,
)
from .graphflow import balanced_flow, gamma1, gamma2
from .multivector import _BRACKET_GRAPH, MultiVector, is_poisson, jacobiator, mv_linear_combination, schouten
from .polyring import Polynomial, _quotient, _Record

__all__ = [
    "FLAG_NAMES",
    "CompatReport",
    "RatioSolution",
    "TableRowResult",
    "TablesReport",
    "compat_report",
    "find_ratios",
    "perturb_probe",
    "reproduce_tables",
    "builtin_rows",
]

# The five grid columns; a True flag means "exactly zero".
FLAG_NAMES = (
    "bracket_p1_zero",
    "p2_zero",
    "bracket_p2_zero",
    "q_zero",
    "bracket_q_zero",
)


class CompatReport(_Record):
    """Exact zero-tests for one Poisson bi-vector and its tetrahedral flows:
    ``spec``, the generator spec or None when the bi-vector came from a
    file; ``flags``, five booleans in FLAG_NAMES order; ``witnesses``, flag
    name -> nonzero MultiVector, exactly for False flags."""

    __match_args__ = __slots__ = ("spec", "flags", "witnesses")

    def __init__(self, spec: object, flags: tuple, witnesses: dict):
        self._init(spec, flags, witnesses)

    def flags_dict(self) -> dict:
        return dict(zip(FLAG_NAMES, self.flags))

    def to_json_dict(self, include_witnesses: bool = True) -> dict:
        doc = {
            "spec": generator_to_json_dict(self.spec) if self.spec is not None else None,
            "flags": self.flags_dict(),
        }
        if include_witnesses:
            doc["witnesses"] = {
                name: mv.to_json_dict() for name, mv in sorted(self.witnesses.items())
            }
        return doc


def compat_report(p0: MultiVector, spec=None) -> CompatReport:
    """Run the five exact zero-tests on a Poisson bi-vector.

    Refuses non-Poisson input: the grid semantics presuppose that P0 is
    Poisson.
    """
    if not is_poisson(p0):
        raise ValueError("input bi-vector is not Poisson; the report is undefined")
    p1 = gamma1(p0).skew
    p2 = gamma2(p0).skew
    q = mv_linear_combination([(1, p1), (6, p2)])
    b1 = schouten(p0, p1)
    # P1 keeps the derivative tables its bracket stored on it: let both go
    # before the larger bracket (heavy case peak RSS 144 -> 135 MB)
    del p1
    b2 = schouten(p0, p2)
    checks = {
        "bracket_p1_zero": b1,
        "p2_zero": p2,
        "bracket_p2_zero": b2,
        "q_zero": q,
        # [[P0, P1 + 6*P2]] by bilinearity, without a third bracket
        "bracket_q_zero": mv_linear_combination([(1, b1), (6, b2)]),
    }
    flags = tuple(checks[name].is_zero for name in FLAG_NAMES)
    # each witness with an empty store: P2's holds the tables of its bracket
    witnesses = {name: MultiVector(mv.ctx, mv.degree, mv.comps) for name, mv in checks.items() if not mv.is_zero}
    return CompatReport(spec, flags, witnesses)


class RatioSolution(_Record):
    """Null space of sum_i c_i * [[P, B_i]] = 0 over the rationals: its
    dimension and a ``basis`` of tuples of primitive integers, the first
    nonzero entry of each positive."""

    __match_args__ = __slots__ = ("solution_dimension", "basis")

    def __init__(self, solution_dimension: int, basis: tuple):
        self._init(solution_dimension, basis)


# The integer points of the candidate step, read cyclically: point t gives
# slot s (x1..x<dim>, then eps) the entry at t * nslots + s.
_POINTS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def find_ratios(p: MultiVector, basis: Sequence[MultiVector]) -> RatioSolution:
    """Solve sum_i c_i * [[P, B_i]] = 0 exactly, bracketing only candidates.

    Evaluation at a point is linear, so the null space N of the brackets'
    values at fixed integer points, taken from the values and first
    partials of P and the B_i, contains the exact space S.  Only the
    combinations B'_j = sum_i v_ji B_i of a basis v_j of N are bracketed
    (none if N = {0}), each built in ints as sum_i u_ji (s_i B_i), where
    s_i * B_i is B_i's integral form (``_integral``), v_ji = u_ji * s_i and
    u_j a null vector of the point rows (``_point_rows``).  S is the image
    of the exact null space of the [[P, B'_j]] by coefficient matching.  So a
    point only excludes combinations that are not solutions, every vector
    of S comes from a canonical-form bracket, and a degenerate point costs
    at most the k brackets of the full solve.  The basis returned is the
    canonical basis of S, through its orthogonal complement, so it depends
    on S alone.
    """
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    if not is_poisson(p):
        raise ValueError("input bi-vector is not Poisson")
    check_sum(_BRACKET_GRAPH, [(p, b) for b in basis])
    k = len(basis)
    nulls = _kernel(_point_rows(p, basis), k)
    scales, ints = zip(*map(_integral, basis))
    candidates = [[u * s for u, s in zip(vec, scales)] for vec in nulls]
    combos = [mv_linear_combination(zip(u, ints)) for u in nulls]
    space = [
        [sum(w * v[i] for w, v in zip(ws, candidates)) for i in range(k)]
        for ws in _ratio_space([schouten(p, b) for b in combos]).basis
    ]
    kernel = _kernel(_kernel(space, k), k)
    return RatioSolution(len(kernel), tuple(kernel))


def _point_rows(p: MultiVector, basis: list) -> list:
    """The rows of D * s_i * [[P, B_i]] at the fewest points that give one
    row per B_i: one row per point and i < j < k, one column per B_i, with
    D * P and s_i * B_i the integral forms of P and B_i (``_integral``).

    With V and G the values and gradients of the full matrices at x, the
    bracket formula of ``multivector`` reads, as V^{lc} = -V^{cl},
    [[P,B]]^{ijk} = -sum_cyc (G_P^{ab} . V_B^{c} + G_B^{ab} . V_P^{c}).
    """
    n, slots = p.ctx.dim, p.ctx.nslots
    p, basis = _integral(p)[1], [_integral(b)[1] for b in basis]
    rows = []
    for t in range(-(-len(basis) // max(comb(n, 3), 1))):
        x = _point(t, slots)
        vp, gp = _jets(p, x)
        jets = [_jets(b, x) for b in basis]
        for i, j, k in combinations(range(n), 3):
            cyc = ((i, j, k), (j, k, i), (k, i, j))
            rows.append([
                -sum(sum(map(mul, gp[a][b], vb[c])) + sum(map(mul, gb[a][b], vp[c])) for a, b, c in cyc)
                for vb, gb in jets
            ])
    return rows


def _point(t: int, slots: int) -> list:
    return [_POINTS[(t * slots + s) % len(_POINTS)] for s in range(slots)]


def _jets(mv: MultiVector, x: list) -> tuple:
    """The full antisymmetric matrices of the values and of the gradients
    (d_1..d_n) of the integral mv at the integer point x.  x_l * d_l f(x)
    is the sum of e_l * c * x^e over the terms c * x^e of f: one exact
    division where x_l is nonzero; where x_l = 0 only the terms with
    e_l = 1 count, at x with x_l set to 1."""
    n = mv.ctx.dim
    values = [[0] * n for _ in range(n)]
    grads = [[[0] * n] * n for _ in range(n)]
    for (a, b), poly in mv.comps.items():
        expss, coeffs = zip(*poly.items())
        terms = [c * prod(map(pow, x, e)) for c, e in zip(coeffs, expss)]
        grad = [
            sum(map(mul, terms, col)) // xl
            if xl
            else sum(c * prod(map(pow, x[:l] + [1] + x[l + 1 :], e)) for c, e in zip(coeffs, expss) if e[l] == 1)
            for l, (col, xl) in enumerate(zip(zip(*expss), x[:n]))
        ]
        value = sum(terms)
        values[a - 1][b - 1], values[b - 1][a - 1] = value, -value
        grads[a - 1][b - 1], grads[b - 1][a - 1] = grad, [-d for d in grad]
    return values, grads


def _ratio_space(brackets: "list[MultiVector]") -> RatioSolution:
    """The null space of sum_i c_i * brackets[i] = 0 by coefficient matching.

    Column i holds the integral form s_i * brackets[i] (``_integral``), so
    that the rows, one per (component, monomial), are integers; each null
    vector of :func:`_kernel` is scaled back by the s_i and made primitive.
    """
    ncols, forms = len(brackets), [_integral(t) for t in brackets]
    rows: dict = {}  # (component, monomial) -> row of integral coefficients
    for col, (_, t) in enumerate(forms):
        for idx, poly in t.comps.items():
            for mono, c in poly.terms.items():
                rows.setdefault((idx, mono), [0] * ncols)[col] = c
    kernel = [_primitive([x * s for x, (s, _) in zip(vec, forms)]) for vec in _kernel(rows.values(), ncols)]
    return RatioSolution(len(kernel), tuple(kernel))


def _kernel(rows, ncols: int) -> list:
    """The null space of integer rows of length ``ncols``, as the canonical
    basis: primitive vectors, first nonzero entry positive.

    Each row is reduced against the kept rows; a row left nonzero is kept
    and reduces them in turn.  The kept rows are primitive, with a positive
    pivot and zeros at the other pivots: the unique reduced echelon form up
    to a positive factor per row, whatever the row order.  A free column f
    gives the null vector that is 1 at f and 0 at the other free columns,
    made primitive.  So the basis depends only on the null space.
    """
    echelon: dict = {}  # pivot column -> its kept row
    for row in rows:
        for pc, kept in echelon.items():
            if row[pc]:
                row = _eliminate(row, kept, pc)
        pc = next((c for c, x in enumerate(row) if x), None)
        if pc is None:
            continue
        row = _primitive(row)
        for c, kept in list(echelon.items()):
            if kept[pc]:
                echelon[c] = _primitive(_eliminate(kept, row, pc))
        echelon[pc] = row
        if len(echelon) == ncols:
            break
    kernel = []
    for f in (c for c in range(ncols) if c not in echelon):
        lead = lcm(*(kept[pc] for pc, kept in echelon.items() if kept[f]))
        vec = [0] * ncols
        vec[f] = lead
        for pc, kept in echelon.items():
            vec[pc] = -kept[f] * (lead // kept[pc])
        kernel.append(_primitive(vec))
    return kernel


def _eliminate(row, kept, pc: int) -> list:
    """kept[pc] * row - row[pc] * kept, which is 0 at the pivot column ``pc``
    of ``kept``."""
    a, b = kept[pc], row[pc]
    return [a * x - b * y for x, y in zip(row, kept)]


def _primitive(vec) -> tuple:
    """A nonzero integer vector divided by the gcd of its entries, with its
    first nonzero entry made positive."""
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def perturb_probe(p: MultiVector, delta: MultiVector) -> dict:
    """eps-graded brackets of the perturbed bi-vector P~ = P + eps*Delta.

    Returns {eps order k: (jacobi part, compatibility part)} where the first
    element grades [[P~, P~]] and the second grades [[P~, Q(P~)]] with
    Q(P~) = gamma1(P~) + 6*gamma2(P~); both parts live over the eps-free
    context.  Orders with both parts zero are omitted (so an unperturbed
    Poisson input yields an empty map); the order-0 parts vanish by the
    precondition that P is Poisson.

    The brackets run on the integral form D * P~ (``_integral``; D the lcm
    of the coefficient denominators of P and Delta together).  [[P~, P~]] is
    quadratic and [[P~, Q(P~)]] quintic in P~, so every order of the first,
    2 * Jac(D * P~), is divided back exactly by D^2 and every order of the
    second by D^5, one quotient per coefficient.
    """
    ctx = p.ctx
    if not ctx.has_epsilon:
        raise ValueError("context has no eps variable")
    if delta.ctx != ctx or delta.degree != 2 or p.degree != 2:
        raise ValueError("P and Delta must be bi-vectors over the same eps context")
    if not p.is_epsilon_free() or not delta.is_epsilon_free():
        raise ValueError("P and Delta must be eps-free")
    if not is_poisson(p):
        raise ValueError("P must be Poisson")
    # graph_sum reads P~ through the same integral form, but it divides its
    # result back, so the brackets would reach the eps split as Fractions;
    # on D * P~ they stay ints up to the one division per part.
    d, p_tilde = _integral(p + delta.mul_poly(Polynomial.epsilon(ctx)))
    j_parts = jacobiator(p_tilde).epsilon_split()
    c_parts = schouten(p_tilde, balanced_flow(p_tilde, 1, 6)).epsilon_split()
    base = ctx.without_epsilon()
    zero = MultiVector.zero(base, 3)

    def divided(part: MultiVector, q: int, c: int = 1) -> MultiVector:
        return MultiVector(base, 3, {idx: _quotient(base, poly.terms, q, c) for idx, poly in part.comps.items()})

    return {
        k: (divided(j_parts.get(k, zero), d**2, 2), divided(c_parts.get(k, zero), d**5))
        for k in sorted(set(j_parts) | set(c_parts))
    }


# -- the builtin example grid ---------------------------------------------------

_CROSS = False  # the tested object is nonzero
_CHECK = True  # the tested object is exactly zero

_ROW_DATA = (
    # (row id, table, spec json, expected flags)
    (
        1,
        1,
        {
            "kind": "det",
            "dim": 3,
            "args": ["x1^5*x2^3*x3^4 + x1^2*x3^5 + x1*x2^5*x3"],
            "prefactor": "x1^3 + x2^2",
        },
        (_CROSS, _CROSS, _CROSS, _CROSS, _CHECK),
    ),
    (
        2,
        1,
        {
            "kind": "det",
            "dim": 3,
            "args": ["x1*x2 + x1*x3 + x2*x3"],
            "prefactor": "x1^2 + x2",
        },
        (_CROSS, _CROSS, _CROSS, _CROSS, _CHECK),
    ),
    (
        3,
        2,
        {"kind": "det", "dim": 4, "args": ["x2^3*x3^2*x4", "x1*x3^4*x4"]},
        (_CROSS, _CROSS, _CROSS, _CROSS, _CHECK),
    ),
    (
        4,
        2,
        {"kind": "det", "dim": 4, "args": ["x1^2*x2^3*x3^4*x4^5", "x1*x2*x3*x4"]},
        (_CROSS, _CROSS, _CROSS, _CHECK, _CHECK),
    ),
    (
        5,
        2,
        {"kind": "det", "dim": 4, "args": ["x2^2*x3^2*x4^2", "x1^2*x3^2*x4^2"]},
        (_CROSS, _CROSS, _CROSS, _CHECK, _CHECK),
    ),
    (
        6,
        2,
        {
            "kind": "det",
            "dim": 5,
            "args": ["x2^3*x3^2*x4", "x1*x3^4*x4", "x3^3*x4^2*x5^4"],
        },
        (_CROSS, _CROSS, _CROSS, _CROSS, _CHECK),
    ),
    (
        7,
        3,
        {"kind": "vanhaecke", "dim": 4, "d": 2, "phi": [[2, 2, "1"]]},
        (_CROSS, _CROSS, _CROSS, _CROSS, _CHECK),
    ),
    (
        8,
        3,
        {"kind": "vanhaecke", "dim": 4, "d": 2, "phi": [[2, 1, "1"]]},
        (_CROSS, _CROSS, _CROSS, _CROSS, _CHECK),
    ),
    (
        9,
        3,
        {"kind": "vanhaecke", "dim": 4, "d": 2, "phi": [[3, 2, "1"]]},
        (_CROSS, _CROSS, _CROSS, _CROSS, _CHECK),
    ),
    (
        10,
        3,
        {"kind": "vanhaecke", "dim": 4, "d": 2, "phi": [[3, 3, "1"]]},
        (_CROSS, _CROSS, _CROSS, _CROSS, _CHECK),
    ),
    (
        11,
        3,
        {"kind": "vanhaecke", "dim": 6, "d": 3, "phi": [[2, 2, "1"]]},
        (_CROSS, _CROSS, _CROSS, _CROSS, _CHECK),
    ),
)


class TableRowResult(_Record):
    __match_args__ = __slots__ = ("row_id", "table", "spec", "expected", "report")

    def __init__(self, row_id: int, table: int, spec: object, expected: tuple, report: CompatReport):
        self._init(row_id, table, spec, expected, report)

    @property
    def matches(self) -> bool:
        return self.report.flags == self.expected


class TablesReport(_Record):
    __match_args__ = __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        self._init(rows)

    @property
    def all_match(self) -> bool:
        return all(r.matches for r in self.rows)

    def to_json_dict(self, include_witnesses: bool = False) -> dict:
        return {
            "rows": [
                {
                    "id": r.row_id,
                    "table": r.table,
                    "expected": dict(zip(FLAG_NAMES, r.expected)),
                    "matches": r.matches,
                    **r.report.to_json_dict(include_witnesses),
                }
                for r in self.rows
            ],
            "all_match": self.all_match,
        }

    def render_text(self) -> str:
        mark = {True: "yes", False: "no "}
        header = (
            f"{'row':>3} {'dim':>3}  {'[[P0,P1]]=0':>11} {'P2=0':>5} "
            f"{'[[P0,P2]]=0':>11} {'Q=0':>5} {'[[P0,Q]]=0':>10}  {'grid':>4}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            dim = r.spec.ctx.dim
            f = r.report.flags
            lines.append(
                f"{r.row_id:>3} {dim:>3}  {mark[f[0]]:>11} {mark[f[1]]:>5} "
                f"{mark[f[2]]:>11} {mark[f[3]]:>5} {mark[f[4]]:>10}  "
                f"{'ok' if r.matches else 'MISMATCH'}"
            )
        lines.append(
            f"result: all {len(self.rows)} rows match"
            if self.all_match
            else "result: MISMATCH with the reference grid"
        )
        return "\n".join(lines)


def builtin_rows():
    """The eleven builtin generator rows with their reference flag grid."""
    return tuple(
        (row_id, table, generator_from_json_dict(doc), expected)
        for row_id, table, doc, expected in _ROW_DATA
    )


def reproduce_tables(rows=None) -> TablesReport:
    """Run compat_report over the builtin rows and compare with the grid."""
    results = []
    for row_id, table, spec, expected in rows or builtin_rows():
        p0 = build_bivector(spec)
        report = compat_report(p0, spec=spec)
        results.append(TableRowResult(row_id, table, spec, expected, report))
    return TablesReport(tuple(results))
