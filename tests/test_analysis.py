import json
import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraflows import analysis
from tetraflows.analysis import (
    FLAG_NAMES,
    RatioSolution,
    _point,
    _point_rows,
    _ratio_space,
    builtin_rows,
    compat_report,
    find_ratios,
    perturb_probe,
    reproduce_tables,
)
from tetraflows.generators import DetSpec, VanhaeckeSpec, build_bivector, det_bracket
from tetraflows.graphflow import gamma1, gamma2
from tetraflows.multivector import MultiVector, is_poisson, mv_linear_combination, schouten
from tetraflows.polyring import Context, Polynomial, _denominator_lcm

from example4d import ctx4, p0, p0_spec
from helpers import (
    count_products,
    fraction_find_ratios,
    fraction_perturb_probe,
    random_bivector,
    value_at,
)

CTX3 = Context(3)


# -- compatibility report ----------------------------------------------------


def test_compat_report_reference_example():
    report = compat_report(p0(), spec=p0_spec())
    assert report.flags == (False, False, False, False, True)
    assert set(report.witnesses) == {
        "bracket_p1_zero",
        "p2_zero",
        "bracket_p2_zero",
        "q_zero",
    }
    assert all(not mv.is_zero for mv in report.witnesses.values())


def test_compat_report_row_with_vanishing_combination():
    ctx = ctx4()
    spec = DetSpec(
        ctx,
        [Polynomial.parse("x1^2*x2^3*x3^4*x4^5", ctx), Polynomial.parse("x1*x2*x3*x4", ctx)],
    )
    report = compat_report(build_bivector(spec), spec=spec)
    assert report.flags == (False, False, False, True, True)
    # Q == 0 here, so both brackets with Q vanish and Q has no witness
    assert "q_zero" not in report.witnesses


def test_compat_report_constant_bracket_all_zero():
    mv = det_bracket(DetSpec(CTX3, [Polynomial.parse("x3", CTX3)]))
    report = compat_report(mv)
    assert report.flags == (True, True, True, True, True)
    assert report.witnesses == {}


def test_compat_report_refuses_non_poisson_input():
    rng = random.Random(41)
    p = random_bivector(rng, ctx4())
    while is_poisson(p):
        p = random_bivector(rng, ctx4())
    with pytest.raises(ValueError):
        compat_report(p)
    tri = MultiVector(ctx4(), 3, {(1, 2, 3): Polynomial.parse("x4", ctx4())})
    with pytest.raises(ValueError, match="degree 2"):
        compat_report(tri)


def test_q_bracket_is_the_bilinear_combination_of_the_two_brackets():
    # compat_report takes [[P0, Q]] = [[P0, P1]] + 6 [[P0, P2]] instead of a
    # third bracket: the identity holds against a direct bracket on grid rows
    # (where it vanishes) and on random non-Poisson pairs (where it does not).
    rows = {row_id: spec for row_id, _, spec, _ in builtin_rows()}
    for row_id in (2, 3, 8):
        p0_row = build_bivector(rows[row_id])
        p1, p2 = gamma1(p0_row).skew, gamma2(p0_row).skew
        direct = schouten(p0_row, mv_linear_combination([(1, p1), (6, p2)]))
        combined = mv_linear_combination([(1, schouten(p0_row, p1)), (6, schouten(p0_row, p2))])
        assert combined == direct
        report = compat_report(p0_row)
        assert report.flags_dict()["bracket_q_zero"] == direct.is_zero
        assert report.witnesses.get("bracket_q_zero", direct) == direct
    rng = random.Random(19)
    for dim in (3, 4):
        p, b1, b2 = (random_bivector(rng, Context(dim)) for _ in range(3))
        direct = schouten(p, mv_linear_combination([(1, b1), (6, b2)]))
        assert not direct.is_zero
        assert mv_linear_combination([(1, schouten(p, b1)), (6, schouten(p, b2))]) == direct


def test_compat_report_is_pure():
    a = compat_report(p0(), spec=p0_spec()).to_json_dict()
    b = compat_report(p0(), spec=p0_spec()).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- ratio solver -------------------------------------------------------------


def test_witnesses_are_handed_out_with_empty_stores():
    # A report's brackets store derivative tables on P2 (on its integral
    # form, kept in P2's store, when P2 is rational, as for row 10 with phi
    # = x^3*y^3 / 3); each witness is a copy with an empty store, so a
    # report, and the grid, keeps no table alive.
    spec = VanhaeckeSpec(2, [(3, 3, Fraction(1, 3))])
    reports = [compat_report(build_bivector(spec), spec)] + [row.report for row in reproduce_tables().rows]
    for report in reports:
        assert "p2_zero" in report.witnesses
        assert all(mv._tables == {} for mv in report.witnesses.values()), report.spec


def test_find_ratios_reference_balance():
    bi = p0()
    sol = find_ratios(bi, [gamma1(bi).skew, gamma2(bi).skew])
    assert sol.solution_dimension == 1
    assert sol.basis == ((1, 6),)


def test_find_ratios_single_element_cases():
    bi = p0()
    q = mv_linear_combination([(1, gamma1(bi).skew), (6, gamma2(bi).skew)])
    compatible = find_ratios(bi, [q])
    assert compatible.solution_dimension == 1
    assert compatible.basis == ((1,),)
    incompatible = find_ratios(bi, [gamma1(bi).skew])
    assert incompatible.solution_dimension == 0
    assert incompatible.basis == ()


def test_find_ratios_rejects_empty_basis_and_non_poisson():
    with pytest.raises(ValueError):
        find_ratios(p0(), [])
    skewed = MultiVector(
        ctx4(), 2, {(1, 3): Polynomial.one(ctx4()), (2, 4): Polynomial.one(ctx4())}
    ).mul_poly(Polynomial.parse("x1", ctx4()))
    with pytest.raises(ValueError):
        find_ratios(skewed, [skewed])


def test_ratio_consistency_on_builtin_rows():
    for row_id, _table, spec, _expected in builtin_rows():
        if row_id not in (2, 3, 7):  # a cheap sample across the three generators
            continue
        bi = build_bivector(spec)
        p1 = gamma1(bi).skew
        p2 = gamma2(bi).skew
        assert not schouten(bi, p1).is_zero and not schouten(bi, p2).is_zero
        sol = find_ratios(bi, [p1, p2])
        assert sol.solution_dimension == 1
        assert sol.basis == ((1, 6),)


def test_find_ratios_basis_vectors_solve_the_system():
    # every returned basis vector satisfies sum_i c_i [[P, B_i]] = 0 exactly
    bi = p0()
    basis = [gamma1(bi).skew, gamma2(bi).skew, gamma1(bi).skew]
    sol = find_ratios(bi, basis)
    assert sol.solution_dimension == 2  # duplicated element adds one dimension
    for vec in sol.basis:
        combo = mv_linear_combination(list(zip(vec, basis)))
        assert schouten(bi, combo).is_zero


_RATIONALS = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 12))


@st.composite
def _polynomials(draw, coeffs, max_terms, max_exp, min_degree=0):
    """A nonzero polynomial over CTX3 with at most max_terms terms, each of
    total degree at least min_degree."""
    exps = st.tuples(*[st.integers(0, max_exp)] * CTX3.dim).filter(
        lambda e: sum(e) >= min_degree
    )
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms))
    return Polynomial(CTX3, terms)


@st.composite
def _rational_det_brackets(draw):
    """A rational multiple of a small 3D determinant bracket (so Poisson),
    with a nonconstant prefactor so that the flows are mostly nonzero."""
    small_ints = st.integers(-3, 3).filter(bool)
    g = draw(_polynomials(small_ints, 3, 2, min_degree=2))
    prefactor = draw(_polynomials(small_ints, 2, 2, min_degree=1))
    return det_bracket(DetSpec(CTX3, [g], prefactor)).scale(draw(_RATIONALS))


@settings(max_examples=25, deadline=None)
@given(_rational_det_brackets(), st.lists(_RATIONALS, min_size=2, max_size=4))
def test_find_ratios_matches_brute_force_sympy_reference(p, factors):
    # rational multiples of gamma1, gamma2, then of both again: duplicated
    # and rescaled columns, up to k = 4 (four points in dim 3, one row each)
    p1, p2 = gamma1(p).skew, gamma2(p).skew
    basis = [flow.scale(c) for flow, c in zip([p1, p2, p1, p2], factors)]
    assert find_ratios(p, basis) == fraction_find_ratios(p, basis)


@cache
def _row_flows(row_id):
    spec = next(spec for rid, _, spec, _ in builtin_rows() if rid == row_id)
    p = build_bivector(spec)
    return p, gamma1(p).skew, gamma2(p).skew


def _ratio_inputs():
    """(name, P, basis): each grid row with the basis (P1, P2, P0), whose
    space is span{(1, 6, 0), (0, 0, 1)}, and an eps-context input."""
    for row_id in range(1, 12):
        p, p1, p2 = _row_flows(row_id)
        yield f"row {row_id}", p, [p1, p2, p]
    # P = (1 + eps) * P0 and brackets that depend on eps: P1, P2, eps * P1
    # and eps * P2, whose space is span{(1, 6, 0, 0), (0, 0, 1, 6)}
    ctx = ctx4().with_epsilon()
    eps = Polynomial.epsilon(ctx)
    p1, p2 = gamma1(p0()).skew.lift(ctx), gamma2(p0()).skew.lift(ctx)
    p = p0().lift(ctx).mul_poly(Polynomial.one(ctx) + eps)
    yield "eps", p, [p1, p2, p1.mul_poly(eps), p2.mul_poly(eps)]


def test_find_ratios_equals_the_solve_over_every_bracket():
    # the point step changes the work, never the answer: the coefficient
    # matching of all k brackets gives the same RatioSolution
    for name, p, basis in _ratio_inputs():
        sol = find_ratios(p, basis)
        assert sol == _ratio_space([schouten(p, b) for b in basis]), name
        k = len(basis)
        assert sol.basis == (((1, 6, 0), (0, 0, 1)) if k == 3 else ((1, 6, 0, 0), (0, 0, 1, 6))), name


def test_find_ratios_at_the_origin_brackets_every_element(monkeypatch):
    # every bracket of positive degree vanishes at the origin, so the points
    # exclude no combination and all k elements are bracketed
    want = {name: find_ratios(p, basis) for name, p, basis in _ratio_inputs()}
    monkeypatch.setattr(analysis, "_POINTS", (0,))
    for name, p, basis in _ratio_inputs():
        assert not any(map(any, _point_rows(p, basis))), name
        assert find_ratios(p, basis) == want[name], name


def test_point_rows_are_the_engine_brackets_at_the_points():
    # row r holds D * s_i * [[P, B_i]] at point r // C(n, 3), component
    # number r % C(n, 3) in the order of combinations
    for name, p, basis in _ratio_inputs():
        rows, scales = _point_rows(p, basis), [_denominator_lcm(b.comps.values()) for b in basis]
        d = _denominator_lcm(p.comps.values())
        triples = list(combinations(range(1, p.ctx.dim + 1), 3))
        brackets = [schouten(p, b) for b in basis]
        zero = Polynomial.zero(p.ctx)
        assert len(rows) == len(triples) * -(-len(basis) // len(triples)), name
        for r, row in enumerate(rows):
            x, idx = _point(r // len(triples), p.ctx.nslots), triples[r % len(triples)]
            values = [value_at(t.comps.get(idx, zero), x) for t in brackets]
            assert row == [d * s * v for s, v in zip(scales, values)], (name, idx, x)


def test_find_ratios_brackets_only_the_candidate(monkeypatch):
    # row 10: the point leaves the one candidate (1, 6), so the solve runs
    # the Jacobi test and [[P0, P1 + 6*P2]], one bracket instead of two
    p, p1, p2 = _row_flows(10)
    q = mv_linear_combination([(1, p1), (6, p2)])
    counts = count_products(monkeypatch)
    is_poisson(p)
    schouten(p, q)
    want = list(counts)
    counts[:] = [0, 0]
    assert find_ratios(p, [p1, p2]) == RatioSolution(1, ((1, 6),))
    assert counts == want and counts[1] == 19_253


def test_find_ratios_without_candidates_runs_no_bracket(monkeypatch):
    # [[P0, P1]] is nonzero at the point, so nothing is left to bracket
    bi = p0()
    p1 = gamma1(bi).skew
    counts = count_products(monkeypatch)
    is_poisson(bi)
    want = list(counts)
    counts[:] = [0, 0]
    assert find_ratios(bi, [p1]) == RatioSolution(0, ())
    assert counts == want


def _brackets_of(matrix):
    """One tri-vector per column of ``matrix``: row r is the coefficient of
    x1^r in the (1, 2, 3) component."""
    columns = [{(r, 0, 0): row[col] for r, row in enumerate(matrix)} for col in range(len(matrix[0]))]
    return [MultiVector(CTX3, 3, {(1, 2, 3): Polynomial(CTX3, terms)}) for terms in columns]


def test_nullspace_and_primitive_scaling():
    # The integer solver on coefficient matrices: each column is cleared of
    # its denominators, and each null vector is scaled back and made
    # primitive with its first nonzero entry positive, whatever the row order.
    half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)
    cases = [
        ([[6, -1], [12, -2]], ((1, 6),)),
        ([[1, 0], [0, 1]], ()),
        ([[Fraction(4, 3), Fraction(-2, 3)]], ((1, 2),)),
        ([[0, 5]], ((1, 0),)),
        # three columns, two of them free, with rational entries
        ([[half, third, -sixth], [-3 * half, -1, half]], ((2, -3, 0), (1, 0, 3))),
    ]
    for matrix, basis in cases:
        for rows in (matrix, matrix[::-1]):
            assert _ratio_space(_brackets_of(rows)) == RatioSolution(len(basis), basis), rows


# -- perturbation probe --------------------------------------------------------


def appendix_instance():
    # 3D bracket from argument g = x3^3 with prefactor f = x1^2; the
    # perturbation has components (y^2 z, y^3 z^2, 0) in (x, y, z) = (x1, x2, x3).
    base = CTX3
    bi = det_bracket(DetSpec(base, [Polynomial.parse("x3^3", base)])).mul_poly(
        Polynomial.parse("x1^2", base)
    )
    delta = MultiVector(
        base,
        2,
        {
            (1, 2): Polynomial.parse("x2^2*x3", base),
            (1, 3): Polynomial.parse("x2^3*x3^2", base),
        },
    )
    eps_ctx = base.with_epsilon()
    return bi, delta, bi.lift(eps_ctx), delta.lift(eps_ctx)


def test_perturb_probe_zero_delta():
    _, _, p_lifted, delta_lifted = appendix_instance()
    zero = MultiVector.zero(p_lifted.ctx, 2)
    assert perturb_probe(p_lifted, zero) == {}


def test_perturb_probe_scaling_delta_keeps_jacobi_zero():
    # Delta = P makes P~ = (1 + eps) P, which stays Poisson at every order
    # and scales the balanced flow, so both graded brackets vanish.
    _, _, p_lifted, _ = appendix_instance()
    assert perturb_probe(p_lifted, p_lifted) == {}


def test_perturb_probe_appendix_instance():
    bi, delta, p_lifted, delta_lifted = appendix_instance()
    orders = perturb_probe(p_lifted, delta_lifted)
    # first order of [[P~,P~]]: the bracket doubles the Jacobi expansion, so
    # the (1,2,3) part is 2 * f2 * df/dx * dg/dz = 12 x1 x2^3 x3^4
    jac1 = orders[1][0]
    assert dict(jac1.comps) == {(1, 2, 3): Polynomial.parse("12*x1*x2^3*x3^4", CTX3)}
    # cross-check against bilinearity: eps^1 of [[P~,P~]] = 2 [[P, Delta]]
    assert jac1 == schouten(bi, delta).scale(2)
    # first order of [[P~, Q(P~)]]: a single monomial proportional to
    # d^3f2/dy^3 * (df/dx)^4 * (dg/dz)^4 = 6 x3^2 * 16 x1^4 * 81 x3^8
    compat1 = orders[1][1]
    assert dict(compat1.comps) == {(1, 2, 3): Polynomial.parse("-7776*x1^4*x3^10", CTX3)}
    # order zero is absent: P itself is Poisson and compatible
    assert 0 not in orders


@settings(max_examples=30, deadline=None)
@given(
    _rational_det_brackets(),
    st.lists(st.none() | _polynomials(_RATIONALS, 2, 2), min_size=3, max_size=3),
)
def test_perturb_probe_scaled_path_matches_fraction_reference(p, delta_comps):
    # P and Delta both carry denominators, so the kernel runs on D * P~ (D
    # the lcm of all of them) and divides every order back by D^2 or D^5
    delta = MultiVector(
        CTX3, 2, {ij: c for ij, c in zip(((1, 2), (1, 3), (2, 3)), delta_comps) if c is not None}
    )
    eps_ctx = CTX3.with_epsilon()
    args = p.lift(eps_ctx), delta.lift(eps_ctx)
    got = perturb_probe(*args)
    want = fraction_perturb_probe(*args)
    assert sorted(got) == sorted(want)
    for k, (jac, compat) in want.items():
        assert got[k][0] == jac, f"eps^{k} of [[P~,P~]]"
        assert got[k][1] == compat, f"eps^{k} of [[P~,Q(P~)]]"


def test_perturb_probe_preconditions():
    bi, delta, p_lifted, delta_lifted = appendix_instance()
    with pytest.raises(ValueError):
        perturb_probe(bi, delta)  # eps not adjoined
    eps = Polynomial.epsilon(p_lifted.ctx)
    with pytest.raises(ValueError):
        perturb_probe(p_lifted.mul_poly(eps), delta_lifted)  # P not eps-free
    rng = random.Random(42)
    bad = random_bivector(rng, CTX3)
    while is_poisson(bad):
        bad = random_bivector(rng, CTX3)
    with pytest.raises(ValueError):
        perturb_probe(bad.lift(p_lifted.ctx), delta_lifted)  # P not Poisson


# -- builtin grid --------------------------------------------------------------


def test_builtin_rows_shape():
    rows = builtin_rows()
    assert [r[0] for r in rows] == list(range(1, 12))
    assert [r[1] for r in rows] == [1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3]
    q_zero_rows = [r[0] for r in rows if r[3][3]]
    assert q_zero_rows == [4, 5]
    assert all(r[3][4] for r in rows)  # the last column is zero in every row


def test_reproduce_tables_subset():
    rows = [r for r in builtin_rows() if r[0] in (2, 3, 4)]
    report = reproduce_tables(rows)
    assert report.all_match
    doc = report.to_json_dict()
    assert [row["id"] for row in doc["rows"]] == [2, 3, 4]
    assert all(set(row["flags"]) == set(FLAG_NAMES) for row in doc["rows"])
    text = report.render_text()
    assert "MISMATCH" not in text


def test_render_text_counts_the_rows_it_shows():
    text = reproduce_tables(builtin_rows()[:2]).render_text()
    assert text.splitlines()[-1] == "result: all 2 rows match"
