"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is an exact canonical-form comparison (tolerance zero).  Each
test prints one `[criterion N] PASS/FAIL` line; run with `pytest -s` to see
them all.  Randomized parts use the fixed seed recorded in their line.

Criterion 5 checks the flows' self-brackets against the reference
monomials and global factors with the signs (+1, -5, +2), not the printed
(+1, +5, -2): the printed tri-vector T fails the graded Jacobi identity
[[P,[[P,P]]]] = 0 on the printed P1 and P2 (it gives [[P,T]] != 0), which
test_multivector.py::test_reference_self_brackets_obey_graded_jacobi_in_sympy
shows from the reference strings alone.  Whether the slip is in the source
or in its transcription is not settled; example4d.py keeps both sign sets.
"""

import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from tetraflows.analysis import (
    builtin_rows,
    compat_report,
    find_ratios,
    reproduce_tables,
)
from tetraflows.generators import (
    DetSpec,
    VanhaeckeSpec,
    det_bracket,
    vanhaecke_bracket,
)
from tetraflows.graphflow import (
    GAMMA1_GRAPH,
    GAMMA2_GRAPH,
    balanced_flow,
    evaluate_kgraph,
    gamma1,
    gamma2,
)
from tetraflows.multivector import (
    MultiVector,
    RawMatrix,
    is_poisson,
    jacobiator,
    mv_linear_combination,
    schouten,
)
from tetraflows.polyring import Context, Polynomial

from example4d import (
    BRACKET_P0_P1,
    BRACKET_P0_P2,
    P0_UPPER,
    P1_SELF_FACTOR,
    P1_UPPER,
    P2_RAW,
    P2_SELF_FACTOR,
    P2_SKEW,
    SELF_BRACKET_MONOMIALS,
    SELF_BRACKET_PRINTED_SIGNS,
    SELF_BRACKET_TRUE_SIGNS,
    ctx4,
    p0_spec,
    parse4,
)
from helpers import (
    DEFAULT_SEED,
    SKEW_VANISHING_GRAPH,
    WEDGE_GRAPH,
    brute_gamma1_raw,
    brute_gamma2_raw,
    brute_jacobi_tensor,
    naive_evaluate_kgraph_raw,
    random_bivector,
    random_polynomial,
)


def _report(tag, ok, desc):
    print(f"[criterion {tag}] {'PASS' if ok else 'FAIL'} - {desc}")


@pytest.fixture(scope="module")
def ref():
    bi = det_bracket(p0_spec())
    flow1 = gamma1(bi)
    flow2 = gamma2(bi)
    return SimpleNamespace(p0=bi, flow1=flow1, flow2=flow2, p1=flow1.skew, p2=flow2.skew)


def test_criterion_1_generator_matrix_and_jacobi(ref):
    matrix_ok = {k: v.render() for k, v in ref.p0.comps.items()} == {
        k: parse4(v).render() for k, v in P0_UPPER.items()
    }
    jacobi_ok = jacobiator(ref.p0).is_zero
    ok = matrix_ok and jacobi_ok
    _report(1, ok, "determinant generator reproduces the reference matrix; Jacobi holds")
    assert matrix_ok, "generated matrix differs from the reference values"
    assert jacobi_ok, "the generated bi-vector is not Poisson"


def test_criterion_2_first_flow_matrix(ref):
    raw = ref.flow1.raw
    e = raw.entries
    ok = all((e[i][j] + e[j][i]).is_zero for i in range(4) for j in range(i, 4)) and all(
        raw.entry(i, j) == parse4(text) and raw.entry(j, i) == -parse4(text)
        for (i, j), text in P1_UPPER.items()
    )
    _report(2, ok, "first tetrahedral flow reproduces all 12 off-diagonal entries")
    assert ok


def test_criterion_3_second_flow_matrix_and_skew(ref):
    raw_ok = all(
        ref.flow2.raw.entry(i + 1, j + 1) == parse4(P2_RAW[i][j])
        for i in range(4)
        for j in range(4)
    )
    skew_ok = {k: v.render() for k, v in ref.flow2.skew.comps.items()} == {
        k: parse4(v).render() for k, v in P2_SKEW.items()
    }
    ok = raw_ok and skew_ok
    _report(3, ok, "second flow reproduces the 16-entry matrix and its six skew coefficients")
    assert raw_ok, "raw matrix mismatch"
    assert skew_ok, "skew part mismatch"


def test_criterion_4_mixed_brackets(ref):
    b1 = schouten(ref.p0, ref.p1)
    b2 = schouten(ref.p0, ref.p2)
    b1_ok = dict(b1.comps) == {k: parse4(v) for k, v in BRACKET_P0_P1.items()}
    b2_ok = dict(b2.comps) == {k: parse4(v) for k, v in BRACKET_P0_P2.items()}
    ratio_ok = b1 == b2.scale(-6)
    ok = b1_ok and b2_ok and ratio_ok
    _report(4, ok, "mixed brackets match the reference tri-vectors; ratio -6 exact")
    assert b1_ok and b2_ok and ratio_ok


def _self_bracket(factor, signs):
    return {
        idx: parse4(mono).scale(factor * signs[idx])
        for idx, mono in SELF_BRACKET_MONOMIALS.items()
    }


def test_criterion_5_flow_jacobiators_match_printed_self_brackets(ref):
    # schouten(P, P) of both flows equals the reference self-bracket
    # tri-vectors (monomials and global factors), and jacobiator(P) is
    # exactly 1/2 of them, the constant shared by both flows.  The
    # expected signs are SELF_BRACKET_TRUE_SIGNS; the correction is checked
    # here without the package's bracket code: twice the brute-force Jacobi
    # tensor of the bi-vectors parsed from the reference matrices gives the
    # expected expressions and not the printed ones.
    brute_ok, schouten_ok, half_ok, non_poisson = [], [], [], []
    for flow_bi, upper, factor in (
        (ref.p1, P1_UPPER, P1_SELF_FACTOR),
        (ref.p2, P2_SKEW, P2_SELF_FACTOR),
    ):
        expected = _self_bracket(factor, SELF_BRACKET_TRUE_SIGNS)
        printed = _self_bracket(factor, SELF_BRACKET_PRINTED_SIGNS)
        tensor = brute_jacobi_tensor(
            MultiVector(ctx4(), 2, {k: parse4(v) for k, v in upper.items()})
        )
        brute = {
            idx: tensor[idx].scale(2)
            for idx in combinations(range(1, 5), 3)
            if not tensor[idx].is_zero
        }
        brute_ok.append(brute == expected and brute != printed)
        schouten_ok.append(dict(schouten(flow_bi, flow_bi).comps) == expected)
        half = {idx: poly.scale(Fraction(1, 2)) for idx, poly in expected.items()}
        half_ok.append(dict(jacobiator(flow_bi).comps) == half)
        non_poisson.append(not is_poisson(flow_bi))
    ok = all(brute_ok) and all(schouten_ok) and all(half_ok) and all(non_poisson)
    _report(5, ok, "flow self-brackets match the reference with signs (1, -5, 2); Jac = 1/2 of them")
    assert all(brute_ok), "2 * brute Jac of the reference matrices is not the expected self-bracket"
    assert all(schouten_ok), "schouten(P, P) of a flow differs from the expected self-bracket"
    assert all(half_ok), "jacobiator(P) of a flow is not 1/2 of the expected self-bracket"
    assert all(non_poisson), "a flow output passed the Jacobi test"


def test_criterion_6_balanced_flow_and_ratio(ref):
    balanced = balanced_flow(ref.p0, 1, 6)
    zero_ok = schouten(ref.p0, balanced).is_zero
    sol = find_ratios(ref.p0, [ref.p1, ref.p2])
    ratio_ok = sol.solution_dimension == 1 and sol.basis == ((1, 6),)
    ok = zero_ok and ratio_ok
    _report(6, ok, "balanced 1:6 combination is compatible; ratio solver returns span{(1,6)}")
    assert zero_ok, "[[P0, P1 + 6 P2]] is not zero"
    assert ratio_ok, f"ratio solution was {sol}"


def test_criterion_7_builtin_grid():
    report = reproduce_tables()
    grid_ok = report.all_match
    q_zero_rows = [r.row_id for r in report.rows if r.report.flags[3]]
    q_rows_ok = q_zero_rows == [4, 5]
    last_col_ok = all(r.report.flags[4] for r in report.rows)
    ok = grid_ok and q_rows_ok and last_col_ok
    _report(7, ok, "all 11 builtin rows match the reference grid (Q==0 exactly in rows 4, 5)")
    assert grid_ok, report.render_text()
    assert q_rows_ok and last_col_ok


def test_criterion_8a_random_3d_balanced_compatibility():
    rng = random.Random(DEFAULT_SEED)
    ctx = Context(3)
    count = 0
    while count < 50:
        g = random_polynomial(rng, ctx, max_terms=2, max_degree=4)
        f = random_polynomial(rng, ctx, max_terms=2, max_degree=4)
        bi = det_bracket(DetSpec(ctx, [g])).mul_poly(f)
        if bi.is_zero:
            continue
        count += 1
        assert is_poisson(bi)
        assert schouten(bi, balanced_flow(bi, 1, 6)).is_zero
    _report("8a", True, f"50 random 3D Poisson bi-vectors keep [[P, Q(P)]] = 0 (seed {DEFAULT_SEED})")


def test_criterion_8b_skew_vanishing_graph_on_random_input():
    rng = random.Random(DEFAULT_SEED + 1)
    checked = 0
    for dim in (3, 4):
        ctx = Context(dim)
        while checked < (10 if dim == 3 else 20):
            p = random_bivector(rng, ctx, max_terms=2, max_degree=3)
            if p.is_zero or is_poisson(p):
                continue
            checked += 1
            raw = evaluate_kgraph(SKEW_VANISHING_GRAPH, p).raw
            assert all(q.is_zero for row in raw.entries for q in row)
    _report("8b", True, f"double-loop graph vanishes on 20 random non-Poisson bi-vectors (seed {DEFAULT_SEED + 1})")


def test_criterion_8c_graph_encodings_equal_closed_forms():
    # The closed forms are the displayed formulas, looped in tests/helpers.py.
    rng = random.Random(DEFAULT_SEED + 2)
    checked = 0
    for dim in (2, 3):
        ctx = Context(dim)
        for _ in range(5):
            p = random_bivector(rng, ctx, max_terms=2, max_degree=3)
            assert evaluate_kgraph(GAMMA1_GRAPH, p).raw == RawMatrix(ctx, brute_gamma1_raw(p))
            assert evaluate_kgraph(GAMMA2_GRAPH, p).raw == RawMatrix(ctx, brute_gamma2_raw(p))
            checked += 1
    assert checked == 10
    _report("8c", True, f"tetrahedron encodings equal closed forms on 10 random bi-vectors (seed {DEFAULT_SEED + 2})")


def test_criterion_8d_even_dimensional_brackets_are_poisson():
    phis = ([(2, 1, 1)], [(2, 2, 1)], [(3, 2, 1)])
    for d in (1, 2, 3):
        for phi in phis:
            mv = vanhaecke_bracket(VanhaeckeSpec(d, phi))
            assert is_poisson(mv)
    _report("8d", True, "even-dimensional bracket passes the Jacobi test for d in {1,2,3}, three phi")


def test_criterion_9a_jacobiator_brute_force_oracle():
    rng = random.Random(DEFAULT_SEED + 3)
    for dim in (2, 3):
        ctx = Context(dim)
        for _ in range(3):
            p = random_bivector(rng, ctx, max_terms=2, max_degree=3)
            tensor = brute_jacobi_tensor(p)
            jac = jacobiator(p)
            for i in range(1, dim + 1):
                for j in range(i + 1, dim + 1):
                    for k in range(j + 1, dim + 1):
                        assert jac.comps.get((i, j, k), Polynomial.zero(ctx)) == tensor[(i, j, k)]
    _report("9a", True, f"Jacobiator agrees with the brute-force triple loop (seed {DEFAULT_SEED + 3})")


def test_criterion_9b_naive_graph_evaluation_oracle():
    rng = random.Random(DEFAULT_SEED + 4)
    graphs = (WEDGE_GRAPH, GAMMA1_GRAPH, GAMMA2_GRAPH, SKEW_VANISHING_GRAPH)
    for dim in (2, 3):
        ctx = Context(dim)
        p = random_bivector(rng, ctx, max_terms=2, max_degree=3)
        for graph in graphs:
            naive = RawMatrix(ctx, naive_evaluate_kgraph_raw(graph, p))
            assert evaluate_kgraph(graph, p).raw == naive
    _report("9b", True, f"pruned evaluator agrees with full-iteration evaluation (seed {DEFAULT_SEED + 4})")
