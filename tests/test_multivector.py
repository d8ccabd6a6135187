import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from tetraflows.analysis import CompatReport, RatioSolution, TableRowResult, TablesReport, builtin_rows, reproduce_tables
from tetraflows.generators import DetSpec, VanhaeckeSpec, build_bivector
from tetraflows.graphflow import (
    GAMMA1_GRAPH,
    GAMMA2_GRAPH,
    KGraph,
    evaluate_kgraph,
    gamma1,
    gamma2,
    parse_kgraph,
    render_kgraph,
)
from tetraflows.multivector import (
    MultiVector,
    RawMatrix,
    is_poisson,
    jacobiator,
    mv_linear_combination,
    schouten,
)
from tetraflows.polyring import Context, ContextMismatchError, Polynomial

from example4d import (
    BRACKET_P0_P1,
    BRACKET_P0_P2,
    P0_UPPER,
    P1_SELF_FACTOR,
    P1_UPPER,
    P2_SELF_FACTOR,
    P2_SKEW,
    SELF_BRACKET_MONOMIALS,
    SELF_BRACKET_PRINTED_SIGNS,
    SELF_BRACKET_TRUE_SIGNS,
    ctx4,
    p0,
    parse4,
)
from helpers import (
    WEDGE_GRAPH,
    brute_jacobi_tensor,
    count_products,
    lie_derivative_bracket,
    random_bivector,
    random_polynomial,
    skew_of_raw,
)

CTX3 = Context(3)


def test_component_storage_is_strictly_increasing():
    ctx = ctx4()
    with pytest.raises(ValueError):
        MultiVector(ctx, 2, {(2, 1): parse4("x1")})
    with pytest.raises(ValueError):
        MultiVector(ctx, 2, {(1, 1): parse4("x1")})
    mv = MultiVector(ctx, 2, {(1, 2): Polynomial.zero(ctx)})
    assert mv.is_zero  # zero components are not stored
    for degree in (1, 4):  # bi-vectors and tri-vectors only
        with pytest.raises(ValueError, match="degree must be 2 or 3"):
            MultiVector(ctx, degree)


def test_full_matrix_reading():
    mv = MultiVector(ctx4(), 2, {(1, 2): parse4("x3")})
    assert mv.entry(1, 2) == parse4("x3")
    assert mv.entry(2, 1) == parse4("-x3")
    assert mv.entry(1, 1).is_zero
    assert mv.entry(3, 4).is_zero


# -- Schouten bracket -------------------------------------------------------


def test_schouten_with_zero_is_zero():
    z = MultiVector.zero(ctx4(), 2)
    assert schouten(z, p0()).is_zero


def test_schouten_reproduces_reference_brackets():
    bi = p0()
    p1 = gamma1(bi).skew
    p2 = gamma2(bi).skew
    b1 = schouten(bi, p1)
    assert {k: v.render() for k, v in b1.comps.items()} == {
        k: parse4(v).render() for k, v in BRACKET_P0_P1.items()
    }
    b2 = schouten(bi, p2)
    assert {k: v.render() for k, v in b2.comps.items()} == {
        k: parse4(v).render() for k, v in BRACKET_P0_P2.items()
    }
    assert b1 == b2.scale(-6)


def test_schouten_constant_coefficients_vanish():
    ctx = ctx4()
    one = Polynomial.one(ctx)
    a = MultiVector(ctx, 2, {(1, 2): one, (3, 4): one.scale(2)})
    b = MultiVector(ctx, 2, {(1, 3): one.scale(-1), (2, 4): one.scale(5)})
    assert schouten(a, b).is_zero


def test_schouten_symmetric_and_bilinear():
    rng = random.Random(11)
    for dim in (3, 4):
        ctx = Context(dim)
        p = random_bivector(rng, ctx)
        q = random_bivector(rng, ctx)
        assert schouten(p, q) == schouten(q, p)
        a, b = Fraction(3, 2), Fraction(-7)
        assert schouten(p.scale(a), q.scale(b)) == schouten(p, q).scale(a * b)


def test_schouten_is_twice_jacobiator_on_the_diagonal():
    rng = random.Random(12)
    p = random_bivector(rng, ctx4())
    expected = jacobiator(p).scale(2)
    assert schouten(p, p) == expected
    # also when the two arguments are equal but distinct objects
    q = MultiVector(p.ctx, 2, dict(p.comps))
    assert schouten(p, q) == expected


def test_equal_copies_take_the_self_bracket_path(monkeypatch):
    # An equal copy (as from loading one file twice) gives the same bracket
    # as the object itself, through the same one-assignment graph sum: the
    # products are counted by the contraction engine's tally.
    counts = count_products(monkeypatch)
    rng = random.Random(14)
    for dim in (3, 4, 5):
        p = random_bivector(rng, Context(dim)).scale(Fraction(3, 2))
        copy = MultiVector.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
        assert copy is not p
        counts[:] = [0, 0]
        same = schouten(p, p)
        self_calls = counts[0]
        counts[:] = [0, 0]
        assert schouten(p, copy) == same
        assert counts[0] == self_calls
        tensor = brute_jacobi_tensor(p)
        for idx in combinations(range(1, dim + 1), 3):
            assert same.comps.get(idx, Polynomial.zero(p.ctx)) == tensor[idx].scale(2)


def test_schouten_degree_and_context_mismatch():
    with pytest.raises(ContextMismatchError):
        schouten(random_bivector(random.Random(1), CTX3), p0())
    tri = jacobiator(random_bivector(random.Random(2), ctx4()))
    with pytest.raises(ValueError):
        schouten(tri, p0())


# -- Jacobiator -------------------------------------------------------------


def test_jacobiator_matches_brute_force_tensor():
    rng = random.Random(13)
    for dim in (2, 3, 4):
        ctx = Context(dim)
        p = random_bivector(rng, ctx)
        tensor = brute_jacobi_tensor(p)
        jac = jacobiator(p)
        for (i, j, k), poly in tensor.items():
            if i < j < k:
                assert jac.comps.get((i, j, k), Polynomial.zero(ctx)) == poly
        # total antisymmetry of the brute tensor
        for (i, j, k), poly in tensor.items():
            assert tensor[(j, i, k)] == -poly


def test_jacobiator_zero_for_reference_bivector():
    assert jacobiator(p0()).is_zero
    assert is_poisson(p0())


def test_jacobiator_dim2_always_zero():
    rng = random.Random(14)
    ctx = Context(2)
    assert jacobiator(random_bivector(rng, ctx)).is_zero


def _odd_product(a, b):
    """Product of superfield multi-vectors {increasing index tuple: coeff}."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            idx = ka + kb
            if len(set(idx)) < len(idx):
                continue
            inversions = sum(x > y for n, x in enumerate(idx) for y in idx[n + 1:])
            key = tuple(sorted(idx))
            out[key] = out.get(key, 0) + (-1) ** inversions * ca * cb
    return out


def _odd_derivative(a, i, right):
    """d/dxi_i acting from the left, or from the right if `right`."""
    out = {}
    for k, c in a.items():
        if i in k:
            pos = k.index(i)
            out[k[:pos] + k[pos + 1:]] = (-1) ** (len(k) - 1 - pos if right else pos) * c
    return out


def _superfield_schouten(a, b, coords):
    """[[a,b]] = sum_i (a <-d/dxi_i)(d/dx_i b) - (d/dx_i a)(d/dxi_i-> b)."""
    out = {}
    for i, x in enumerate(coords, start=1):
        da = {k: c.diff(x) for k, c in a.items()}
        db = {k: c.diff(x) for k, c in b.items()}
        for sign, term in (
            (1, _odd_product(_odd_derivative(a, i, right=True), db)),
            (-1, _odd_product(da, _odd_derivative(b, i, right=False))),
        ):
            for k, c in term.items():
                out[k] = out.get(k, 0) + sign * c
    out = {k: c.expand() for k, c in out.items()}
    return {k: c for k, c in out.items() if c != 0}


def test_reference_self_brackets_obey_graded_jacobi_in_sympy():
    # Independent of tetraflows.multivector: a superfield Schouten bracket in
    # sympy, fed only the reference strings.  One global sign maps it onto the
    # reference convention of the mixed brackets; in that convention the
    # self-brackets carry the signs (1, -5, 2).  Every bi-vector obeys the
    # graded Jacobi identity [[P,[[P,P]]]] = 0 whatever the sign convention,
    # and the printed tri-vector (signs (1, 5, -2)) violates it.
    sympy = pytest.importorskip("sympy")
    coords = sympy.symbols("x1:5")

    def parse(strings):
        return {idx: sympy.sympify(text) for idx, text in strings.items()}

    def scaled(mv, c):
        return {k: (c * v).expand() for k, v in mv.items()}

    p0_ref = parse(P0_UPPER)
    mixed1 = _superfield_schouten(p0_ref, parse(P1_UPPER), coords)
    mixed2 = _superfield_schouten(p0_ref, parse(P2_SKEW), coords)
    sign = mixed1[(1, 2, 3)] / sympy.sympify(BRACKET_P0_P1[(1, 2, 3)])
    assert sign in (1, -1)
    assert scaled(mixed1, sign) == parse(BRACKET_P0_P1)
    assert scaled(mixed2, sign) == parse(BRACKET_P0_P2)

    monomials = parse(SELF_BRACKET_MONOMIALS)
    for upper, factor in ((P1_UPPER, P1_SELF_FACTOR), (P2_SKEW, P2_SELF_FACTOR)):
        p = parse(upper)
        true_t = {k: factor * SELF_BRACKET_TRUE_SIGNS[k] * m for k, m in monomials.items()}
        printed_t = {k: factor * SELF_BRACKET_PRINTED_SIGNS[k] * m for k, m in monomials.items()}
        assert scaled(_superfield_schouten(p, p, coords), sign) == true_t
        assert _superfield_schouten(p, true_t, coords) == {}
        violation = _superfield_schouten(p, printed_t, coords)
        assert list(violation) == [(1, 2, 3, 4)]


def test_poisson_bracket_of_exact_deformation_vanishes():
    # For Poisson P and B = [[P, X]] with any polynomial 1-vector X, the
    # bracket [[P, B]] vanishes (the factorization through the Jacobi
    # identity at the assertable level).
    from tetraflows.generators import DetSpec, det_bracket

    rng = random.Random(15)
    cases = [p0()]
    while len(cases) < 3:
        g = random_polynomial(rng, CTX3, max_terms=2, max_degree=3)
        f = random_polynomial(rng, CTX3, max_terms=2, max_degree=3)
        bi = det_bracket(DetSpec(CTX3, [g])).mul_poly(f)
        if not bi.is_zero:
            cases.append(bi)
    for bi in cases:
        assert is_poisson(bi)
        saw_nonzero = False
        for _ in range(3):
            x = [
                random_polynomial(rng, bi.ctx, max_terms=2, max_degree=3)
                for _ in range(bi.ctx.dim)
            ]
            b = lie_derivative_bracket(bi, x)
            saw_nonzero = saw_nonzero or not b.is_zero
            assert schouten(bi, b).is_zero
        assert saw_nonzero


def test_zero_bivector_is_poisson():
    assert is_poisson(MultiVector.zero(ctx4(), 2))


# -- linear combinations ----------------------------------------------------


def test_linear_combination_identity_and_cancellation():
    rng = random.Random(16)
    p = random_bivector(rng, ctx4())
    q = random_bivector(rng, ctx4())
    assert mv_linear_combination([(1, p), (0, q)]) == p
    assert mv_linear_combination([(1, p), (-1, p)]).is_zero


def test_linear_combination_q_is_nonzero_for_reference_example():
    bi = p0()
    q = mv_linear_combination([(1, gamma1(bi).skew), (6, gamma2(bi).skew)])
    assert not q.is_zero


def test_linear_combination_rejects_mixed_inputs():
    rng = random.Random(17)
    with pytest.raises(ContextMismatchError):
        mv_linear_combination([(1, random_bivector(rng, CTX3)), (1, p0())])
    with pytest.raises(ValueError):
        mv_linear_combination([])


# -- serialization ----------------------------------------------------------


def test_json_roundtrip_and_determinism():
    bi = p0()
    doc = bi.to_json_dict()
    assert doc["dim"] == 4 and doc["degree"] == 2
    assert MultiVector.from_json_dict(doc) == bi
    text = json.dumps(bi.to_json_dict(), sort_keys=True)
    assert json.dumps(MultiVector.from_json_dict(json.loads(text)).to_json_dict(), sort_keys=True) == text


def test_json_roundtrip_trivector_and_epsilon():
    tri = schouten(p0(), gamma1(p0()).skew)
    assert MultiVector.from_json_dict(tri.to_json_dict()) == tri
    eps_ctx = ctx4().with_epsilon()
    lifted = p0().lift(eps_ctx)
    doc = lifted.to_json_dict()
    assert doc["epsilon"] is True
    assert MultiVector.from_json_dict(doc) == lifted


def test_pickle_and_deepcopy_keep_results_immutable():
    eps_ctx = ctx4().with_epsilon()
    tri = schouten(p0(), gamma1(p0()).skew)
    results = [p0(), tri, p0().lift(eps_ctx), MultiVector.zero(ctx4(), 3), gamma2(p0()).raw]
    for obj in results:
        copies = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.deepcopy(obj)]:
            assert type(twin) is type(obj) and twin == obj and twin.to_json_dict() == obj.to_json_dict()
            with pytest.raises(AttributeError, match="immutable"):
                twin.ctx = eps_ctx
    assert isinstance(results[-1], RawMatrix)
    # A bi-vector's store of derivative tables is neither compared nor copied.
    p = p0()
    gamma2(p).raw
    assert p._tables
    for twin in [pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)]:
        assert twin == p and twin._tables == {}


# The fields of the eight frozen records, as their dataclass declarations
# had them (derived attributes excluded): the reference a frozen dataclass
# of these fields gives for repr, hash and class patterns.
RECORD_FIELDS = {
    Context: ("dim", "has_epsilon"),
    KGraph: ("n_internal", "edges"),
    DetSpec: ("ctx", "args", "prefactor"),
    VanhaeckeSpec: ("d", "phi"),
    CompatReport: ("spec", "flags", "witnesses"),
    RatioSolution: ("solution_dimension", "basis"),
    TableRowResult: ("row_id", "table", "spec", "expected", "report"),
    TablesReport: ("rows",),
}


def test_records_behave_as_frozen_dataclasses():
    x1 = parse4("x1")
    tables = reproduce_tables([row for row in builtin_rows() if row[0] == 10])
    records = [
        Context(3),
        ctx4().with_epsilon(),
        GAMMA1_GRAPH,
        DetSpec(ctx4(), [x1, parse4("x2^2 - 1/3*x3")], x1),
        DetSpec(Context(3), (Polynomial.parse("x3", Context(3)),)),
        VanhaeckeSpec(2, [(3, 3, Fraction(1, 3)), (1, 0, 2)]),
        tables.rows[0].report,
        RatioSolution(1, ((1, 6),)),
        tables.rows[0],
        tables,
    ]
    assert {type(r) for r in records} == set(RECORD_FIELDS)
    assert repr(Context(3)) == "Context(dim=3, has_epsilon=False)"
    for record in records:
        cls = type(record)
        values = [getattr(record, name) for name in RECORD_FIELDS[cls]]
        reference = dataclasses.make_dataclass(cls.__name__, RECORD_FIELDS[cls], frozen=True)(*values)
        assert repr(record) == repr(reference) and cls.__match_args__ == type(reference).__match_args__
        try:
            expected_hash = hash(reference)
        except TypeError:  # a field is unhashable: a Polynomial, a dict
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected_hash
        assert record == cls(*values) and record != reference and record != values
        copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.deepcopy(record), copy.copy(record)]:
            assert type(twin) is cls and twin == record and repr(twin) == repr(record)
            for name in RECORD_FIELDS[cls] + ("other",):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(twin, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(twin, RECORD_FIELDS[cls][0])
    # derived attributes: rebuilt, neither compared nor shown
    twin = pickle.loads(pickle.dumps(ctx4().with_epsilon()))
    assert (twin.guard, twin.names) == (ctx4().with_epsilon().guard, ("x1", "x2", "x3", "x4", "eps"))
    spec = copy.deepcopy(VanhaeckeSpec(2, [(2, 2, 1)]))
    assert spec.ctx == ctx4() and all(p.ctx is spec.ctx for p in build_bivector(spec).comps.values())


def test_flow_result_skew_recomputable_from_raw():
    # Both tetrahedra and the wedge, each also with S1 and S2 swapped, which
    # puts a vertex's sink pair in the order (S2,S1).
    rng = random.Random(18)
    p = random_bivector(rng, ctx4(), max_terms=3)
    for graph in (GAMMA1_GRAPH, GAMMA2_GRAPH, WEDGE_GRAPH):
        text = render_kgraph(graph)
        swapped = text.replace("S1", "S#").replace("S2", "S1").replace("S#", "S2")
        for g in (graph, parse_kgraph(swapped)):
            flow = evaluate_kgraph(g, p)
            assert not flow.skew.is_zero, render_kgraph(g)
            assert flow.skew == skew_of_raw(flow.raw), render_kgraph(g)


def test_epsilon_split_roundtrip():
    eps_ctx = ctx4().with_epsilon()
    eps = Polynomial.epsilon(eps_ctx)
    lifted = p0().lift(eps_ctx)
    shifted = lifted + lifted.mul_poly(eps)
    parts = shifted.epsilon_split()
    assert set(parts) == {0, 1}
    assert parts[0] == p0()
    assert parts[1] == p0()
