import random
from fractions import Fraction

import pytest

from tetraflows.generators import (
    DetSpec,
    GeneratorError,
    VanhaeckeSpec,
    build_bivector,
    det_bracket,
    form_obstruction,
    generator_from_json_dict,
    generator_to_json_dict,
    vanhaecke_bracket,
)
from tetraflows.graphflow import gamma2
from tetraflows.multivector import MultiVector, is_poisson, jacobiator
from tetraflows.polyring import Context, Polynomial

from example4d import P0_UPPER, ctx4, p0, p0_spec, parse4
from helpers import random_polynomial

CTX3 = Context(3)


def parse3(text):
    return Polynomial.parse(text, CTX3)


# -- determinant construction -------------------------------------------------


def test_det_bracket_constant_symplectic_like():
    spec = DetSpec(CTX3, [parse3("x3")])
    mv = det_bracket(spec)
    assert mv.comps.get((1, 2)) == Polynomial.one(CTX3)
    assert (1, 3) not in mv.comps
    assert (2, 3) not in mv.comps


def test_det_bracket_reproduces_reference_matrix():
    mv = p0()
    assert {k: v.render() for k, v in mv.comps.items()} == {
        k: parse4(v).render() for k, v in P0_UPPER.items()
    }
    assert is_poisson(mv)


def test_det_bracket_repeated_argument_vanishes():
    ctx = ctx4()
    g = Polynomial.parse("x1*x2 + x3", ctx)
    assert det_bracket(DetSpec(ctx, [g, g])).is_zero


def test_det_bracket_argument_count_enforced():
    with pytest.raises(GeneratorError):
        DetSpec(CTX3, [parse3("x1"), parse3("x2")])
    with pytest.raises(GeneratorError):
        DetSpec(ctx4(), [parse4("x1")])


def test_det_bracket_is_poisson_randomized():
    rng = random.Random(31)
    for dim in (3, 4, 5):
        ctx = Context(dim)
        for _ in range(3):
            args = [random_polynomial(rng, ctx, max_terms=2, max_degree=3) for _ in range(dim - 2)]
            assert is_poisson(det_bracket(DetSpec(ctx, args)))


# -- pre-multiplication --------------------------------------------------------


def test_premultiply_by_one_and_zero():
    bi = p0()
    assert bi.mul_poly(Polynomial.one(bi.ctx)) == bi
    assert bi.mul_poly(Polynomial.zero(bi.ctx)).is_zero


def test_premultiply_preserves_poisson_in_dim3():
    rng = random.Random(32)
    for _ in range(6):
        g = random_polynomial(rng, CTX3, max_terms=2, max_degree=4)
        f = random_polynomial(rng, CTX3, max_terms=2, max_degree=4)
        bi = det_bracket(DetSpec(CTX3, [g])).mul_poly(f)
        assert is_poisson(bi)


def test_premultiply_can_break_poisson_in_dim4():
    # Frozen counterexample: the constant rank-4 bracket {x1,x3} = {x2,x4} = 1
    # times x1 fails the Jacobi identity with witness component (2,3,4) = -x1.
    ctx = ctx4()
    one = Polynomial.one(ctx)
    symplectic = MultiVector(ctx, 2, {(1, 3): one, (2, 4): one})
    assert is_poisson(symplectic)
    skewed = symplectic.mul_poly(parse4("x1"))
    assert not is_poisson(skewed)
    assert jacobiator(skewed).comps.get((2, 3, 4)) == parse4("-x1")
    # Also with a polynomial generator: x1 times the d=2 bracket below.
    bracket = vanhaecke_bracket(VanhaeckeSpec(2, [(2, 2, 1)]))
    assert not is_poisson(bracket.mul_poly(Polynomial.variable(bracket.ctx, 1)))


# -- the 3D one-form test -------------------------------------------------------


def test_form_obstruction_requires_dim3():
    with pytest.raises(ValueError):
        form_obstruction(p0())


def test_form_obstruction_zero_for_poisson():
    spec = DetSpec(CTX3, [parse3("x1^5*x2^3*x3^4 + x1^2*x3^5 + x1*x2^5*x3")], parse3("x1^3 + x2^2"))
    bi = det_bracket(DetSpec(CTX3, spec.args)).mul_poly(spec.prefactor)
    assert form_obstruction(bi).is_zero
    const = MultiVector(CTX3, 2, {(1, 2): Polynomial.constant(CTX3, 5)})
    assert form_obstruction(const).is_zero


def test_form_obstruction_equals_jacobiator_component():
    # The proportionality constant, determined once on a random instance,
    # is 1; asserted globally on further draws, in both directions.
    rng = random.Random(33)
    first = None
    for _ in range(8):
        comps = {}
        for idx in ((1, 2), (1, 3), (2, 3)):
            poly = random_polynomial(rng, CTX3, max_terms=2, max_degree=3, zero_ok=True)
            if not poly.is_zero:
                comps[idx] = poly
        mv = MultiVector(CTX3, 2, comps)
        obstruction = form_obstruction(mv)
        jac123 = jacobiator(mv).comps.get((1, 2, 3), Polynomial.zero(CTX3))
        if first is None and not jac123.is_zero:
            first = True
            assert obstruction == jac123  # pins the constant to 1
        assert obstruction == jac123
        assert obstruction.is_zero == jacobiator(mv).is_zero


# -- even-dimensional construction ----------------------------------------------


def test_vanhaecke_d1_hand_values():
    # phi = s^2 t^2 at d = 1: {u1, v1} = phi(-u1, v1) = u1^2 v1^2
    mv = vanhaecke_bracket(VanhaeckeSpec(1, [(2, 2, 1)]))
    ctx = mv.ctx
    assert ctx.dim == 2
    assert mv.comps.get((1, 2)) == Polynomial.parse("x1^2*x2^2", ctx)
    # constant phi: {u1, v1} = 1
    assert vanhaecke_bracket(VanhaeckeSpec(1, [(0, 0, 1)])).comps.get((1, 2)) == Polynomial.one(ctx)


def test_vanhaecke_d2_is_poisson_with_nonzero_second_flow():
    mv = vanhaecke_bracket(VanhaeckeSpec(2, [(2, 2, 1)]))
    assert is_poisson(mv)
    assert not gamma2(mv).skew.is_zero


def test_vanhaecke_block_shape():
    for d in (1, 2, 3):
        mv = vanhaecke_bracket(VanhaeckeSpec(d, [(2, 2, 1)]))
        for (i, j) in mv.comps:
            assert i <= d < j  # only mixed u-v components may be nonzero


def test_vanhaecke_calibrated_reading_is_the_unique_poisson_one():
    # {u_i, v_j} is read off the remainder as the coefficient of lam^(d-j);
    # the other natural reading, lam^(j-1), is the same U block with its
    # columns reversed (j -> d+1-j, so the key d+j -> 3d+1-(d+j)), and it is
    # not Poisson.
    spec = VanhaeckeSpec(2, [(2, 2, 1)])
    d = spec.d
    mv = vanhaecke_bracket(spec)
    other = MultiVector(spec.ctx, 2, {(i, 3 * d + 1 - k): p for (i, k), p in mv.comps.items()})
    assert other != mv
    assert {"d-j": is_poisson(mv), "j-1": is_poisson(other)} == {"d-j": True, "j-1": False}


ORACLE_CASES = [
    (1, [(2, 2, 1)]),
    (2, [(2, 2, 1)]),
    (2, [(1, 0, Fraction(1, 2)), (0, 2, -3), (3, 1, Fraction(2, 5))]),
    (3, [(3, 1, 1)]),
    (3, [(0, 0, Fraction(-7, 4)), (2, 1, Fraction(1, 3)), (1, 2, 5)]),
    (4, [(2, 1, 1)]),
]


def _sympy_vanhaecke_entries(sympy, d, phi):
    """{u_i, v_j} as coeff of lam^(d-j) in rem(phi(lam, v) [u/lam^(d-i+1)]_+, u)."""
    lam = sympy.Symbol("lam")
    xs = sympy.symbols(f"x1:{2 * d + 1}")
    u = lam**d + sum(xs[k - 1] * lam ** (d - k) for k in range(1, d + 1))
    v = sum(xs[d + k - 1] * lam ** (d - k) for k in range(1, d + 1))
    phi_v = sum(sympy.Rational(str(c)) * lam**a * v**b for a, b, c in phi)
    entries, max_steps = {}, 0
    for i in range(1, d + 1):
        u_plus = sympy.div(u, lam ** (d - i + 1), lam)[0]
        prod = sympy.expand(phi_v * u_plus)
        max_steps = max(max_steps, sympy.degree(prod, lam) - d + 1)
        rem = sympy.Poly(sympy.rem(prod, u, lam), lam)
        for j in range(1, d + 1):
            coeff = sympy.Poly(rem.coeff_monomial(lam ** (d - j)), *xs)
            terms = {e: Fraction(int(c.p), int(c.q)) for e, c in coeff.terms() if c}
            if terms:
                entries[(i, d + j)] = terms
    return entries, max_steps


@pytest.mark.parametrize("d, phi", ORACLE_CASES)
def test_vanhaecke_bracket_matches_sympy_euclidean_remainder(d, phi):
    sympy = pytest.importorskip("sympy")
    expected, max_steps = _sympy_vanhaecke_entries(sympy, d, phi)
    mv = vanhaecke_bracket(VanhaeckeSpec(d, phi))
    assert {idx: dict(p.items()) for idx, p in mv.comps.items()} == expected
    assert max_steps >= 2  # the reduction mod u takes several steps


def test_vanhaecke_components_share_the_spec_context():
    for d, phi in ORACLE_CASES:
        spec = VanhaeckeSpec(d, phi)
        mv = vanhaecke_bracket(spec)
        assert mv.ctx is spec.ctx and mv.comps
        assert all(p.ctx is spec.ctx for p in mv.comps.values())


def test_vanhaecke_rejects_bad_d():
    with pytest.raises(GeneratorError):
        VanhaeckeSpec(0, [(1, 1, 1)])


def test_vanhaecke_rejects_non_integer_d_and_phi_exponents():
    # neither truncated (2.5 -> 2) nor accepted and left to fail later
    for d in (2.5, True, "2"):
        with pytest.raises(GeneratorError, match="d must be an integer"):
            VanhaeckeSpec(d, [(2, 2, 1)])
    for phi in ([(2.5, 2, 1)], [(2, 2.0, 1)], [(True, 2, 1)], [(2, 2, 1), (1, False, 1)]):
        with pytest.raises(GeneratorError, match="phi exponents must be integers"):
            VanhaeckeSpec(2, phi)


def test_vanhaecke_rejects_inexact_phi_coefficients():
    # a float 2.5 used to build the bracket with 5/2 but serialise as "2"
    for c in (2.5, 0.1, True, "1", None):
        with pytest.raises(GeneratorError, match="phi coefficients must be exact"):
            VanhaeckeSpec(2, [(1, 1, 1), (1, 1, c)])


def test_vanhaecke_rejects_negative_phi_exponents():
    for phi in ([(-1, 1, 1)], [(2, 2, 1), (0, -2, 3)]):
        with pytest.raises(GeneratorError, match="phi exponents must be nonnegative"):
            VanhaeckeSpec(2, phi)


# -- spec serialization -----------------------------------------------------------


def test_generator_spec_json_roundtrip():
    det = p0_spec()
    doc = generator_to_json_dict(det)
    assert doc["kind"] == "det" and doc["dim"] == 4
    back = generator_from_json_dict(doc)
    assert build_bivector(back) == build_bivector(det)

    vh = VanhaeckeSpec(2, [(2, 2, 1)])
    doc = generator_to_json_dict(vh)
    assert doc == {"kind": "vanhaecke", "dim": 4, "d": 2, "phi": [[2, 2, "1"]]}
    assert build_bivector(generator_from_json_dict(doc)) == build_bivector(vh)


def test_generator_json_validation():
    with pytest.raises(GeneratorError):
        generator_from_json_dict({"kind": "unknown"})
    with pytest.raises(GeneratorError):
        generator_from_json_dict({"kind": "vanhaecke", "dim": 6, "d": 2, "phi": [[1, 1, "1"]]})


def test_vanhaecke_multi_term_rational_phi():
    spec = VanhaeckeSpec(2, [(2, 2, Fraction(1, 3)), (1, 1, 2)])
    mv = vanhaecke_bracket(spec)
    assert is_poisson(mv)
    doc = generator_to_json_dict(spec)
    assert doc["phi"] == [[2, 2, "1/3"], [1, 1, "2"]]
    assert build_bivector(generator_from_json_dict(doc)) == mv
