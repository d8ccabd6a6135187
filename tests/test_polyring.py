import copy
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraflows.polyring import (
    DIM_LIMIT,
    EXP_BITS,
    EXPONENT_LIMIT,
    Context,
    ContextMismatchError,
    ExponentOverflowError,
    PolyParseError,
    Polynomial,
    _quotient,
    finish,
)

from example4d import JACOBI_123_TERMS, REFERENCE_CORPUS
from helpers import reference_parse

CTX3 = Context(3)
CTX4 = Context(4)


def parse(text, ctx=CTX4):
    return Polynomial.parse(text, ctx)


# -- basic arithmetic -------------------------------------------------------


def test_additive_inverse():
    assert (parse("x1") + parse("-x1")).is_zero


def test_disjoint_monomials_concatenate():
    s = parse("2*x1*x2^3*x3^5*x4") + parse("x2^3*x3^6*x4")
    assert s == parse("2*x1*x2^3*x3^5*x4 + x2^3*x3^6*x4")
    assert len(s.terms) == 2


def test_nine_term_cancellation():
    acc = Polynomial.zero(CTX4)
    for term in JACOBI_123_TERMS:
        acc = acc + parse(term)
    assert acc.is_zero


def test_mul_by_zero_and_one():
    p = parse("3*x1^2 - x2*x4")
    assert (p * Polynomial.zero(CTX4)).is_zero
    assert p * Polynomial.one(CTX4) == p


def test_product_hand_expansion():
    left = parse("x1^3 + x2^2")
    right = parse("x2*x3 - x1*x3")
    expected = parse("x1^3*x2*x3 - x1^4*x3 + x2^3*x3 - x1*x2^2*x3")
    assert left * right == expected


def test_diff_constant_and_power_rule():
    assert Polynomial.constant(CTX4, 7).diff(1).is_zero
    assert parse("-2*x1*x2^3*x3^5*x4").diff(3) == parse("-10*x1*x2^3*x3^4*x4")


def test_diff_index_out_of_range():
    with pytest.raises(ValueError):
        parse("x1").diff(5)
    with pytest.raises(ValueError):
        parse("x1").diff(0)


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatchError):
        parse("x1", CTX3) + parse("x1", CTX4)
    with pytest.raises(ContextMismatchError):
        parse("x1", CTX3) * parse("x1", CTX4)


def test_rational_coefficients_stay_exact():
    half = Polynomial.constant(CTX4, Fraction(1, 2))
    p = parse("x1")
    assert (half * p) + (half * p) == p
    assert (half * p).render() == "1/2*x1"


def test_scale_normalizes_integral_fractions():
    p = parse("2*x1").scale(Fraction(3, 2))
    assert p == parse("3*x1")
    assert isinstance(next(iter(p.terms.values())), int)


def test_pickle_and_deepcopy_keep_the_polynomial_immutable():
    eps_ctx = CTX3.with_epsilon()
    for p in (parse("x1 + 2*x2", CTX3), parse("-3/4*x1^2*eps + 5*x2 - 1/6", eps_ctx), Polynomial.zero(CTX4)):
        copies = [pickle.loads(pickle.dumps(p, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for q in copies + [copy.deepcopy(p), copy.copy(p)]:
            assert q == p and q.render() == p.render()
            with pytest.raises(AttributeError, match="immutable"):
                q.terms = {}


def test_scalars_are_int_or_fraction_only():
    # a float is never rounded to a nearby rational, and a bool is no int
    with pytest.raises(TypeError):
        Polynomial.constant(CTX4, 0.1)
    with pytest.raises(TypeError):
        parse("x1").scale(0.5)
    for c in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            Polynomial(CTX4, {(0, 0, 0, 0): c})
    assert Polynomial.constant(CTX4, Fraction(1, 10)).render() == "1/10"


# -- parse / render ---------------------------------------------------------


def test_parse_monomial_example():
    p = parse("-2*x1*x2^3*x3^5*x4")
    assert dict(p.items()) == {(1, 3, 5, 1): -2}


def test_parse_zero():
    assert parse("0").is_zero
    assert parse("0").render() == "0"


def test_render_reorders_factors():
    assert parse("x2*x1").render() == "x1*x2"


def test_render_graded_lex_descending():
    p = parse("x2^2 + x1*x2 + x1^2 + x1")
    assert p.render() == "x1^2 + x1*x2 + x2^2 + x1"


def test_parse_rational_and_signs():
    assert parse("3/2*x1 - 1/2*x1") == parse("x1")
    assert parse("-5").render() == "-5"
    assert parse("+x1 - x2").render() == "x1 - x2"


def test_parse_eps_requires_epsilon_context():
    eps_ctx = Context(3, has_epsilon=True)
    p = Polynomial.parse("2*eps^2*x1", eps_ctx)
    assert dict(p.items()) == {(1, 0, 0, 2): 2}
    with pytest.raises(PolyParseError):
        Polynomial.parse("eps", CTX3)


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse("x1 + @")
    assert err.value.position == 5
    with pytest.raises(PolyParseError):
        parse("x7")  # unknown variable in dim 4
    with pytest.raises(PolyParseError):
        parse("")
    with pytest.raises(PolyParseError):
        parse("x1^0")
    with pytest.raises(PolyParseError):
        parse("2 x1")
    with pytest.raises(PolyParseError) as err:
        parse("2x1")  # a number right before a variable: the '*' is missing
    assert (err.value.message, err.value.position) == ("missing '*' before 'x1'", 1)


def test_parse_reads_the_given_names():
    # One grammar with the variables' names slot by slot: the default is the
    # context's own, which render writes.  A name token is x, eps or a name,
    # followed by any digits, so x1 among x and y is an unknown variable.
    xy = ("x", "y")
    assert CTX4.names == ("x1", "x2", "x3", "x4")
    assert Context(2, has_epsilon=True).names == ("x1", "x2", "eps")
    p = Polynomial.parse("3/2*y^2*x - x*x + 7", Context(2), names=xy)
    assert p == Polynomial.parse("3/2*x1*x2^2 - x1^2 + 7", Context(2))
    assert Polynomial.parse(p.render(), Context(2)) == p
    for text, names, message, position in (
        ("y*x2", xy, "unknown variable 'x2' (variables: x, y)", 2),
        ("eps", xy, "unknown variable 'eps' (variables: x, y)", 0),
        ("x^40000", xy, "exponent 40000 of x is not below the limit 32768", 2),
        ("x1 + x", (), "unknown variable 'x' (variables: x1, x2, x3, x4)", 5),
        ("eps", (), "unknown variable 'eps' (variables: x1, x2, x3, x4)", 0),
        ("2x", (), "missing '*' before 'x'", 1),
        ("2y", xy, "missing '*' before 'y'", 1),
    ):
        with pytest.raises(PolyParseError) as err:
            Polynomial.parse(text, Context(2) if names else CTX4, names=names)
        assert (err.value.message, err.value.position) == (message, position), text
    for names in (xy, ("x", "x", "y"), ("x", "", "y"), ("x", "12", "y")):
        with pytest.raises(ValueError):  # one distinct name per slot, each with a letter
            Polynomial.parse("x", Context(3), names=names)


def _parse_texts(rng, names, count):
    """Seeded texts in the given names: three in four joined from random
    pieces (the names, unknown names, numbers, operators, spaces and a few
    stray characters), one in four drawn from the grammar, with random
    spacing, repeated factors and exponents near EXPONENT_LIMIT."""
    pieces = [*names, *names, "x", "x0", "x13", "eps", "y", "z", "0", "1", "12", "007", "32767", "32768"]
    pieces += [*"+-*/^" * 3, " ", " ", ".", "_", "٢", "e"]
    exponents = ("", "", "1", "2", "10", "16384", "32767")

    def around(op):
        return rng.choice(("", "", " ")) + op + rng.choice(("", "", " "))

    def factor():
        exponent = rng.choice(exponents)
        return rng.choice(names) + (around("^") + exponent if exponent else "")

    for i in range(count):
        if i % 4:
            yield "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
            continue
        text = ""
        for _ in range(rng.randint(1, 4)):
            coeff = rng.choice(("", "", "3", "0", "12", "1/2", "7/3", "4/6", "5/0"))
            factors = [factor() for _ in range(rng.randint(0, 3))]
            text += around(rng.choice("+-")) + (around("*").join([coeff] * bool(coeff) + factors) or "5")
        yield text if rng.random() < 0.5 else text.lstrip("+ ")


def _parse_outcome(parse, text, ctx, names):
    """The terms of the parsed text, or the error's class, message and position."""
    try:
        return parse(text, ctx, names).terms
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_parse_agrees_with_the_former_parser():
    # The one-token-lookahead parser against the former one, kept verbatim in
    # helpers: 104,000 seeded texts over four variable grammars (x1..x3,
    # with eps, two-digit names x10..x12, and phi's x and y) give the same
    # terms, or an error of the same class, message and position.
    outcomes = Counter()
    rng = random.Random(29)
    for ctx, names in ((CTX3, ()), (Context(3, True), ()), (Context(12), ()), (Context(2), ("x", "y"))):
        for text in _parse_texts(rng, names or ctx.names, 26000):
            want = _parse_outcome(reference_parse, text, ctx, names)
            assert _parse_outcome(Polynomial.parse, text, ctx, names) == want, (text, ctx, names)
            outcomes[re.sub(r"'[^']*'|[0-9]+| of \w+|\(.*", "_", want[1]) if isinstance(want, tuple) else "valid"] += 1
    assert outcomes["valid"] > 20000 and len(outcomes) == 11, outcomes  # every message of the parser


def test_parse_rejects_exponents_at_the_limit():
    top = EXPONENT_LIMIT - 1
    assert dict(parse(f"x2^{top}").items()) == {(0, top, 0, 0): 1}
    with pytest.raises(PolyParseError) as err:
        parse("x2 + x1^999999999")
    assert err.value.position == 8
    assert str(EXPONENT_LIMIT) in str(err.value)
    # Repeated factors add up: the error points at the factor that crosses.
    with pytest.raises(PolyParseError) as err:
        parse(f"x1^{top}*x3*x1")
    assert err.value.position == len(f"x1^{top}*x3*")


def test_constructor_rejects_exponents_at_the_limit():
    top = EXPONENT_LIMIT - 1
    assert Polynomial(CTX3, {(top, 0, top): 2}).terms.get(CTX3.pack((top, 0, top)), 0) == 2
    with pytest.raises(ExponentOverflowError):
        Polynomial(CTX3, {(0, EXPONENT_LIMIT, 0): 1})
    with pytest.raises(ExponentOverflowError):
        Polynomial.monomial(CTX3, (999999999, 0, 0))
    with pytest.raises(ValueError):
        Polynomial(CTX3, {(1, -1, 0): 1})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([CTX3, Context(2, True), Context(9)]), st.integers(-(1 << 200), 1 << 200))
def test_unpack_reads_the_low_fields_of_any_int(ctx, mono):
    # The field-by-field definition: the lowest nslots EXP_BITS-bit fields of
    # the int's two's complement, most significant first.
    fields = [(mono >> (EXP_BITS * s)) & ((1 << EXP_BITS) - 1) for s in range(ctx.nslots)]
    assert ctx.unpack(mono) == tuple(reversed(fields))


def test_product_overflow_raises_instead_of_carrying():
    top = EXPONENT_LIMIT - 1
    p = Polynomial.monomial(CTX3, (top, 0, 0))
    # Just below the limit the product is exact and slot 2 is untouched.
    half = Polynomial.monomial(CTX3, (top // 2, 0, 0))
    assert dict((half * half).items()) == {(2 * (top // 2), 0, 0): 1}
    with pytest.raises(ExponentOverflowError) as err:
        p * parse("x1 + x2", CTX3)
    assert str(EXPONENT_LIMIT) in str(err.value)
    eps_ctx = Context(3, has_epsilon=True)
    e = Polynomial.monomial(eps_ctx, (0, 0, 0, top))
    with pytest.raises(ExponentOverflowError):
        e * Polynomial.epsilon(eps_ctx)
    assert issubclass(ExponentOverflowError, ValueError)


def test_context_dim_is_bounded_and_guards_every_field():
    for dim in (2, 3, DIM_LIMIT - 1):
        for has_epsilon in (False, True):
            ctx = Context(dim, has_epsilon)
            expected = sum(EXPONENT_LIMIT << (EXP_BITS * s) for s in range(ctx.nslots))
            assert ctx.guard == expected
    # the guard catches an overflow in the first and in the last slot
    ctx = Context(DIM_LIMIT - 1, has_epsilon=True)
    for slot in (0, ctx.nslots - 1):
        exps = [0] * ctx.nslots
        exps[slot] = EXPONENT_LIMIT - 1
        p = Polynomial(ctx, {tuple(exps): 1})
        with pytest.raises(ExponentOverflowError):
            p * p
    for dim in (DIM_LIMIT, 10**8, 1, 2.0):
        with pytest.raises(ValueError, match=f"below {DIM_LIMIT}"):
            Context(dim)


def test_roundtrip_on_reference_corpus():
    ctx = Context(5)  # superset dimension covers every corpus entry
    for text in REFERENCE_CORPUS:
        p = Polynomial.parse(text, ctx)
        rendered = p.render()
        assert Polynomial.parse(rendered, ctx) == p
        assert Polynomial.parse(rendered, ctx).render() == rendered


# -- property tests ---------------------------------------------------------


@st.composite
def polys(draw, ctx=CTX3, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(ctx.nslots))
        coeff = draw(
            st.one_of(
                st.integers(-9, 9),
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
            )
        )
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(ctx, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(1, 3))
def test_leibniz_rule(p, q, i):
    assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(1, 3), st.integers(1, 3))
def test_commuting_partials(p, i, j):
    assert p.diff(i).diff(j) == p.diff(j).diff(i)


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(1, 60), st.integers(-6, 6))
def test_quotient_is_the_exact_scaling(p, q, c):
    # one Fraction per coefficient, integral quotients back to int, zeros dropped
    got = _quotient(CTX3, p.terms, q, c)
    assert got == p.scale(Fraction(c, q))
    assert all(type(v) is int for v in got.terms.values() if v.denominator == 1)


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(1, 60), st.integers(-6, 6), st.integers(1, 4))
def test_quotient_builds_a_fraction_only_where_q_does_not_divide(p, q, c, k):
    # The exact int quotient where q divides, checked against building every
    # quotient as a Fraction and normalising it: equal values and equal
    # coefficient types, on term dicts with and without Fraction coefficients
    # and with divisors that divide some of them (k * q * p).
    for terms in (p.terms, {m: k * q * v for m, v in p.terms.items()}):
        got = _quotient(CTX3, terms, q, c)
        want = finish(CTX3, {m: Fraction(c * v, q) for m, v in terms.items() if v})
        assert got == want
        assert [(m, type(v)) for m, v in got.terms.items()] == [(m, type(v)) for m, v in want.terms.items()]
