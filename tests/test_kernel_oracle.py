"""Property tests of the packed polynomial kernel against an independent
reference.

The reference below stores a polynomial as a plain dict from exponent
tuples to Fractions and implements every operation from its definition; it
shares no code with ``tetraflows.polyring``.  Polynomials are compared
through ``Polynomial.items()``, the kernel's unpacked view.  A second oracle,
sympy, checks products and derivatives where it is installed.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetraflows.multivector import MultiVector, mv_linear_combination
from tetraflows.polyring import (
    EXPONENT_LIMIT,
    Context,
    ExponentOverflowError,
    Polynomial,
    addmul,
    addto,
    finish,
)

TOP = EXPONENT_LIMIT - 1

# -- the reference ------------------------------------------------------------


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c != 0}


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return ref_clean(out)


def ref_scale(a, c):
    return ref_clean({m: c * v for m, v in a.items()})


def ref_pairs_overflow(a, b):
    return any(x + y >= EXPONENT_LIMIT for m1 in a for m2 in b for x, y in zip(m1, m2))


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return ref_clean(out)


def ref_diff(a, slot):
    out = {}
    for m, c in a.items():
        if m[slot]:
            d = m[:slot] + (m[slot] - 1,) + m[slot + 1 :]
            out[d] = out.get(d, 0) + c * m[slot]
    return ref_clean(out)


def ref_render(a, ctx):
    if not a:
        return "0"
    names = [f"x{s + 1}" for s in range(ctx.dim)] + (["eps"] if ctx.has_epsilon else [])
    pieces = []
    for m in sorted(a, key=lambda m: (sum(m), m), reverse=True):
        c = Fraction(a[m])
        mag = abs(c)
        coeff = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        if not factors:
            body = coeff
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = coeff + "*" + "*".join(factors)
        if pieces:
            pieces.append((" - " if c < 0 else " + ") + body)
        else:
            pieces.append(("-" if c < 0 else "") + body)
    return "".join(pieces)


def view(p):
    """The kernel's terms as a reference dict, checking canonical coefficients."""
    terms = dict(p.items())
    for c in terms.values():
        assert c != 0
        assert isinstance(c, int) or (isinstance(c, Fraction) and c.denominator != 1)
    return terms


# -- strategies ---------------------------------------------------------------

CONTEXTS = [Context(2), Context(3), Context(4), Context(2, True), Context(3, True)]

coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def ref_polys(draw, ctx, exps=st.integers(0, 4), max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        m = tuple(draw(exps) for _ in range(ctx.nslots))
        terms[m] = terms.get(m, 0) + draw(coeffs)
    return ref_clean(terms)


@st.composite
def ctx_and_polys(draw, count, exps=st.integers(0, 4)):
    ctx = draw(st.sampled_from(CONTEXTS))
    return ctx, [draw(ref_polys(ctx, exps)) for _ in range(count)]


# Exponents near zero and just below the limit: sums of two either fit or
# overflow by a small margin.
edge_exps = st.one_of(st.integers(0, 2), st.integers(TOP // 2 - 1, TOP // 2 + 1), st.just(TOP))


# -- properties ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(ctx_and_polys(2))
def test_add_and_mul_match_reference(case):
    ctx, (a, b) = case
    pa, pb = Polynomial(ctx, a), Polynomial(ctx, b)
    assert view(pa) == a
    assert view(pa + pb) == ref_add(a, b)
    assert view(pa - pb) == ref_add(a, {m: -c for m, c in b.items()})
    assert view(pa * pb) == ref_mul(a, b)


@settings(max_examples=150, deadline=None)
@given(ctx_and_polys(2, edge_exps))
def test_mul_near_the_exponent_limit(case):
    ctx, (a, b) = case
    pa, pb = Polynomial(ctx, a), Polynomial(ctx, b)
    if ref_pairs_overflow(a, b):
        with pytest.raises(ExponentOverflowError):
            pa * pb
    else:
        assert view(pa * pb) == ref_mul(a, b)


@settings(max_examples=150, deadline=None)
@given(ctx_and_polys(1, st.one_of(st.integers(0, 4), st.just(TOP))), st.data())
def test_diff_matches_reference(case, data):
    ctx, (a,) = case
    i = data.draw(st.integers(1, ctx.dim))
    assert view(Polynomial(ctx, a).diff(i)) == ref_diff(a, i - 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lift_and_epsilon_split_match_reference(data):
    ctx = data.draw(st.sampled_from([Context(2), Context(3), Context(4)]))
    eps_ctx = ctx.with_epsilon()
    a = data.draw(ref_polys(ctx, st.one_of(st.integers(0, 4), st.just(TOP))))
    lifted = Polynomial(ctx, a).lift(eps_ctx)
    assert view(lifted) == {m + (0,): c for m, c in a.items()}
    e = data.draw(ref_polys(eps_ctx, st.one_of(st.integers(0, 4), st.just(TOP))))
    expected = {}
    for m, c in e.items():
        expected.setdefault(m[-1], {})[m[:-1]] = c
    split = Polynomial(eps_ctx, e).epsilon_split()
    assert sorted(split) == sorted(expected)
    for k, part in split.items():
        assert part.ctx == ctx
        assert view(part) == expected[k]


@settings(max_examples=150, deadline=None)
@given(ctx_and_polys(1, st.one_of(st.integers(0, 4), st.just(TOP))))
def test_render_matches_reference_and_parses_back(case):
    ctx, (a,) = case
    p = Polynomial(ctx, a)
    text = p.render()
    assert text == ref_render(a, ctx)
    assert Polynomial.parse(text, ctx) == p


@settings(max_examples=100, deadline=None)
@given(ctx_and_polys(6))
def test_addmul_then_finish_is_a_sum_of_products(case):
    ctx, polys = case
    acc: dict = {}
    expected: dict = {}
    for a, b in zip(polys[::2], polys[1::2]):
        addmul(acc, Polynomial(ctx, a).terms, Polynomial(ctx, b).terms)
        expected = ref_add(expected, ref_mul(a, b))
    assert view(finish(ctx, acc)) == expected


# Factors that make Fraction coefficients integral, and ones that keep them
# (or make them) Fractions; 0, 1 and -1 are the edge cases of every path.
scalars = st.one_of(
    st.sampled_from((0, 1, -1, 2, 6, -12, Fraction(1, 2), Fraction(-3, 2))),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@settings(max_examples=150, deadline=None)
@given(ctx_and_polys(3), scalars, st.booleans())
def test_addto_then_finish_matches_reference(case, c, into_empty):
    ctx, (a, b, d) = case
    pa, pb, pd = (Polynomial(ctx, t) for t in (a, b, d))
    acc: dict = {} if into_empty else dict(pa.terms)
    expected = {} if into_empty else a
    for coeff, poly, ref in ((c, pb, b), (1, pd, d), (-1, pb, b)):
        addto(acc, poly.terms, coeff)
        expected = ref_add(expected, ref_scale(ref, coeff))
    assert view(finish(ctx, acc)) == expected
    # the operands are read, never shared or changed
    assert (view(pa), view(pb), view(pd)) == (a, b, d)


@settings(max_examples=150, deadline=None)
@given(ctx_and_polys(2), scalars)
def test_sub_and_scale_keep_canonical_coefficients(case, c):
    ctx, (a, b) = case
    pa, pb = Polynomial(ctx, a), Polynomial(ctx, b)
    zero = Polynomial.zero(ctx)
    assert view(pa - pa) == {}
    assert view(zero - pb) == ref_scale(b, -1)
    assert view(pa - zero) == a
    assert view(pa.scale(c)) == ref_scale(a, c)
    # scaling by the denominator lcm clears every Fraction
    clear = lcm(*(Fraction(v).denominator for v in a.values()))
    assert view(pa.scale(clear)) == ref_scale(a, clear)
    assert view(pa.scale(Fraction(1, clear)).scale(clear)) == a


@settings(max_examples=100, deadline=None)
@given(ctx_and_polys(3), scalars)
def test_mv_linear_combination_keeps_canonical_coefficients(case, c):
    ctx, (a, b, d) = case
    m = MultiVector(ctx, 2, {(1, 2): Polynomial(ctx, a), (1, ctx.dim): Polynomial(ctx, b)})
    n = MultiVector(ctx, 2, {(1, 2): Polynomial(ctx, d)})
    half = Fraction(1, 2)

    def ref(combination):
        out: dict = {}
        for coeff, mv in combination:
            for idx, poly in mv.comps.items():
                out[idx] = ref_add(out.get(idx, {}), ref_scale(view(poly), coeff))
        return {idx: t for idx, t in out.items() if t}

    for combination in (
        [(half, m), (half, m)],  # halves that add up to whole coefficients
        [(half, m), (half, n), (-half, m)],  # halves that cancel
        [(c, m), (-c, m), (1, n)],
        [(c, m), (half, n)],
        [(c, m)],
    ):
        result = mv_linear_combination(combination)
        assert {idx: view(poly) for idx, poly in result.comps.items()} == ref(combination)


def test_finish_rejects_an_overflowed_sum_of_products():
    ctx = Context(2)
    acc: dict = {}
    addmul(acc, Polynomial(ctx, {(1, 0): 1}).terms, Polynomial(ctx, {(2, 0): 1}).terms)
    addmul(acc, Polynomial(ctx, {(TOP, 0): 1}).terms, Polynomial(ctx, {(0, 1): 1, (1, 0): 1}).terms)
    with pytest.raises(ExponentOverflowError):
        finish(ctx, acc)


# -- sympy cross-check ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ctx_and_polys(2), st.data())
def test_mul_and_diff_match_sympy(case, data):
    sympy = pytest.importorskip("sympy")
    ctx, (a, b) = case
    symbols = sympy.symbols(f"s0:{ctx.nslots}")

    def to_sympy(terms):
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
                for m, c in ((m, Fraction(c)) for m, c in terms)
            )
        )

    def from_sympy(expr):
        if expr == 0:
            return {}
        poly = sympy.Poly(expr, *symbols)
        return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}

    pa, pb = Polynomial(ctx, a), Polynomial(ctx, b)
    product = sympy.expand(to_sympy(a.items()) * to_sympy(b.items()))
    assert view(pa * pb) == from_sympy(product)
    i = data.draw(st.integers(1, ctx.dim))
    assert view(pa.diff(i)) == from_sympy(sympy.diff(to_sympy(pa.items()), symbols[i - 1]))
