"""sympy as an independent oracle for the bracket, the Jacobiator and both flows.

Each reference is built from plain sympy expressions with the displayed
formulas: the six-term Schouten bracket, the Jacobiator, and the gamma1 and
gamma2 sums, on small seeded random bi-vectors in dimensions 3 and 4.
"""

import random
from itertools import combinations, product

import pytest

from tetraflows.graphflow import gamma1, gamma2
from tetraflows.multivector import jacobiator, schouten
from tetraflows.polyring import Context

from helpers import random_bivector

sympy = pytest.importorskip("sympy")


def to_sympy(poly, xs):
    """A Polynomial as a sympy expression in the symbols ``xs``."""
    total = sympy.Integer(0)
    for exps, c in poly.items():
        term = sympy.Rational(c.numerator, c.denominator)  # an int or a Fraction
        for x, e in zip(xs, exps):
            term *= x**e
        total += term
    return total


def sympy_matrix(p, xs):
    """The full antisymmetric matrix P[a][b] of a bi-vector (0-based)."""
    n = p.ctx.dim
    return [[to_sympy(p.entry(a + 1, b + 1), xs) for b in range(n)] for a in range(n)]


def derivative(expr, xs, *indices):
    for c in indices:
        expr = sympy.diff(expr, xs[c])
    return expr


def cases(seed):
    rng = random.Random(seed)
    for dim in (3, 4):
        ctx = Context(dim)
        xs = sympy.symbols(f"x1:{dim + 1}")
        p = random_bivector(rng, ctx, max_terms=2, max_degree=3)
        q = random_bivector(rng, ctx, max_terms=2, max_degree=3)
        yield dim, xs, p, q


@pytest.mark.parametrize("seed", [41, 42])
def test_bracket_and_jacobiator_match_sympy(seed):
    for n, xs, p, q in cases(seed):
        P, Q = sympy_matrix(p, xs), sympy_matrix(q, xs)
        bracket, jac = schouten(p, q), jacobiator(p)
        assert p != q and not bracket.is_zero
        for i, j, k in combinations(range(n), 3):
            six = sum(
                sympy.diff(A[a][b], xs[l]) * B[l][c]
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                for A, B in ((P, Q), (Q, P))
                for l in range(n)
            )
            three = sum(
                sympy.diff(P[a][b], xs[l]) * P[l][c]
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                for l in range(n)
            )
            idx = (i + 1, j + 1, k + 1)
            assert sympy.expand(six - to_sympy(bracket.component(idx), xs)) == 0
            assert sympy.expand(three - to_sympy(jac.component(idx), xs)) == 0


@pytest.mark.parametrize("seed", [45])
def test_flows_match_sympy(seed):
    # gamma1:  R^{ij} = sum d^3 P^{ij}/dx_k dx_l dx_m * dP^{kk'}/dx_{l'}
    #                       * dP^{ll'}/dx_{m'} * dP^{mm'}/dx_{k'}
    # gamma2:  R^{im} = sum d^2 P^{ij}/dx_k dx_l * d^2 P^{km}/dx_{k'} dx_{l'}
    #                       * dP^{k'l}/dx_{m'} * dP^{m'l'}/dx_j
    for n, xs, p, _ in cases(seed):
        P = sympy_matrix(p, xs)
        r = range(n)
        d1 = {(a, b, c): derivative(P[a][b], xs, c) for a, b, c in product(r, repeat=3)}
        # The product of the three first-derivative factors of each flow,
        # summed over the indices that do not touch the head factor.
        loop = {
            (k, l, m): sympy.expand(
                sum(
                    d1[k, k1, l1] * d1[l, l1, m1] * d1[m, m1, k1]
                    for k1, l1, m1 in product(r, repeat=3)
                )
            )
            for k, l, m in product(r, repeat=3)
        }
        chain = {
            (k1, l, l1, j): sympy.expand(sum(d1[k1, l, m1] * d1[m1, l1, j] for m1 in r))
            for k1, l, l1, j in product(r, repeat=4)
        }
        raw1, raw2 = gamma1(p).raw, gamma2(p).raw
        for raw in (raw1, raw2):
            assert any(not entry.is_zero for row in raw.entries for entry in row)
        for i, j in product(r, repeat=2):
            r1 = sum(
                derivative(P[i][j], xs, k, l, m) * loop[k, l, m]
                for k, l, m in product(r, repeat=3)
            )
            assert sympy.expand(r1 - to_sympy(raw1.entry(i + 1, j + 1), xs)) == 0
        for i, m in product(r, repeat=2):
            r2 = sum(
                derivative(P[i][j], xs, k, l)
                * derivative(P[k][m], xs, k1, l1)
                * chain[k1, l, l1, j]
                for j, k, l, k1, l1 in product(r, repeat=5)
            )
            assert sympy.expand(r2 - to_sympy(raw2.entry(i + 1, m + 1), xs)) == 0
