"""Generators of polynomial Poisson bi-vectors.

Two constructions are provided:

* the determinant (Nambu) bracket on R^n, n >= 3:
  {a, b} = det Jac(g_1, ..., g_{n-2}, a, b) for a fixed argument tuple g,
  optionally pre-multiplied by a polynomial factor;
* the even-dimensional bracket on the 2d coefficients of a monic u(lam) of
  degree d and a v(lam) of degree d-1, driven by a bivariate polynomial phi
  and Euclidean reduction mod u(lam).  lam is the trailing formal slot of
  the context (the eps slot of the perturbation probe), so u, v and the
  remainders are ordinary polynomials.

Pre-multiplying any bi-vector by a polynomial is ``MultiVector.mul_poly``;
``form_obstruction`` gives the one-form test of the Poisson property for a
pre-multiplied 3D bi-vector.

Generators only build.  They run no Jacobi test: each consumer that needs a
Poisson bi-vector (``tetraflows gen``, ``compat_report``, ``find_ratios``,
``perturb_probe``) checks it once.

Coordinates for the even-dimensional construction are ordered
u_1..u_d, v_1..v_d and mapped onto x1..x(2d); the resulting matrix has the
block shape (0 U / -U 0).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .multivector import MultiVector, _json_field
from .multivector import is_poisson  # noqa: F401 (bench/selftest.py traces this name)
from .polyring import Context, ContextMismatchError, Polynomial, _number, _Record

__all__ = [
    "GeneratorError",
    "DetSpec",
    "VanhaeckeSpec",
    "det_bracket",
    "form_obstruction",
    "vanhaecke_bracket",
    "generator_from_json_dict",
    "generator_to_json_dict",
    "build_bivector",
]

class GeneratorError(ValueError):
    """A generator spec holds inconsistent or out-of-range data."""


class DetSpec(_Record):
    """Arguments of the determinant bracket: n-2 functions plus optional factor."""

    __match_args__ = __slots__ = ("ctx", "args", "prefactor")

    def __init__(self, ctx: Context, args: tuple, prefactor: Polynomial | None = None):
        self._init(ctx, tuple(args), prefactor)
        if ctx.dim < 3:
            raise GeneratorError("determinant bracket needs dim >= 3")
        if len(self.args) != ctx.dim - 2:
            raise GeneratorError(
                f"expected {ctx.dim - 2} arguments for dim {ctx.dim}, "
                f"got {len(self.args)}"
            )
        for g in self.args:
            if g.ctx != ctx:
                raise ContextMismatchError("argument from a different context")
        if prefactor is not None and prefactor.ctx != ctx:
            raise ContextMismatchError("prefactor from a different context")


class VanhaeckeSpec(_Record):
    """Even-dimensional bracket data: degree d and bivariate phi as (a, b, coeff).

    ``ctx`` (derived, neither compared nor shown) is one object for every
    polynomial built from this spec, so context checks in the kernel
    succeed on identity.
    """

    __match_args__ = ("d", "phi")
    __slots__ = __match_args__ + ("ctx",)

    def __init__(self, d: int, phi: tuple):
        # type(x) is int, as for JSON fields: neither 2.5 nor True is an int
        if type(d) is not int or d < 1:
            raise GeneratorError(f"d must be an integer >= 1, got {d!r}")
        phi = tuple((a, b, c) for a, b, c in phi)
        if any(type(a) is not int or type(b) is not int for a, b, _ in phi):
            raise GeneratorError("phi exponents must be integers")
        if any(a < 0 or b < 0 for a, b, _ in phi):
            raise GeneratorError("phi exponents must be nonnegative")
        if any(type(c) not in (int, Fraction) for _, _, c in phi):
            raise GeneratorError("phi coefficients must be exact: int or Fraction")
        self._init(d, phi)
        object.__setattr__(self, "ctx", Context(2 * d))


def _det(rows: "list[list[Polynomial]]", cols: tuple) -> Polynomial:
    """Exact determinant of the square matrix of ``rows`` restricted to the
    columns ``cols``, by cofactor expansion along the sparsest row."""
    if len(rows) == 1:
        return rows[0][cols[0]]
    best = min(range(len(rows)), key=lambda r: sum(not rows[r][c].is_zero for c in cols))
    rest = rows[:best] + rows[best + 1 :]
    acc = Polynomial.zero(rows[0][0].ctx)
    for pos, c in enumerate(cols):
        e = rows[best][c]
        if e.is_zero:
            continue
        minor = _det(rest, cols[:pos] + cols[pos + 1 :])
        if not minor.is_zero:
            acc = acc + e * minor if (best + pos) % 2 == 0 else acc - e * minor
    return acc


def det_bracket(spec: DetSpec) -> MultiVector:
    """Nambu-type bracket: comp[(i,j)] = f * det Jac(g_1..g_{n-2}, x_i, x_j).

    Expanding along the two unit rows of x_i and x_j, the determinant is
    (-1)^(i+j+1) times the minor of the gradient matrix of the g's without
    the columns i and j.
    """
    ctx = spec.ctx
    n = ctx.dim
    grads = [[g.diff(c) for c in range(1, n + 1)] for g in spec.args]
    comps = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            minor = _det(grads, tuple(c for c in range(n) if c not in (i - 1, j - 1)))
            comps[(i, j)] = minor if (i + j) % 2 else -minor
    mv = MultiVector(ctx, 2, comps)
    return mv if spec.prefactor is None else mv.mul_poly(spec.prefactor)


def form_obstruction(p: MultiVector) -> Polynomial:
    """Coefficient of dx^dy^dz in dP ^ P for the one-form P of a 3D bi-vector.

    The one-form is (-P^{23}, P^{13}, -P^{12}).  The obstruction vanishes
    exactly when the bi-vector is Poisson; it equals the (1,2,3)-component
    of the Jacobiator.
    """
    if p.degree != 2 or p.ctx.dim != 3:
        raise ValueError("the one-form obstruction needs a 3D bi-vector")
    p1, p2, p3 = -p.entry(2, 3), p.entry(1, 3), -p.entry(1, 2)
    c12 = p2.diff(1) - p1.diff(2)
    c13 = p3.diff(1) - p1.diff(3)
    c23 = p3.diff(2) - p2.diff(3)
    return c12 * p3 - c13 * p2 + c23 * p1


def vanhaecke_bracket(spec: VanhaeckeSpec) -> MultiVector:
    """Bracket on R^(2d): {u_i,u_j} = {v_i,v_j} = 0 and

    {u_i, v_j} = coeff of lam^(d-j) in
                 phi(lam, v(lam)) * [u(lam)/lam^(d-i+1)]_+  mod u(lam)

    (of the two natural readings of the lam-coefficient, lam^(d-j) and
    lam^(j-1), the one that makes the bracket Poisson).  The result is not
    tested here; a consumer that needs it Poisson runs the Jacobi test.
    """
    d = spec.d
    ctx = spec.ctx
    # lam is the trailing formal slot.  Horner's rule builds
    # u(lam) = lam^d + u_1 lam^(d-1) + ... + u_d  with u_i = x_i and
    # v(lam) = v_1 lam^(d-1) + ... + v_d          with v_i = x_(d+i).
    lctx = ctx.with_epsilon()
    lam = Polynomial.epsilon(lctx)
    u = Polynomial.one(lctx)
    v = Polynomial.zero(lctx)
    for i in range(1, d + 1):
        u = u * lam + Polynomial.variable(lctx, i)
        v = v * lam + Polynomial.variable(lctx, d + i)
    phi_of_v = Polynomial.zero(lctx)
    for a, b, coeff in spec.phi:
        phi_of_v = phi_of_v + (lam**a * v**b).scale(coeff)
    comps = {}
    u_plus = Polynomial.one(lctx)  # [u(lam) / lam^(d-i+1)]_+
    for i in range(1, d + 1):
        # Reduce mod the monic u: cancel the top power of lam until it is below d.
        rem = phi_of_v * u_plus
        parts = rem.epsilon_split()
        while (top := max(parts, default=0)) >= d:
            rem = rem - parts[top].lift(lctx) * lam ** (top - d) * u
            parts = rem.epsilon_split()
        for j in range(1, d + 1):
            c = parts.get(d - j)
            if c:
                comps[(i, d + j)] = Polynomial._raw(ctx, c.terms)
        u_plus = u_plus * lam + Polynomial.variable(lctx, i)
    return MultiVector(ctx, 2, comps)


# -- GeneratorSpec serialization ------------------------------------------------


def generator_to_json_dict(spec) -> dict:
    if isinstance(spec, DetSpec):
        doc = {
            "kind": "det",
            "dim": spec.ctx.dim,
            "args": [g.render() for g in spec.args],
        }
        if spec.prefactor is not None:
            doc["prefactor"] = spec.prefactor.render()
        return doc
    if isinstance(spec, VanhaeckeSpec):
        return {
            "kind": "vanhaecke",
            "dim": 2 * spec.d,
            "d": spec.d,
            "phi": [[a, b, str(c)] for a, b, c in spec.phi],
        }
    raise TypeError(f"not a generator spec: {type(spec).__name__}")


def generator_from_json_dict(doc: Mapping):
    kind = doc.get("kind")
    if kind == "det":
        ctx = Context(_json_field(doc, "dim", int))
        args = doc["args"]
        if not isinstance(args, list) or not all(isinstance(t, str) for t in args):
            raise TypeError('"args" must be a list of polynomial strings')
        args = [Polynomial.parse(t, ctx) for t in args]
        pref = doc.get("prefactor")
        prefactor = Polynomial.parse(pref, ctx) if pref is not None else None
        return DetSpec(ctx, args, prefactor)
    if kind == "vanhaecke":
        d = _json_field(doc, "d", int)
        if "dim" in doc and _json_field(doc, "dim", int) != 2 * d:
            raise GeneratorError(f"dim {doc['dim']} inconsistent with d = {d}")
        phi = doc["phi"]
        if not isinstance(phi, list) or not all(
            isinstance(t, list) and len(t) == 3 and type(t[0]) is type(t[1]) is int and type(t[2]) in (int, str)
            for t in phi
        ):
            raise TypeError('"phi" must be a list of [a, b, coeff] triples: ints a and b, coeff an int or a string')
        phi = [(a, b, c if type(c) is int else _number(c, "phi coefficient")) for a, b, c in phi]
        return VanhaeckeSpec(d, phi)
    raise GeneratorError(f"unknown generator kind {kind!r}")


def build_bivector(spec) -> MultiVector:
    """Dispatch a generator spec to its construction."""
    if isinstance(spec, DetSpec):
        return det_bracket(spec)
    if isinstance(spec, VanhaeckeSpec):
        return vanhaecke_bracket(spec)
    raise TypeError(f"not a generator spec: {type(spec).__name__}")
