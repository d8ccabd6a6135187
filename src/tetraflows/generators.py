"""Generators of polynomial Poisson bi-vectors.

Three constructions are provided:

* the determinant (Nambu) bracket on R^n, n >= 3:
  {a, b} = det Jac(g_1, ..., g_{n-2}, a, b) for a fixed argument tuple g,
  optionally pre-multiplied by a polynomial factor;
* pre-multiplication of a 3D bi-vector by a polynomial, with the associated
  one-form obstruction test (the coefficient of dx^dy^dz in dP ^ P, which
  vanishes exactly when the bi-vector is Poisson);
* the even-dimensional bracket on the 2d coefficients of a monic u(lam) of
  degree d and a v(lam) of degree d-1, driven by a bivariate polynomial phi
  and Euclidean reduction mod u(lam).  lam is the trailing formal slot of
  the context (the eps slot of the perturbation probe), so u, v and the
  remainders are ordinary polynomials.

Coordinates for the even-dimensional construction are ordered
u_1..u_d, v_1..v_d and mapped onto x1..x(2d); the resulting matrix has the
block shape (0 U / -U 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping

from .multivector import MultiVector, _json_field, is_poisson
from .polyring import Context, ContextMismatchError, Polynomial

__all__ = [
    "GeneratorError",
    "DetSpec",
    "VanhaeckeSpec",
    "det_bracket",
    "premultiply",
    "form_obstruction",
    "vanhaecke_bracket",
    "generator_from_json_dict",
    "generator_to_json_dict",
    "build_bivector",
]

class GeneratorError(ValueError):
    """A generator received inconsistent data or produced a non-Poisson result."""


@dataclass(frozen=True)
class DetSpec:
    """Arguments of the determinant bracket: n-2 functions plus optional factor."""

    ctx: Context
    args: tuple
    prefactor: Polynomial | None = None

    def __post_init__(self):
        if self.ctx.dim < 3:
            raise GeneratorError("determinant bracket needs dim >= 3")
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.ctx.dim - 2:
            raise GeneratorError(
                f"expected {self.ctx.dim - 2} arguments for dim {self.ctx.dim}, "
                f"got {len(self.args)}"
            )
        for g in self.args:
            if g.ctx != self.ctx:
                raise ContextMismatchError("argument from a different context")
        if self.prefactor is not None and self.prefactor.ctx != self.ctx:
            raise ContextMismatchError("prefactor from a different context")


@dataclass(frozen=True)
class VanhaeckeSpec:
    """Even-dimensional bracket data: degree d and bivariate phi as (a, b, coeff)."""

    d: int
    phi: tuple

    def __post_init__(self):
        if self.d < 1:
            raise GeneratorError("d must be >= 1")
        phi = tuple((int(a), int(b), c) for a, b, c in self.phi)
        if any(a < 0 or b < 0 for a, b, _ in phi):
            raise GeneratorError("phi exponents must be nonnegative")
        object.__setattr__(self, "phi", phi)

    @cached_property
    def ctx(self) -> Context:
        # One object for every polynomial built from this spec, so context
        # checks in the kernel succeed on identity.
        return Context(2 * self.d)


def _det(rows: "list[list[Polynomial]]", ctx: Context) -> Polynomial:
    """Exact determinant by cofactor expansion along the sparsest row."""
    n = len(rows)
    cols = tuple(range(n))

    def expand(row_ids, col_ids):
        if len(row_ids) == 1:
            return rows[row_ids[0]][col_ids[0]]
        best = min(
            row_ids,
            key=lambda r: sum(0 if rows[r][c].is_zero else 1 for c in col_ids),
        )
        rest = tuple(r for r in row_ids if r != best)
        acc = Polynomial.zero(ctx)
        for pos, c in enumerate(col_ids):
            e = rows[best][c]
            if e.is_zero:
                continue
            minor = expand(rest, col_ids[:pos] + col_ids[pos + 1 :])
            if minor.is_zero:
                continue
            sign = (-1) ** (row_ids.index(best) + pos)
            acc = acc + (e * minor if sign > 0 else -(e * minor))
        return acc

    return expand(cols, cols)


def det_bracket(spec: DetSpec) -> MultiVector:
    """Nambu-type bracket: comp[(i,j)] = f * det Jac(g_1..g_{n-2}, x_i, x_j)."""
    ctx = spec.ctx
    n = ctx.dim
    grads = [[g.diff(c) for c in range(1, n + 1)] for g in spec.args]
    zero = Polynomial.zero(ctx)
    one = Polynomial.one(ctx)
    comps = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ei = [zero] * n
            ei[i - 1] = one
            ej = [zero] * n
            ej[j - 1] = one
            p = _det(grads + [ei, ej], ctx)
            if spec.prefactor is not None:
                p = spec.prefactor * p
            if not p.is_zero:
                comps[(i, j)] = p
    return MultiVector(ctx, 2, comps)


def premultiply(p: MultiVector, f: Polynomial) -> MultiVector:
    """Componentwise product f * P.

    In dimension 3 this preserves the Poisson property; in dimension >= 4 it
    generally does not.
    """
    if p.degree != 2:
        raise ValueError("expected a bi-vector (degree 2)")
    return p.mul_poly(f)


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


def _vanhaecke_u_matrix(spec: VanhaeckeSpec, lam_power) -> "dict[tuple, Polynomial]":
    """Entries U^{ij} = {u_i, v_j} for one lam-coefficient reading."""
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
    entries = {}
    u_plus = Polynomial.one(lctx)  # [u(lam) / lam^(d-i+1)]_+
    for i in range(1, d + 1):
        # Reduce mod the monic u: cancel the top power of lam until it is below d.
        rem = phi_of_v * u_plus
        parts = rem.epsilon_split()
        while (top := max(parts, default=0)) >= d:
            rem = rem - parts[top].lift(lctx) * lam ** (top - d) * u
            parts = rem.epsilon_split()
        for j in range(1, d + 1):
            c = parts.get(lam_power(j, d))
            if c:
                entries[(i, j)] = Polynomial(ctx, dict(c.items()))
        u_plus = u_plus * lam + Polynomial.variable(lctx, i)
    return entries


def vanhaecke_bracket(spec: VanhaeckeSpec) -> MultiVector:
    """Bracket on R^(2d): {u_i,u_j} = {v_i,v_j} = 0 and

    {u_i, v_j} = coeff of lam^(d-j) in
                 phi(lam, v(lam)) * [u(lam)/lam^(d-i+1)]_+  mod u(lam)

    (of the two natural readings of the lam-coefficient, lam^(d-j) and
    lam^(j-1), the one that makes the bracket Poisson).  The result is
    verified to be Poisson; a failure signals an implementation bug and
    raises :class:`GeneratorError`.
    """
    d = spec.d
    entries = _vanhaecke_u_matrix(spec, lambda j, d: d - j)
    comps = {
        (i, d + j): poly for (i, j), poly in entries.items()
    }
    mv = MultiVector(spec.ctx, 2, comps)
    if not is_poisson(mv):
        raise GeneratorError(
            "even-dimensional bracket failed the Jacobi identity; "
            "this indicates an implementation bug"
        )
    return mv


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
            "phi": [[a, b, _scalar_str(c)] for a, b, c in spec.phi],
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
            isinstance(t, list) and len(t) == 3 and type(t[0]) is type(t[1]) is int
            for t in phi
        ):
            raise TypeError('"phi" must be a list of [a, b, coeff] triples, a and b integers')
        phi = [(a, b, Fraction(str(c))) for a, b, c in phi]
        return VanhaeckeSpec(d, phi)
    raise GeneratorError(f"unknown generator kind {kind!r}")


def build_bivector(spec) -> MultiVector:
    """Dispatch a generator spec to its construction."""
    if isinstance(spec, DetSpec):
        return det_bracket(spec)
    if isinstance(spec, VanhaeckeSpec):
        return vanhaecke_bracket(spec)
    raise TypeError(f"not a generator spec: {type(spec).__name__}")


def _scalar_str(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))
