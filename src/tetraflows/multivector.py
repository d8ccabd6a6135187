"""Skew multi-vectors on R^n, the Schouten bracket, and the Jacobi test.

A degree-k multi-vector is stored in the odd-coordinate transcription: a map
from strictly increasing index k-tuples (1-based) to nonzero polynomial
components, read as  sum_{i1<...<ik} comp[i1..ik] * xi_{i1}...xi_{ik}.
For bi-vectors the full coefficient matrix is recovered by antisymmetry:
P^{ji} = -P^{ij}, P^{ii} = 0.

The Schouten bracket of two bi-vectors is the tri-vector

    [[P,Q]]^{ijk} = s * sum_l ( d_l P^{ij} Q^{lk} + d_l Q^{ij} P^{lk}
                              + d_l P^{jk} Q^{li} + d_l Q^{jk} P^{li}
                              + d_l P^{ki} Q^{lj} + d_l Q^{ki} P^{lj} )

with s = 1, the normalization that reproduces the printed reference values
bit-exactly; under it [[P,P]] equals twice the Jacobiator of P (the
left-hand side of the Jacobi identity).  Every downstream vanishing
statement is invariant under s.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .polyring import Context, ContextMismatchError, Polynomial, addmul, finish

__all__ = [
    "MultiVector",
    "RawMatrix",
    "bivector_from_raw",
    "derivative_tensor",
    "schouten",
    "jacobiator",
    "is_poisson",
    "mv_linear_combination",
]


def _json_context(doc: Mapping) -> Context:
    """The Context of a document's "dim" and optional boolean "epsilon"."""
    eps = doc.get("epsilon", False)
    if not isinstance(eps, bool):
        raise TypeError(f'"epsilon" must be true or false, got {eps!r}')
    return Context(int(doc["dim"]), eps)


class MultiVector:
    """Degree-k (k = 1, 2, 3) skew multi-vector with Polynomial components."""

    __slots__ = ("ctx", "degree", "comps")

    def __init__(self, ctx: Context, degree: int, comps: Mapping | None = None):
        if degree not in (1, 2, 3):
            raise ValueError(f"degree must be 1, 2 or 3, got {degree}")
        clean = {}
        if comps:
            for idx, poly in comps.items():
                idx = tuple(idx)
                if len(idx) != degree or any(
                    not 1 <= i <= ctx.dim for i in idx
                ) or list(idx) != sorted(set(idx)):
                    raise ValueError(
                        f"component index {idx} is not a strictly increasing "
                        f"{degree}-tuple in 1..{ctx.dim}"
                    )
                if poly.ctx != ctx:
                    raise ContextMismatchError("component from a different context")
                if not poly.is_zero:
                    clean[idx] = poly
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiVector is immutable")

    @classmethod
    def zero(cls, ctx: Context, degree: int) -> "MultiVector":
        return cls(ctx, degree)

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def component(self, idx: Sequence[int]) -> Polynomial:
        """Component at a strictly increasing index tuple (zero if absent)."""
        return self.comps.get(tuple(idx), Polynomial.zero(self.ctx))

    def entry(self, i: int, j: int) -> Polynomial:
        """Full-matrix reading of a bi-vector: P^{ij} for any i, j."""
        if self.degree != 2:
            raise ValueError("entry(i, j) applies to bi-vectors only")
        if i == j:
            return Polynomial.zero(self.ctx)
        if i < j:
            return self.comps.get((i, j), Polynomial.zero(self.ctx))
        p = self.comps.get((j, i))
        return -p if p is not None else Polynomial.zero(self.ctx)

    def full_matrix(self) -> "list[list[Polynomial]]":
        """The n x n antisymmetric coefficient matrix of a bi-vector."""
        n = self.ctx.dim
        return [[self.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]

    def scale(self, c) -> "MultiVector":
        return mv_linear_combination([(c, self)])

    def mul_poly(self, f: Polynomial) -> "MultiVector":
        """Componentwise product f * self."""
        if f.ctx != self.ctx:
            raise ContextMismatchError("polynomial factor from a different context")
        return MultiVector(
            self.ctx, self.degree, {idx: f * p for idx, p in self.comps.items()}
        )

    def __add__(self, other: "MultiVector") -> "MultiVector":
        return mv_linear_combination([(1, self), (1, other)])

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        return mv_linear_combination([(1, self), (-1, other)])

    def __neg__(self) -> "MultiVector":
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __repr__(self):
        if self.is_zero:
            return f"MultiVector(deg={self.degree}, 0)"
        body = ", ".join(f"{idx}: {p.render()}" for idx, p in sorted(self.comps.items()))
        return f"MultiVector(deg={self.degree}, {body})"

    # -- eps plumbing --------------------------------------------------------

    def lift(self, ctx: Context) -> "MultiVector":
        """Embed every component into an eps-extended context."""
        return MultiVector(
            ctx, self.degree, {idx: p.lift(ctx) for idx, p in self.comps.items()}
        )

    def epsilon_split(self) -> "dict[int, MultiVector]":
        """Split by eps-degree into multi-vectors over the eps-free context."""
        base = self.ctx.without_epsilon()
        orders: dict[int, dict] = {}
        for idx, poly in self.comps.items():
            for k, part in poly.epsilon_split().items():
                orders.setdefault(k, {})[idx] = part
        return {
            k: MultiVector(base, self.degree, comps) for k, comps in sorted(orders.items())
        }

    def is_epsilon_free(self) -> bool:
        if not self.ctx.has_epsilon:
            return True
        return all(set(p.epsilon_split()) <= {0} for p in self.comps.values())

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc = {
            "dim": self.ctx.dim,
            "degree": self.degree,
            "components": {
                ",".join(map(str, idx)): poly.render()
                for idx, poly in sorted(self.comps.items())
            },
        }
        if self.ctx.has_epsilon:
            doc["epsilon"] = True
        return doc

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "MultiVector":
        ctx = _json_context(doc)
        degree = int(doc["degree"])
        comps = {}
        for key, text in doc.get("components", {}).items():
            idx = tuple(int(s) for s in str(key).split(","))
            comps[idx] = Polynomial.parse(text, ctx)
        return cls(ctx, degree, comps)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MultiVector":
        return cls.from_json_dict(json.loads(text))


class RawMatrix:
    """Full (not yet skew) n x n polynomial coefficient matrix."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: Context, entries: Sequence[Sequence[Polynomial]]):
        n = ctx.dim
        rows = [list(row) for row in entries]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"expected a {n}x{n} matrix")
        for row in rows:
            for p in row:
                if p.ctx != ctx:
                    raise ContextMismatchError("matrix entry from a different context")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in rows))

    def __setattr__(self, name, value):
        raise AttributeError("RawMatrix is immutable")

    @classmethod
    def zero(cls, ctx: Context) -> "RawMatrix":
        z = Polynomial.zero(ctx)
        return cls(ctx, [[z] * ctx.dim for _ in range(ctx.dim)])

    def entry(self, i: int, j: int) -> Polynomial:
        """1-based entry M^{ij}."""
        return self.entries[i - 1][j - 1]

    def transpose(self) -> "RawMatrix":
        n = self.ctx.dim
        return RawMatrix(
            self.ctx, [[self.entries[j][i] for j in range(n)] for i in range(n)]
        )

    def is_antisymmetric(self) -> bool:
        n = self.ctx.dim
        return all(
            (self.entries[i][j] + self.entries[j][i]).is_zero
            for i in range(n)
            for j in range(i, n)
        )

    def __eq__(self, other):
        if not isinstance(other, RawMatrix):
            return NotImplemented
        return self.ctx == other.ctx and self.entries == other.entries

    def to_json_dict(self) -> dict:
        doc = {
            "dim": self.ctx.dim,
            "entries": [[p.render() for p in row] for row in self.entries],
        }
        if self.ctx.has_epsilon:
            doc["epsilon"] = True
        return doc

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "RawMatrix":
        ctx = _json_context(doc)
        entries = [
            [Polynomial.parse(text, ctx) for text in row] for row in doc["entries"]
        ]
        return cls(ctx, entries)


def bivector_from_raw(m: RawMatrix) -> MultiVector:
    """Antisymmetrize a raw matrix: comps[(i,j)] = (M^{ij} - M^{ji}) / 2.

    The symmetric part of the matrix is discarded.
    """
    half = Fraction(1, 2)
    comps = {}
    n = m.ctx.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = (m.entry(i, j) - m.entry(j, i)).scale(half)
            if not p.is_zero:
                comps[(i, j)] = p
    return MultiVector(m.ctx, 2, comps)


def _require_bivectors(p: MultiVector, q: MultiVector) -> None:
    if p.degree != 2 or q.degree != 2:
        raise ValueError("expected bi-vectors (degree 2)")
    if p.ctx != q.ctx:
        raise ContextMismatchError("bi-vectors from different contexts")


def derivative_tensor(p: MultiVector, m: int) -> dict:
    """Nonzero m-th derivatives of a bi-vector's full matrix.

    Keys are (a, b, c1, ..., cm) with c1 <= ... <= cm, values the nonzero
    d^m P^{ab} / dx_{c1} ... dx_{cm}; derivatives commute, so every other
    order of the c's has the same value.
    """
    n = p.ctx.dim
    table = dict(p.comps)
    for step in range(m):
        table = {
            key + (c,): d
            for key, poly in table.items()
            for c in range(key[-1] if step else 1, n + 1)
            if (d := poly.diff(c))
        }
    table.update({(key[1], key[0]) + key[2:]: -poly for key, poly in table.items()})
    return table


def _jacobi_like(p: MultiVector, q: MultiVector, same: bool) -> dict:
    """Components sum_l sum_cyc ( d_l P^{ab} Q^{lc} + d_l Q^{ab} P^{lc} ).

    With ``same`` (p equals q) only the first of the two equal halves is
    summed.
    """
    ctx = p.ctx
    n = ctx.dim
    dp = derivative_tensor(p, 1)
    qm = q.full_matrix()
    if not same:
        dq = derivative_tensor(q, 1)
        pm = p.full_matrix()
    comps = {}
    for i, j, k in combinations(range(1, n + 1), 3):
        acc: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l in range(1, n + 1):
                d = dp.get((a, b, l))
                if d is not None:
                    addmul(acc, d, qm[l - 1][c - 1])
                if not same:
                    d = dq.get((a, b, l))
                    if d is not None:
                        addmul(acc, d, pm[l - 1][c - 1])
        poly = finish(ctx, acc)
        if not poly.is_zero:
            comps[(i, j, k)] = poly
    return comps


def schouten(p: MultiVector, q: MultiVector) -> MultiVector:
    """Schouten bracket of two bi-vectors (a tri-vector); symmetric in (p, q)."""
    _require_bivectors(p, q)
    same = p is q or p == q
    comps = _jacobi_like(p, q, same)
    if same:  # only one of the two equal halves was summed
        comps = {idx: poly.scale(2) for idx, poly in comps.items()}
    return MultiVector(p.ctx, 3, comps)


def jacobiator(p: MultiVector) -> MultiVector:
    """Left-hand side of the Jacobi identity as a tri-vector.

    Jac^{ijk} = sum_l ( d_l P^{ij} P^{lk} + d_l P^{jk} P^{li} + d_l P^{ki} P^{lj} )
    for i < j < k; [[P,P]] = 2 * Jac(P).
    """
    if p.degree != 2:
        raise ValueError("expected a bi-vector (degree 2)")
    return MultiVector(p.ctx, 3, _jacobi_like(p, p, True))


def is_poisson(p: MultiVector) -> bool:
    """True iff the Jacobiator of the bi-vector vanishes identically (exact)."""
    return jacobiator(p).is_zero


def mv_linear_combination(terms: Iterable[tuple]) -> MultiVector:
    """Componentwise linear combination sum_i c_i * M_i (equal ctx and degree)."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty linear combination")
    ctx = terms[0][1].ctx
    degree = terms[0][1].degree
    acc: dict = {}
    for c, mv in terms:
        if mv.ctx != ctx:
            raise ContextMismatchError("mixed contexts in linear combination")
        if mv.degree != degree:
            raise ValueError("mixed degrees in linear combination")
        for idx, poly in mv.comps.items():
            contrib = poly.scale(c)
            if contrib.is_zero:
                continue
            cur = acc.get(idx)
            acc[idx] = contrib if cur is None else cur + contrib
    return MultiVector(ctx, degree, {idx: p for idx, p in acc.items() if not p.is_zero})
