"""Skew multi-vectors on R^n, the Schouten bracket, and the Jacobi test.

A degree-k multi-vector is stored in the odd-coordinate transcription: a map
from strictly increasing index k-tuples (1-based) to nonzero polynomial
components, read as  sum_{i1<...<ik} comp[i1..ik] * xi_{i1}...xi_{ik}.
For bi-vectors the full coefficient matrix is recovered by antisymmetry:
P^{ji} = -P^{ij}, P^{ii} = 0.

The Schouten bracket of two bi-vectors is the tri-vector

    [[P,Q]]^{ijk} = sum_l ( d_l P^{ij} Q^{lk} + d_l Q^{ij} P^{lk}
                          + d_l P^{jk} Q^{li} + d_l Q^{jk} P^{li}
                          + d_l P^{ki} Q^{lj} + d_l Q^{ki} P^{lj} ),

the normalization that reproduces the printed reference values bit-exactly;
[[P,P]] is twice the Jacobiator of P (the left-hand side of the Jacobi
identity).  It is computed as a graph sum: the graph "2; (S1,S2) (V1,S3)"
gives R^{abc} = sum_l d_l P^{ab} Q^{lc}, and [[P,Q]] = sum_cyc (R_PQ + R_QP).
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

from ._kgraph import graph_sum, parse_kgraph
from .polyring import DIM_LIMIT, Context, ContextMismatchError, Polynomial, _norm_coeff, _quote, addto, finish
from .polyring import _check_index, _Record

__all__ = [
    "MultiVector",
    "RawMatrix",
    "schouten",
    "jacobiator",
    "is_poisson",
    "mv_linear_combination",
]


def _json_field(doc: Mapping, key: str, kind: type, *default):
    """``doc[key]``, or the default when one is given and the key is absent;
    it must have exactly the type ``kind``, so neither 3.7 nor true is an int."""
    value = doc.get(key, *default) if default else doc[key]
    if type(value) is not kind:
        raise TypeError(f'"{key}" must be of type {kind.__name__}, got {value!r}')
    return value


class MultiVector(_Record):
    """Degree-k (k = 2, 3) skew multi-vector with Polynomial components.

    ``_tables`` is the private store of a bi-vector's derivative tables,
    filled by ``_kgraph.derivative_tensor`` on first read and kept as long
    as the bi-vector, so every graph sum on it shares them; a rational one
    keeps its integral form there, which holds them (``_kgraph._integral``).
    It is not compared; pickle, copy and the constructor start it empty.
    """

    __match_args__ = ("ctx", "degree", "comps")
    __slots__ = __match_args__ + ("_tables",)

    def __init__(self, ctx: Context, degree: int, comps: Mapping | None = None):
        if degree not in (2, 3):
            raise ValueError(f"degree must be 2 or 3, got {degree}")
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
        self._init(ctx, degree, clean)
        object.__setattr__(self, "_tables", {})

    @classmethod
    def zero(cls, ctx: Context, degree: int) -> "MultiVector":
        return cls(ctx, degree)

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def entry(self, i: int, j: int) -> Polynomial:
        """Full-matrix reading of a bi-vector: P^{ij} for any i, j."""
        if self.degree != 2:
            raise ValueError("entry(i, j) applies to bi-vectors only")
        _check_index(self.ctx, i, j, what="index")
        p = self.comps.get((min(i, j), max(i, j)), Polynomial.zero(self.ctx))
        return -p if i > j else p

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
        ctx = Context(_json_field(doc, "dim", int), _json_field(doc, "epsilon", bool, False))
        degree = _json_field(doc, "degree", int)
        comps = {}
        for key, text in doc.get("components", {}).items():
            key = str(key)
            if not re.fullmatch("[0-9]+(,[0-9]+)*", key):
                raise ValueError(f"component key {_quote(key)} must be indices in ASCII digits joined by ','")
            # leading zeros count towards neither the length test nor int()'s digit limit
            indices = [index.lstrip("0") or "0" for index in key.split(",")]
            if max(map(len, indices)) > len(str(DIM_LIMIT)):
                raise ValueError(f"component key {_quote(key)} has an index above every dim (below {DIM_LIMIT})")
            idx = tuple(map(int, indices))
            comps[idx] = Polynomial.parse(text, ctx)
        return cls(ctx, degree, comps)


class RawMatrix(_Record):
    """Full (not yet skew) n x n polynomial coefficient matrix."""

    __match_args__ = __slots__ = ("ctx", "entries")

    def __init__(self, ctx: Context, entries: Sequence[Sequence[Polynomial]]):
        n = ctx.dim
        rows = [list(row) for row in entries]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"expected a {n}x{n} matrix")
        for row in rows:
            for p in row:
                if p.ctx != ctx:
                    raise ContextMismatchError("matrix entry from a different context")
        self._init(ctx, tuple(tuple(row) for row in rows))

    def entry(self, i: int, j: int) -> Polynomial:
        """1-based entry M^{ij}."""
        _check_index(self.ctx, i, j, what="index")
        return self.entries[i - 1][j - 1]

    def to_json_dict(self) -> dict:
        doc = {
            "dim": self.ctx.dim,
            "entries": [[p.render() for p in row] for row in self.entries],
        }
        if self.ctx.has_epsilon:
            doc["epsilon"] = True
        return doc


_BRACKET_GRAPH = parse_kgraph("2; (S1,S2) (V1,S3)")


def schouten(p: MultiVector, q: MultiVector) -> MultiVector:
    """Schouten bracket of two bi-vectors (a tri-vector); symmetric in (p, q).

    The bracket graph summed over the assignments (P, Q) and (Q, P); when p
    equals q the two are equal, so one of them is taken with weight 2.
    """
    if p is q or p == q:
        return MultiVector(p.ctx, 3, graph_sum([(2, _BRACKET_GRAPH)], [(p, p)], skew=True))
    return MultiVector(p.ctx, 3, graph_sum(_BRACKET_GRAPH, [(p, q), (q, p)], skew=True))


def jacobiator(p: MultiVector) -> MultiVector:
    """Left-hand side of the Jacobi identity as a tri-vector.

    Jac^{ijk} = sum_l ( d_l P^{ij} P^{lk} + d_l P^{jk} P^{li} + d_l P^{ki} P^{lj} )
    for i < j < k, the bracket graph with P on both vertices; [[P,P]] = 2 * Jac(P).
    """
    return MultiVector(p.ctx, 3, graph_sum(_BRACKET_GRAPH, [(p, p)], skew=True))


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
    acc: dict = {}  # component index -> term dict
    for c, mv in terms:
        if mv.ctx != ctx:
            raise ContextMismatchError("mixed contexts in linear combination")
        if mv.degree != degree:
            raise ValueError("mixed degrees in linear combination")
        c = _norm_coeff(c)
        for idx, poly in mv.comps.items():
            addto(acc.setdefault(idx, {}), poly.terms, c)
    return MultiVector(ctx, degree, {idx: finish(ctx, t) for idx, t in acc.items()})
