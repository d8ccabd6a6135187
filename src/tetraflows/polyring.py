"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in a :class:`Context` of ``n >= 2`` variables ``x1..xn``
(plus, optionally, a formal variable ``eps`` occupying a trailing exponent
slot) and is stored as a dict mapping packed monomials to nonzero
rational coefficients.

A monomial is packed into one Python int: every exponent slot is a field of
``EXP_BITS`` bits, slot 0 (``x1``) is the most significant field and the
eps slot, when present, the least significant one::

    3*x1^2*x2 - 1/2   in Context(dim=2)
    -->  {(2 << EXP_BITS) | 1: 3, 0: Fraction(-1, 2)}

So the product of two monomials is one int addition, ``diff`` is a shift, a
mask and a subtraction, and int order equals the lexicographic order of the
exponent tuples.  :meth:`Polynomial.items` gives the terms with unpacked
exponent tuples.  Every exponent must be below ``EXPONENT_LIMIT`` (2^15):
the top bit of each field is a guard bit that only an overflowing product
can set, so a sum of two valid fields never carries into the next slot.
Parsing, the constructor and products reject larger exponents with a
``ValueError`` (:class:`PolyParseError` or :class:`ExponentOverflowError`).

Products are accumulated by :func:`addmul`, which adds ``a * b`` into a
mutable term dict, and :func:`finish`, which turns that dict into a
canonical :class:`Polynomial`.  A sum of products is built in one dict,
with no temporary polynomial per product and no copy per addition.

Coefficients are kept as plain ``int`` whenever the value is integral and as
``fractions.Fraction`` otherwise; the two compare and hash equal, so the term
map itself is the canonical form and two polynomials are equal exactly when
their term maps are equal.  The zero polynomial is the empty map.

The trailing formal slot serves two constructions: it is the deformation
parameter ``eps`` of the perturbation probe, and the spectral parameter
``lam`` of the even-dimensional generator, which builds ``u(lam)``,
``v(lam)`` and the remainders mod ``u(lam)`` as ordinary polynomials and
reads their ``lam``-coefficients with :meth:`Polynomial.epsilon_split`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Coeff",
    "Context",
    "ContextMismatchError",
    "EXPONENT_LIMIT",
    "EXP_BITS",
    "ExponentOverflowError",
    "PolyParseError",
    "Polynomial",
    "addmul",
    "finish",
]

# Rational scalar as stored in term maps: int when integral, Fraction otherwise.
Coeff = "int | Fraction"

# Width of one packed exponent field, its guard bit included.
EXP_BITS = 16
# Every exponent is below this; the field's top bit is the guard bit.
EXPONENT_LIMIT = 1 << (EXP_BITS - 1)
_FIELD = (1 << EXP_BITS) - 1


class ContextMismatchError(ValueError):
    """Operands belong to different variable contexts."""


class ExponentOverflowError(ValueError):
    """An exponent is at or above ``EXPONENT_LIMIT``."""

    def __init__(self, detail: str):
        super().__init__(f"{detail}; exponents must be below {EXPONENT_LIMIT}")


class PolyParseError(ValueError):
    """Polynomial text does not conform to the grammar.

    Carries the 0-based character ``position`` of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _norm_coeff(c):
    """Collapse integral Fractions to int; reject non-rational scalars."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


@dataclass(frozen=True)
class Context:
    """Variable context: Cartesian coordinates x1..x<dim>, optionally + eps.

    Every Polynomial references exactly one Context; mixing contexts in an
    operation raises :class:`ContextMismatchError`.  The trailing formal
    slot is ``eps`` in the perturbation probe and ``lam`` in the
    even-dimensional generator.
    """

    dim: int
    has_epsilon: bool = False
    # The guard bits of all packed fields (derived, not compared).
    guard: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 2:
            raise ValueError(f"Context dim must be an integer >= 2, got {self.dim!r}")
        guard = sum(EXPONENT_LIMIT << (EXP_BITS * s) for s in range(self.nslots))
        object.__setattr__(self, "guard", guard)

    @property
    def nslots(self) -> int:
        """Number of exponent slots (dim, plus one for eps when adjoined)."""
        return self.dim + 1 if self.has_epsilon else self.dim

    def slot_name(self, slot: int) -> str:
        if self.has_epsilon and slot == self.dim:
            return "eps"
        return f"x{slot + 1}"

    def slot_shift(self, slot: int) -> int:
        """Bit offset of a slot's field in a packed monomial."""
        return EXP_BITS * (self.nslots - 1 - slot)

    def pack(self, exps: Sequence[int]) -> int:
        """Pack an exponent vector, validating its length and range."""
        exps = tuple(exps)
        if len(exps) != self.nslots or any(not isinstance(e, int) or e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps!r} for {self}")
        mono = 0
        for e in exps:
            if e >= EXPONENT_LIMIT:
                raise ExponentOverflowError(f"exponent {e} in {exps!r}")
            mono = (mono << EXP_BITS) | e
        return mono

    def unpack(self, mono: int) -> "tuple[int, ...]":
        """The exponent vector of a packed monomial."""
        exps = []
        for _ in range(self.nslots):
            exps.append(mono & _FIELD)
            mono >>= EXP_BITS
        return tuple(reversed(exps))

    def with_epsilon(self) -> "Context":
        return Context(self.dim, True)

    def without_epsilon(self) -> "Context":
        return Context(self.dim, False)


def _require_same_ctx(a: "Polynomial", b: "Polynomial") -> None:
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatchError(f"context mismatch: {a.ctx} vs {b.ctx}")


def addmul(acc: dict, a: "Polynomial", b: "Polynomial") -> None:
    """Accumulate the terms of ``a * b`` into the term dict ``acc``.

    ``acc`` maps packed monomials to coefficients and may hold zero or
    non-canonical coefficients until :func:`finish` turns it into a
    Polynomial.  This is the only multiplication loop of the module.
    """
    _require_same_ctx(a, b)
    ta, tb = a.terms, b.terms
    if len(ta) > len(tb):  # fewer outer iterations on the smaller operand
        ta, tb = tb, ta
    tb = tb.items()
    get = acc.get
    for m1, c1 in ta.items():
        for m2, c2 in tb:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2


def finish(ctx: Context, acc: dict) -> "Polynomial":
    """The canonical Polynomial of a term dict filled by :func:`addmul`.

    Raises :class:`ExponentOverflowError` if a product set a guard bit, drops
    zero terms and turns integral Fractions into ints.  ``acc`` is consumed:
    it may become the result's term map.
    """
    if acc and reduce(or_, acc) & ctx.guard:
        mono = next(m for m in acc if m & ctx.guard)
        raise ExponentOverflowError(f"product exponent overflow in {ctx.unpack(mono)!r}")
    if 0 in acc.values():
        acc = {m: c for m, c in acc.items() if c}
    if Fraction in set(map(type, acc.values())):
        acc = {m: _norm_coeff(c) for m, c in acc.items()}
    return Polynomial._raw(ctx, acc)


class Polynomial:
    """Immutable sparse polynomial in canonical form (no zero terms stored)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[tuple, object] | None = None):
        """Build from a map of exponent tuples to rational coefficients."""
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = _norm_coeff(c)
                if c != 0:
                    clean[ctx.pack(mono)] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _raw(ctx: Context, terms: dict) -> "Polynomial":
        # Internal fast path: `terms` must already be canonical.
        p = object.__new__(Polynomial)
        object.__setattr__(p, "ctx", ctx)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context) -> "Polynomial":
        return cls._raw(ctx, {})

    @classmethod
    def constant(cls, ctx: Context, value) -> "Polynomial":
        value = _norm_coeff(value if isinstance(value, (int, Fraction)) else Fraction(value))
        if value == 0:
            return cls.zero(ctx)
        return cls._raw(ctx, {0: value})

    @classmethod
    def one(cls, ctx: Context) -> "Polynomial":
        return cls.constant(ctx, 1)

    @classmethod
    def variable(cls, ctx: Context, i: int) -> "Polynomial":
        """The coordinate polynomial x_i (1-based, 1 <= i <= dim)."""
        if not 1 <= i <= ctx.dim:
            raise ValueError(f"variable index {i} out of range 1..{ctx.dim}")
        return cls._raw(ctx, {1 << ctx.slot_shift(i - 1): 1})

    @classmethod
    def epsilon(cls, ctx: Context) -> "Polynomial":
        if not ctx.has_epsilon:
            raise ValueError("context has no eps variable")
        return cls._raw(ctx, {1: 1})

    @classmethod
    def monomial(cls, ctx: Context, exps: Sequence[int], coeff=1) -> "Polynomial":
        return cls(ctx, {tuple(exps): coeff})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> "Iterator[tuple[tuple[int, ...], object]]":
        """The terms as (exponent tuple, coefficient) pairs."""
        unpack = self.ctx.unpack
        for mono, c in self.terms.items():
            yield unpack(mono), c

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(self.ctx.pack(exps), 0)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        _require_same_ctx(self, other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = _norm_coeff(s) if isinstance(s, Fraction) else s
            else:
                out.pop(mono, None)
        return Polynomial._raw(self.ctx, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ctx, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        # Polynomial first: isinstance against Fraction is a slow ABC check.
        if isinstance(other, Polynomial):
            acc: dict = {}
            addmul(acc, self, other)
            return finish(self.ctx, acc)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        c = _norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        if c == 0:
            return Polynomial.zero(self.ctx)
        if c == 1:
            return self
        return Polynomial._raw(
            self.ctx, {m: _norm_coeff(v * c) for m, v in self.terms.items()}
        )

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.ctx)
        for _ in range(k):
            result = result * self
        return result

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to x_i (1-based, 1 <= i <= dim)."""
        if not 1 <= i <= self.ctx.dim:
            raise ValueError(f"variable index {i} out of range 1..{self.ctx.dim}")
        shift = self.ctx.slot_shift(i - 1)
        unit = 1 << shift
        out = {}
        for mono, c in self.terms.items():
            e = (mono >> shift) & _FIELD
            if e:
                out[mono - unit] = _norm_coeff(c * e) if isinstance(c, Fraction) else c * e
        return Polynomial._raw(self.ctx, out)

    # -- eps handling ------------------------------------------------------

    def lift(self, ctx: Context) -> "Polynomial":
        """Embed into `ctx`, which must extend self.ctx by the eps slot."""
        if ctx == self.ctx:
            return self
        if not (ctx.dim == self.ctx.dim and ctx.has_epsilon and not self.ctx.has_epsilon):
            raise ContextMismatchError(f"cannot lift {self.ctx} into {ctx}")
        return Polynomial._raw(ctx, {m << EXP_BITS: c for m, c in self.terms.items()})

    def epsilon_split(self) -> "dict[int, Polynomial]":
        """Split by eps-degree: order k -> coefficient polynomial (eps-free ctx)."""
        if not self.ctx.has_epsilon:
            raise ValueError("context has no eps variable")
        base = self.ctx.without_epsilon()
        parts: dict[int, dict] = {}
        for mono, c in self.terms.items():
            parts.setdefault(mono & _FIELD, {})[mono >> EXP_BITS] = c
        return {k: Polynomial._raw(base, t) for k, t in sorted(parts.items())}

    # -- text format -------------------------------------------------------

    _TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>x\d+|eps)|(?P<op>[-+*/^]))")

    @classmethod
    def parse(cls, text: str, ctx: Context) -> "Polynomial":
        """Parse the bit-exact grammar, e.g. ``-2*x1*x2^3*x3^5*x4``.

        polynomial := term (("+"|"-") term)*
        term       := [sign] [rational "*"] factor ("*" factor)* | [sign] rational
        factor     := var ["^" positive-int];  var := "x" positive-int | "eps"
        rational   := int ["/" positive-int];  whitespace is ignored.

        The exponent of each variable in a term must be below EXPONENT_LIMIT.
        """
        tokens = cls._tokenize(text)
        pos = 0

        def peek():
            return tokens[pos] if pos < len(tokens) else ("end", "", len(text))

        terms: dict = {}
        ns = ctx.nslots

        def add_term(exps, coeff):
            mono = ctx.pack(exps)
            terms[mono] = terms.get(mono, 0) + coeff

        first = True
        while True:
            kind, val, at = peek()
            if kind == "end":
                if first:
                    raise PolyParseError("empty polynomial", at)
                break
            sign = 1
            if kind == "op" and val in "+-":
                sign = -1 if val == "-" else 1
                pos += 1
                kind, val, at = peek()
            elif not first:
                raise PolyParseError(f"expected '+' or '-', found {val!r}", at)
            first = False

            coeff = None
            if kind == "num":
                pos += 1
                numer = int(val)
                kind, val, at = peek()
                if kind == "op" and val == "/":
                    pos += 1
                    kind, val, at = peek()
                    if kind != "num" or int(val) == 0:
                        raise PolyParseError("expected positive denominator", at)
                    coeff = Fraction(numer, int(val))
                    pos += 1
                    kind, val, at = peek()
                else:
                    coeff = numer
                if kind == "op" and val == "*":
                    pos += 1
                    kind, val, at = peek()
                    if kind != "name":
                        raise PolyParseError("expected variable after '*'", at)
                else:
                    add_term((0,) * ns, sign * coeff)  # constant term
                    continue
            if kind != "name":
                raise PolyParseError(f"expected term, found {val!r}", at)

            exps = [0] * ns
            while True:
                slot = cls._var_slot(val, ctx, at)
                pos += 1
                e = 1
                e_at = at
                kind, val, at = peek()
                if kind == "op" and val == "^":
                    pos += 1
                    kind, val, at = peek()
                    if kind != "num" or int(val) == 0:
                        raise PolyParseError("expected positive exponent", at)
                    e = int(val)
                    e_at = at
                    pos += 1
                    kind, val, at = peek()
                exps[slot] += e
                if exps[slot] >= EXPONENT_LIMIT:
                    raise PolyParseError(
                        f"exponent {exps[slot]} of {ctx.slot_name(slot)} is not below "
                        f"the limit {EXPONENT_LIMIT}",
                        e_at,
                    )
                if kind == "op" and val == "*":
                    pos += 1
                    kind, val, at = peek()
                    if kind != "name":
                        raise PolyParseError("expected variable after '*'", at)
                    continue
                break
            add_term(exps, sign * (1 if coeff is None else coeff))

        return finish(ctx, terms)

    @classmethod
    def _tokenize(cls, text: str):
        tokens = []
        pos = 0
        while pos < len(text):
            m = cls._TOKEN.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise PolyParseError(f"unexpected character {stripped[0]!r}", at)
            for kind in ("num", "name", "op"):
                if m.group(kind) is not None:
                    tokens.append((kind, m.group(kind), m.start(kind)))
                    break
            pos = m.end()
        return tokens

    @staticmethod
    def _var_slot(name: str, ctx: Context, at: int) -> int:
        if name == "eps":
            if not ctx.has_epsilon:
                raise PolyParseError("unknown variable 'eps' (no eps in context)", at)
            return ctx.dim
        idx = int(name[1:])
        if not 1 <= idx <= ctx.dim:
            raise PolyParseError(f"unknown variable {name!r} (dim={ctx.dim})", at)
        return idx - 1

    def render(self) -> str:
        """Deterministic text form: graded-lex monomial order, descending."""
        if not self.terms:
            return "0"
        unpack = self.ctx.unpack
        rows = sorted(
            ((sum(exps), mono, exps) for mono, exps in ((m, unpack(m)) for m in self.terms)),
            reverse=True,
        )
        pieces = []
        for _, mono, exps in rows:
            c = self.terms[mono]
            neg = c < 0
            mag = -c if neg else c
            factors = []
            for slot, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.ctx.slot_name(slot)
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                body = _coeff_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = _coeff_str(mag) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.render()!r})"


def _coeff_str(c) -> str:
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    return str(c)

