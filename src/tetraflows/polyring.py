"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in a :class:`Context` of ``n`` variables ``x1..xn``,
``2 <= n < DIM_LIMIT`` (128), plus, optionally, a formal variable ``eps``
occupying a trailing exponent slot, and is stored as a dict mapping packed
monomials to nonzero rational coefficients.  In text the variables go by
``Context.names``, or by the names given to :meth:`Polynomial.parse`.

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

Arithmetic runs through three functions on term maps (monomial ->
coefficient): :func:`addmul` adds the product of two term maps into a
mutable term dict, :func:`addto` adds ``c`` times a term map into one, and
:func:`finish` turns the dict into a canonical :class:`Polynomial`.  Sums,
scalings, sums of products, exact divisions and graph contractions are each
built in such dicts, with no temporary polynomial per product or summand;
only :func:`finish` makes a result canonical.  :func:`addmul` is the only
product loop; the graph engine's join (``_kgraph._contract``) runs a
product of two one-term maps in place, as one update of the term dict, and
keeps the count of its products in ``_kgraph._tally``.

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
import struct
import sys
from fractions import Fraction
from functools import cache, reduce
from itertools import repeat
from math import lcm
from operator import or_
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Context",
    "ContextMismatchError",
    "EXPONENT_LIMIT",
    "EXP_BITS",
    "ExponentOverflowError",
    "PolyParseError",
    "Polynomial",
    "addmul",
    "addto",
    "finish",
]

# Width of one packed exponent field, its guard bit included.
EXP_BITS = 16
# Every exponent is below this; the field's top bit is the guard bit.
EXPONENT_LIMIT = 1 << (EXP_BITS - 1)
_FIELD = (1 << EXP_BITS) - 1
# Every Context dim is below this.  Work grows with dim even on a one-term
# document (a flow's raw matrix has dim^2 entries), so a larger dim is
# refused before anything is built.
DIM_LIMIT = 128


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
        self.message, self.position = message, position


def _norm_coeff(c):
    """Collapse integral Fractions to int; reject non-rational scalars (bool too)."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class _Record:
    """The base of every value type: its fields are the slots named in
    ``__match_args__`` (as a dataclass's are, so class patterns match them
    by position), set once by ``_init`` and never assigned or deleted;
    equality, hash and ``repr`` are a frozen dataclass's, and pickle and
    copy rebuild the value through its constructor.  ``Polynomial``,
    ``Context`` and ``KGraph`` compare their fields directly: every
    canonical-form comparison, context check and plan lookup runs them.
    No module imports ``dataclasses``: every command is a fresh process,
    and that module with the ``inspect``, ``ast`` and ``dis`` it loads was
    more than half of its import."""

    __slots__ = ()
    __match_args__: "tuple[str, ...]" = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Context(_Record):
    """Variable context: Cartesian coordinates x1..x<dim>, optionally + eps.

    Every Polynomial references exactly one Context; mixing contexts in an
    operation raises :class:`ContextMismatchError`.  The trailing formal
    slot is ``eps`` in the perturbation probe and ``lam`` in the
    even-dimensional generator.  ``dim`` is an int from 2 to
    ``DIM_LIMIT - 1``.  Derived, neither compared nor shown: ``guard``, the
    guard bits of all packed fields, and ``names``, the variables' names
    slot by slot (x1..x<dim>, then eps).
    """

    __match_args__ = ("dim", "has_epsilon")
    __slots__ = __match_args__ + ("guard", "names")

    def __init__(self, dim: int, has_epsilon: bool = False):
        if not isinstance(dim, int) or not 2 <= dim < DIM_LIMIT:
            raise ValueError(f"Context dim must be an integer >= 2 and below {DIM_LIMIT}, got {dim!r}")
        self._init(dim, has_epsilon)
        # EXPONENT_LIMIT in every field: the repunit (2^(EXP_BITS*nslots) - 1) /
        # _FIELD has a 1 at the bottom of each field.
        ones = ((1 << (EXP_BITS * self.nslots)) - 1) // _FIELD
        object.__setattr__(self, "guard", ones * EXPONENT_LIMIT)
        object.__setattr__(self, "names", tuple(f"x{i}" for i in range(1, dim + 1)) + ("eps",) * has_epsilon)

    # Every context check runs these: the fields directly, not _values().
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.dim == other.dim and self.has_epsilon == other.has_epsilon
        return NotImplemented

    def __hash__(self):
        return hash((self.dim, self.has_epsilon))

    @property
    def nslots(self) -> int:
        """Number of exponent slots (dim, plus one for eps when adjoined)."""
        return self.dim + 1 if self.has_epsilon else self.dim

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
        """The exponent vector of a packed monomial (of its low nslots fields)."""
        fields = _fields(self.nslots)
        return fields.unpack((mono & ((1 << 8 * fields.size) - 1)).to_bytes(fields.size, "big"))

    def with_epsilon(self) -> "Context":
        return Context(self.dim, True)

    def without_epsilon(self) -> "Context":
        return Context(self.dim, False)


@cache
def _fields(nslots: int) -> struct.Struct:
    """The layout of a packed monomial: nslots big-endian 16-bit fields."""
    return struct.Struct(f">{nslots}H")


@cache
def _grammar(names: "tuple[str, ...]") -> "tuple[re.Pattern, dict]":
    """The token pattern and the slot of each name, for the variables'
    names: a name token is x, eps or a name less its trailing digits, then
    any digits, so that x1 is an unknown variable among the names x and y.
    Digits are ASCII only: any other character is unexpected."""
    stems = {"x", "eps", *(n.rstrip("0123456789") for n in names)}
    name = "(?:" + "|".join(map(re.escape, sorted(stems, key=len, reverse=True))) + ")[0-9]*"
    token = re.compile(rf"\s*(?:(?P<num>[0-9]+)|(?P<name>{name})|(?P<op>[-+*/^]))")
    return token, {n: slot for slot, n in enumerate(names)}


def _tokenize(text: str, token: "re.Pattern") -> list:
    """The (kind, value, position) tokens of a polynomial text."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise PolyParseError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def _integer(digits: str, at: int) -> int:
    """The int of the ASCII ``digits`` at position ``at`` of a text, or a
    PolyParseError there past int()'s limit (``sys.get_int_max_str_digits``)."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise PolyParseError(f"number of {len(digits)} digits is above the limit of {limit} digits", at) from None


class _Lookahead:
    """One token of lookahead over the (kind, value, position) tokens of a
    text: ``now`` is the current token, ("end", "", len(text)) after the last."""

    def __init__(self, text: str, token: "re.Pattern"):
        self.tokens = _tokenize(text, token) + [("end", "", len(text))]
        self.at, self.now = 0, self.tokens[0]

    def take(self, kind: str, ops: str = ""):
        """The current token's value, consumed, if it is a ``kind`` (and one
        of ``ops`` when given), a number's as its int (``_integer``); else None."""
        got, val, at = self.now
        if got != kind or ops and val not in ops:
            return None
        self.at += 1
        self.now = self.tokens[self.at]
        return _integer(val, at) if kind == "num" else val

    def fail(self, message: str):
        raise PolyParseError(message, self.now[2])

    def positive(self, message: str) -> int:
        """A positive int (an exponent, a denominator), consumed; else fail."""
        kind, val, _ = self.now
        if kind != "num" or not val.strip("0"):  # no number, or a zero
            self.fail(message)
        return self.take("num")

    def rational(self):
        """rational := int ["/" positive-int], read at a number token."""
        numer = self.take("num")
        if self.take("op", "/"):
            return Fraction(numer, self.positive("expected positive denominator"))
        return numer


# An error message quotes at most this many characters of an outside text.
QUOTE_LIMIT = 32


def _quote(text: str) -> str:
    """``repr(text)``, cut to its first QUOTE_LIMIT characters and its
    length when longer, so that an error quoting it stays one short line."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _number(text: str, what: str, integer: bool = False):
    """The int or Fraction ``text`` by the grammar's ``[sign] rational``
    (``[sign] int`` when ``integer``), whitespace ignored: the one reader of
    a number given as text (phi coefficients, flow weights, dimensions).
    Anything else is a PolyParseError naming ``what``."""
    try:
        r = _Lookahead(text, _grammar(())[0])
        sign = -1 if r.take("op", "+-") == "-" else 1
        if r.now[0] != "num":
            r.fail(f"expected a number, found {_quote(r.now[1])}")
        value = r.take("num") if integer else r.rational()
        if r.now[0] != "end":
            r.fail(f"expected the end of the number, found {_quote(r.now[1])}")
    except PolyParseError as exc:
        raise PolyParseError(f"{what} {_quote(text)}: {exc.message}", exc.position) from None
    return _norm_coeff(sign * value)


def _require_same_ctx(a: "Polynomial", b: "Polynomial") -> None:
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatchError(f"context mismatch: {a.ctx} vs {b.ctx}")


def addmul(acc: dict, ta: Mapping, tb: Mapping) -> int:
    """Accumulate the product of the term maps ``ta`` and ``tb`` (of one
    context, which is not checked here) into the term dict ``acc``, and
    return its number of term pairs.

    ``acc`` may hold zero or non-canonical coefficients until :func:`finish`
    turns it into a Polynomial.  This is the only multiplication loop; the
    graph engine runs a product of two one-term maps without it.
    """
    na, nb = len(ta), len(tb)
    if na > nb:  # fewer outer iterations on the smaller operand
        ta, tb = tb, ta
    tb = tb.items()
    get = acc.get
    for m1, c1 in ta.items():
        for m2, c2 in tb:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    return na * nb


def addto(acc: dict, terms: Mapping, c=1) -> None:
    """Accumulate ``c`` times the term map ``terms`` into the term dict ``acc``.

    ``c`` is an int or Fraction.  Like :func:`addmul` it leaves ``acc``
    non-canonical until :func:`finish`.  An empty ``acc`` takes a copy of
    ``terms`` (``c == 1``) or of ``{m: c * v}``, so no coefficient is
    built as ``0 + c * v``.  This is the only addition loop of the module.
    """
    if not acc:
        acc.update(terms if c == 1 else {m: c * v for m, v in terms.items()})
        return
    get = acc.get
    if c == 1:  # no multiplication: 1 * v is slow for a Fraction v
        for m, v in terms.items():
            acc[m] = get(m, 0) + v
    else:
        for m, v in terms.items():
            acc[m] = get(m, 0) + c * v


def _check_index(ctx: Context, *indices: int, what: str = "variable index") -> None:
    """Raise ``ValueError`` unless every index is in 1..ctx.dim."""
    for i in indices:
        if not 1 <= i <= ctx.dim:
            raise ValueError(f"{what} {i} out of range 1..{ctx.dim}")


def _check_guard(ctx: Context, monos) -> None:
    """Raise :class:`ExponentOverflowError` if a product set a guard bit in
    one of the packed monomials of the collection ``monos``."""
    if monos and reduce(or_, monos) & ctx.guard:
        mono = next(m for m in monos if m & ctx.guard)
        raise ExponentOverflowError(f"product exponent overflow in {ctx.unpack(mono)!r}")


def _nonzero(acc: dict) -> dict:
    """``acc`` without its zero terms; ``acc`` itself when it has none."""
    return {m: c for m, c in acc.items() if c} if 0 in acc.values() else acc


def finish(ctx: Context, acc: dict) -> "Polynomial":
    """The canonical Polynomial of a term dict filled by :func:`addmul` and
    :func:`addto`; the only place a result is made canonical.

    Raises :class:`ExponentOverflowError` if a product set a guard bit, drops
    zero terms and turns integral Fractions into ints.  ``acc`` is consumed:
    it may become the result's term map.
    """
    _check_guard(ctx, acc)
    acc = _nonzero(acc)
    if Fraction in set(map(type, acc.values())):
        acc = {m: _norm_coeff(c) for m, c in acc.items()}
    return Polynomial._raw(ctx, acc)


def _quotient(ctx: Context, acc: dict, q: int, c: int = 1) -> "Polynomial":
    """The canonical Polynomial of ``c / q`` times a term dict, for ints c and
    q > 0: each quotient is an exact int where q divides ``c * v``, and a
    ``Fraction(c * v, q)`` only where it does not.  Graph sums and the probe
    divide their results here.  Like :func:`finish` it changes no entry of
    ``acc``, which may become the result's term map."""
    if q == 1:
        return finish(ctx, acc if c == 1 else {m: c * v for m, v in acc.items()})
    out = {}
    for m, v in acc.items():
        if v:
            whole, rest = divmod(c * v, q)
            out[m] = Fraction(c * v, q) if rest else whole
    return finish(ctx, out)


def _diff(terms: Mapping, shift: int) -> dict:
    """The term dict of the derivative of a term map along the slot at bit
    offset ``shift``; the only differentiation loop.  It adds no zero term."""
    unit = 1 << shift
    out = {}
    for mono, c in terms.items():
        e = (mono >> shift) & _FIELD
        if e:
            out[mono - unit] = c * e
    return out


def _denominator_lcm(polys) -> int:
    """The lcm of the coefficient denominators of some polynomials (1 if all
    are integral)."""
    return lcm(*(c.denominator for p in polys for c in p.terms.values()))


class Polynomial(_Record):
    """Immutable sparse polynomial in canonical form (no zero terms stored)."""

    __match_args__ = __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[tuple, object] | None = None):
        """Build from a map of exponent tuples to rational coefficients."""
        acc = {ctx.pack(mono): _norm_coeff(c) for mono, c in (terms or {}).items()}
        self._init(ctx, finish(ctx, acc).terms)

    @staticmethod
    def _raw(ctx: Context, terms: dict) -> "Polynomial":
        # Internal fast path: `terms` must already be canonical.
        p = object.__new__(Polynomial)
        object.__setattr__(p, "ctx", ctx)
        object.__setattr__(p, "terms", terms)
        return p

    def __reduce__(self):
        # the constructor takes exponent tuples, the terms are packed
        return Polynomial._raw, (self.ctx, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context) -> "Polynomial":
        return cls._raw(ctx, {})

    @classmethod
    def constant(cls, ctx: Context, value) -> "Polynomial":
        return cls(ctx, {(0,) * ctx.nslots: value})

    @classmethod
    def one(cls, ctx: Context) -> "Polynomial":
        return cls.constant(ctx, 1)

    @classmethod
    def variable(cls, ctx: Context, i: int) -> "Polynomial":
        """The coordinate polynomial x_i (1-based, 1 <= i <= dim)."""
        _check_index(ctx, i)
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
        """The terms as (exponent tuple, coefficient) pairs; the monomials
        are unpacked in one pass over their packed bytes."""
        fields = _fields(self.ctx.nslots)
        packed = b"".join(map(int.to_bytes, self.terms, repeat(fields.size), repeat("big")))
        return zip(fields.iter_unpack(packed), self.terms.values())

    # Every canonical-form comparison runs this: the fields directly, not _values().
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.ctx == other.ctx and self.terms == other.terms
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._sum(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._sum(other, -1)

    def _sum(self, other, sign: int):
        if not isinstance(other, Polynomial):
            return NotImplemented
        _require_same_ctx(self, other)
        if not other.terms:
            return self
        if not self.terms and sign == 1:
            return other
        acc = dict(self.terms)
        addto(acc, other.terms, sign)
        return finish(self.ctx, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.ctx, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        _require_same_ctx(self, other)
        acc: dict = {}
        addmul(acc, self.terms, other.terms)
        return finish(self.ctx, acc)

    def scale(self, c) -> "Polynomial":
        """The scalar product ``c * self``; ``scale(Fraction(1, D))`` is the
        exact division by D."""
        c = _norm_coeff(c)
        if c == 1:
            return self
        acc: dict = {}
        addto(acc, self.terms, c)
        return finish(self.ctx, acc)

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self.ctx)
        for _ in range(k):
            result = result * self
        return result

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to x_i (1-based, 1 <= i <= dim)."""
        _check_index(self.ctx, i)
        return finish(self.ctx, _diff(self.terms, self.ctx.slot_shift(i - 1)))

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

    @classmethod
    def parse(cls, text: str, ctx: Context, names: Sequence[str] = ()) -> "Polynomial":
        """Parse the bit-exact grammar, e.g. ``-2*x1*x2^3*x3^5*x4``.

        polynomial := term (("+"|"-") term)*
        term       := [sign] [rational "*"] factor ("*" factor)* | [sign] rational
        factor     := var ["^" positive-int];  var := one of the names
        rational   := int ["/" positive-int];  whitespace is ignored.

        ``names`` gives the variables' names slot by slot, by default
        ``ctx.names``; ``names=("x", "y")`` reads phi(x, y) in ``Context(2)``.
        The exponent of each variable in a term must be below EXPONENT_LIMIT.
        Read with one token of lookahead (``_Lookahead``), whose ``rational``
        rule reads every other number given as text too (``_number``).
        """
        names = tuple(names) or ctx.names
        if len(set(names)) != ctx.nslots or not all(n.rstrip("0123456789") for n in names):
            raise ValueError(f"need {ctx.nslots} distinct variable names, not only digits: {names!r}")
        token, slots = _grammar(names)
        r = _Lookahead(text, token)
        take, fail = r.take, r.fail
        terms: dict = {}  # every term read leaves its monomial here
        while r.now[0] != "end":
            sign = take("op", "+-")
            if sign is None and terms:
                fail(f"expected '+' or '-', found {r.now[1]!r}")
            coeff = r.rational() if r.now[0] == "num" else None
            if r.now[0] != "name" and coeff is None:
                fail(f"expected term, found {r.now[1]!r}")
            if r.now[0] == "name" and coeff is not None:
                fail(f"missing '*' before {r.now[1]!r}")
            exps = [0] * ctx.nslots
            more = coeff is None or take("op", "*")
            while more:
                kind, val, at = r.now
                if kind != "name":
                    fail("expected variable after '*'")
                if (slot := slots.get(val)) is None:
                    fail(f"unknown variable {val!r} (variables: {', '.join(names)})")
                take("name")
                # an exponent error points at the exponent, else at the variable
                at, e = (r.now[2], r.positive("expected positive exponent")) if take("op", "^") else (at, 1)
                exps[slot] += e
                if exps[slot] >= EXPONENT_LIMIT:
                    raise PolyParseError(
                        f"exponent {exps[slot]} of {names[slot]} is not below the limit {EXPONENT_LIMIT}", at
                    )
                more = take("op", "*")
            mono = ctx.pack(exps)
            terms[mono] = terms.get(mono, 0) + (-1 if sign == "-" else 1) * (1 if coeff is None else coeff)
        if not terms:
            fail("empty polynomial")
        return finish(ctx, terms)

    def render(self) -> str:
        """Deterministic text form: graded-lex monomial order, descending."""
        if not self.terms:
            return "0"
        # the monomials are unpacked in one pass (``items``); no two are equal
        rows = sorted(
            ((sum(exps), mono, exps, c) for mono, (exps, c) in zip(self.terms, self.items())),
            reverse=True,
        )
        names = self.ctx.names
        pieces = []
        for _, _, exps, c in rows:
            neg = c < 0
            mag = -c if neg else c
            factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.render()!r})"
