"""Symbolic scalar expressions over chart coordinates.

Every coefficient in this package (form components, Lagrangians, metrics,
potentials) is an expression tree built from numeric constants, named
symbols, the four arithmetic operations, integer powers and the primitives
sin, cos, exp, log, sqrt.  Trees are immutable, exactly differentiable and
evaluate pointwise on floats or numpy arrays.

Quantities without a closed form (e.g. a matrix inverse that is only
available numerically) enter as :class:`OpaqueJet` leaves: black boxes that
report a value and, up to a declared order, exact partial derivatives.

Whether a tree is zero is decided on its normal form, a sum of monomials
with exact rational coefficients over atoms (symbols, primitive calls,
opaque jets and reciprocals of non-monomial denominators); a modular
residue carried by every node settles the non-zero cases without building
it.  The folding constructors collapse any sum or difference that cancels
to ``ZERO``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "Expression", "Const", "Sym", "OpaqueJet", "FunctionJet", "opaque",
    "as_expr", "parse", "ZERO", "ONE",
    "ExprError", "ParseError", "UnknownSymbolError", "EvalDomainError",
    "UnboundSymbolError", "JetOrderError",
]

class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax error; ``column`` is the 1-based position in the source."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class UnknownSymbolError(ParseError):
    def __init__(self, name, column):
        ParseError.__init__(self, f"unknown symbol '{name}'", column)
        self.name = name


class EvalDomainError(ExprError):
    pass


class UnboundSymbolError(ExprError):
    pass


class JetOrderError(ExprError):
    pass


def as_expr(value) -> "Expression":
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Const(float(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


class Expression:
    """Base class; construction goes through the folding helpers below.

    Every node sets ``_res`` on construction: the residue of its normal form
    modulo _P at a fixed pseudo-random value of every atom, or -1 when a
    denominator's residue vanishes.  A positive residue proves the
    expression non-zero, so only zero or unknown residues pay for the
    normal form.
    """

    __slots__ = ("_nf", "_res")

    def free_symbols(self) -> frozenset:
        raise NotImplementedError

    def evaluate(self, env):
        """Evaluate at a point.  ``env`` maps symbol names to floats or
        equally-shaped numpy arrays."""
        raise NotImplementedError

    def diff(self, name: str) -> "Expression":
        raise NotImplementedError

    def is_zero(self) -> bool:
        """True when the expression is identically zero as a polynomial in
        its atoms: symbols, primitive calls, opaque jets and reciprocals of
        non-monomial denominators, with exact rational coefficients.

        Never true for a non-zero expression.  It may be false for one that
        vanishes only through an identity between atoms, such as
        sin(x)^2 + cos(x)^2 - 1 or (x + 1)/(x + 1) - 1.
        """
        if self._res > 0:
            return False
        return not self._poly()

    def _poly(self) -> dict:
        """The memoised normal form: {monomial: exact rational}, no zero
        entries."""
        nf = getattr(self, "_nf", None)
        if nf is None:
            nf = self._nf = self._normal()
        return nf

    def _normal(self) -> dict:
        raise NotImplementedError

    def is_const(self, value=None) -> bool:
        if not isinstance(self, Const):
            return False
        return True if value is None else self.value == value

    # arithmetic sugar
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return sub(self, as_expr(other))

    def __rsub__(self, other):
        return sub(as_expr(other), self)

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, k):
        return pow_int(self, k)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_source(self)

    def __repr__(self):
        return f"<expr {to_source(self)}>"


class Const(Expression):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = v = float(value)
        if not math.isfinite(v):
            raise EvalDomainError(f"non-finite constant {v!r}")
        if v.is_integer():
            self._res = int(v) % _P
        else:
            # v = n/2^k and 2^61 = 1 (mod _P), so 1/2^k is 2^(-k mod 61)
            n, d = v.as_integer_ratio()
            self._res = (n << (1 - d.bit_length()) % 61) % _P

    def free_symbols(self):
        return frozenset()

    def evaluate(self, env):
        return self.value

    def diff(self, name):
        return ZERO

    def _normal(self):
        q = Fraction(self.value)
        c = q.numerator if q.denominator == 1 else q
        return {frozenset(): c} if c else {}


class Sym(Expression):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._res = hash(name) % _P

    def free_symbols(self):
        return frozenset((self.name,))

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise UnboundSymbolError(f"no value bound for symbol '{self.name}'") from None

    def diff(self, name):
        return ONE if name == self.name else ZERO

    def _normal(self):
        return _atom_poly(("sym", self.name))


class _Binary(Expression):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b
        ra, rb = a._res, b._res
        self._res = -1 if ra < 0 or rb < 0 else self._combine(ra, rb)

    def free_symbols(self):
        return self.a.free_symbols() | self.b.free_symbols()


class Add(_Binary):
    __slots__ = ()

    def evaluate(self, env):
        return self.a.evaluate(env) + self.b.evaluate(env)

    def diff(self, name):
        return add(self.a.diff(name), self.b.diff(name))

    @staticmethod
    def _combine(ra, rb):
        return (ra + rb) % _P

    def _normal(self):
        return _poly_add(self.a._poly(), self.b._poly())


class Mul(_Binary):
    __slots__ = ()

    def evaluate(self, env):
        return self.a.evaluate(env) * self.b.evaluate(env)

    def diff(self, name):
        return add(mul(self.a.diff(name), self.b), mul(self.a, self.b.diff(name)))

    @staticmethod
    def _combine(ra, rb):
        return ra * rb % _P

    def _normal(self):
        return _poly_mul(self.a._poly(), self.b._poly())


class Div(_Binary):
    __slots__ = ()

    def evaluate(self, env):
        den = self.b.evaluate(env)
        # np.any on a scalar costs more than the division it guards
        if (den == 0.0) if isinstance(den, float) else np.any(den == 0.0):
            raise EvalDomainError(f"division by zero in {to_source(self)}")
        return self.a.evaluate(env) / den

    def diff(self, name):
        # (a/b)' = a'/b - a b'/b^2
        da, db = self.a.diff(name), self.b.diff(name)
        return sub(div(da, self.b), div(mul(self.a, db), mul(self.b, self.b)))

    @staticmethod
    def _combine(ra, rb):
        return ra * pow(rb, -1, _P) % _P if rb else -1

    def _normal(self):
        return _poly_mul(self.a._poly(), _poly_recip(self.b._poly()))


class Pow(Expression):
    __slots__ = ("base", "k")

    def __init__(self, base, k):
        self.base = base
        self.k = k = int(k)
        r = base._res
        self._res = -1 if r < 0 or (r == 0 and k < 0) else pow(r, k, _P)

    def free_symbols(self):
        return self.base.free_symbols()

    def evaluate(self, env):
        b = self.base.evaluate(env)
        if self.k < 0 and np.any(b == 0.0):
            raise EvalDomainError(f"zero base with negative power in {to_source(self)}")
        return b ** self.k

    def diff(self, name):
        db = self.base.diff(name)
        return mul(mul(Const(self.k), pow_int(self.base, self.k - 1)), db)

    def _normal(self):
        p = self.base._poly()
        if self.k < 0:
            p = _poly_recip(p)
        out = {frozenset(): 1}
        for _ in range(abs(self.k)):
            out = _poly_mul(out, p)
        return out


class Neg(Expression):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a
        self._res = -1 if a._res < 0 else -a._res % _P

    def free_symbols(self):
        return self.a.free_symbols()

    def evaluate(self, env):
        return -self.a.evaluate(env)

    def diff(self, name):
        return neg(self.a.diff(name))

    def _normal(self):
        return {m: -c for m, c in self.a._poly().items()}


class Call(Expression):
    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        self.fn = fn
        self.a = a
        # a function of the argument's normal form, as the atom itself is
        self._res = -1 if a._res < 0 else hash((fn, a._res)) % _P

    def free_symbols(self):
        return self.a.free_symbols()

    def evaluate(self, env):
        x = self.a.evaluate(env)
        fn, domain, _ = _PRIMITIVES[self.fn]
        if domain is not None and np.any(domain[1](x)):
            raise EvalDomainError(f"{self.fn} of {domain[0]} value in {to_source(self)}")
        return fn(x)

    def diff(self, name):
        return _PRIMITIVES[self.fn][2](self, self.a.diff(name))

    def _normal(self):
        return _atom_poly(("call", self.fn, frozenset(self.a._poly().items())))


# The primitives, read by the parser, Call.evaluate and Call.diff: name ->
# (numpy function, None or (description, test) of the arguments outside the
# domain, derivative from the node f and its argument's derivative da).
_PRIMITIVES = {
    "sin": (np.sin, None, lambda f, da: mul(Call("cos", f.a), da)),
    "cos": (np.cos, None, lambda f, da: mul(neg(Call("sin", f.a)), da)),
    "exp": (np.exp, None, lambda f, da: mul(f, da)),
    "log": (np.log, ("non-positive", lambda x: x <= 0.0), lambda f, da: div(da, f.a)),
    "sqrt": (np.sqrt, ("negative", lambda x: x < 0.0),
             lambda f, da: div(da, mul(Const(2.0), f))),
}


class Opaque(Expression):
    """Leaf wrapping an :class:`OpaqueJet`; differentiation delegates to the
    jet's exact partials."""

    __slots__ = ("jet",)

    def __init__(self, jet):
        self.jet = jet
        self._res = hash(jet) % _P

    def free_symbols(self):
        return frozenset(self.jet.symbols)

    def evaluate(self, env):
        """The jet's value; over an env of equally-shaped arrays, its value
        at each point (the jet itself only takes scalar envs).  Only the
        first entry is inspected, so that a scalar env pays no scan."""
        first = next(iter(env.values()), None)
        if not isinstance(first, np.ndarray) or not first.ndim:
            return self.jet.value(env)
        out = np.empty(first.shape)
        for idx in np.ndindex(first.shape):
            out[idx] = self.jet.value({k: float(v[idx]) if np.ndim(v) else v
                                       for k, v in env.items()})
        return out

    def diff(self, name):
        if name not in self.jet.symbols:
            return ZERO
        return Opaque(self.jet.partial(name))

    def _normal(self):
        return _atom_poly(("jet", self.jet))


# ---------------------------------------------------------------------------
# residues: every node carries its normal form evaluated modulo the Mersenne
# prime _P, with each atom at a hash-derived value and each reciprocal atom
# at the inverse of its denominator's value.  That evaluation maps a zero
# normal form to 0, so a non-zero residue certifies a non-zero expression;
# a zero residue of a non-zero form is a rare coincidence that only costs
# the exact check.

_P = (1 << 61) - 1


# ---------------------------------------------------------------------------
# normal form: a monomial is a frozenset of (atom, non-zero integer exponent)
# pairs, the empty one standing for 1; a polynomial maps monomials to
# non-zero exact rationals.  Float constants convert exactly, so
# re-associated products and sums of the same constants still cancel.
# Integral values stay Python ints, which keeps the common coefficients
# (signs, small integers) off the slower Fraction arithmetic.

def _atom_poly(atom):
    return {frozenset(((atom, 1),)): 1}


def _poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        if m not in out:
            out[m] = c
            continue
        s = out[m] + c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for atom, k in m2:
        e = exps.get(atom, 0) + k
        if e:
            exps[atom] = e
        else:
            del exps[atom]
    return frozenset(exps.items())


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = _mono_mul(m1, m2)
            c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
            out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


def _poly_recip(p):
    """1/p for non-zero p: exact for a single term, otherwise one reciprocal
    atom of p divided by the coefficient of its least monomial under
    ``_order``, so that b, -b and 2b share the atom."""
    if len(p) == 1:
        (m, c), = p.items()
        return {frozenset((atom, -k) for atom, k in m): _inverse(c)}
    scale = p[min(p, key=_order)]
    atom = ("recip", frozenset((m, c / Fraction(scale)) for m, c in p.items()))
    return {frozenset(((atom, 1),)): _inverse(scale)}


def _inverse(c):
    return c if c in (1, -1) else 1 / Fraction(c)


def _order(x):
    """Sort key for atoms, monomials and polynomials that depends only on
    their content (on identity for jets).  Hashes cannot serve:
    hash(-1) == hash(-2), so x^-1 and x^-2 would tie."""
    if isinstance(x, frozenset):
        return (3, tuple(sorted(_order(e) for e in x)))
    if isinstance(x, tuple):
        return (2, tuple(_order(e) for e in x))
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, (int, Fraction)):
        return (0, x)
    return (4, id(x))


ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# folding constructors: constant folding, 0/1 elimination, and a sum that
# cancels exactly collapses to ZERO (a difference is a sum with a negated
# operand).  Products of non-zero factors never cancel, so a tree built
# through these helpers is either a Const or not zero, and the operand
# checks only need to look for a zero Const; the result of add is checked
# with is_zero.  A folded constant that is not finite raises EvalDomainError.

def _fold(value, op, *operands):
    """The folded constant; a non-finite value raises EvalDomainError."""
    if not math.isfinite(value):
        shown = ", ".join(to_source(x) for x in operands)
        raise EvalDomainError(f"{op}({shown}) overflows")
    return Const(value)


def _zero_const(e):
    return isinstance(e, Const) and e.value == 0.0


def add(a, b):
    if _zero_const(a):
        return b
    if _zero_const(b):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value + b.value, "add", a, b)
    node = Add(a, b)
    return ZERO if node.is_zero() else node


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    if _zero_const(a) or _zero_const(b):
        return ZERO
    if a.is_const(1.0):
        return b
    if b.is_const(1.0):
        return a
    if a.is_const(-1.0):
        return neg(b)
    if b.is_const(-1.0):
        return neg(a)
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value * b.value, "mul", a, b)
    return Mul(a, b)


def div(a, b):
    """a/b; a denominator that expands to zero raises EvalDomainError, as a
    constant zero does."""
    if b.is_zero():
        raise EvalDomainError(f"division by zero: {to_source(b)} expands to zero")
    if _zero_const(a):
        return ZERO
    if b.is_const(1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(a.value / b.value, "div", a, b)
    return Div(a, b)


def pow_int(base, k):
    """base^k; a negative power of a base that expands to zero, or a
    constant power that overflows, raises EvalDomainError."""
    k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return base
    if k < 0 and base.is_zero():
        raise EvalDomainError(f"zero base with negative power: {to_source(base)}")
    if isinstance(base, Const):
        try:
            return Const(base.value ** k)
        except OverflowError:
            raise EvalDomainError(f"{to_source(base)}^{k} overflows") from None
    return Pow(base, k)


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def sin(a):
    return _call("sin", a)


def cos(a):
    return _call("cos", a)


def exp(a):
    return _call("exp", a)


def log(a):
    return _call("log", a)


def sqrt(a):
    return _call("sqrt", a)


def _call(fn, a):
    a = as_expr(a)
    if isinstance(a, Const):
        with np.errstate(over="ignore"):
            return _fold(float(Call(fn, a).evaluate({})), fn, a)
    return Call(fn, a)


def opaque(jet) -> Expression:
    return Opaque(jet)


# ---------------------------------------------------------------------------
# opaque jets

class OpaqueJet:
    """Evaluation contract for coefficients with no closed form.

    ``value(env)`` takes an env of scalars, one point, and returns a float
    (``Opaque.evaluate`` maps it over a batch); ``partial(name)`` returns
    another jet for the exact partial derivative.  ``order`` is the number
    of derivative levels still available; reaching 0 makes further
    differentiation an error.
    """

    name = "jet"
    order = 1
    symbols = ()

    def value(self, env):
        raise NotImplementedError

    def partial(self, name) -> "OpaqueJet":
        raise NotImplementedError


class FunctionJet(OpaqueJet):
    def __init__(self, name, symbols, value_fn, partial_factory=None, order=1):
        self.name = name
        self.symbols = tuple(symbols)
        self._value_fn = value_fn
        self._partial_factory = partial_factory
        self.order = order

    def value(self, env):
        return self._value_fn(env)

    def partial(self, name):
        if self.order < 1 or self._partial_factory is None:
            raise JetOrderError(f"jet '{self.name}' has no derivative left for '{name}'")
        return self._partial_factory(name)


# ---------------------------------------------------------------------------
# printing

_ATOMS = (Const, Sym, Call, Opaque)


def to_source(e) -> str:
    """Render an expression; ``parse(to_source(e))`` evaluates identically."""
    if isinstance(e, Const):
        v = e.value
        if v == int(v) and abs(v) < 1e16:
            s = str(int(v))
        else:
            s = repr(v)
        return f"({s})" if v < 0 else s
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Opaque):
        return f"<{e.jet.name}>"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.a)})"
    if isinstance(e, Neg):
        return f"-({to_source(e.a)})"
    if isinstance(e, Add):
        # a difference is a sum with a negated or negative right operand
        if isinstance(e.b, Neg):
            return f"{to_source(e.a)} - {_wrap(e.b.a, (Add,))}"
        if isinstance(e.b, Const) and e.b.value < 0:
            return f"{to_source(e.a)} - {to_source(Const(-e.b.value))}"
        return f"{to_source(e.a)} + {_wrap(e.b, (Add,))}"
    if isinstance(e, Mul):
        return f"{_wrap(e.a, (Add, Neg))}*{_wrap(e.b, (Add, Neg, Mul, Div))}"
    if isinstance(e, Div):
        return f"{_wrap(e.a, (Add, Neg))}/{_wrap(e.b, (Add, Neg, Mul, Div))}"
    if isinstance(e, Pow):
        base = to_source(e.base) if isinstance(e.base, _ATOMS) else f"({to_source(e.base)})"
        if e.k < 0:
            return f"(1/{base}^{-e.k})"
        return f"{base}^{e.k}"
    raise ExprError(f"unprintable node {type(e).__name__}")


def _wrap(e, kinds):
    s = to_source(e)
    return f"({s})" if isinstance(e, kinds) else s


# ---------------------------------------------------------------------------
# parsing
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' integer)?
#   base   := number | symbol | primitive '(' expr ')' | '(' expr ')' | '-' base

class _Token:
    __slots__ = ("kind", "text", "col")

    def __init__(self, kind, text, col):
        self.kind = kind
        self.text = text
        self.col = col


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        col = i + 1
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, col))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            if j < n and (text[j].isalpha() or text[j] == "_"):
                raise ParseError(f"malformed number '{text[i:j + 1]}'", col)
            tokens.append(_Token("num", text[i:j], col))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], col))
            i = j
            continue
        raise ParseError(f"unexpected character '{c}'", col)
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, symbols):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}" if tok.kind != "end"
                             else f"unexpected end of input", tok.col)
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.col)
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self):
        e = self.base()
        if self.peek().kind == "^":
            self.take()
            tok = self.take("num")
            if "." in tok.text or "e" in tok.text or "E" in tok.text:
                raise ParseError("exponent must be an integer", tok.col)
            e = pow_int(e, int(tok.text))
        return e

    def base(self):
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            return neg(self.base())
        if tok.kind == "num":
            self.take()
            return Const(float(tok.text))
        if tok.kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if tok.kind == "name":
            self.take()
            if tok.text in _PRIMITIVES:
                self.take("(")
                e = self.expr()
                self.take(")")
                return _call(tok.text, e)
            if self.symbols is not None and tok.text not in self.symbols:
                raise UnknownSymbolError(tok.text, tok.col)
            return Sym(tok.text)
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.col)
        raise ParseError(f"unexpected token {tok.text!r}", tok.col)


def parse(text: str, symbols=None) -> Expression:
    """Parse an expression.  ``symbols``, if given, is the set of admissible
    symbol names (unknown names are rejected with their column)."""
    return _Parser(_tokenize(text), symbols).parse()
