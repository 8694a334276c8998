"""Exact zero decisions of ``Expression.is_zero`` checked against sympy.

Random trees over a small leaf set (so that coincidences and cancellations
are common) are built twice: once with the package's folding constructors
and once, from the built tree, as a sympy expression with every float
constant converted exactly.  The modular residue settles most non-zero
cases before the normal form is built, so the normal form (``_poly``) and
the residue (``_res``) are also checked on their own.

The examples are derandomized so that every run checks the same trees;
raise ``max_examples`` locally to search further.
"""

import math
import operator

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from polyfield import expr as ex  # noqa: E402

LEAVES = st.one_of(
    st.sampled_from(("x", "y")).map(lambda name: ("sym", name)),
    st.sampled_from((-1.0, 0.5, 1.0, 2.0, 0.1)).map(lambda value: ("const", value)),
)


def _general(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("/"), children, st.tuples(st.just("+"), children, children)),
        st.tuples(st.just("^"), children, st.integers(-2, 3)),
        st.tuples(st.just("neg"), children),
        st.tuples(st.sampled_from(("sin", "exp")), children),
    )


def _polynomial(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children),
        st.tuples(st.just("^"), children, st.integers(0, 3)),
        st.tuples(st.just("neg"), children),
    )


SPECS = st.recursive(LEAVES, _general, max_leaves=8)
POLY_SPECS = st.recursive(LEAVES, _polynomial, max_leaves=8)

SEARCH = settings(max_examples=200, deadline=None, derandomize=True, database=None)

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def build(spec):
    """Build with the folding constructors; a folded constant that overflows
    raises OverflowError (inf - inf is not zero, so such trees are left out)."""
    kind = spec[0]
    if kind == "sym":
        return ex.Sym(spec[1])
    if kind == "const":
        e = ex.Const(spec[1])
    elif kind == "neg":
        e = -build(spec[1])
    elif kind == "^":
        e = build(spec[1]) ** spec[2]
    elif kind in ("sin", "exp"):
        e = getattr(ex, kind)(build(spec[1]))
    else:
        e = _BINARY[kind](build(spec[1]), build(spec[2]))
    if isinstance(e, ex.Const) and not math.isfinite(e.value):
        raise OverflowError(f"constant {e.value} in {spec}")
    return e


def mirror(spec):
    """The same expression with the operands of every + and * swapped, every
    a - b written as a + (-b) and every a/b as (-a)/(-b); float-exact, so
    it denotes the same value."""
    kind = spec[0]
    if kind in ("sym", "const"):
        return spec
    if kind == "^":
        return ("^", mirror(spec[1]), spec[2])
    if kind in ("neg", "sin", "exp"):
        return (kind, mirror(spec[1]))
    a, b = mirror(spec[1]), mirror(spec[2])
    if kind in "+*":
        return (kind, b, a)
    if kind == "-":
        return ("+", a, ("neg", b))
    return ("/", ("neg", a), ("neg", b))


def leaf_count(spec):
    if spec[0] in ("sym", "const"):
        return 1
    return sum(leaf_count(part) for part in spec[1:] if isinstance(part, tuple))


def replace_leaf(spec, position, leaf):
    """A near miss: ``spec`` with its depth-first leaf ``position`` replaced."""
    if spec[0] in ("sym", "const"):
        return leaf if position == 0 else spec
    out = [spec[0]]
    for part in spec[1:]:
        if isinstance(part, tuple):
            out.append(replace_leaf(part, position, leaf))
            position -= leaf_count(part)
        else:
            out.append(part)
    return tuple(out)


def buildable(spec):
    """Build, discarding specs with a denominator that expands to zero or a
    constant that overflows."""
    try:
        with np.errstate(over="ignore"):
            return build(spec)
    except (ex.EvalDomainError, OverflowError):
        assume(False)


def to_sympy(e):
    if isinstance(e, ex.Const):
        return sympy.Rational(*e.value.as_integer_ratio())
    if isinstance(e, ex.Sym):
        return sympy.Symbol(e.name)
    if isinstance(e, ex.Neg):
        return -to_sympy(e.a)
    if isinstance(e, ex.Pow):
        return to_sympy(e.base) ** e.k
    if isinstance(e, ex.Call):
        return getattr(sympy, e.fn)(to_sympy(e.a))
    ops = {ex.Add: operator.add, ex.Mul: operator.mul, ex.Div: operator.truediv}
    return ops[type(e)](to_sympy(e.a), to_sympy(e.b))


def oracle_is_zero(e):
    """sympy's verdict after expanding (also inside function arguments) and
    cancelling common factors of the rational function."""
    s = sympy.expand(to_sympy(e))
    assume(not s.has(sympy.zoo, sympy.nan))
    return sympy.cancel(s) == 0


@SEARCH
@given(SPECS, SPECS, st.integers(0, 7), LEAVES)
def test_is_zero_never_true_for_a_nonzero_tree(a, b, position, leaf):
    A, B, M = buildable(a), buildable(b), buildable(mirror(a))
    near = buildable(replace_leaf(mirror(a), position % leaf_count(a), leaf))
    for e in (ex.Add(A, ex.Neg(B)), ex.Add(A, ex.Neg(M)), ex.Add(A, ex.Neg(near)), A - near,
              A * B - B * A):
        if e.is_zero() or not e._poly():
            assert oracle_is_zero(e), ex.to_source(e)


@SEARCH
@given(SPECS)
def test_rearranged_tree_cancels(a):
    A, M = buildable(a), buildable(mirror(a))
    e = ex.Add(A, ex.Neg(M))
    assert not e._poly()
    assert e._res in (0, -1)  # a zero normal form never has a non-zero residue
    assert e.is_zero()
    assert (A - M).is_const(0.0)


@SEARCH
@given(POLY_SPECS, POLY_SPECS)
def test_polynomial_zero_decision_is_complete(a, b):
    e = ex.Add(buildable(a), ex.Neg(buildable(b)))
    zero = sympy.expand(to_sympy(e)) == 0
    assert e.is_zero() == zero == (not e._poly()), ex.to_source(e)
