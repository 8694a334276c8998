import math
import warnings

import numpy as np
import pytest

from polyfield import expr
from polyfield.expr import (
    Const, Sym, EvalDomainError, Opaque, ParseError, UnknownSymbolError,
    parse, to_source,
)


def rand_env(names, rng, lo=0.2, hi=1.7):
    return {n: float(rng.uniform(lo, hi)) for n in names}


def test_parse_momentum_sum():
    e = parse("p1^2/2 + p2^2/2")
    assert e.evaluate({"p1": 3.0, "p2": 4.0}) == pytest.approx(12.5)


def test_parse_product_of_primitive_and_symbol():
    e = parse("sin(x1)*y1")
    assert e.evaluate({"x1": 0.5, "y1": 2.0}) == pytest.approx(2 * math.sin(0.5))


def test_parse_unbalanced_paren_column():
    with pytest.raises(ParseError) as err:
        parse("1/2*(")
    assert err.value.column == 6


def test_parse_unknown_symbol_rejected_with_column():
    with pytest.raises(UnknownSymbolError) as err:
        parse("x1 + bogus", symbols={"x1"})
    assert err.value.column == 6


def test_parse_precedence_and_unary_minus():
    assert parse("1+2*3").evaluate({}) == 7.0
    assert parse("2*3^2").evaluate({}) == 18.0
    # per the grammar the unary minus binds inside the power base
    assert parse("-2^2").evaluate({}) == 4.0
    assert parse("-(2^2)").evaluate({}) == -4.0


def test_diff_square_and_sin():
    x = Sym("x")
    assert to_source((x ** 2).diff("x")) == "2*x"
    assert to_source(expr.sin(x).diff("x")) == "cos(x)"


def test_non_finite_constants_raise():
    # a printed inf or nan would parse back as a free symbol
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(EvalDomainError):
            Const(value)
        with pytest.raises(EvalDomainError):
            expr.as_expr(value)
        with pytest.raises(EvalDomainError):
            Sym("x") * value
    with pytest.raises(EvalDomainError):
        parse("x + 1e400")


def test_diff_weyl_kinetic_term():
    # d/dp1 of (eps + g11*p1^2/2) = g11*p1, the coefficient pattern of the
    # scalar-field evolution form
    e = parse("eps + g11*p1^2/2")
    d = e.diff("p1")
    env = {"eps": 0.3, "g11": 1.7, "p1": -0.4}
    assert d.evaluate(env) == pytest.approx(1.7 * -0.4)


def test_evaluate_simple_and_division_by_zero():
    assert parse("2*x").evaluate({"x": 3.0}) == 6.0
    with pytest.raises(EvalDomainError):
        parse("x/y").evaluate({"x": 1.0, "y": 0.0})


def test_division_by_zero_raises_for_scalar_and_batch_denominators():
    # a scalar denominator takes the plain comparison, an array one np.any
    e = parse("x/y")
    for zero in (0.0, np.float64(0.0), 0j, np.array([1.0, 0.0])):
        with pytest.raises(EvalDomainError):
            e.evaluate({"x": 1.0, "y": zero})
    assert e.evaluate({"x": 1.0, "y": np.float64(4.0)}) == 0.25
    assert np.array_equal(e.evaluate({"x": 1.0, "y": np.array([2.0, 4.0])}), [0.5, 0.25])


def test_evaluate_flat_kinetic_density():
    # Minkowski kinetic density 1/2*p1^2 - 1/2*p2^2 + 1/2*m^2*phi^2
    e = parse("1/2*p1^2 - 1/2*p2^2 + 1/2*phi^2")
    assert e.evaluate({"p1": 1.0, "p2": 0.0, "phi": 0.0}) == pytest.approx(0.5)


def test_domain_errors_for_log_and_sqrt():
    with pytest.raises(EvalDomainError):
        parse("log(x)").evaluate({"x": -1.0})
    with pytest.raises(EvalDomainError):
        parse("sqrt(x)").evaluate({"x": -1.0})


def test_array_evaluation_matches_scalar():
    e = parse("sin(x)*y + x^3/y")
    xs = np.linspace(0.1, 2.0, 7)
    ys = np.linspace(0.5, 1.5, 7)
    arr = e.evaluate({"x": xs, "y": ys})
    for i in range(7):
        assert arr[i] == pytest.approx(e.evaluate({"x": xs[i], "y": ys[i]}))


@pytest.mark.parametrize("source", [
    "x^2 + 2*x*y - y^3",
    "sin(x)*cos(y) - exp(x/4)/sqrt(y)",
    "-(x - y)/(1 + x^2) + log(y)",
    "1.5e-1*x + 2.25*y^4",
    "-x^2",
    "x - (y - x^2)",
    "x - -y",
    "x - (x + y)*y",
    "(x - y)/(x - 2)",
])
def test_print_parse_round_trip(source):
    rng = np.random.default_rng(7)
    e = parse(source)
    back = parse(to_source(e))
    for _ in range(100):
        env = rand_env(e.free_symbols() | {"x", "y"}, rng)
        assert back.evaluate(env) == pytest.approx(e.evaluate(env), abs=1e-12)


def test_subtraction_prints_as_subtraction():
    assert to_source(parse("x - y")) == "x - y"
    assert to_source(parse("x - (y - x^2)")) == "x - (y - x^2)"
    assert to_source(parse("(x - y)/(x - 2)")) == "(x - y)/(x - 2)"


def test_differentiation_linearity_and_product_rule():
    rng = np.random.default_rng(11)
    f = parse("sin(x)*y + x^3")
    g = parse("exp(x/3) - y^2/(1 + x^2)")
    lhs_lin = (f + g).diff("x")
    lhs_prod = (f * g).diff("x")
    for _ in range(100):
        env = rand_env({"x", "y"}, rng)
        assert lhs_lin.evaluate(env) == pytest.approx(
            f.diff("x").evaluate(env) + g.diff("x").evaluate(env), abs=1e-12)
        want = f.diff("x").evaluate(env) * g.evaluate(env) + f.evaluate(env) * g.diff("x").evaluate(env)
        assert lhs_prod.evaluate(env) == pytest.approx(want, abs=1e-12)


def test_mixed_partials_commute():
    rng = np.random.default_rng(3)
    e = parse("sin(x*y) + x^3*y^2 - exp(y/2)/x")
    dxy = e.diff("x").diff("y")
    dyx = e.diff("y").diff("x")
    for _ in range(50):
        env = rand_env({"x", "y"}, rng)
        assert dxy.evaluate(env) == pytest.approx(dyx.evaluate(env), rel=1e-12)


def _quadratic_jet():
    # f(u, w) = u^2 * w with hand-coded exact partials, two levels deep
    def val(env):
        return env["u"] ** 2 * env["w"]

    def partial(name):
        if name == "u":
            return Opaque("f_u", ("u", "w"), lambda env: 2 * env["u"] * env["w"],
                          lambda n: _const_jet({"u": lambda e: 2 * e["w"], "w": lambda e: 2 * e["u"]}[n]))
        return Opaque("f_w", ("u", "w"), lambda env: env["u"] ** 2,
                      lambda n: _const_jet({"u": lambda e: 2 * e["u"], "w": lambda e: 0.0}[n]))

    def _const_jet(fn):
        return Opaque("f2", ("u", "w"), fn)

    return Opaque("f", ("u", "w"), val, partial)


def jet_gradient_check(jet, points, h=1e-6):
    """The worst relative error of the jet's partials against central
    differences of its value, over all points and symbols."""
    worst = 0.0
    for pt in points:
        for name in jet.symbols:
            up = dict(pt, **{name: pt[name] + h})
            dn = dict(pt, **{name: pt[name] - h})
            fd = (jet.value(up) - jet.value(dn)) / (2 * h)
            an = jet.partial(name).value(pt)
            worst = max(worst, abs(fd - an) / max(1.0, abs(fd), abs(an)))
    return worst


def test_opaque_jet_gradient_against_central_differences():
    rng = np.random.default_rng(5)
    jet = _quadratic_jet()
    points = [rand_env(("u", "w"), rng) for _ in range(20)]
    assert jet_gradient_check(jet, points) <= 1e-6


def test_opaque_jet_inside_expression_tree():
    jet = _quadratic_jet()
    e = jet * Sym("u") + Const(1.0)
    env = {"u": 1.5, "w": 0.5}
    assert e.evaluate(env) == pytest.approx(1.5 ** 2 * 0.5 * 1.5 + 1.0)
    d = e.diff("u")  # product rule across the opaque leaf
    assert d.evaluate(env) == pytest.approx(2 * 1.5 * 0.5 * 1.5 + 1.5 ** 2 * 0.5)


def test_opaque_jet_third_derivative_raises():
    second = _quadratic_jet().diff("u").diff("w")
    assert second.evaluate({"u": 1.5, "w": 0.5}) == pytest.approx(3.0)
    assert second.diff("x") is expr.ZERO
    with pytest.raises(expr.JetOrderError, match="f2"):
        second.diff("u")


def test_opaque_leaf_names_a_missing_symbol():
    e = _quadratic_jet() + Sym("u")
    with pytest.raises(expr.UnboundSymbolError, match="'w'"):
        e.evaluate({"u": 1.0})


def test_opaque_jet_evaluates_over_an_array_env():
    # the jet's value takes one point of scalars (math.sin refuses arrays);
    # the leaf maps it over the batch
    jet = Opaque("g", ("u", "w"), lambda env: math.sin(env["u"]) * env["w"])
    e = jet * Sym("u") + Const(1.0)
    rng = np.random.default_rng(6)
    points = [{"u": float(u), "w": float(w)} for u, w in rng.uniform(-1, 1, (5, 2))]
    batch = {nm: np.array([pt[nm] for pt in points]) for nm in ("u", "w")}
    got = e.evaluate(batch)
    assert got.shape == (5,)
    assert np.array_equal(got, [e.evaluate(pt) for pt in points])


@pytest.mark.parametrize("source", [
    "a - a",
    "a + (-a)",
    "x2*g + x2*(-g)",
    "x2*(1 + x1^2/2) + x2*(-(1 + x1^2/2))",
    "(x + 1)*(x - 1) - (x^2 - 1)",
    "1/(y + 1) + 1/(-y - 1)",
    "x/(1/x - 1/x^2) + x/(1/x^2 - 1/x)",
    "sin(0)*x",
    "exp(0) - 1",
])
def test_cancelling_expressions_are_exactly_zero(source):
    e = parse(source)
    assert e.is_zero()
    assert e.is_const(0.0)  # the folding constructors collapse the cancellation


def test_is_zero_decides_unfolded_trees():
    a, g, x2 = Sym("a"), Sym("g"), Sym("x2")
    assert expr.Add(expr.Neg(a), a).is_zero()
    assert expr.Add(a, expr.Neg(a)).is_zero()
    assert expr.Add(expr.Mul(x2, g), expr.Mul(x2, expr.Neg(g))).is_zero()
    assert not expr.Add(a, expr.Neg(g)).is_zero()


@pytest.mark.parametrize("source, env, value", [
    ("(x + 1)*(x - 1) - x^2", {"x": 0.3}, -1.0),
    ("a - 1.0000000000000002*a", {"a": 1.0}, -2.220446049250313e-16),
    ("x2*g + x2*(-h)", {"x2": 2.0, "g": 1.5, "h": 1.0}, 1.0),
])
def test_nonzero_difference_stays_nonzero(source, env, value):
    e = parse(source)
    assert not e.is_zero()
    assert e.evaluate(env) == pytest.approx(value, rel=1e-12, abs=0.0)


def test_constant_power_that_overflows_raises():
    with pytest.raises(EvalDomainError, match="overflows"):
        parse("10^400")


@pytest.mark.parametrize("build", [
    lambda: parse("x + 10^200*10^200"),
    lambda: parse("1e200/1e-200 - x"),
    lambda: Const(1e308) + Const(1e308),
    lambda: expr.exp(Const(1000.0)),
    lambda: parse("x + exp(1000)"),
], ids=["mul", "div", "add", "exp", "parsed_exp"])
def test_constant_folding_that_overflows_raises(build):
    # a folded inf would print as 'inf' and parse back as a symbol of that name
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalDomainError, match="overflows"):
            build()


def test_denominator_expanding_to_zero_raises():
    with pytest.raises(EvalDomainError):
        parse("1/((x + 1)^2 - x^2 - 2*x - 1)")
    x = Sym("x")
    with pytest.raises(EvalDomainError):
        expr.Add(x, expr.Neg(x)) ** -1
