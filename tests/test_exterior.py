import itertools

import numpy as np
import pytest

from polyfield import expr as ex
from polyfield.exterior import (
    Form, Multivector, VectorField, canonicalize, contract, exterior_derivative,
    lie_derivative, wedge_vectors,
)
from polyfield.phase import full_chart, maxwell_chart, weyl_chart


def eval_on_vectors(form, vectors, env):
    """Independent oracle: form(V1..Vp) by the determinant expansion over
    stored indices.  ``vectors`` are {position: float} maps."""
    total = 0.0
    for K, c in form.coeffs.items():
        M = np.array([[v.get(i, 0.0) for v in vectors] for i in K])
        total += float(c.evaluate(env)) * float(np.linalg.det(M))
    return total


def random_polynomial(chart, rng, max_touch=3):
    names = rng.choice(len(chart.names), size=min(max_touch, len(chart.names)), replace=False)
    e = ex.Const(float(rng.uniform(-1, 1)))
    for i in names:
        s = ex.Sym(chart.names[int(i)])
        e = e + float(rng.uniform(-1, 1)) * s * s + float(rng.uniform(-1, 1)) * s
    return e


def random_form(chart, degree, rng, terms=4):
    coeffs = {}
    for _ in range(terms):
        idx = tuple(sorted(rng.choice(chart.dim, size=degree, replace=False).tolist()))
        coeffs[idx] = random_polynomial(chart, rng)
    return Form(chart, degree, coeffs)


def test_canonicalize_signs():
    assert canonicalize((2, 1)) == ((1, 2), -1)
    assert canonicalize((3, 1, 2)) == ((1, 2, 3), 1)
    assert canonicalize((1, 1)) is None


def test_canonicalize_of_a_concatenation_counts_the_interleave_inversions():
    # the sign that wedge and sbracket read off canonicalize(I + J)
    assert canonicalize((0, 2, 4) + (1, 3, 5)) == ((0, 1, 2, 3, 4, 5), -1)
    assert canonicalize((1, 3) + (0, 2, 4)) == ((0, 1, 2, 3, 4), -1)
    assert canonicalize((0, 2) + (2, 5)) is None
    assert canonicalize(() + (3, 7)) == ((3, 7), 1)
    rng = np.random.default_rng(41)
    for _ in range(400):
        I, J = (tuple(sorted(rng.choice(9, size=int(rng.integers(5)), replace=False).tolist()))
                for _ in range(2))
        if set(I) & set(J):
            assert canonicalize(I + J) is None, (I, J)
        else:
            inversions = sum(s > t for s in I for t in J)
            assert canonicalize(I + J) == (tuple(sorted(I + J)), (-1) ** inversions), (I, J)


def test_repeated_index_normalizes_to_zero():
    chart = weyl_chart(2, 1)
    a = Form(chart, 2, {(0, 0): ex.ONE})
    assert a.is_zero()


def test_storage_antisymmetry_all_permutations_of_three():
    chart = full_chart(2, 2)
    base = Form(chart, 3, {(0, 2, 5): ex.Const(1.25)})
    for perm in itertools.permutations((0, 2, 5)):
        stored = Form(chart, 3, {perm: ex.Const(1.25)})
        _, sign = canonicalize(perm)
        assert stored.get((0, 2, 5)).evaluate({}) == pytest.approx(sign * 1.25)
        assert base.get(perm).evaluate({}) == pytest.approx(sign * 1.25)


def test_wedge_square_is_zero_and_anticommutes():
    chart = weyl_chart(2, 1)
    dq1 = chart.d_coord("x1")
    dq2 = chart.d_coord("x2")
    assert dq1.wedge(dq1).is_zero()
    lhs = dq1.wedge(dq2)
    rhs = -(dq2.wedge(dq1))
    assert (lhs - rhs).is_zero()


def test_wedge_graded_commutativity_random():
    rng = np.random.default_rng(42)
    chart = full_chart(2, 2)
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        a = random_form(chart, p, rng)
        b = random_form(chart, q, rng)
        diff = a.wedge(b) - b.wedge(a).scale((-1.0) ** (p * q))
        env = chart.random_point(rng)
        assert diff.max_abs_at(env) <= 1e-12


def test_wedge_associativity_random():
    rng = np.random.default_rng(1)
    chart = full_chart(2, 1)
    a, b, c = (random_form(chart, d, rng, terms=3) for d in (1, 1, 2))
    lhs = a.wedge(b).wedge(c)
    rhs = a.wedge(b.wedge(c))
    env = chart.random_point(rng)
    assert (lhs - rhs).max_abs_at(env) <= 1e-12


def test_contract_plane_on_area_form_is_one():
    chart = weyl_chart(2, 1)
    a = chart.d_coord("x1").wedge(chart.d_coord("x2"))
    X = wedge_vectors([chart.coordinate_field("x1"), chart.coordinate_field("x2")])
    res = contract(X, a)
    assert res.degree == 0
    assert res.get(()).evaluate({}) == pytest.approx(1.0)


def test_contract_leading_slot_convention_vs_bruteforce():
    rng = np.random.default_rng(9)
    chart = full_chart(2, 2)  # dim 10
    form = random_form(chart, 3, rng, terms=6)
    env = chart.random_point(rng)
    v1 = {int(i): float(rng.normal()) for i in range(chart.dim)}
    v2 = {int(i): float(rng.normal()) for i in range(chart.dim)}
    X = wedge_vectors([VectorField(chart, v1), VectorField(chart, v2)])
    res = contract(X, form)
    for j in range(chart.dim):
        want = eval_on_vectors(form, [v1, v2, {j: 1.0}], env)
        got = res.at(env).get((j,), 0.0)
        assert got == pytest.approx(want, abs=1e-10)


def test_contract_full_degree_matches_determinant_pairing():
    rng = np.random.default_rng(30)
    chart = full_chart(2, 1)
    form = random_form(chart, 2, rng, terms=4)
    env = chart.random_point(rng)
    vs = [{int(i): float(rng.normal()) for i in range(chart.dim)} for _ in range(2)]
    X = wedge_vectors([VectorField(chart, v) for v in vs])
    got = contract(X, form).get(()).evaluate(env)
    assert got == pytest.approx(eval_on_vectors(form, vs, env), abs=1e-10)


def dense_at(form, env):
    """The form at a point as a dense antisymmetric numpy array."""
    T = np.zeros((form.chart.dim,) * form.degree)
    for K, c in form.coeffs.items():
        value = float(c.evaluate(env))
        for perm in itertools.permutations(range(form.degree)):
            T[tuple(K[j] for j in perm)] = value * canonicalize(perm)[1]
    return T


@pytest.mark.parametrize("chart", [
    full_chart(3, 2), full_chart(3, 2, density=ex.parse("1 + x1^2/2"))], ids=["flat", "curved"])
def test_contract_field_into_omega_matches_numpy_interior_product(chart):
    rng = np.random.default_rng(31)
    omega = chart.multisymplectic_form()
    for _ in range(4):
        X = VectorField(chart, {int(i): random_polynomial(chart, rng)
                                for i in rng.choice(chart.dim, size=6, replace=False)})
        res = contract(X, omega)
        assert res.degree == omega.degree - 1
        for _ in range(3):
            env = chart.random_point(rng)
            x = np.zeros(chart.dim)
            for i, v in X.at(env).items():
                x[i] = v
            want = np.tensordot(x, dense_at(omega, env), axes=(0, 0))
            assert np.max(np.abs(dense_at(res, env) - want)) <= 1e-10
            assert np.max(np.abs(want)) > 0.0


def test_vector_field_arithmetic_stays_a_field_and_wedges_are_multivectors():
    chart = weyl_chart(2, 1)
    X = VectorField(chart, {0: chart.parse("x2"), 2: ex.ONE, 3: ex.ZERO})
    Y = VectorField(chart, {1: chart.parse("y"), 2: ex.Const(-1.0)})
    assert isinstance(X, Multivector) and X.degree == 1
    assert set(X.components) == {0, 2}  # the zero component is dropped
    env = {"x1": 0.5, "x2": 2.0, "y": 3.0, "eps": 0.0, "p1": 0.0, "p2": 0.0}
    for field, want in [(X + Y, {0: 2.0, 1: 3.0}), (X - Y, {0: 2.0, 1: -3.0, 2: 2.0}),
                        (-X, {0: -2.0, 2: -1.0}), (X.scale(chart.parse("x1")), {0: 1.0, 2: 0.5}),
                        (2.0 * X, {0: 4.0, 2: 2.0})]:
        assert type(field) is VectorField
        assert field.at(env) == pytest.approx(want)
        assert all(type(i) is int for i in field.components)
    assert X.component(1).is_zero() and X.component(2).evaluate({}) == 1.0
    for mv in (X.wedge(Y), wedge_vectors([X, Y])):
        assert type(mv) is Multivector and mv.degree == 2
        assert mv.at(env) == pytest.approx({(0, 1): 6.0, (0, 2): -2.0, (1, 2): -3.0})


def test_exterior_derivative_constant_form_vanishes():
    chart = weyl_chart(2, 1)
    a = Form(chart, 1, {(0,): ex.Const(3.0), (2,): ex.Const(-1.0)})
    assert exterior_derivative(a).is_zero()


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_dd_zero_on_random_polynomial_forms(n, k):
    rng = np.random.default_rng(100 + 10 * n + k)
    chart = full_chart(n, k)
    for degree in range(0, min(n + 1, 3)):
        a = random_form(chart, degree, rng, terms=3) if degree else chart.zero_form(
            random_polynomial(chart, rng))
        dda = exterior_derivative(exterior_derivative(a))
        for _ in range(50):
            env = chart.random_point(rng)
            assert dda.max_abs_at(env) <= 1e-10


def test_leibniz_rule():
    rng = np.random.default_rng(8)
    chart = full_chart(2, 1)
    a = random_form(chart, 1, rng, terms=3)
    b = random_form(chart, 2, rng, terms=3)
    lhs = exterior_derivative(a.wedge(b))
    rhs = exterior_derivative(a).wedge(b) + a.wedge(exterior_derivative(b)).scale((-1.0) ** a.degree)
    env = chart.random_point(rng)
    assert (lhs - rhs).max_abs_at(env) <= 1e-10


def test_degree_beyond_dimension_is_zero():
    chart = weyl_chart(1, 1)  # dim 4
    a = Form(chart, 5, {})
    assert a.is_zero()
    b = random_form(chart, 4, np.random.default_rng(0), terms=2)
    c = chart.d_coord("x1")
    assert b.wedge(c).is_zero()


def test_lie_derivative_scalar_is_directional_derivative():
    rng = np.random.default_rng(3)
    chart = weyl_chart(2, 1)
    f = chart.zero_form(chart.parse("sin(x1)*y + p1^2"))
    xi = VectorField(chart, {0: chart.parse("x2"), 2: ex.ONE, 4: chart.parse("y")})
    lhs = lie_derivative(xi, f)
    rhs = xi.apply(chart.parse("sin(x1)*y + p1^2"))
    for _ in range(20):
        env = chart.random_point(rng)
        assert lhs.get(()).evaluate(env) == pytest.approx(rhs.evaluate(env), abs=1e-11)


def test_lie_derivative_product_rule():
    rng = np.random.default_rng(4)
    chart = full_chart(2, 1)
    xi = VectorField(chart, {0: chart.parse("x2^2"), 3: chart.parse("x1"), 4: ex.ONE})
    a = random_form(chart, 1, rng, terms=3)
    b = random_form(chart, 1, rng, terms=3)
    lhs = lie_derivative(xi, a.wedge(b))
    rhs = lie_derivative(xi, a).wedge(b) + a.wedge(lie_derivative(xi, b))
    for _ in range(20):
        env = chart.random_point(rng)
        assert (lhs - rhs).max_abs_at(env) <= 1e-9


CARTAN_CHARTS = {
    "full_2_1": lambda: full_chart(2, 1),
    "full_3_2": lambda: full_chart(3, 2),
    "curved_full_2_2": lambda: full_chart(2, 2, density=ex.parse("1 + x1^2/2")),
    "curved_full_3_3": lambda: full_chart(3, 3, density=ex.parse("1 + x1^2/2 + x2*x3/4")),
    "weyl_2_1": lambda: weyl_chart(2, 1),
    "maxwell_3": lambda: maxwell_chart(3),
}


def random_field(chart, rng, comps=4):
    """Random components plus one momentum component; every coefficient
    has a term in a momentum."""
    momenta = [i for i in range(chart.dim) if chart.is_momentum(i)]
    idx = set(rng.choice(chart.dim, size=min(comps, chart.dim), replace=False).tolist())
    idx.add(int(rng.choice(momenta)))
    out = {}
    for i in idx:
        p = ex.Sym(chart.names[int(rng.choice(momenta))])
        q = ex.Sym(chart.names[int(rng.integers(chart.dim))])
        out[i] = random_polynomial(chart, rng) + float(rng.uniform(-1, 1)) * p * q
    return VectorField(chart, out)


def forms_identical(a, b):
    """Exact equality of the stored coefficients: every entry of a - b is
    decided zero."""
    assert a.degree == b.degree
    return all((a.coeffs.get(K, ex.ZERO) - b.coeffs.get(K, ex.ZERO)).is_zero()
               for K in set(a.coeffs) | set(b.coeffs))


def cartan(xi, a):
    """d(xi . a) + xi . da, with the first term absent on a 0-form."""
    tail = contract(xi, exterior_derivative(a))
    return tail if a.degree == 0 else exterior_derivative(contract(xi, a)) + tail


@pytest.mark.parametrize("name", sorted(CARTAN_CHARTS))
def test_lie_derivative_satisfies_cartan_exactly(name):
    chart = CARTAN_CHARTS[name]()
    rng = np.random.default_rng(sorted(CARTAN_CHARTS).index(name) + 70)
    forms = [random_form(chart, p, rng, terms=3) for p in range(chart.n + 2)]
    forms += [chart.theta(), chart.multisymplectic_form()]
    for _ in range(3):
        xi = random_field(chart, rng)
        for a in forms:
            assert forms_identical(lie_derivative(xi, a), cartan(xi, a)), (name, a.degree)


def assert_built_canonically(g):
    """Every key strictly increasing and of length degree, no stored zero,
    and the table unchanged by the public constructor, which sorts it."""
    for K, c in g.coeffs.items():
        assert len(K) == g.degree and all(s < t for s, t in zip(K, K[1:])), K
        assert not c.is_zero(), K
    rebuilt = (Form if isinstance(g, Form) else Multivector)(g.chart, g.degree, g.coeffs)
    assert set(rebuilt.coeffs) == set(g.coeffs)
    assert all((rebuilt.coeffs[K] - c).is_zero() for K, c in g.coeffs.items())


@pytest.mark.parametrize("name", sorted(CARTAN_CHARTS))
def test_every_operation_returns_canonical_keys_without_zeros(name):
    chart = CARTAN_CHARTS[name]()
    rng = np.random.default_rng(sorted(CARTAN_CHARTS).index(name) + 110)
    forms = [random_form(chart, p, rng, terms=3) for p in range(chart.n + 2)]
    forms.append(random_form(chart, chart.dim, rng, terms=1))
    fields = [random_field(chart, rng, comps=3) for _ in range(3)]
    bivector = fields[0].wedge(fields[1])
    multis = fields + [bivector]
    factor = random_polynomial(chart, rng)
    results = [a.wedge(b) for a, b in zip(forms, forms[1:] + forms[:1])]
    results += [forms[1].wedge(forms[1]), fields[0].wedge(fields[0]),
                bivector.wedge(fields[2]), fields[2].wedge(bivector)]
    for a, b in zip(forms + multis, forms[1:] + [forms[0]] + multis[1:] + [multis[0]]):
        results += [-a, a - a, a.scale(factor), a.scale(0.0)]
        if a.degree == b.degree:
            results += [a + b, a - b]
    for a in forms:
        results.append(exterior_derivative(a))
        results += [lie_derivative(X, a) for X in fields]
        results += [contract(X, a) for X in multis if X.degree <= a.degree]
    for g in results:
        assert_built_canonically(g)
    assert all(type(X + X) is VectorField and type(-X) is VectorField for X in fields)


def test_lie_derivative_along_an_empty_field_is_the_zero_form():
    chart = full_chart(2, 1)
    empty = VectorField(chart, {})
    for p in (0, 2, chart.dim):
        lie = lie_derivative(empty, random_form(chart, p, np.random.default_rng(p), terms=2))
        assert lie.degree == p and lie.is_zero()


def test_lie_derivative_of_a_scalar_is_apply_exactly():
    chart = maxwell_chart(3)
    rng = np.random.default_rng(8)
    f = random_polynomial(chart, rng) * random_polynomial(chart, rng)
    xi = random_field(chart, rng, comps=6)
    lie = lie_derivative(xi, chart.zero_form(f))
    assert lie.degree == 0
    assert forms_identical(lie, chart.zero_form(xi.apply(f)))


def test_lie_derivative_of_a_top_form_is_x_f_plus_f_div_x():
    chart = full_chart(2, 1)
    rng = np.random.default_rng(9)
    f = random_polynomial(chart, rng)
    xi = random_field(chart, rng, comps=chart.dim)
    top = tuple(range(chart.dim))
    div = sum((xi.component(i).diff(nm) for i, nm in enumerate(chart.names)), ex.ZERO)
    want = Form(chart, chart.dim, {top: xi.apply(f) + f * div})
    assert forms_identical(lie_derivative(xi, Form(chart, chart.dim, {top: f})), want)


def test_vector_field_lie_bracket():
    chart = weyl_chart(2, 1)
    # [x2 d1, d2] = -d1
    xi = VectorField(chart, {0: chart.parse("x2")})
    eta = chart.coordinate_field("x2")
    br = xi.lie_bracket(eta)
    assert br.component(0).evaluate({}) == pytest.approx(-1.0)
    assert set(br.components) == {0}


def test_debug_rows_stable_order():
    chart = weyl_chart(2, 1)
    a = Form(chart, 1, {(5,): ex.ONE, (0,): ex.Const(2.0)})
    rows = a.debug_rows()
    assert rows == [("x1", "2"), ("p1", "1")]


def test_max_abs_at_takes_a_batch():
    chart = full_chart(2, 1)
    rng = np.random.default_rng(31)
    form = random_form(chart, 2, rng) + Form(chart, 2, {(0, 1): ex.Const(-0.25)})
    pts = [chart.random_point(rng) for _ in range(2)]
    batch = {nm: np.array([pt[nm] for pt in pts]) for nm in chart.names}
    assert form.max_abs_at(batch) == max(form.max_abs_at(pt) for pt in pts)
    assert Form(chart, 2, {}).max_abs_at(batch) == 0.0
