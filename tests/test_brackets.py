import contextlib
import itertools
import logging

import numpy as np
import pytest

from polyfield import brackets
from polyfield import expr as ex
from polyfield.brackets import (
    BracketError, HamiltonianPair, SuperForm, NotBracketable, eta_slice, external_bracket,
    h_omega_bracket, internal_bracket, is_admissible,
    noether_sides, p_momentum, p_momentum_starred, pi_field, q_position,
    sbracket, scalar_of_super, super_scalar, superize, theta_basis_solve, xi_general, xi_p,
    xi_q, xi_tau_scalar,
)
from polyfield.exterior import Form, VectorField, contract, exterior_derivative, \
    lie_derivative, wedge_vectors
from polyfield.phase import full_chart, maxwell_chart, weyl_chart


def probes(chart, rng, count=20, lo=-0.9, hi=0.9):
    return [chart.random_point(rng, lo, hi) for _ in range(count)]


def config_poly(chart, rng, names=None):
    e = ex.Const(float(rng.uniform(-1, 1)))
    for nm in names or chart.base_names + chart.fiber_names:
        if rng.random() < 0.6:
            s = ex.Sym(nm)
            e = e + float(rng.uniform(-1, 1)) * s + float(rng.uniform(-0.5, 0.5)) * s * s
    return e


def random_q_form(chart, rng):
    """Configuration (n-1)-form with polynomial coefficients."""
    coeffs = {}
    cfg = range(chart.n + chart.k)
    for K in itertools.combinations(cfg, chart.n - 1):
        if rng.random() < 0.7:
            coeffs[K] = config_poly(chart, rng)
    return Form(chart, chart.n - 1, coeffs)


def random_config_field(chart, rng):
    comps = {}
    for i in range(chart.n + chart.k):
        if rng.random() < 0.7:
            comps[i] = config_poly(chart, rng)
    return VectorField(chart, comps)


def verified(pair, points):
    """The pair, after ``pair.verify(points)`` has passed at the default tol."""
    pair.verify(points)
    return pair


def forms_equal(a, b, points, tol=1e-9):
    diff = a - b
    return max(diff.max_abs_at(env) for env in points) <= tol


# -- the defining relation ------------------------------------------------------

def symbolic_residual(pair, points):
    """Reference for ``verify``: max |da + Xi . Omega| with the residual
    built as a form and evaluated coefficient by coefficient."""
    res = exterior_derivative(pair.form) + contract(pair.xi, pair.chart.multisymplectic_form())
    return max(res.max_abs_at(env) for env in points)


@pytest.mark.parametrize("chart", [full_chart(3, 2), full_chart(2, 2, density=ex.parse("1 + x1^2/2"))],
                         ids=["full_3_2", "curved_full_2_2"])
def test_verify_matches_symbolic_defining_residual(chart):
    rng = np.random.default_rng(40 + chart.n)
    pts = probes(chart, rng, 8)
    kick = VectorField(chart, {chart.index("eps"): ex.Const(0.5)})
    drift = VectorField(chart, {chart.index("y1"): chart.sym("x1")})
    for _ in range(2):
        for pair in (xi_q(random_q_form(chart, rng)), xi_p(random_config_field(chart, rng))):
            want = symbolic_residual(pair, pts)
            assert pair.verify(pts) == pytest.approx(want, rel=1e-12, abs=1e-12)
            for extra in (kick, drift):
                wrong = HamiltonianPair(pair.form, pair.xi + extra)
                want = symbolic_residual(wrong, pts)
                assert want > 1e-3
                assert wrong.verify(pts, tol=np.inf) == pytest.approx(want, rel=1e-12)
                with pytest.raises(NotBracketable) as refusal:
                    wrong.verify(pts)
                assert refusal.value.residual == pytest.approx(want, rel=1e-12)


# -- closed-form vector fields ------------------------------------------------

def test_xi_q_position_observable_matches_display():
    # flat chart: Xi(Q^{i,f}) = -sum f^a d/dp^a_i - y^i (div f) d/deps
    chart = weyl_chart(2, 1)
    f1, f2 = chart.parse("sin(x1)*x2"), chart.parse("x1^2 - x2")
    q = q_position(chart, 1, [f1, f2])
    rng = np.random.default_rng(0)
    pts = probes(chart, rng)
    pair = verified(xi_q(q), pts)
    expected = VectorField(chart, {
        chart.index("p1"): -f1,
        chart.index("p2"): -f2,
        chart.index("eps"): -(chart.sym("y") * (f1.diff("x1") + f2.diff("x2"))),
    })
    assert forms_equal(pair.xi, expected, pts, 1e-12)


def test_xi_q_closed_form_gives_zero_field():
    chart = weyl_chart(2, 1)
    pair = xi_q(chart.d_coord("x1"))
    assert not pair.xi.components


def test_xi_q_detects_non_bracketable():
    # eps * dy cannot be matched by any momentum-directed contraction
    chart = weyl_chart(2, 1)
    bad = chart.d_coord("y").scale(chart.sym("eps"))
    with pytest.raises(NotBracketable):
        xi_q(bad)


def test_xi_q_checks_every_maxwell_alias():
    # A1 dx1^dx3 reaches pA1_2 through its first presentation only; the
    # alias dA2 ^ d_1 . omega would need the opposite coefficient
    chart = maxwell_chart(3)
    a = chart.d_coord("x1").wedge(chart.d_coord("x3")).scale(chart.sym("A1"))
    with pytest.raises(NotBracketable) as refusal:
        xi_q(a)
    assert refusal.value.stray == ("x2^x3^A2",)
    both = a + chart.d_coord("x2").wedge(chart.d_coord("x3")).scale(chart.sym("A2"))
    pair = xi_q(both)
    assert set(pair.xi.components) == {chart.index("pA1_2")}
    assert (pair.xi.component(chart.index("pA1_2")) - ex.ONE).is_zero()
    assert pair.verify(probes(chart, np.random.default_rng(3), 5)) == 0.0


def off_diagonal_form(chart, rng):
    """Maxwell-chart (n-1)-form sum over a != b of F_ab(x) A_a d_b . omega;
    F is antisymmetric, which makes the form bracketable, half of the time."""
    antisymmetric = rng.random() < 0.5
    total = Form(chart, chart.n - 1, {})
    for a, b in itertools.combinations(range(1, chart.n + 1), 2):
        f = config_poly(chart, rng, chart.base_names)
        g = -f if antisymmetric else config_poly(chart, rng, chart.base_names)
        total = total + chart.omega_alpha(b).scale(chart.sym(f"A{a}") * f) \
            + chart.omega_alpha(a).scale(chart.sym(f"A{b}") * g)
    return total


def fiber_field(chart, rng):
    """Configuration field along the fibers with base-dependent components."""
    return VectorField(chart, {chart.index(nm): config_poly(chart, rng, chart.base_names)
                               for nm in chart.fiber_names if rng.random() < 0.7})


@pytest.mark.parametrize("n", [2, 3])
def test_maxwell_solve_rejects_or_verifies(n):
    # xi_q and xi_p on random forms and fields either raise or return a pair
    # whose defining residual vanishes; a refusal is confirmed by the
    # pointwise least squares over all columns
    chart = maxwell_chart(n)
    rng = np.random.default_rng(50 + n)
    pts = probes(chart, rng, 8)
    cases = [(xi_q, make(chart, rng)) for make in (random_q_form, off_diagonal_form)
             for _ in range(6)]
    cases += [(xi_p, make(chart, rng)) for make in (random_config_field, fiber_field)
              for _ in range(6)]
    outcomes = {xi_q: set(), xi_p: set()}
    for solve, arg in cases:
        try:
            pair = solve(arg)
        except NotBracketable:
            outcomes[solve].add("rejected")
            form = arg if solve is xi_q else contract(arg, chart.theta())
            with pytest.raises(NotBracketable):
                xi_general(form, pts)
            continue
        outcomes[solve].add("accepted")
        assert pair.verify(pts) <= 1e-9
    assert outcomes == {xi_q: {"accepted", "rejected"}, xi_p: {"accepted", "rejected"}}


def test_xi_general_least_squares_membership():
    chart = weyl_chart(2, 1)
    rng = np.random.default_rng(1)
    pts = probes(chart, rng, 10)
    good = q_position(chart, 1, [chart.parse("x1"), chart.parse("x2^2")])
    solved = xi_general(good, pts, tol=1e-9)
    assert solved.residual <= 1e-9
    assert not solved.rank_deficient  # the defining system pins the field uniquely
    bad = chart.d_coord("y").scale(chart.sym("eps"))
    with pytest.raises(NotBracketable) as rejected:
        xi_general(bad, pts)
    assert rejected.value.residual > 1e-3
    assert rejected.value.stray == ()


def test_xi_general_logs_its_decision(caplog):
    chart = weyl_chart(2, 1)
    rng = np.random.default_rng(1)
    pts = probes(chart, rng, 10)
    good = q_position(chart, 1, [chart.parse("x1"), chart.parse("x2^2")])
    bad = chart.d_coord("y").scale(chart.sym("eps"))
    with caplog.at_level(logging.DEBUG, logger="polyfield.brackets"):
        solved = xi_general(good, pts, tol=1e-9)
        with pytest.raises(NotBracketable) as refusal:
            xi_general(bad, pts, tol=1e-9)
    accepted, rejected = [r.getMessage() for r in caplog.records if r.name == "polyfield.brackets"]
    assert accepted == (f"xi_general accepted: worst residual {solved.residual:.3e} against "
                        f"tol 1e-09, rank deficiency 0 over 10 points")
    assert rejected == (f"xi_general rejected: worst residual {refusal.value.residual:.3e} "
                        f"against tol 1e-09, rank deficiency 0 over 10 points")


def test_xi_general_rejects_an_empty_point_list():
    chart = weyl_chart(2, 1)
    with pytest.raises(ValueError):
        xi_general(chart.d_coord("y").scale(chart.sym("eps")), [])


def test_verify_rejects_an_empty_point_list():
    chart = weyl_chart(2, 1)
    pair = xi_q(q_position(chart, 1, [chart.parse("x1"), chart.parse("x2^2")]))
    with pytest.raises(ValueError):
        pair.verify([])


# -- the defining system over a batch of points ----------------------------------

BATCH_CHARTS = {
    "curved_full_3_3": lambda: full_chart(3, 3, density=ex.parse("1 + x1^2/2 + x2*x3/4")),
    "full_3_2": lambda: full_chart(3, 2),
    "maxwell_3": lambda: maxwell_chart(3),
    "curved_weyl_2_1": lambda: weyl_chart(2, 1, density=ex.parse("1 + x1^2/2")),
}


def per_point_system(chart, da, env):
    """Reference for ``_defining_system``: the system at one point, entry by
    entry over the Omega columns with a scalar env."""
    columns = [chart.contract_omega_with(c) for c in range(chart.dim)]
    keys = sorted(set(da.coeffs) | {k for col in columns for k in col.coeffs})
    A, b = np.zeros((len(keys), chart.dim)), np.zeros(len(keys))
    for r, key in enumerate(keys):
        for c, col in enumerate(columns):
            if key in col.coeffs:
                A[r, c] = float(col.coeffs[key].evaluate(env))
        if key in da.coeffs:
            b[r] = float(da.coeffs[key].evaluate(env))
    return A, b


def eps_form(chart, rng):
    """A random configuration (n-1)-form plus c eps dx_1 ^ .. ^ dx_{n-2} ^ dy:
    d(eps) ^ dx ^ dy is in no Omega column, so the form is not bracketable."""
    block = chart.d_coord(chart.fiber_names[0])
    for name in reversed(chart.base_names[:chart.n - 2]):
        block = chart.d_coord(name).wedge(block)
    return random_q_form(chart, rng) + block.scale(chart.sym("eps") * float(rng.uniform(0.5, 2)))


@pytest.mark.parametrize("name", sorted(BATCH_CHARTS))
def test_batched_defining_system_equals_the_per_point_loop(name):
    chart = BATCH_CHARTS[name]()
    rng = np.random.default_rng(60)
    pts = probes(chart, rng, 8)
    for form in [random_q_form(chart, rng) for _ in range(3)] + [eps_form(chart, rng)]:
        da = exterior_derivative(form)
        A, b = brackets._defining_system(chart, da, pts)
        assert A.shape[::2] == (len(pts), chart.dim) and b.shape == A.shape[:2]
        for p, env in enumerate(pts):
            A_ref, b_ref = per_point_system(chart, da, env)
            assert np.array_equal(A[p], A_ref) and np.array_equal(b[p], b_ref)


def residual_close(got, oracle):
    """The split solve and the oracle's full ``lstsq`` are two
    factorizations, which round differently: residuals agree to a relative
    1e-12, not bit for bit."""
    return abs(got - oracle) <= 1e-12 * max(1.0, oracle)


@pytest.mark.parametrize("name", sorted(BATCH_CHARTS))
def test_xi_general_decision_matches_per_point_lstsq(name):
    chart = BATCH_CHARTS[name]()
    rng = np.random.default_rng(61)
    pts = probes(chart, rng, 8)
    decisions = []
    for form in [random_q_form(chart, rng) for _ in range(2)] + [eps_form(chart, rng)]:
        da = exterior_derivative(form)
        worst, rank = 0.0, chart.dim
        for env in pts:
            A, b = per_point_system(chart, da, env)
            sol, _, r, _ = np.linalg.lstsq(A, -b, rcond=None)
            worst, rank = max(worst, float(np.max(np.abs(A @ sol + b)))), min(rank, r)
        try:
            got = xi_general(form, pts)
        except NotBracketable as refusal:
            assert worst > 1e-9
            assert residual_close(refusal.residual, worst)
            decisions.append("rejected")
            continue
        assert worst <= 1e-9
        assert residual_close(got.residual, worst)
        assert got.rank_deficient == (rank < chart.dim)
        decisions.append("accepted")
    assert decisions[-1] == "rejected"


def test_a_zero_denominator_anywhere_in_the_batch_raises():
    chart = full_chart(3, 2)
    rng = np.random.default_rng(62)
    pts = probes(chart, rng, 8)
    form = chart.omega_alpha(3).scale(chart.parse("y1/x1"))
    xi_general(form, pts)
    pts[5]["x1"] = 0.0
    with pytest.raises(ex.EvalDomainError):
        brackets._defining_system(chart, exterior_derivative(form), [pts[5]])
    with pytest.raises(ex.EvalDomainError):
        xi_general(form, pts)
    with pytest.raises(ex.EvalDomainError):
        xi_q(form).verify(pts)


@pytest.mark.parametrize("count", [8, 32])
def test_one_defining_system_per_point_batch(monkeypatch, count):
    chart = full_chart(3, 2)
    rng = np.random.default_rng(63)
    pts = probes(chart, rng, count)
    form = random_q_form(chart, rng)
    calls = []
    system = brackets._defining_system

    def counted(*args):
        calls.append(len(args[2]))
        return system(*args)

    monkeypatch.setattr(brackets, "_defining_system", counted)
    xi_general(form, pts)
    assert calls == [count]
    xi_q(form).verify(pts)
    assert calls == [count, count]


def test_xi_general_matches_closed_form_pointwise():
    chart = weyl_chart(2, 1)
    rng = np.random.default_rng(2)
    pts = probes(chart, rng, 5)
    q = q_position(chart, 1, [chart.parse("x2"), chart.parse("x1*x2")])
    pair = xi_q(q)
    solved = xi_general(q, pts)
    for env in pts:
        comps, _ = solved.solve_at(env)
        for i, c in pair.xi.at(env).items():
            assert comps.get(i, 0.0) == pytest.approx(c, abs=1e-9)


XI_P_CHARTS = {
    "full_2_1": lambda: full_chart(2, 1),
    "full_3_2": lambda: full_chart(3, 2),
    "curved_full_2_2": lambda: full_chart(2, 2, density=ex.parse("1 + x1^2/2")),
    "curved_full_3_3": lambda: full_chart(3, 3, density=ex.parse("1 + x1^2/2 + x2*x3/4")),
    "weyl_2_1": lambda: weyl_chart(2, 1),
    "maxwell_3": lambda: maxwell_chart(3),
}


def cartan_xi_p_field(xi_config):
    """The field of xi_p solved from the Cartan right-hand side
    -(d(xi . theta) + xi . Omega)."""
    chart = xi_config.chart
    rhs = -(exterior_derivative(contract(xi_config, chart.theta()))
            + contract(xi_config, chart.multisymplectic_form()))
    return xi_config + theta_basis_solve(chart, rhs)


@pytest.mark.parametrize("name", sorted(XI_P_CHARTS))
def test_xi_p_field_equals_the_cartan_solve_exactly(name):
    chart = XI_P_CHARTS[name]()
    rng = np.random.default_rng(sorted(XI_P_CHARTS).index(name) + 90)
    # a base-dependent shift of the fibers is bracketable on every chart
    shift = VectorField(chart, {chart.index(nm): config_poly(chart, rng, chart.base_names)
                                for nm in chart.fiber_names})
    solved = 0
    for xi_config in [shift] + [random_config_field(chart, rng) for _ in range(3)]:
        try:
            want = cartan_xi_p_field(xi_config)
        except NotBracketable as e:
            with pytest.raises(NotBracketable) as got:
                xi_p(xi_config)
            assert sorted(got.value.stray) == sorted(e.stray)
            continue
        got = xi_p(xi_config).xi
        assert set(got.components) == set(want.components)
        for i, c in want.components.items():
            assert (got.component(i) - c).is_zero(), (name, chart.names[i])
        solved += 1
    assert solved >= 1


# -- the compiled Omega columns and the split solve -------------------------------

def column_coeffs(chart):
    return [coeff for c in range(chart.dim)
            for coeff in chart.contract_omega_with(c).coeffs.values()]


def program_values(program, env):
    vals = program.run(env)
    return [vals[i] for i in program.outputs]


@pytest.mark.parametrize("name", sorted(set(BATCH_CHARTS) | set(XI_P_CHARTS)))
def test_the_column_program_equals_the_tree_walk(name):
    chart = {**BATCH_CHARTS, **XI_P_CHARTS}[name]()
    env = brackets._batch_env(probes(chart, np.random.default_rng(64), 8))
    program = brackets._columns(chart).program
    coeffs = column_coeffs(chart)
    assert len(program.outputs) == len(coeffs)
    assert len(program.results) <= len({id(c) for c in coeffs})
    for coeff, got in zip(coeffs, program_values(program, env)):
        assert np.array_equal(np.broadcast_to(got, 8), np.broadcast_to(coeff.evaluate(env), 8))


def test_the_column_program_raises_as_the_tree_walk_does():
    # d/dx1 of the density puts (x1 + 2) in a denominator of the Omega columns
    chart = weyl_chart(2, 1, density=ex.parse("1 + 1/(x1 + 2)"))
    program = brackets._columns(chart).program
    coeffs = column_coeffs(chart)
    pts = probes(chart, np.random.default_rng(65), 8)
    pts[3]["x1"] = -2.0
    env = brackets._batch_env(pts)
    with pytest.raises(ex.EvalDomainError):
        program.run(env)
    with pytest.raises(ex.EvalDomainError):
        [coeff.evaluate(env) for coeff in coeffs]
    with pytest.raises(ex.EvalDomainError):
        xi_general(random_q_form(chart, np.random.default_rng(65)), pts)
    del env["x1"]
    with pytest.raises(ex.UnboundSymbolError):
        program.run(env)
    with pytest.raises(ex.UnboundSymbolError):
        [coeff.evaluate(env) for coeff in coeffs]


def test_structurally_equal_subtrees_share_one_step():
    x, y = ex.Sym("x"), ex.Sym("y")
    program = ex.Program([x * y + ex.Const(2.0), ex.Sym("x") * ex.Sym("y"), x * y - x / y,
                          x ** 2 - x ** 3, x * y])
    # x, y, x*y, 2, x*y + 2, x/y, -(x/y), x*y - x/y, x^2, x^3, -(x^3), x^2 - x^3
    assert len(program.steps) == 12 and program.outputs == [0, 1, 2, 3, 1]
    assert program_values(program, {"x": 3.0, "y": 2.0}) == [8.0, 6.0, 4.5, -18.0, 6.0]


@pytest.mark.parametrize("name", sorted(BATCH_CHARTS))
def test_split_solve_matches_the_full_lstsq_oracle(name):
    chart = BATCH_CHARTS[name]()
    for seed in range(61, 71):
        rng = np.random.default_rng(seed)
        pts = probes(chart, rng, 8)
        for form in [random_q_form(chart, rng) for _ in range(2)] + [eps_form(chart, rng)]:
            da = exterior_derivative(form)
            sols, residuals, ranks = brackets._lstsq_xi(chart, da, pts)
            oracle = []
            for env in pts:
                A, b = per_point_system(chart, da, env)
                sol, _, rank, _ = np.linalg.lstsq(A, -b, rcond=None)
                oracle.append((sol, float(np.max(np.abs(A @ sol + b))), rank))
            assert list(ranks) == [rank for _, _, rank in oracle]
            for got, sol, (want, worst, rank) in zip(residuals, sols, oracle):
                assert residual_close(got, worst)
                # a full-rank least-squares solution is unique, accepted or not
                assert rank < chart.dim or np.allclose(sol, want, rtol=0.0, atol=1e-9)
            worst = max(w for _, w, _ in oracle)
            try:
                solved = xi_general(form, pts)
            except NotBracketable:
                assert worst > 1e-9
                continue
            assert worst <= 1e-9
            if solved.rank_deficient:
                continue
            for env, (sol, _, _) in zip(pts, oracle):
                comps, _ = solved.solve_at(env)
                assert np.allclose([comps.get(i, 0.0) for i in range(chart.dim)], sol,
                                   rtol=0.0, atol=1e-9)


def test_split_solve_keeps_the_rows_of_a_vanishing_momentum_column():
    # the density x1 vanishes where x1 = 0, and every momentum column with it
    chart = weyl_chart(2, 1, density=ex.parse("x1"))
    rng = np.random.default_rng(66)
    pts = probes(chart, rng, 8)
    for p in (2, 5):
        pts[p]["x1"] = 0.0
    for form in [random_q_form(chart, rng) for _ in range(3)]:
        da = exterior_derivative(form)
        _, residuals, ranks = brackets._lstsq_xi(chart, da, pts)
        for p, env in enumerate(pts):
            A, b = per_point_system(chart, da, env)
            sol, _, rank, _ = np.linalg.lstsq(A, -b, rcond=None)
            assert ranks[p] == rank and (rank < chart.dim) == (p in (2, 5))
            assert residual_close(residuals[p], float(np.max(np.abs(A @ sol + b))))


def test_xi_general_walks_no_omega_column(monkeypatch):
    chart = BATCH_CHARTS["curved_full_3_3"]()
    rng = np.random.default_rng(67)
    form, pts = random_q_form(chart, rng), probes(chart, rng, 8)
    inner = (ex.Add, ex.Mul, ex.Div, ex.Pow, ex.Neg, ex.Call)
    column_nodes, stack = set(), column_coeffs(chart)
    while stack:
        node = stack.pop()
        if isinstance(node, inner) and id(node) not in column_nodes:
            column_nodes.add(id(node))
            stack.extend(getattr(node, slot) for slot in ("a", "b", "base") if hasattr(node, slot))
    walked = []
    for cls in inner:
        def counted(self, env, _evaluate=cls.evaluate):
            walked.append(id(self))
            return _evaluate(self, env)
        monkeypatch.setattr(cls, "evaluate", counted)
    xi_general(form, pts)
    assert walked, "the coefficients of da are walked"
    assert column_nodes and not column_nodes & set(walked)


def test_the_block_structure_is_logged_once_per_chart(caplog):
    chart = maxwell_chart(3)
    rng = np.random.default_rng(68)
    pts = probes(chart, rng, 4)
    with caplog.at_level(logging.DEBUG, logger="polyfield.brackets.system"):
        for _ in range(2):
            with contextlib.suppress(NotBracketable):
                xi_general(random_q_form(chart, rng), pts)
    logged = [r.getMessage() for r in caplog.records if r.name == "polyfield.brackets.system"]
    assert logged == [
        f"defining system of {chart!r}: configuration columns ['x1', 'x2', 'x3', 'A1', 'A2', "
        "'A3'], rows per momentum {'eps': 1, 'pA1_2': 2, 'pA1_3': 2, 'pA2_3': 2}, "
        "21 configuration-only rows"]


def test_xi_p_scalar_field_display_on_curved_chart():
    # Xi(P_{i,f}) = f d/dy - (df/dx^a) p^a d/deps, density included
    g = ex.parse("1 + x1^2/2")
    chart = weyl_chart(2, 1, density=g)
    f = chart.parse("x1*x2 + 1")
    xi_cfg = VectorField(chart, {chart.index("y"): f})
    rng = np.random.default_rng(3)
    pts = probes(chart, rng)
    pair = verified(xi_p(xi_cfg), pts)
    expected = VectorField(chart, {
        chart.index("y"): f,
        chart.index("eps"): -(f.diff("x1") * chart.sym("p1") + f.diff("x2") * chart.sym("p2")),
    })
    assert forms_equal(pair.xi, expected, pts, 1e-12)


def test_xi_p_constant_fiber_direction_is_itself():
    chart = full_chart(2, 2)
    xi_cfg = VectorField(chart, {chart.index("y2"): ex.ONE})
    pair = verified(xi_p(xi_cfg), probes(chart, np.random.default_rng(4)))
    assert set(pair.xi.components) == {chart.index("y2")}


def test_xi_p_base_rotation_picks_up_pi_correction():
    chart = full_chart(2, 1)
    xi_cfg = VectorField(chart, {chart.index("x2"): chart.sym("x1")})
    rng = np.random.default_rng(5)
    pts = probes(chart, rng)
    pair = verified(xi_p(xi_cfg), pts)
    correction = pi_field(chart, "x1", "x2")  # d xi^{x2}/d x1 = 1
    expected = xi_cfg - correction
    assert forms_equal(pair.xi, expected, pts, 1e-10)


def test_pi_field_defining_relation():
    chart = full_chart(2, 2)
    rng = np.random.default_rng(6)
    pts = probes(chart, rng, 10)
    omega = chart.multisymplectic_form()
    for nu in ("x1", "y1"):
        for mu in ("x2", "y2"):
            lhs = chart.d_coord(nu).wedge(contract(chart.coordinate_field(mu), chart.theta()))
            pi = pi_field(chart, nu, mu)
            rhs = contract(pi, omega)
            assert forms_equal(lhs, rhs, pts, 1e-10)


# -- bracket tables ------------------------------------------------------------

def test_position_position_bracket_vanishes():
    chart = weyl_chart(2, 1)
    rng = np.random.default_rng(7)
    a = xi_q(q_position(chart, 1, [chart.parse("x1"), chart.parse("x2")]))
    b = xi_q(q_position(chart, 1, [chart.parse("sin(x2)"), ex.ONE]))
    br = internal_bracket(a, b)
    assert forms_equal(br, Form(chart, 1, {}), probes(chart, rng), 1e-12)


def test_momentum_position_bracket_reproduces_pairing_row():
    # {P_{i,g}, Q^{j,f}} = delta^j_i g sum f^a omega_a
    g_density = ex.parse("1 + x2^2/3")
    chart = weyl_chart(2, 2, density=g_density)
    rng = np.random.default_rng(8)
    pts = probes(chart, rng)
    gfun = chart.parse("x1 + 2")
    f = [chart.parse("x2"), chart.parse("x1*x2")]
    for i in (1, 2):
        p_pair = verified(xi_p(VectorField(chart, {chart.index(f"y{i}"): gfun})), pts)
        for j in (1, 2):
            q_pair = verified(xi_q(q_position(chart, j, f)), pts)
            br = internal_bracket(p_pair, q_pair)
            if i != j:
                assert forms_equal(br, Form(chart, 1, {}), pts, 1e-10)
            else:
                want = contract(VectorField(chart, {0: f[0], 1: f[1]}),
                                chart.volume_form()).scale(gfun)
                assert forms_equal(br, want, pts, 1e-10)


def test_momentum_momentum_bracket_exact_term():
    # {P_{i,g}, P_{j,g'}} = d(g g' d_j . d_i . theta)
    chart = full_chart(2, 2)
    rng = np.random.default_rng(9)
    pts = probes(chart, rng)
    g1, g2 = chart.parse("x1"), chart.parse("x2^2 + 1")
    pa = verified(xi_p(VectorField(chart, {chart.index("y1"): g1})), pts)
    pb = verified(xi_p(VectorField(chart, {chart.index("y2"): g2})), pts)
    br = internal_bracket(pa, pb)
    inner = contract(chart.coordinate_field("y2"),
                     contract(chart.coordinate_field("y1"), chart.theta()))
    want = exterior_derivative(inner.scale(g1 * g2))
    assert forms_equal(br, want, pts, 1e-10)


def test_general_momentum_bracket_row():
    # {P_xi, P_eta} = P_[xi, eta] + d(eta . xi . theta)
    chart = full_chart(2, 1)
    rng = np.random.default_rng(10)
    pts = probes(chart, rng)
    for _ in range(5):
        xi_cfg = random_config_field(chart, rng)
        eta_cfg = random_config_field(chart, rng)
        pa, pb = verified(xi_p(xi_cfg), pts), verified(xi_p(eta_cfg), pts)
        br = internal_bracket(pa, pb)
        want = contract(xi_cfg.lie_bracket(eta_cfg), chart.theta()) + exterior_derivative(
            contract(eta_cfg, contract(xi_cfg, chart.theta())))
        assert forms_equal(br, want, pts, 1e-8)


def test_internal_bracket_antisymmetry():
    chart = full_chart(2, 1)
    rng = np.random.default_rng(11)
    pts = probes(chart, rng, 10)
    a = xi_p(random_config_field(chart, rng))
    b = xi_q(random_q_form(chart, rng))
    assert forms_equal(internal_bracket(a, b), -internal_bracket(b, a), pts, 1e-10)


def test_external_bracket_with_canonical_form_is_differential():
    # {theta, a} = da for any bracketable a
    chart = weyl_chart(2, 1)
    rng = np.random.default_rng(12)
    pts = probes(chart, rng)
    for pair in (xi_q(random_q_form(chart, rng)),
                 xi_p(random_config_field(chart, rng))):
        br = external_bracket(chart.theta(), pair)
        assert forms_equal(br, exterior_derivative(pair.form), pts, 1e-9)


def test_external_bracket_coordinate_rows():
    # {P_{i,g}, q^mu} = g delta^mu_i and {Q^{i,f}, q^mu} = 0
    chart = weyl_chart(2, 2)
    rng = np.random.default_rng(13)
    pts = probes(chart, rng)
    gfun = chart.parse("x1^2 + 1")
    p_pair = xi_p(VectorField(chart, {chart.index("y1"): gfun}))
    q_pair = xi_q(q_position(chart, 1, [ex.ONE, chart.parse("x1")]))
    for mu in ("x1", "x2", "y1", "y2"):
        coord = chart.zero_form(chart.sym(mu))
        got = -external_bracket(coord, p_pair)  # {P, q} = -{q, P}
        want = chart.zero_form(gfun if mu == "y1" else 0.0)
        assert forms_equal(got, want, pts, 1e-12)
        got_q = -external_bracket(coord, q_pair)
        assert forms_equal(got_q, chart.zero_form(0.0), pts, 1e-12)
    # {P_{i,g}, q^mu dq^nu} = g (delta^mu_i dq^nu - delta^nu_i dq^mu)
    mu, nu = "y1", "x2"
    a = chart.d_coord(nu).scale(chart.sym(mu))
    got = -external_bracket(a, p_pair)
    want = chart.d_coord(nu).scale(gfun)
    assert forms_equal(got, want, pts, 1e-12)


# -- Lie structure ---------------------------------------------------------------

@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_bracket_differential_is_commutator_contraction(n, k):
    # d{a,b} = -[Xi(a), Xi(b)] . Omega on random observable pairs
    chart = full_chart(n, k)
    rng = np.random.default_rng(100 + n * 10 + k)
    pts = probes(chart, rng, 30)
    omega = chart.multisymplectic_form()
    for _ in range(3):
        a = xi_q(random_q_form(chart, rng))
        b = xi_p(random_config_field(chart, rng))
        br = internal_bracket(a, b)
        lhs = exterior_derivative(br)
        rhs = -contract(a.xi.lie_bracket(b.xi), omega)
        assert forms_equal(lhs, rhs, pts, 1e-9)
        # the bracket is itself bracketable with field [Xi(a), Xi(b)]
        pair = HamiltonianPair(br, a.xi.lie_bracket(b.xi))
        assert pair.verify(pts, tol=1e-9) <= 1e-9


def test_jacobi_defect_is_exact_term():
    chart = full_chart(2, 1)
    rng = np.random.default_rng(14)
    pts = probes(chart, rng, 30)
    omega = chart.multisymplectic_form()
    a = xi_q(random_q_form(chart, rng))
    b = xi_p(random_config_field(chart, rng))
    c = xi_p(random_config_field(chart, rng))
    def external(inner_form, outer_pair):
        return -contract(outer_pair.xi, exterior_derivative(inner_form))
    lhs = external(internal_bracket(a, b), c) \
        + external(internal_bracket(b, c), a) \
        + external(internal_bracket(c, a), b)
    rhs = exterior_derivative(
        contract(c.xi, contract(b.xi, contract(a.xi, omega))))
    assert forms_equal(lhs, rhs, pts, 1e-9)


def test_momentum_field_preserves_canonical_form():
    # L_{Xi(P_xi)} theta = 0
    chart = full_chart(2, 2)
    rng = np.random.default_rng(15)
    pts = probes(chart, rng, 20)
    for _ in range(3):
        pair = xi_p(random_config_field(chart, rng))
        lie = lie_derivative(pair.xi, chart.theta())
        assert max(lie.max_abs_at(env) for env in pts) <= 1e-9


def test_hamiltonian_fields_are_symmetries_of_omega():
    chart = full_chart(2, 1)
    rng = np.random.default_rng(16)
    pts = probes(chart, rng, 20)
    omega = chart.multisymplectic_form()
    for pair in (xi_q(random_q_form(chart, rng)), xi_p(random_config_field(chart, rng))):
        lie = lie_derivative(pair.xi, omega)
        assert max(lie.max_abs_at(env) for env in pts) <= 1e-9


# -- Grassmann layer -----------------------------------------------------------------

def test_superize_fiber_scalar_components():
    chart = weyl_chart(2, 1)
    sf = superize(chart.zero_form(chart.sym("y")))
    assert set(sf.parts) == {(1,), (2,)}
    # tau_1 block is y dx1 with field +d/dp2, tau_2 block y dx2 with -d/dp1
    assert set(sf.xi[(1,)].components) == {chart.index("p2")}
    assert sf.xi[(1,)].component(chart.index("p2")).evaluate({}) == pytest.approx(1.0)
    assert sf.xi[(2,)].component(chart.index("p1")).evaluate({}) == pytest.approx(-1.0)


def test_superize_full_degree_is_identity():
    chart = weyl_chart(2, 1)
    a = random_q_form(chart, np.random.default_rng(17))
    sf = superize(a)
    assert set(sf.parts) == {()}
    assert (sf.parts[()] - a).is_zero()
    # a pair is taken as the tau-free block only
    with pytest.raises(ValueError):
        superize(HamiltonianPair(chart.zero_form(chart.sym("y")), VectorField(chart, {})))


def test_super_scalar_round_trip():
    chart = weyl_chart(3, 1)
    sf = super_scalar(chart, 2.5)
    back = scalar_of_super(sf)
    assert float(back.evaluate(chart.point())) == pytest.approx(2.5)


def test_scalar_of_super_rejects_disagreeing_blocks():
    chart = weyl_chart(3, 1)
    sf = super_scalar(chart, 2.5)
    for S in sf.parts:
        parts = dict(sf.parts)
        parts[S] = parts[S].scale(7.0)
        with pytest.raises(BracketError, match="ratios disagree"):
            scalar_of_super(SuperForm(chart, parts))


def test_sbracket_momentum_with_super_position():
    # {P_i, ^s y^j}_s = ^s(delta^j_i)
    chart = weyl_chart(2, 2)
    rng = np.random.default_rng(18)
    pts = probes(chart, rng)
    for i in (1, 2):
        p_pair = xi_p(VectorField(chart, {chart.index(f"y{i}"): ex.ONE}))
        P = superize(p_pair)
        for j in (1, 2):
            Y = superize(chart.zero_form(chart.sym(f"y{j}")))
            br = sbracket(P, Y)
            want = super_scalar(chart, 1.0 if i == j else 0.0)
            assert max((br - want).max_abs_at(env) for env in pts) <= 1e-12


def test_sbracket_graded_antisymmetry():
    # on the full chart, against a momentum form so that the brackets do not vanish
    chart = full_chart(3, 2)
    rng = np.random.default_rng(19)
    pts = probes(chart, rng, 10)
    p_pair = xi_p(VectorField(chart, {chart.index("y1"): chart.parse("x1 + 2")}))
    A = superize(p_pair)
    for B in (superize(chart.zero_form(chart.sym("y1"))),
              superize(chart.d_coord("y2").scale(chart.sym("y1")))):
        ab = sbracket(A, B)
        ba = sbracket(B, A)
        sign = (-1.0) ** (A.tau_degree() * B.tau_degree() + 1)
        assert max(ab.max_abs_at(env) for env in pts) > 0.5
        assert max((ab - ba.scale(sign)).max_abs_at(env) for env in pts) <= 1e-12
    # the Weyl chart has no two-fiber momentum to pair with d(dx1 ^ y1 dy2)
    weyl = weyl_chart(3, 2)
    with pytest.raises(NotBracketable, match=r"x1\^y1\^y2") as refusal:
        superize(weyl.d_coord("y2").scale(weyl.sym("y1")))
    assert "x1^y1^y2" in refusal.value.stray
    assert refusal.value.residual is None  # the exact solve evaluates nothing


def test_sbracket_lower_degree_pairs_vanish_without_constraints():
    # q-forms of degree < n-1 have vanishing sbrackets on the unconstrained chart
    chart = full_chart(3, 2)
    rng = np.random.default_rng(20)
    pts = probes(chart, rng, 10)
    a = superize(chart.zero_form(chart.sym("y1")))
    b = superize(chart.d_coord("y1").scale(chart.sym("y2")))
    for A, B in ((a, a), (a, b), (b, b)):
        br = sbracket(A, B)
        assert max(br.max_abs_at(env) for env in pts) <= 1e-12


def test_sbracket_top_with_lower_reduction_identity():
    # {^sa, ^sb}_s + ^s(db) * Xi(a)(tau) - ^s{a, b} = 0 for bracketable a
    chart = full_chart(2, 2)
    rng = np.random.default_rng(21)
    pts = probes(chart, rng, 20)
    for _ in range(3):
        a_pair = xi_p(random_config_field(chart, rng))
        b = chart.zero_form(config_poly(chart, rng))
        A = superize(a_pair)
        B = superize(b)
        lhs = sbracket(A, B)
        tau_term = superize(exterior_derivative(b), with_xi=False).mul_tau_right(
            xi_tau_scalar(A))
        ext = contract(a_pair.xi, exterior_derivative(b))  # {a, b} external
        rhs = superize(ext, with_xi=False) - tau_term
        assert max((lhs - rhs).max_abs_at(env) for env in pts) <= 1e-9


# -- admissibility and the n-form bracket ------------------------------------------

def test_fiber_scalars_and_their_wedges_are_admissible():
    chart = full_chart(2, 2)
    assert is_admissible(chart.zero_form(chart.sym("y1")))
    assert is_admissible(chart.d_coord("y2").scale(chart.sym("y1")))


def test_base_momentum_form_is_not_admissible():
    # a form whose field has a base direction: d/dx^1 . theta
    chart = weyl_chart(2, 1)
    pair = xi_p(VectorField(chart, {0: ex.ONE}))
    assert not is_admissible(pair)


def test_fiber_momentum_pair_is_admissible_even_curved():
    g = ex.parse("1 + x1^2/2")
    chart = weyl_chart(2, 1, density=g)
    pair = xi_p(VectorField(chart, {chart.index("y"): chart.parse("x1*x2")}))
    assert is_admissible(pair)


def test_h_bracket_of_fiber_scalar_gives_momentum_gradient():
    # {H omega, y^i} = sum_a dH/dp^a_i dx^a
    chart = weyl_chart(2, 1)
    rng = np.random.default_rng(25)
    pts = probes(chart, rng)
    H = chart.parse("eps + p1^2/2 - p2^2/2 + y^2/2 + x1*p1/5")
    br = h_omega_bracket(H, chart.zero_form(chart.sym("y")))
    want = chart.d_coord("x1").scale(H.diff("p1")) + chart.d_coord("x2").scale(H.diff("p2"))
    assert forms_equal(br, want, pts, 1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_h_bracket_of_fiber_one_form_gives_double_momentum_gradient(n):
    # {H omega, y^i dy^j} = sum_{a<b} dH/dp^{ab}_{ij} dx^a ^ dx^b
    chart = full_chart(n, 2)
    rng = np.random.default_rng(26 + n)
    pts = probes(chart, rng)
    H = chart.zero_form(config_poly(chart, rng)).get(())
    for mc in chart.momenta:
        H = H + float(rng.uniform(-1, 1)) * ex.Sym(mc.name) * ex.Sym(mc.name) \
            + float(rng.uniform(-1, 1)) * ex.Sym(mc.name)
    a = chart.d_coord("y2").scale(chart.sym("y1"))
    br = h_omega_bracket(H, a)
    want = Form(chart, 2, {})
    for alpha in range(1, n + 1):
        for beta in range(alpha + 1, n + 1):
            seq = list(range(n))
            seq[alpha - 1] = n       # fiber y1
            seq[beta - 1] = n + 1    # fiber y2
            coord, sign = chart.resolve_qtuple(tuple(seq))
            dp = ex.Sym(chart.names[coord]) * sign
            want = want + chart.d_coord(f"x{alpha}").wedge(
                chart.d_coord(f"x{beta}")).scale(H.diff(chart.names[coord]) * sign)
    assert forms_equal(br, want, pts, 1e-9)


@pytest.mark.parametrize("given", ["pair", "configuration form"])
def test_h_bracket_matches_differential_bracket_for_top_degree(given):
    # for (n-1)-forms the psi-bracket is -Xi(a) . d(H omega), whether a comes
    # as a ready pair or as a bare form whose field is solved on the way
    chart = weyl_chart(2, 1)
    rng = np.random.default_rng(28)
    pts = probes(chart, rng)
    H = chart.parse("eps + p1^2/2 - p2^2/2 + y^4/4")
    if given == "configuration form":
        a = q_position(chart, 1, [chart.parse("x2"), chart.parse("x1^2")])
        pair = xi_q(a)
        br = h_omega_bracket(H, a)
    else:
        pair = xi_p(VectorField(chart, {chart.index("y"): chart.parse("x2")}))
        br = h_omega_bracket(H, pair)
    want = -contract(pair.xi, exterior_derivative(chart.volume_form().scale(H)))
    assert not want.is_zero()
    assert forms_equal(br, want, pts, 1e-12)


# -- Noether identity ---------------------------------------------------------------

def test_noether_identity_random_fields():
    for chart in (full_chart(2, 1), weyl_chart(2, 1, density=ex.parse("1 + x1^2/2"))):
        rng = np.random.default_rng(29)
        pts = probes(chart, rng, 20)
        H = chart.zero_form(config_poly(chart, rng)).get(()) + chart.sym("eps")
        for mc in chart.momenta[1:]:
            H = H + float(rng.uniform(-1, 1)) * ex.Sym(mc.name) * ex.Sym(mc.name)
        xi_cfg = VectorField(chart, {chart.index("y"): chart.parse("x1 + x2^2")})
        lhs, rhs = noether_sides(H, xi_cfg)
        assert forms_equal(lhs, rhs, pts, 1e-9)


def test_noether_zero_field_trivial():
    chart = weyl_chart(2, 1)
    lhs, rhs = noether_sides(chart.parse("eps + p1^2/2"), VectorField(chart, {}))
    assert lhs.is_zero() and rhs.is_zero()


def test_noether_symmetry_reduces_to_exact_term():
    # fiber translation with a fiber-independent H: the Lie term vanishes
    chart = weyl_chart(2, 1)
    rng = np.random.default_rng(30)
    pts = probes(chart, rng, 20)
    H = chart.parse("eps + p1^2/2 - p2^2/2")
    xi_cfg = VectorField(chart, {chart.index("y"): ex.ONE})
    lhs, _ = noether_sides(H, xi_cfg)
    psi = chart.volume_form().scale(H)
    exact = exterior_derivative(contract(xi_cfg, psi))
    assert forms_equal(lhs, exact, pts, 1e-10)
    pair = xi_p(xi_cfg)
    lie = lie_derivative(pair.xi, chart.theta() - psi)
    assert max(lie.max_abs_at(env) for env in pts) <= 1e-10


# -- Hamilton-system reformulation ---------------------------------------------------

def test_normalized_frame_identity_links_the_two_hamilton_forms():
    # X . d(H omega) = (-1)^n (dH - sum dH(X_a) dx^a) for any decomposable
    # frame with dx^b(X_a) = delta^b_a; hence the contraction reformulation
    # X . (Omega - d(H omega)) = 0 mirrors the mod-base-ideal equation.
    for n, k in ((2, 1), (3, 1)):
        chart = full_chart(n, k)
        rng = np.random.default_rng(31 + n)
        pts = probes(chart, rng, 10)
        H = chart.sym("eps") + chart.zero_form(config_poly(chart, rng)).get(())
        for mc in chart.momenta[1:]:
            H = H + float(rng.uniform(-1, 1)) * ex.Sym(mc.name) * ex.Sym(mc.name)
        psi = chart.volume_form().scale(H)
        fields = []
        for a in range(n):
            comps = {a: ex.ONE}
            for i in range(n, chart.dim):
                if rng.random() < 0.5:
                    comps[i] = config_poly(chart, rng) if i < n + k else \
                        ex.Const(float(rng.uniform(-1, 1)))
            fields.append(VectorField(chart, comps))
        X = wedge_vectors(fields)
        lhs = contract(X, exterior_derivative(psi))
        dH = exterior_derivative(chart.zero_form(H))
        corr = Form(chart, 1, {})
        for a, f in enumerate(fields):
            corr = corr + chart.d_coord(chart.base_names[a]).scale(
                contract(f, dH).get(()))
        rhs = (dH - corr).scale((-1.0) ** n)
        assert forms_equal(lhs, rhs, pts, 1e-9)
        # equivalence of the two residual notions
        r16 = contract(X, chart.multisymplectic_form() - exterior_derivative(psi))
        r14 = contract(X, chart.multisymplectic_form()).scale((-1.0) ** n) - dH
        # r16 equals (-1)^n (r14 + base correction); the non-base components agree
        for env in pts:
            vals16 = r16.at(env)
            vals14 = r14.at(env)
            for i in range(n, chart.dim):
                assert vals16.get((i,), 0.0) == pytest.approx(
                    (-1.0) ** n * vals14.get((i,), 0.0), abs=1e-9)
