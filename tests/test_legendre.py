import logging
import math

import numpy as np
import pytest

from polyfield import expr as ex
from polyfield import legendre
from polyfield.legendre import (
    ConstraintViolation, EnvelopeHamiltonian, Lagrangian, NoConvergence,
    SingularHessian, SolveReport, generating_w, hamiltonian_tensor, legendre_solve,
    pairing, pairing_d2v, pairing_dv, stress_energy, w_gradient, weyl_legendre,
)
from polyfield.phase import embed_point, full_chart, maxwell_chart, restrict_weyl, weyl_chart

from test_exterior import eval_on_vectors


def kg_lagrangian(chart, mass=1.0):
    # flat Minkowski scalar field: L = v1^2/2 - v2^2/2 - m^2 y^2/2
    return Lagrangian.parse(chart, f"v1^2/2 - v2^2/2 - {mass}^2*y^2/2")


def test_pairing_zero_momenta():
    chart = weyl_chart(2, 2)
    pt = chart.point()
    assert pairing(chart, pt, np.ones((2, 2))) == 0.0


def test_pairing_weyl_sector():
    chart = weyl_chart(2, 1)
    pt = chart.point(eps=1.0, p1=2.0)
    v = np.array([[3.0, 0.0]])
    assert pairing(chart, pt, v) == pytest.approx(7.0)


def test_pairing_full_chart_picks_up_velocity_minor():
    chart = full_chart(2, 2)
    pt = chart.point(p12_12=1.5)
    rng = np.random.default_rng(0)
    v = rng.normal(size=(2, 2))
    det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    assert pairing(chart, pt, v) == pytest.approx(1.5 * det, abs=1e-12)


def test_pairing_matches_canonical_form_evaluation():
    # independent oracle: <p, v> is the canonical n-form evaluated on the
    # frame columns (flat chart)
    chart = full_chart(2, 2)
    rng = np.random.default_rng(4)
    theta = chart.theta()
    for _ in range(10):
        pt = chart.random_point(rng)
        v = rng.normal(size=(2, 2))
        cols = []
        for a in range(2):
            comp = {a: 1.0}
            comp.update({2 + i: v[i, a] for i in range(2)})
            cols.append(comp)
        want = eval_on_vectors(theta, cols, pt)
        assert pairing(chart, pt, v) == pytest.approx(want, abs=1e-10)


def test_pairing_on_full_chart_with_pinned_momenta_is_weyl_pairing():
    full = full_chart(2, 2)
    weyl = restrict_weyl(full)
    rng = np.random.default_rng(8)
    for _ in range(25):
        pt_w = weyl.random_point(rng)
        pt_f = embed_point(weyl, full, pt_w)
        v = rng.normal(size=(2, 2))
        want = pt_w["eps"] + sum(
            pt_w[f"p{a}_{i}"] * v[i - 1, a - 1] for a in (1, 2) for i in (1, 2))
        assert pairing(full, pt_f, v) == pytest.approx(want, abs=1e-12)


def test_generating_w_zero_lagrangian():
    chart = weyl_chart(1, 1)
    L = Lagrangian.parse(chart, "0")
    assert generating_w(L, chart.point(), np.zeros((1, 1))) == 0.0


def test_generating_w_flat_kg():
    chart = weyl_chart(2, 1)
    L = Lagrangian.parse(chart, "v1^2/2 - v2^2/2")
    rng = np.random.default_rng(1)
    for _ in range(10):
        v1, v2, eps = rng.normal(size=3)
        pt = chart.point(eps=eps, p1=v1, p2=-v2)
        got = generating_w(L, pt, np.array([[v1, v2]]))
        assert got == pytest.approx(eps + 0.5 * v1 ** 2 - 0.5 * v2 ** 2, abs=1e-12)
        # and this (q, p) is the critical point of W in v
        assert np.max(np.abs(w_gradient(L, pt, np.array([[v1, v2]])))) <= 1e-12


def test_legendre_solve_quadratic_one_step():
    # p^a = g^{ab} v_b  <=>  v_a = g_{ab} p^b for the flat metric diag(1, -1)
    chart = weyl_chart(2, 1)
    L = kg_lagrangian(chart, mass=0.7)
    rng = np.random.default_rng(2)
    for _ in range(10):
        pt = chart.random_point(rng)
        v, _ = legendre_solve(L, pt)
        assert v[0, 0] == pytest.approx(pt["p1"], abs=1e-10)
        assert v[0, 1] == pytest.approx(-pt["p2"], abs=1e-10)


def test_legendre_solve_quartic_against_grid_search():
    chart = weyl_chart(1, 1)
    L = Lagrangian.parse(chart, "v1^4/4")
    grid = np.linspace(-2.0, 2.0, 100_000)
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = float(rng.uniform(0.5, 7.9))
        pt = chart.point(p1=p)
        v, _ = legendre_solve(L, pt, v0=np.array([[1.0]]))
        # independent oracle: coarse search for the critical point of W
        scores = np.abs(p - grid ** 3)
        v_oracle = grid[int(np.argmin(scores))]
        assert abs(v[0, 0] - v_oracle) <= 1e-4
        assert v[0, 0] == pytest.approx(p ** (1.0 / 3.0), abs=1e-9)


def test_legendre_solve_singular_hessian():
    chart = weyl_chart(1, 1)
    L = Lagrangian.parse(chart, "v1^4/4")
    with pytest.raises(SingularHessian):
        legendre_solve(L, chart.point(p1=1.0))  # zero seed sits on the degenerate locus


def test_legendre_solve_no_convergence():
    chart = weyl_chart(1, 1)
    L = Lagrangian.parse(chart, "v1^4/4")
    with pytest.raises(NoConvergence):
        legendre_solve(L, chart.point(p1=8.0), v0=np.array([[0.05]]), maxiter=2)


def test_weyl_legendre_trivial_lagrangian():
    chart = weyl_chart(2, 1)
    L = Lagrangian.parse(chart, "0")
    out = weyl_legendre(L, chart.point(), np.zeros((1, 2)), w=0.25)
    assert out["p1"] == 0.0 and out["p2"] == 0.0
    assert out["eps"] == pytest.approx(0.25)


def test_weyl_legendre_kg_momenta_signs():
    chart = weyl_chart(2, 1)
    L = kg_lagrangian(chart)
    rng = np.random.default_rng(5)
    for _ in range(10):
        du = rng.normal(size=(1, 2))
        pt = chart.point(y=rng.normal())
        out = weyl_legendre(L, pt, du)
        assert out["p1"] == pytest.approx(du[0, 0], abs=1e-12)   # p^t = phi_t
        assert out["p2"] == pytest.approx(-du[0, 1], abs=1e-12)  # p^x = -phi_x


def test_weyl_then_solve_round_trip():
    chart = weyl_chart(2, 2)
    L = Lagrangian.parse(
        chart, "v1_1^2/2 + v1_2^2/2 + v2_1^2/2 + v2_2^2/2 + y1*v1_1/4 - y2^2/2")
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = rng.normal(size=(2, 2))
        pt = chart.random_point(rng)
        mom = weyl_legendre(L, pt, v, w=float(rng.normal()))
        pt2 = dict(pt)
        pt2.update(mom)
        back, _ = legendre_solve(L, pt2)
        assert np.max(np.abs(back - v)) <= 1e-9


def test_weyl_legendre_h_zero_gauge():
    # choosing w so that H vanishes: eps = L - (dL/dv) v
    chart = weyl_chart(2, 1)
    L = kg_lagrangian(chart)
    rng = np.random.default_rng(7)
    v = rng.normal(size=(1, 2))
    pt = chart.point(y=0.3)
    out = weyl_legendre(L, pt, v, w=0.0)
    dv = L.dv(pt, v)
    assert out["eps"] == pytest.approx(L.value(pt, v) - float(np.sum(dv * v)), abs=1e-12)
    # and then H(q, p) = w = 0 at the corresponding momenta
    pt2 = dict(pt)
    pt2.update(out)
    H = EnvelopeHamiltonian(L)
    assert H.value(pt2) == pytest.approx(0.0, abs=1e-10)


def test_envelope_hamiltonian_matches_closed_form_scalar_field():
    chart = weyl_chart(2, 1)
    L = kg_lagrangian(chart, mass=1.3)
    H = EnvelopeHamiltonian(L)
    closed = chart.parse("eps + p1^2/2 - p2^2/2 + 1.3^2*y^2/2")
    rng = np.random.default_rng(9)
    for _ in range(20):
        pt = chart.random_point(rng)
        assert H.value(pt) == pytest.approx(float(closed.evaluate(pt)), abs=1e-10)


def test_envelope_gradient_against_finite_differences():
    chart = weyl_chart(2, 1)
    L = Lagrangian.parse(chart, "v1^2/2 - v2^2/2 + y*v1/3 - sin(y)")
    H = EnvelopeHamiltonian(L)
    rng = np.random.default_rng(10)
    h = 1e-5
    for _ in range(20):
        pt = chart.random_point(rng)
        for name in chart.names:
            up, dn = dict(pt), dict(pt)
            up[name] += h
            dn[name] -= h
            fd = (H.value(up) - H.value(dn)) / (2 * h)
            an = H.partial(name).value(pt)
            assert abs(an - fd) <= 1e-5 * max(1.0, abs(fd))


def test_envelope_hamiltonian_evaluates_over_a_batch():
    # the velocity cache is keyed by scalar coordinates; the opaque leaf
    # hands the envelope one point at a time
    chart = full_chart(2, 1)
    H = EnvelopeHamiltonian(kg_lagrangian(chart, mass=0.7))
    rng = np.random.default_rng(14)
    pts = [chart.random_point(rng) for _ in range(6)]
    batch = {nm: np.array([pt[nm] for pt in pts]) for nm in chart.names}
    e = H.as_expression() * chart.sym("x1") + H.partial("p1")
    got = e.evaluate(batch)
    assert got.shape == (6,)
    assert np.array_equal(got, [e.evaluate(pt) for pt in pts])


def test_envelope_dh_deps_is_one():
    chart = weyl_chart(2, 2)
    L = Lagrangian.parse(chart, "v1_1^2/2 + v2_2^2/2 + v1_2^2/2 + v2_1^2/2 - y1^4/4")
    H = EnvelopeHamiltonian(L)
    rng = np.random.default_rng(11)
    for _ in range(10):
        pt = chart.random_point(rng)
        assert H.partial("eps").value(pt) == pytest.approx(1.0, abs=1e-12)


def test_hamiltonian_tensor_n1_is_energy():
    chart = weyl_chart(1, 1)
    L = Lagrangian.parse(chart, "v1^2/2 - y^2/2")
    H = EnvelopeHamiltonian(L)
    rng = np.random.default_rng(12)
    for _ in range(10):
        pt = chart.random_point(rng)
        T = hamiltonian_tensor(H, pt)
        v = pt["p1"]  # quadratic Legendre: v = p
        energy = pt["p1"] * v - (v ** 2 / 2 - pt["y"] ** 2 / 2)
        assert T[0, 0] == pytest.approx(energy, abs=1e-9)


def test_hamiltonian_tensor_zero_momenta_pure_potential():
    chart = weyl_chart(2, 1)
    L = Lagrangian.parse(chart, "v1^2/2 - v2^2/2 - y^2/2")
    H = EnvelopeHamiltonian(L)
    pt = chart.point(y=0.8)
    T = hamiltonian_tensor(H, pt)
    want = np.eye(2) * (0.8 ** 2 / 2)
    assert np.allclose(T, want, atol=1e-10)


def test_hamiltonian_tensor_equals_minus_stress_energy():
    chart = weyl_chart(2, 1)
    L = kg_lagrangian(chart, mass=0.9)
    H = EnvelopeHamiltonian(L)
    rng = np.random.default_rng(13)
    for _ in range(20):
        du = rng.normal(size=(1, 2))
        base = {nm: float(rng.normal()) for nm in ("x1", "x2")}
        pt = chart.point(**base, y=float(rng.normal()))
        S = stress_energy(L, pt, du)
        mom = weyl_legendre(L, pt, du, w=float(rng.normal()))
        pt2 = dict(pt)
        pt2.update(mom)
        T = hamiltonian_tensor(H, pt2)
        assert np.allclose(T, -S, atol=1e-9)


def test_stress_energy_constant_field_no_potential():
    chart = weyl_chart(2, 1)
    L = Lagrangian.parse(chart, "v1^2/2 - v2^2/2")
    S = stress_energy(L, chart.point(y=1.0), np.zeros((1, 2)))
    assert np.allclose(S, 0.0)


def test_stress_energy_plane_wave_trace_identity():
    # S^a_a = n L - (dL/dv) v for any jet; checked on a Klein-Gordon plane wave
    chart = weyl_chart(2, 1)
    L = kg_lagrangian(chart, mass=1.0)
    omega, kappa = math.sqrt(2.0), 1.0
    rng = np.random.default_rng(14)
    for _ in range(10):
        t, x = rng.uniform(0, 2 * math.pi, size=2)
        phi = math.cos(omega * t - kappa * x)
        du = np.array([[omega * math.sin(omega * t - kappa * x),
                        -kappa * math.sin(omega * t - kappa * x)]])
        du[0, 0] *= -1.0  # d/dt cos = -omega sin
        du[0, 1] = kappa * math.sin(omega * t - kappa * x)
        pt = chart.point(x1=t, x2=x, y=phi)
        S = stress_energy(L, pt, du)
        lval = L.value(pt, du)
        dv = L.dv(pt, du)
        assert np.trace(S) == pytest.approx(2 * lval - float(np.sum(dv * du)), abs=1e-10)
        # energy density with the mostly-minus metric: -S^t_t = kinetic + potential
        want = 0.5 * du[0, 0] ** 2 + 0.5 * du[0, 1] ** 2 + 0.5 * phi ** 2
        assert -S[0, 0] == pytest.approx(want, abs=1e-10)


def test_maxwell_weyl_legendre_respects_constraint():
    from polyfield.phase import maxwell_chart
    chart = maxwell_chart(2)
    # L = -1/4 F F with F12 = v(A2 along x1) - v(A1 along x2); indices: fiber i, slot a
    L = Lagrangian.parse(chart, "-(v1_2 - v2_1)^2/2 + (v1_2 - v2_1)^2/4")
    rng = np.random.default_rng(15)
    dA = rng.normal(size=(2, 2))
    dA[0, 0] = dA[1, 1] = 0.0
    pt = chart.point()
    out = weyl_legendre(L, pt, dA)
    assert "pA1_2" in out
    # an incompatible-by-construction Lagrangian violates the storage constraint
    bad = Lagrangian.parse(chart, "v2_1^2/2")
    with pytest.raises(ConstraintViolation):
        weyl_legendre(bad, pt, np.array([[0.0, 1.0], [0.0, 0.0]]))


# -- the stacked-minor kernel against the scalar det loops it replaced --------

def _ref_z(chart, v):
    z = np.zeros((chart.n + chart.k, chart.n))
    z[:chart.n, :] = np.eye(chart.n)
    z[chart.n:, :] = v
    return z


def _ref_pairing_z(chart, pt, z):
    total = 0.0
    for I, coord, sign in chart.canonical_momenta():
        pc = pt[chart.names[coord]]
        if pc == 0.0:
            continue
        total += sign * pc * float(np.linalg.det(z[list(I), :]))
    return total


def _ref_replaced(chart, pt, z, replacements):
    zz = z.copy()
    for a, pos in replacements.items():
        zz[:, a - 1] = 0.0
        zz[pos, a - 1] = 1.0
    return _ref_pairing_z(chart, pt, zz)


def _ref_all(chart, pt, v):
    """pairing, dv, d2v and the replaced part of the Hamiltonian tensor, one
    scalar det per minor."""
    k, n = chart.k, chart.n
    z = _ref_z(chart, v)
    dv = np.array([[_ref_replaced(chart, pt, z, {a: n + i - 1}) for a in range(1, n + 1)]
                   for i in range(1, k + 1)])
    d2v = np.zeros((k * n, k * n))
    for i in range(1, k + 1):
        for a in range(1, n + 1):
            for j in range(1, k + 1):
                for b in range(1, n + 1):
                    if a != b:
                        d2v[(i - 1) * n + a - 1, (j - 1) * n + b - 1] = _ref_replaced(
                            chart, pt, z, {a: n + i - 1, b: n + j - 1})
    tensor = np.array([[_ref_replaced(chart, pt, z, {a: b - 1}) for b in range(1, n + 1)]
                       for a in range(1, n + 1)])
    return _ref_pairing_z(chart, pt, z), dv, d2v, tensor


def _ref_dh_dp(chart, mc, v):
    z = _ref_z(chart, v)
    return sum(s * float(np.linalg.det(z[list(I), :])) for I, s in mc.presentations)


def kinetic_lagrangian(chart):
    """sum over fibers of v1^2/2 - v2^2/2 - ... - y1^2/2: nonsingular
    velocity Hessian where the multi-fiber momenta are small."""
    terms = []
    for i in range(1, chart.k + 1):
        for a in range(1, chart.n + 1):
            nm = f"v{a}" if chart.k == 1 else f"v{a}_{i}"
            terms.append(f"{'+' if a == 1 else '-'} {nm}^2/2")
    return Lagrangian.parse(chart, "0 " + " ".join(terms) + f" - {chart.fiber_names[0]}^2/2")


def kernel_point(chart, rng, multi=0.2):
    pt = chart.random_point(rng)
    for mc in chart.momenta:
        if mc.fiber_count >= 2:
            pt[mc.name] *= multi
    return pt


@pytest.mark.parametrize("chart", [full_chart(3, 2), full_chart(2, 3), weyl_chart(3, 2),
                                   maxwell_chart(3), full_chart(1, 2), weyl_chart(4, 1),
                                   maxwell_chart(4), weyl_chart(5, 1)], ids=repr)
def test_kernel_matches_scalar_det_loops(chart):
    rng = np.random.default_rng(21)
    H = EnvelopeHamiltonian(kinetic_lagrangian(chart))
    worst = 0.0
    for _ in range(20):
        pt = kernel_point(chart, rng, multi=1.0)
        v = rng.uniform(-2.0, 2.0, size=(chart.k, chart.n))
        got = (pairing(chart, pt, v), pairing_dv(chart, pt, v), pairing_d2v(chart, pt, v),
               np.eye(chart.n) * (pairing(chart, pt, v) - H.L.value(pt, v))
               - hamiltonian_tensor(H, pt, v))
        for g, r in zip(got, _ref_all(chart, pt, v)):
            worst = max(worst, float(np.max(np.abs(np.asarray(g) - r) / np.maximum(1.0, np.abs(r)))))
        pt = kernel_point(chart, rng)
        vs = H.solve_velocity(pt)
        for mc in chart.momenta:
            r = _ref_dh_dp(chart, mc, vs)
            worst = max(worst, abs(H.partial(mc.name).value(pt) - r) / max(1.0, abs(r)))
    assert worst <= 1e-14


# -- envelope Hamiltonian: memoised partials, bounded cache, reports ----------

def test_envelope_partial_is_one_atom_per_coordinate():
    chart = weyl_chart(2, 1)
    H = EnvelopeHamiltonian(kg_lagrangian(chart)).as_expression()
    assert (H.diff("p1") - H.diff("p1")).is_zero()
    assert not (H.diff("p1") - H.diff("p2")).is_zero()


def test_envelope_leaves_are_built_once():
    H = EnvelopeHamiltonian(kg_lagrangian(weyl_chart(2, 1)))
    assert H.as_expression() is H.as_expression()
    assert H.partial("p1") is H.partial("p1")


def test_envelope_partial_leaf_has_no_second_derivative():
    H = EnvelopeHamiltonian(kg_lagrangian(weyl_chart(2, 1)))
    with pytest.raises(ex.JetOrderError, match="dH/dp1"):
        H.partial("p1").diff("x1")


def test_envelope_leaf_names_a_missing_symbol():
    chart = weyl_chart(2, 1)
    e = EnvelopeHamiltonian(kg_lagrangian(chart)).as_expression() + chart.sym("x1")
    with pytest.raises(ex.UnboundSymbolError, match="'x2'"):
        e.evaluate({"x1": 0.0})


def test_envelope_cache_is_bounded_and_counts(caplog):
    chart = weyl_chart(2, 1)
    H = EnvelopeHamiltonian(kg_lagrangian(chart))
    rng = np.random.default_rng(22)
    points = [chart.random_point(rng) for _ in range(H.CACHE_SIZE + 36)]
    with caplog.at_level(logging.DEBUG, logger="polyfield.legendre"):
        for pt in points:
            H.value(pt)
            H.partial("p1").value(pt)
            assert len(H._cache) <= H.CACHE_SIZE
    stats = dict(H.cache_stats)
    assert stats == {"hits": len(points), "misses": len(points), "evictions": 36}
    evicted = [r for r in caplog.records if "evicted" in r.getMessage()]
    assert len(evicted) == 36
    # least recently used first: points[36] is the oldest held point; used
    # again, it outlives points[37] when a new point comes in
    H.value(points[36])
    H.value(chart.random_point(rng))
    H.value(points[36])
    assert H.cache_stats["hits"] == stats["hits"] + 2
    H.value(points[37])
    assert H.cache_stats["misses"] == stats["misses"] + 2


def test_legendre_solve_reports_newton_steps(caplog):
    chart = weyl_chart(1, 1)
    L = Lagrangian.parse(chart, "v1^4/4")
    pt = chart.point(p1=2.0)
    with caplog.at_level(logging.DEBUG, logger="polyfield.legendre"):
        v, rep = legendre_solve(L, pt, v0=np.array([[1.0]]))
    assert isinstance(rep, SolveReport)
    assert rep.iterations > 1 and rep.residual <= 1e-10
    assert rep.condition == 1.0  # any nonsingular 1 x 1 Hessian
    assert f"after {rep.iterations} Newton steps" in caplog.text
    # the quadratic case takes one step
    H = EnvelopeHamiltonian(kg_lagrangian(weyl_chart(2, 1)))
    H.solve_velocity(weyl_chart(2, 1).point(p1=0.3))
    assert H.last_report.iterations == 1


# -- the closed-form minor kernel and the per-point jet ------------------------

def _subnormal_stack(n):
    """Frames [1; v] with subnormal velocities, as the kernel stacks them:
    identity minors with one subnormal entry, and all-subnormal minors."""
    tiny = 2.2e-311
    one = np.eye(n)
    one[-1, -1] = tiny
    off = np.eye(n)
    off[0, -1] = tiny
    return np.stack([one, off, np.full((n, n), tiny), tiny * np.eye(n)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_det_matches_lapack(n):
    rng = np.random.default_rng(40 + n)
    stack = rng.normal(size=(6, 5, n, n))
    stack[0, 0, :, n - 1] = 0.0                    # zero column: exactly singular
    stack[0, 1, n - 1] = stack[0, 1, 0]            # repeated row: singular for n >= 2
    stack[1, :4] = _subnormal_stack(n)
    got = legendre._det(stack)
    with np.errstate(all="ignore"):                # LAPACK warns on the subnormals
        want = np.linalg.det(stack)
    assert got.shape == want.shape == (6, 5)
    # 1e-12 relative to the Hadamard bound, the scale of the rounding error
    # of any determinant; exact where that bound underflows
    bound = np.prod(np.linalg.norm(stack, axis=-1), axis=-1)
    assert np.all(np.abs(got - want) <= 1e-12 * bound)
    assert got[0, 0] == 0.0
    assert n == 1 or np.abs(got[0, 1]) <= 1e-12 * bound[0, 1]
    assert np.array_equal(got[1, :4], want[1, :4])
    assert legendre.minor_kernel(n) == f"closed form n={n}"


def test_det_above_three_is_lapack(monkeypatch):
    lapack, calls = np.linalg.det, []
    monkeypatch.setattr(np.linalg, "det", lambda m: calls.append(m.shape) or lapack(m))
    stack = np.random.default_rng(45).normal(size=(3, 4, 4))
    assert np.array_equal(legendre._det(stack), lapack(stack))
    legendre._det(stack[:, :3, :3])
    assert calls == [(3, 4, 4)]
    assert legendre.minor_kernel(4) == "LAPACK det n=4"


def test_tables_log_the_minor_kernel_once_per_chart(caplog):
    with caplog.at_level(logging.DEBUG, logger="polyfield.legendre"):
        for chart, want in ((full_chart(3, 2), "closed form n=3"),
                            (weyl_chart(4, 1), "LAPACK det n=4")):
            v = np.zeros((chart.k, chart.n))
            pairing(chart, chart.point(), v)
            pairing_d2v(chart, chart.point(), v)
            records = [r.getMessage() for r in caplog.records if "minor kernel" in r.getMessage()]
            assert records[-1] == f"minor kernel for {chart!r}: {want}"
    assert len([r for r in caplog.records if "minor kernel" in r.getMessage()]) == 2


def test_envelope_partials_read_one_solve_and_one_minor_stack(monkeypatch):
    chart = full_chart(3, 2)
    # q-dependence in base and fiber coordinates, with the kinetic Hessian
    L = Lagrangian.parse(chart, "v1_1^2/2 - v2_1^2/2 - v3_1^2/2 + v1_2^2/2 - v2_2^2/2"
                         " - v3_2^2/2 - y1^2/2 + x1*y2/3 - sin(x2)*y1^2/4 + x3*y2*v1_1/5")
    H = EnvelopeHamiltonian(L)
    solves, stacks = [], []
    monkeypatch.setattr(legendre, "legendre_solve",
                        lambda L, pt, f=legendre.legendre_solve: solves.append(pt) or f(L, pt))
    monkeypatch.setattr(legendre, "_minors",
                        lambda c, v, g, f=legendre._minors: stacks.append(g) or f(c, v, g))
    pt = kernel_point(chart, np.random.default_rng(46))
    H.solve_velocity(pt)
    got = {nm: H.partial(nm).value(pt) for nm in chart.names}
    assert H.cache_stats == {"hits": chart.dim, "misses": 1, "evictions": 0}
    assert len(solves) == 1 and stacks.count("pairing") == 1
    h = 1e-5
    for name in chart.names:
        up, dn = dict(pt), dict(pt)
        up[name] += h
        dn[name] -= h
        fd = (H.value(up) - H.value(dn)) / (2 * h)
        assert abs(got[name] - fd) <= 1e-5 * max(1.0, abs(fd)), name
    assert got["eps"] == 1.0


def test_envelope_eviction_drops_the_points_jet():
    chart = weyl_chart(2, 1)
    H = EnvelopeHamiltonian(kg_lagrangian(chart))
    rng = np.random.default_rng(47)
    first, *rest = [chart.random_point(rng) for _ in range(H.CACHE_SIZE + 1)]
    dh_dp = H.partial("p1").value(first)
    for pt in rest:
        H.value(pt)
    assert len(H._cache) == H.CACHE_SIZE and H.cache_stats["evictions"] == 1
    misses = H.cache_stats["misses"]
    assert H.partial("p1").value(first) == dh_dp
    assert H.cache_stats["misses"] == misses + 1  # solved again, not read from a kept row


def test_envelope_value_needs_no_q_derivative():
    # d sqrt(y)/dy = 1/(2 sqrt(y)) is undefined at y = 0, where H and the
    # other partials are not
    chart = weyl_chart(2, 1)
    H = EnvelopeHamiltonian(Lagrangian.parse(chart, "v1^2/2 - v2^2/2 - sqrt(y)"))
    pt = chart.point(eps=0.5, p1=0.3, p2=-0.2)
    assert H.value(pt) == pytest.approx(0.5 + 0.3 ** 2 / 2 - 0.2 ** 2 / 2, abs=1e-12)
    assert H.partial("p1").value(pt) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ex.EvalDomainError):
        H.partial("y").value(pt)
    assert H.partial("x1").value(pt) == 0.0
    assert H.partial("x2").value(pt) == 0.0
    assert H.cache_stats["misses"] == 1
