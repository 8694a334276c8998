"""The three polyfield benchmark workloads.

Each workload has the same parts:

* ``setup()`` builds what the program builds once (charts, parsed
  Lagrangians, theta, Omega and their derived tables); it is timed as
  ``setup_s``.
* ``round_inputs(seed, r)`` makes round ``r`` of the inputs from the seed
  alone.  Every round has the same make-up, so every run attempts whole
  rounds of the same operations.
* ``run(state, item)`` is one operation, the timed unit.
* ``check(state, item, out)`` checks that output outside the timed
  interval and returns a list of failures (empty when the output is right).

Why these workloads: ``noether_envelope`` spends its time in ``legendre``
(Newton solves and the cofactor ``det`` loops) with the symbolic layers idle
after set-up; ``bracket_algebra`` spends it in symbolic construction
(``expr`` diff and zero decisions, ``exterior``, ``theta_basis_solve``) with
``legendre`` idle; ``membership_points`` spends it in per-point
``expr.evaluate`` walks and ``lstsq``, using ``expr`` the opposite way from
``bracket_algebra``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# The program's functions are called through their modules, so that the
# tracer's wrappers on those module attributes see the benchmark's calls.
from polyfield import brackets, exterior
from polyfield import expr as ex
from polyfield.brackets import NotBracketable, PointwiseXi
from polyfield.exterior import Form, VectorField
from polyfield.legendre import EnvelopeHamiltonian, Lagrangian
from polyfield.phase import full_chart

TOL = 1e-9


def _rng(seed, r, tag):
    return np.random.default_rng([seed, r, tag])


def _close(a, b, tol):
    """Worst |a - b| over the union of keys of two {key: float} maps,
    scaled by max(1, the largest magnitude involved)."""
    keys = set(a) | set(b)
    worst, scale = 0.0, 1.0
    for k in keys:
        x, y = float(a.get(k, 0.0)), float(b.get(k, 0.0))
        worst = max(worst, abs(x - y))
        scale = max(scale, abs(x), abs(y))
    return worst <= tol * scale, worst


def config_poly(chart, rng):
    """Random polynomial of degree <= 2 per variable in the configuration
    (base and fiber) coordinates."""
    e = ex.Const(float(rng.uniform(-1, 1)))
    for nm in chart.base_names + chart.fiber_names:
        if rng.random() < 0.6:
            s = ex.Sym(nm)
            e = e + float(rng.uniform(-1, 1)) * s + float(rng.uniform(-0.5, 0.5)) * s * s
    return e


def config_form(chart, rng):
    """Random configuration (n-1)-form with polynomial coefficients."""
    coeffs = {}
    for K in itertools.combinations(range(chart.n + chart.k), chart.n - 1):
        if rng.random() < 0.7:
            coeffs[K] = config_poly(chart, rng)
    return Form(chart, chart.n - 1, coeffs)


def config_field(chart, rng):
    """Random configuration vector field (no momentum components)."""
    comps = {}
    for i in range(chart.n + chart.k):
        if rng.random() < 0.7:
            comps[i] = config_poly(chart, rng)
    return VectorField(chart, comps)


def probe_points(chart, rng, count):
    return [chart.random_point(rng, -0.9, 0.9) for _ in range(count)]


# ---------------------------------------------------------------------------
# noether_envelope

@dataclass
class Model:
    """One of the paper's first two examples on a full chart."""

    name: str
    n: int
    k: int
    eta: tuple            # signature of the kinetic term per base slot
    potential: str        # V(y), entering L as -V
    xi: dict              # configuration field of the Noether current

    def lagrangian_text(self):
        kinetic = " + ".join(f"({s})*v{a}_{i}^2/2" for i in range(1, self.k + 1)
                             for a, s in zip(range(1, self.n + 1), self.eta))
        return kinetic + (f" - ({self.potential})" if self.potential else "")

    def potential_value(self, y):
        """V(y) in plain numpy, apart from the program's parser."""
        if self.name == "scalar_fields":
            return y[0] ** 2 / 2 + y[0] ** 2 * y[1] ** 2 / 4
        return 0.0

    def closed_form_h(self, chart, pt):
        """De Donder-Weyl Hamiltonian eps + sum eta_a p_a_i^2/2 + V(y), valid
        where every multi-fiber momentum is zero."""
        p = np.array([[pt[f"p{a}_{i}"] for a in range(1, self.n + 1)]
                      for i in range(1, self.k + 1)])
        y = np.array([pt[nm] for nm in chart.fiber_names])
        return float(pt["eps"] + np.sum(np.asarray(self.eta) * p ** 2) / 2
                     + self.potential_value(y))


MODELS = (
    # interacting scalar fields: L = sum eta_a (v_a_i)^2/2 - y1^2/2 - y1^2 y2^2/4
    Model("scalar_fields", 3, 2, (1, -1, -1), "y1^2/2 + y1^2*y2^2/4",
          {"y1": "x1 + x2^2", "y2": "y1*x3"}),
    # conformal string in conformal gauge, flat 3-dimensional target
    Model("conformal_string", 2, 3, (1, -1), "",
          {"y1": "x1*x2", "y3": "y2 + x1^2"}),
)

MULTI_FIBER_RANGE = 0.2


@dataclass
class NoetherItem:
    model: int
    point: dict
    closed_point: dict = None     # multi-fiber momenta zeroed, for the closed form
    fd_check: bool = False        # central differences of H at this point


class NoetherEnvelope:
    """One operation evaluates both sides of the Noether identity
    {H omega, P_xi} = L_Xi(theta - H omega) + d(xi . H omega) at one new
    point, for the envelope Hamiltonian of a Lagrangian and a configuration
    field that is not a symmetry.  A round is (scalar, string, scalar): the
    two models cost different amounts, and unequal shares keep p50 and p90
    off the boundary between them."""

    name = "noether_envelope"
    ROUND = (0, 1, 0)
    TRACE_ROUNDS_PER_S = 5

    def setup(self):
        state = []
        for m in MODELS:
            chart = full_chart(m.n, m.k)
            L = Lagrangian.parse(chart, m.lagrangian_text())
            chart.theta()
            chart.multisymplectic_form()
            chart.theta_basis()
            H = EnvelopeHamiltonian(L)
            X = VectorField(chart, {chart.index(nm): chart.parse(c) for nm, c in m.xi.items()})
            lhs, rhs = brackets.noether_sides(H.as_expression(), X)
            state.append((chart, H, lhs, rhs))
        return state

    def charts(self, state):
        return [s[0] for s in state]

    def round_inputs(self, state, seed, r):
        items = []
        for j, mi in enumerate(self.ROUND):
            chart = state[mi][0]
            rng = _rng(seed, r, j)
            pt = chart.random_point(rng, -1.0, 1.0)
            multi = [mc.name for mc in chart.momenta if mc.fiber_count >= 2]
            for nm in multi:
                pt[nm] = float(rng.uniform(-MULTI_FIBER_RANGE, MULTI_FIBER_RANGE))
            item = NoetherItem(mi, pt)
            if j == r % 2:  # slot 0 is a scalar-field point, slot 1 a string point
                item.closed_point = dict(pt, **{nm: 0.0 for nm in multi})
                item.fd_check = r < 2
            items.append(item)
        return items

    def run(self, state, item):
        _, _, lhs, rhs = state[item.model]
        return lhs.at(item.point), rhs.at(item.point)

    def check(self, state, item, out, h_value=None):
        chart, H, _, _ = state[item.model]
        model = MODELS[item.model]
        h_value = h_value or H.value
        bad = []
        ok, worst = _close(*out, TOL)
        if not ok:
            bad.append(f"{model.name}: Noether sides differ by {worst:.3e}")
        if item.closed_point is not None:
            got = h_value(item.closed_point)
            want = model.closed_form_h(chart, item.closed_point)
            if abs(got - want) > 1e-10 * max(1.0, abs(want)):
                bad.append(f"{model.name}: H = {got!r}, closed form {want!r}")
        if item.fd_check:
            step = 1e-5
            for nm in chart.names:
                up, dn = dict(item.point), dict(item.point)
                up[nm] += step
                dn[nm] -= step
                fd = (h_value(up) - h_value(dn)) / (2 * step)
                an = float(H.partial(nm).value(item.point))
                if abs(an - fd) > 1e-7 * max(1.0, abs(fd)):
                    bad.append(f"{model.name}: dH/d{nm} = {an!r}, central difference {fd!r}")
        return bad

    def result_nodes(self, item, out):
        return 0  # the outputs are numbers

    def points_solved(self, item):
        return 0


# ---------------------------------------------------------------------------
# bracket_algebra

def d_at(form, env, step=1e-20):
    """The exterior derivative of ``form`` at a point, apart from the
    program's symbolic ``diff``: complex-step derivatives of the
    coefficients, exact to rounding for the polynomial and rational
    coefficients of this workload."""
    out = {}
    for K, c in form.coeffs.items():
        for name in c.free_symbols():
            m = form.chart.index(name)
            if m in K:
                continue
            z = dict(env)
            z[name] = env[name] + 1j * step
            slope = complex(c.evaluate(z)).imag / step
            key = tuple(sorted(K + (m,)))
            sign = -1 if sum(j < m for j in K) % 2 else 1
            out[key] = out.get(key, 0.0) + sign * slope
    return out


def contract_at(vector, form_at):
    """Interior product of {index: float} into {index tuple: float}."""
    out = {}
    for K, w in form_at.items():
        for j, k in enumerate(K):
            if k in vector:
                J = K[:j] + K[j + 1:]
                out[J] = out.get(J, 0.0) + (-1) ** j * vector[k] * float(w)
    return out


BRACKET_CHARTS = (
    (2, 1, None),
    (3, 2, None),
    (2, 2, "1 + x1^2/2"),
)


@dataclass
class BracketItem:
    chart: int
    form: Form
    field: VectorField
    probes: list


class BracketAlgebra:
    """One operation takes a configuration (n-1)-form a and a configuration
    vector field X, builds xi_q(a) and xi_p(X), and forms the internal
    bracket in both orders.  A round is one such pair on each chart of
    BRACKET_CHARTS, in that order."""

    name = "bracket_algebra"
    TRACE_ROUNDS_PER_S = 10
    PROBES = 1

    def setup(self):
        charts = []
        for n, k, density in BRACKET_CHARTS:
            chart = full_chart(n, k, density=None if density is None else ex.parse(density))
            chart.theta()
            chart.multisymplectic_form()
            chart.theta_basis()
            charts.append(chart)
        return charts

    def charts(self, state):
        return list(state)

    def round_inputs(self, state, seed, r):
        items = []
        for j, chart in enumerate(state):
            rng = _rng(seed, r, j)
            items.append(BracketItem(j, config_form(chart, rng), config_field(chart, rng),
                                     probe_points(chart, rng, self.PROBES)))
        return items

    def run(self, state, item):
        pa = brackets.xi_q(item.form)
        pb = brackets.xi_p(item.field)
        return pa, pb, brackets.internal_bracket(pa, pb), brackets.internal_bracket(pb, pa)

    def check(self, state, item, out):
        pa, pb, ab, ba = out
        omega = state[item.chart].multisymplectic_form()
        bad = []
        for env in item.probes:
            omega_at = omega.at(env)
            for label, pair in (("xi_q", pa), ("xi_p", pb)):
                xo = contract_at(pair.xi.at(env), omega_at)
                ok, worst = _close(d_at(pair.form, env), {k: -v for k, v in xo.items()}, TOL)
                if not ok:
                    bad.append(f"chart {item.chart}: {label} defining residual {worst:.3e}")
            a, b = ab.at(env), ba.at(env)
            ok, worst = _close(a, {k: -v for k, v in b.items()}, TOL)
            if not ok:
                bad.append(f"chart {item.chart}: {{a,b}} + {{b,a}} = {worst:.3e}")
        return bad

    def result_nodes(self, item, out):
        pa, pb, ab, ba = out
        exprs = list(pa.xi.components.values()) + list(pb.xi.components.values())
        exprs += list(ab.coeffs.values()) + list(ba.coeffs.values())
        return tree_size(exprs)

    def points_solved(self, item):
        return 0


# ---------------------------------------------------------------------------
# membership_points

MEMBERSHIP_DENSITY = "1 + x1^2/2 + x2*x3/4"


@dataclass
class MembershipItem:
    form: Form
    points: list
    bracketable: bool


class MembershipPoints:
    """One operation calls ``xi_general`` on one (n-1)-form over a batch of
    probe points on the curved full_chart(3, 3).  A round is three random
    configuration forms, which are bracketable on a full chart and must be
    accepted, and one form c*eps*dx_a^dy_i plus a random configuration
    form, which is not bracketable and must be rejected with NotBracketable
    (a correct rejection is a successful operation)."""

    name = "membership_points"
    TRACE_ROUNDS_PER_S = 3
    BATCH = 8
    ROUND = (True, True, True, False)

    def setup(self):
        chart = full_chart(3, 3, density=ex.parse(MEMBERSHIP_DENSITY))
        chart.theta()
        chart.multisymplectic_form()
        for c in range(chart.dim):
            chart.contract_omega_with(c)
        return chart

    def charts(self, state):
        return [state]

    def round_inputs(self, chart, seed, r):
        items = []
        for j, good in enumerate(self.ROUND):
            rng = _rng(seed, r, j)
            form = config_form(chart, rng)
            if not good:
                a = int(rng.integers(1, chart.n + 1))
                i = int(rng.integers(1, chart.k + 1))
                c = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
                bad = chart.d_coord(f"x{a}").wedge(chart.d_coord(f"y{i}"))
                form = form + bad.scale(c * chart.sym("eps"))
            items.append(MembershipItem(form, probe_points(chart, rng, self.BATCH), good))
        return items

    def run(self, chart, item):
        try:
            return brackets.xi_general(item.form, item.points, tol=TOL)
        except NotBracketable as e:
            return e

    def check(self, chart, item, out):
        if not item.bracketable:
            if isinstance(out, NotBracketable):
                return []
            return ["a non-bracketable form was accepted"]
        if not isinstance(out, PointwiseXi):
            return [f"a configuration form was rejected: {out}"]
        if out.residual > TOL:
            return [f"accepted with residual {out.residual:.3e}"]
        if out.rank_deficient:
            return []
        env = item.points[0]
        got, _ = out.solve_at(env)
        want = brackets.xi_q(item.form).xi.at(env)
        ok, worst = _close(got, want, 1e-8)
        return [] if ok else [f"least-squares field differs from xi_q by {worst:.3e}"]

    def result_nodes(self, item, out):
        if not isinstance(out, PointwiseXi):
            return 0
        return tree_size(exterior.exterior_derivative(out.form).coeffs.values())

    def points_solved(self, item):
        return len(item.points)


WORKLOADS = {w.name: w for w in (NoetherEnvelope(), BracketAlgebra(), MembershipPoints())}


# ---------------------------------------------------------------------------
# expression sizes

def _children(node):
    for cls in type(node).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            value = getattr(node, slot, None)
            if isinstance(value, ex.Expression):
                yield value


def tree_size(exprs) -> int:
    """Total node count of the expression trees, a shared subtree counted
    once per occurrence (the number of nodes an evaluation walks)."""
    memo = {}

    def size(node):
        key = id(node)
        if key not in memo:
            memo[key] = 1 + sum(size(c) for c in _children(node))
        return memo[key]

    return sum(size(e) for e in exprs)


def omega_nodes(charts) -> int:
    return sum(tree_size(c.multisymplectic_form().coeffs.values()) for c in charts)
