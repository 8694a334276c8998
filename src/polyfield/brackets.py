"""Graded Poisson brackets on forms over a momentum chart.

An (n-1)-form a is bracketable when some vector field Xi(a) satisfies
da = -Xi(a) . Omega with Omega the chart's closed (n+1)-form: one linear
system whose column c is d/dc . Omega.  Its momentum columns are the
canonical-form blocks, read off the chart's q-subset table; their index
blocks are pairwise disjoint, so when da stays in their span the system is
diagonal per momentum, with one equation for each presentation of it that
the aliases must agree on, and Xi comes out in closed form
(``theta_basis_solve``).  Otherwise the system is evaluated over the batch
of probe points: ``xi_general`` takes its least squares at each point,
``HamiltonianPair.verify`` its residual at a given field.  The momentum
form X . theta of a configuration field X has Xi = X plus the momentum
correction that solves -L_X theta in the same closed form (``xi_p``).

Brackets:

* internal:  {a, b} = Xi(b) . Xi(a) . Omega          (both bracketable)
* external:  {a, b} = -{b, a} = -Xi(b) . da          (a arbitrary)
* with an n-form psi:  {psi, b} = -Xi(b) . d(psi)

Lower-degree forms embed through anticommuting weights tau_1..tau_n, one
per base direction: the superform of a (p-1)-form collects the wedges
dx^{a_1..a_{n-p}} ^ a with tau monomials as bookkeeping.  The sbracket
pairs the component vector fields with Grassmann signs.  A form is
admissible when its superform's vector fields have no base components;
for admissible forms the n-form bracket reduces to a tau-free sum over
base multivectors (the route the dynamics uses).
"""

from __future__ import annotations

import logging

import numpy as np

from .expr import ZERO, Expression, as_expr
from .exterior import Form, VectorField, canonicalize, contract, exterior_derivative, \
    lie_derivative, wedge_vectors

__all__ = [
    "BracketError", "NotBracketable", "HamiltonianPair",
    "theta_basis_solve", "xi_q", "xi_p", "pi_field", "xi_general",
    "internal_bracket", "external_bracket",
    "SuperForm", "superize", "sbracket", "super_scalar", "scalar_of_super",
    "is_admissible", "h_omega_bracket", "noether_sides",
    "q_position", "p_momentum", "p_momentum_starred", "eta_slice",
]

log = logging.getLogger("polyfield.brackets")


class BracketError(Exception):
    pass


class NotBracketable(BracketError):
    """The form admits no Hamiltonian vector field on this chart.

    ``residual``: the worst max |da + Xi . Omega| over the points checked
    (None from the exact solve); ``stray``: from ``theta_basis_solve``, the
    index blocks outside the canonical-form span and the alias blocks whose
    coefficient disagrees with their momentum's first presentation."""

    def __init__(self, message, residual=None, stray=()):
        super().__init__(message)
        self.residual = residual
        self.stray = tuple(stray)


class HamiltonianPair:
    """A bracketable form together with its vector field."""

    def __init__(self, form: Form, xi: VectorField):
        self.form = form
        self.xi = xi
        self.chart = form.chart

    def verify(self, points, tol=1e-9) -> float:
        """Worst max |da + Xi . Omega| over the points, from the defining
        system evaluated once over the batch; raises NotBracketable above
        ``tol`` and ValueError when given no points."""
        _require_points(points)
        A, b = _defining_system(self.chart, exterior_derivative(self.form), points)
        xi = np.zeros((len(points), self.chart.dim))
        for i, c in self.xi.at(_batch_env(points)).items():
            xi[:, i] = c
        worst = max(_residuals(A, b, xi))
        if worst > tol:
            raise NotBracketable(f"defining residual {worst:.3e} exceeds {tol:g}", residual=worst)
        return worst


# ---------------------------------------------------------------------------
# closed-form solves against the canonical-form basis

def theta_basis_solve(chart, rhs: Form) -> VectorField:
    """Solve sum_c xi_c * Theta_c = rhs for a momentum-directed vector field,
    where Theta_c is the derivative of the canonical n-form by momentum c.

    The defining system on the momentum columns, solved exactly through
    the chart's q-subset table: xi_c is the coefficient of rhs at c's first
    presentation over Theta_c's own there, and rhs at every other
    presentation (alias) I of c must equal s_first * s_I times it.  Raises
    NotBracketable, naming them in ``stray``, when rhs carries index blocks
    that present no momentum or aliases that disagree.  The check is exact:
    a coefficient is absent when ``Expression.is_zero`` holds for it, which
    never drops a non-zero one, so a stray block is a genuine obstruction.
    """
    if rhs.degree != chart.n:
        raise ValueError("theta-basis solve expects an n-form")
    stray = [key for key in rhs.coeffs if chart.resolve_qsubset(key)[0] is None]
    comps = {}
    for mc, (idx, block) in zip(chart.momenta, chart.theta_basis()):
        (first, s_first), *aliases = mc.presentations
        c = rhs.coeffs.get(first, ZERO)
        for I, s in aliases:
            if not (rhs.coeffs.get(I, ZERO) - (c if s_first * s > 0 else -c)).is_zero():
                stray.append(I)
        if first in rhs.coeffs:
            comps[idx] = c / block.coeffs[first]
    if stray:
        names = ["^".join(chart.names[i] for i in key) for key in stray]
        raise NotBracketable(f"components outside the canonical-form span: {names}",
                             stray=names)
    return VectorField(chart, comps)


def xi_q(a: Form) -> HamiltonianPair:
    """Hamiltonian pair of a configuration form (coefficients and indices
    over base and fiber coordinates only)."""
    return HamiltonianPair(a, theta_basis_solve(a.chart, -exterior_derivative(a)))


def xi_p(xi_config: VectorField) -> HamiltonianPair:
    """Hamiltonian pair of the momentum form xi . theta for a configuration
    vector field: Xi = xi + Y, where the momentum-directed Y solves
    Y . Omega = -(d(xi . theta) + xi . Omega) = -L_xi theta, with the Lie
    derivative taken in coordinates."""
    chart = xi_config.chart
    for i in xi_config.components:
        if chart.is_momentum(i):
            raise ValueError("xi_p expects a configuration vector field")
    p_form = contract(xi_config, chart.theta())
    rhs = -lie_derivative(xi_config, chart.theta())
    return HamiltonianPair(p_form, xi_config + theta_basis_solve(chart, rhs))


def pi_field(chart, nu: str, mu: str) -> VectorField:
    """The momentum-directed field defined by dq^nu ^ (d/dq^mu . theta)
    = Pi^nu_mu . Omega."""
    rhs = chart.d_coord(nu).wedge(contract(chart.coordinate_field(mu), chart.theta()))
    return theta_basis_solve(chart, rhs)


# ---------------------------------------------------------------------------
# the defining system over a batch of points

def _batch_env(points):
    """One env of equal-shaped arrays, one entry per point, for a list of
    point dicts."""
    return {name: np.array([pt[name] for pt in points], dtype=float) for name in points[0]}


def _defining_system(chart, da: Form, points):
    """da = -Xi . Omega at every point as A[p] xi = -b[p]: column c of A[p]
    holds the values of d/dc . Omega and b[p] those of da at point p, over
    the union of their index blocks.  Returns A of shape (points, rows,
    dim) and b of shape (points, rows).

    Each distinct coefficient object is evaluated once, over the whole
    batch: the Omega columns repeat the density in many entries."""
    columns = [chart.contract_omega_with(c) for c in range(chart.dim)]
    keys = sorted(set(da.coeffs) | {k for col in columns for k in col.coeffs})
    key_row = {k: r for r, k in enumerate(keys)}
    env = _batch_env(points)
    distinct = {id(coeff): coeff for form in columns + [da] for coeff in form.coeffs.values()}
    values = {i: coeff.evaluate(env) for i, coeff in distinct.items()}
    A = np.zeros((len(points), len(keys), chart.dim))
    for c, col in enumerate(columns):
        for k, coeff in col.coeffs.items():
            A[:, key_row[k], c] = values[id(coeff)]
    b = np.zeros((len(points), len(keys)))
    for k, coeff in da.coeffs.items():
        b[:, key_row[k]] = values[id(coeff)]
    return A, b


def _require_points(points):
    if not points:
        raise ValueError("no points to check the defining relation at")


def _residuals(A, b, xi):
    """max |A[p] xi[p] + b[p]| for each point p."""
    return [float(np.max(np.abs(Ap @ x + bp))) if len(bp) else 0.0
            for Ap, x, bp in zip(A, xi, b)]


def _lstsq_xi(chart, da: Form, points):
    """Least-squares xi of the defining system at each point of the batch:
    (solutions of shape (points, dim), max |A xi + b| per point, rank of A
    per point)."""
    A, b = _defining_system(chart, da, points)
    solved = [np.linalg.lstsq(Ap, -bp, rcond=None) for Ap, bp in zip(A, b)]
    sols = np.array([s[0] for s in solved])
    return sols, _residuals(A, b, sols), [s[2] for s in solved]


class PointwiseXi:
    """Vector field known only through per-point least squares against the
    defining relation; carries the worst residual and rank over the probe
    points used to accept it.  ``solve_at`` solves at one more point, as a
    batch of one."""

    def __init__(self, form: Form, residual: float, rank_deficient: bool):
        self.form = form
        self.chart = form.chart
        self.residual = residual
        self.rank_deficient = rank_deficient
        self._da = None

    def solve_at(self, env):
        """(components, residual) of the least-squares solve at one point."""
        if self._da is None:
            self._da = exterior_derivative(self.form)
        (sol,), (res,), _ = _lstsq_xi(self.chart, self._da, [env])
        return {i: float(v) for i, v in enumerate(sol) if abs(v) > 0.0}, res


def xi_general(a: Form, points, tol=1e-9) -> PointwiseXi:
    """Least squares of the defining system at each point, with the system
    evaluated once over the batch of probe points.  Accepts the form when
    the residual stays below ``tol`` at every probe point; otherwise raises
    NotBracketable carrying the worst residual, and ValueError when given
    no points.  Rank deficiency of the solve is reported on the result
    rather than assumed away.  The decision is logged at debug level on
    ``polyfield.brackets``."""
    _require_points(points)
    _, residuals, ranks = _lstsq_xi(a.chart, exterior_derivative(a), points)
    worst, deficiency = max(residuals), a.chart.dim - int(min(ranks))
    log.debug("xi_general %s: worst residual %.3e against tol %g, rank deficiency %d "
              "over %d points", "rejected" if worst > tol else "accepted", worst, tol,
              deficiency, len(points))
    if worst > tol:
        raise NotBracketable(f"membership residual {worst:.3e} exceeds {tol:g}", residual=worst)
    return PointwiseXi(a, worst, deficiency > 0)


# ---------------------------------------------------------------------------
# brackets on (n-1)-forms

def internal_bracket(a: HamiltonianPair, b: HamiltonianPair) -> Form:
    """{a, b} = Xi(b) . Xi(a) . Omega."""
    if a.chart is not b.chart:
        raise ValueError("chart mismatch")
    omega = a.chart.multisymplectic_form()
    return contract(b.xi, contract(a.xi, omega))


def external_bracket(a: Form, b: HamiltonianPair) -> Form:
    """{a, b} = -{b, a} = -Xi(b) . da; coincides with the internal bracket
    when a is itself bracketable.  Also serves as the bracket of an n-form
    (e.g. the Hamiltonian density) with a bracketable form."""
    if a.chart is not b.chart:
        raise ValueError("chart mismatch")
    return -contract(b.xi, exterior_derivative(a))


# ---------------------------------------------------------------------------
# Grassmann layer

class SuperForm:
    """Sum of tau-monomial-weighted forms; ``parts`` maps sorted tuples of
    base slots (1-based) to forms, ``xi`` optionally carries the component
    vector fields."""

    def __init__(self, chart, parts, xi=None):
        self.chart = chart
        self.parts = {tuple(k): v for k, v in parts.items() if not v.is_zero()}
        self.xi = None if xi is None else {tuple(k): v for k, v in xi.items()}

    def tau_degree(self):
        degs = {len(k) for k in self.parts}
        if len(degs) > 1:
            raise ValueError("inhomogeneous tau degree")
        return degs.pop() if degs else 0

    def __add__(self, other):
        out = dict(self.parts)
        for k, v in other.parts.items():
            out[k] = out[k] + v if k in out else v
        return SuperForm(self.chart, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, factor):
        return SuperForm(self.chart, {k: v.scale(factor) for k, v in self.parts.items()})

    def mul_tau_right(self, scalar) -> "SuperForm":
        """Multiply by a tau-linear scalar sum c_a tau_a from the right."""
        out = {}
        for T, form in self.parts.items():
            for a, c in scalar.items():
                m = canonicalize(T + (a,))
                if m is None:
                    continue
                key, sign = m
                term = form.scale(c if sign > 0 else -c)
                out[key] = out[key] + term if key in out else term
        return SuperForm(self.chart, out)

    def max_abs_at(self, env) -> float:
        return max((f.max_abs_at(env) for f in self.parts.values()), default=0.0)

    def is_zero(self) -> bool:
        return not self.parts

    def __repr__(self):
        rows = ", ".join(f"tau{list(k)}: {v!r}" for k, v in sorted(self.parts.items()))
        return f"<superform [{rows}]>"


def super_scalar(chart, scalar) -> SuperForm:
    """The superform of a 0-form scalar: sum over (n-1)-subsets of tau
    monomials wedged with the matching base blocks."""
    return superize(chart.zero_form(as_expr(scalar)), with_xi=False)


def scalar_of_super(sf: SuperForm) -> Expression:
    """Invert ``super_scalar``: report c with sf = superform(c); raises
    BracketError if the component pattern does not match a single scalar,
    that is when two component ratios to the superform of 1 differ."""
    chart = sf.chart
    for S in sf.parts:
        if len(S) != chart.n - 1:
            raise BracketError("not the superform of a scalar")
    # compare against the superform of 1 componentwise
    unit = super_scalar(chart, 1.0)
    ratios = []
    for S, base_form in unit.parts.items():
        got = sf.parts.get(S)
        if got is None:
            continue
        for key, coeff in base_form.coeffs.items():
            other = got.coeffs.get(key)
            if other is not None:
                ratios.append((S, key, other / coeff))
    if not ratios:
        raise BracketError("no overlapping components")
    c = ratios[0][2]
    for S, key, r in ratios[1:]:
        if not (r - c).is_zero():
            raise BracketError(f"component ratios disagree: {r} at tau block {S}, "
                               f"key {key} against {c}")
    return c


def superize(a, with_xi=True) -> SuperForm:
    """Embed a (p-1)-form: sum of tau_{a_1}..tau_{a_{n-p}} dx^{a_1..} ^ a
    over increasing base subsets, with the component vector fields solved
    per block by ``xi_q``.  A HamiltonianPair embeds its (n-1)-form as the
    one tau-free block and keeps its own field (e.g. for a momentum form).

    Each block must be bracketable on the chart.  On a Weyl chart, which
    keeps only single-fiber momenta, a form whose blocks need a multi-fiber
    momentum raises NotBracketable: y1 dy2 for n = 3 gives the block
    dx1 ^ y1 dy2, whose differential dx1 ^ dy1 ^ dy2 pairs with no stored
    momentum."""
    pair = a if isinstance(a, HamiltonianPair) else None
    if pair is not None:
        a = pair.form
    chart = a.chart
    n = chart.n
    taus = n - a.degree - 1
    if taus < 0:
        raise ValueError("superize expects degree at most n-1")
    if pair is not None and taus:
        raise ValueError("a Hamiltonian pair embeds as an (n-1)-form")
    from itertools import combinations
    parts, xis = {}, {}
    for S in combinations(range(1, n + 1), taus):
        block = a
        for alpha in reversed(S):
            block = chart.d_coord(chart.base_names[alpha - 1]).wedge(block)
        parts[S] = block
        if not with_xi:
            continue
        if block.is_zero():
            xis[S] = VectorField(chart, {})
            continue
        xis[S] = xi_q(block).xi if pair is None else pair.xi
    return SuperForm(chart, parts, xis if with_xi else None)


def sbracket(A: SuperForm, B: SuperForm) -> Form | SuperForm:
    """{A, B}_s: component vector fields paired into the closed (n+1)-form,
    tau monomials merged A-first with interleaving signs."""
    if A.xi is None or B.xi is None:
        raise BracketError("sbracket needs component vector fields on both sides")
    chart = A.chart
    omega = chart.multisymplectic_form()
    out = {}
    for S, xa in A.xi.items():
        if xa.is_zero():
            continue
        inner = contract(xa, omega)
        for T, xb in B.xi.items():
            if xb.is_zero():
                continue
            m = canonicalize(S + T)
            if m is None:
                continue
            key, sign = m
            term = contract(xb, inner)
            term = term if sign > 0 else -term
            out[key] = out[key] + term if key in out else term
    return SuperForm(chart, out)


def xi_tau_scalar(A: SuperForm):
    """For a tau-free superform (an (n-1)-form), the base components of its
    vector field as a tau-linear scalar: sum dx^a(Xi) tau_a."""
    if A.tau_degree() != 0:
        raise ValueError("expected a tau-free superform")
    xi = A.xi[()]
    return {alpha: xi.component(alpha - 1) for alpha in range(1, A.chart.n + 1)
            if not xi.component(alpha - 1).is_zero()}


def is_admissible(a) -> bool:
    """A lower-degree form (or a HamiltonianPair) is admissible when its
    superform's vector fields have no base components.  Decided exactly: a
    field keeps a component only when ``Expression.is_zero`` fails for it.
    The blocks of a form are solved by ``xi_q``, whose fields are momentum
    directed, so a base component comes from a pair's own field."""
    sf = superize(a)
    return not any(sf.chart.is_base(i) for xi in sf.xi.values() for i in xi.components)


def h_omega_bracket(hamiltonian, a) -> Form:
    """Bracket of the Hamiltonian n-form with an observable.

    For an (n-1)-form (or a ready HamiltonianPair) this is the n-form
    bracket -Xi(a) . d(H omega).  For an admissible lower-degree form the
    tau weights drop out and the bracket is the signed sum over leading
    base multivectors wedged with the component vector fields; whether the
    form is admissible is the caller's check (``is_admissible``).
    """
    chart = a.chart
    psi = chart.volume_form().scale(as_expr(hamiltonian))
    if isinstance(a, Form) and a.degree == chart.n - 1:
        a = xi_q(a)
    if isinstance(a, HamiltonianPair):
        return external_bracket(psi, a)
    sf = superize(a)
    dpsi = exterior_derivative(psi)
    total = None
    for S, xi in sf.xi.items():
        if xi.is_zero():
            continue
        fields = [chart.coordinate_field(chart.base_names[alpha - 1]) for alpha in S]
        term = contract(wedge_vectors(fields + [xi]), dpsi)
        total = term if total is None else total + term
    if total is None:
        return Form(chart, a.degree + 1, {})
    return -total


def noether_sides(hamiltonian, xi_config: VectorField):
    """Both sides of the symmetry identity for the momentum observable of a
    configuration vector field:

        {H omega, P_xi} = L_{Xi(P_xi)}(theta - H omega) + d(xi . H omega).

    When the Lie-derivative term vanishes the current P*_xi is closed along
    solutions."""
    chart = xi_config.chart
    h = as_expr(hamiltonian)
    pair = xi_p(xi_config)
    psi = chart.volume_form().scale(h)
    lhs = external_bracket(psi, pair)
    rhs = lie_derivative(pair.xi, chart.theta() - psi) + exterior_derivative(
        contract(xi_config, psi))
    return lhs, rhs


# ---------------------------------------------------------------------------
# standard observables

def q_position(chart, i: int, f) -> Form:
    """Position observable: y^i times the contraction of a base vector field
    f = f^a d/dx^a into the volume form."""
    slots = f.items() if isinstance(f, dict) else enumerate(f, 1)
    field = VectorField(chart, {a - 1: as_expr(c) for a, c in slots})
    return contract(field, chart.volume_form()).scale(chart.sym(chart.fiber_names[i - 1]))


def p_momentum(chart, mu: str, g) -> Form:
    """Momentum observable g(x) d/dq^mu . theta."""
    return contract(chart.coordinate_field(mu), chart.theta()).scale(as_expr(g))


def p_momentum_starred(chart, mu: str, g, hamiltonian) -> Form:
    """g(x) d/dq^mu . (theta - H omega); generates the energy-momentum
    components.  Restricted to the zero level of H it coincides with
    ``p_momentum``."""
    psi = chart.theta() - chart.volume_form().scale(as_expr(hamiltonian))
    return contract(chart.coordinate_field(mu), psi).scale(as_expr(g))


def eta_slice(chart, hamiltonian) -> Form:
    """The slice-energy (n-1)-form: minus the first-base-direction
    contraction of theta - H omega."""
    return -p_momentum_starred(chart, chart.base_names[0], 1.0, hamiltonian)
