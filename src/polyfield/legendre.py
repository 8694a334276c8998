"""Legendre correspondence between velocity data and graded momenta.

The correspondence is generated by W(q, v, p) = <p, v> - L(q, v): a triple
(q, v, w) corresponds to (q, p) when W = w and the v-gradient of W
vanishes.  ``legendre_solve`` inverts the second relation by Newton
iteration on the chart's momentum region where the velocity Hessian is
nonsingular; ``weyl_legendre`` is the closed-form forward map onto the
single-fiber momenta.

The pairing <p, v> is taken per unit of the chart's volume form: momenta
are the coefficients of the weighted wedge blocks, so on a flat chart it
is the plain covector evaluation and on a weighted chart it matches the
covariant conventions of the example systems.

Every pairing quantity is a signed sum of n x n minors of the frame
z = [1; v] over the canonical q-subsets, with no column, one (v-gradient,
Hamiltonian tensor) or two (v-Hessian) replaced by coordinate directions.
One kernel serves them all: it gathers the (patterns, momenta, n, n) stack
of these minors with tables built per chart on first use, takes their
determinants in closed form for n <= 3 and by ``np.linalg.det`` above, and
contracts them with signed momentum values.

The Hamiltonian H(q, p) = W(q, V(q, p), p) differentiates through the
envelope identities: the critical-point condition kills the dV terms, so
dH needs only the explicit q-derivative of L and the velocity minors.  No
derivative of the iterative solve is ever taken, and dH/dp is the pairing
minors summed per momentum, so one solve and one stack serve H and its
partials at a point.  H and each of its partials enter expressions as
:class:`~polyfield.expr.Opaque` leaves.
"""

from __future__ import annotations

import logging
from collections import OrderedDict, namedtuple
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .expr import Expression, Opaque, as_expr

__all__ = [
    "Lagrangian", "LegendreError", "SingularHessian", "NoConvergence",
    "ConstraintViolation", "velocity_name", "pairing", "generating_w",
    "legendre_solve", "SolveReport", "weyl_legendre", "EnvelopeHamiltonian",
    "hamiltonian_tensor", "stress_energy", "minor_kernel",
]

log = logging.getLogger("polyfield.legendre")


class LegendreError(Exception):
    pass


class SingularHessian(LegendreError):
    pass


class NoConvergence(LegendreError):
    pass


class ConstraintViolation(LegendreError):
    pass


def velocity_name(chart, alpha: int, i: int) -> str:
    """Symbol for the velocity of fiber i along base slot alpha."""
    return f"v{alpha}" if chart.k == 1 else f"v{alpha}_{i}"


class Lagrangian:
    """Scalar L(x, y, v) over the chart's configuration coordinates plus
    velocity symbols; the expression may contain opaque leaves."""

    def __init__(self, chart, expression: Expression):
        self.chart = chart
        self.expression = as_expr(expression)
        self._flat = [velocity_name(chart, a, i)
                      for i in range(1, chart.k + 1) for a in range(1, chart.n + 1)]
        allowed = set(chart.base_names) | set(chart.fiber_names) | set(self._flat)
        unknown = self.expression.free_symbols() - allowed
        if unknown:
            raise ValueError(f"Lagrangian uses non-configuration symbols {sorted(unknown)}")
        self._derivs = {}
        # flat derivative lists, in the order of the arrays they fill, taken on first use
        self._names = {"dv": [(nm,) for nm in self._flat],
                       "d2v": [(a, b) for a in self._flat for b in self._flat]}
        self._lists = {}

    @classmethod
    def parse(cls, chart, text: str) -> "Lagrangian":
        v_syms = {velocity_name(chart, a, i)
                  for a in range(1, chart.n + 1) for i in range(1, chart.k + 1)}
        return cls(chart, chart.parse(text, extra_symbols=v_syms))

    def _env(self, pt, v):
        return {**pt, **dict(zip(self._flat, np.asarray(v, dtype=float).ravel().tolist()))}

    def value(self, pt, v) -> float:
        return float(self.expression.evaluate(self._env(pt, v)))

    def derivative(self, *names) -> Expression:
        """The partial derivative of L in ``names``, taken in order, once."""
        if names not in self._derivs:
            inner = self.derivative(*names[:-1]) if len(names) > 1 else self.expression
            self._derivs[names] = inner.diff(names[-1])
        return self._derivs[names]

    def _evaluate(self, which, pt, v) -> np.ndarray:
        if which not in self._lists:
            self._lists[which] = [self.derivative(*names) for names in self._names[which]]
        env = self._env(pt, v)
        return np.array([e.evaluate(env) for e in self._lists[which]], dtype=float)

    def dv(self, pt, v) -> np.ndarray:
        return self._evaluate("dv", pt, v).reshape(self.chart.k, self.chart.n)

    def d2v(self, pt, v) -> np.ndarray:
        """Velocity Hessian, flattened over (i, a) pairs."""
        return self._evaluate("d2v", pt, v).reshape(len(self._flat), -1)


_Tables = namedtuple("_Tables", "coords signs names groups frame")


def minor_kernel(n: int) -> str:
    """The determinant kernel ``_det`` uses for n x n minors."""
    return f"closed form n={n}" if n <= 3 else f"LAPACK det n={n}"


def _det(m) -> np.ndarray:
    """Determinants over the last two axes: products for n <= 3, LAPACK above."""
    n = m.shape[-1]
    if n == 1:
        return m[..., 0, 0]
    if n == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if n == 3:
        a, b, c, d, e, f, g, h, i = m.reshape(-1, 9).T
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        return det.reshape(m.shape[:-2])
    return np.linalg.det(m)


def _tables(chart) -> _Tables:
    """The kernel's tables, built on first use and kept on the chart: the
    coordinates, signs and names of the canonical q-subsets' momenta; per
    pattern group, where in the flat frame each entry of each replaced minor
    sits; and the flat frame at v = 0, z = [1; v] row by row and then the 0
    and 1 of the replaced columns (copying it beats building it per call).
    A v-Hessian pattern with a == b has column a zero, so its minors are 0."""
    if chart._minor_tables is None:
        n, k = chart.n, chart.k
        rows, coords, signs = map(np.array, zip(*chart.canonical_momenta()))
        zero = (n + k) * n
        groups = {}
        for name, patterns in (("pairing", [()]),
                               ("dv", [((a, n + i),) for i in range(k) for a in range(n)]),
                               ("d2v", [((a, n + i), (b, n + j)) if a != b else ((a, -1),)
                                        for i in range(k) for a in range(n)
                                        for j in range(k) for b in range(n)]),
                               ("tensor", [((a, b),) for a in range(n) for b in range(n)])):
            at = np.empty((len(patterns),) + rows.shape + (n,), dtype=np.intp)
            at[:] = rows[:, :, None] * n + np.arange(n)
            for p, replaced in enumerate(patterns):
                for col, pos in replaced:
                    at[p, :, :, col] = zero + (rows == pos)
            groups[name] = at
        frame = np.concatenate((np.eye(n).ravel(), np.zeros(k * n + 1), [1.0]))
        chart._minor_tables = _Tables(coords, signs.astype(float),
                                      [chart.names[c] for c in coords.tolist()], groups, frame)
        log.debug("minor kernel for %r: %s", chart, minor_kernel(n))
    return chart._minor_tables


def _minors(chart, v, group) -> np.ndarray:
    """det(rows I_m of the frame, the pattern's columns replaced), of shape
    (patterns, momenta), for every pattern of ``group``."""
    t = _tables(chart)
    z = t.frame.copy()
    z[chart.n * chart.n:-2] = np.asarray(v, dtype=float).ravel()
    return _det(z[t.groups[group]])


def _paired(chart, pt, v, group) -> np.ndarray:
    """The point's momenta paired with every pattern of ``group``."""
    t = _tables(chart)
    return _minors(chart, v, group) @ (t.signs * [pt[nm] for nm in t.names])


def pairing(chart, pt, v) -> float:
    """<p, v>: momenta paired with the decomposable n-vector of the velocity."""
    return float(_paired(chart, pt, v, "pairing")[0])


def pairing_dv(chart, pt, v) -> np.ndarray:
    """Gradient of the pairing in the velocities: slot a replaced by the
    fiber-i coordinate direction."""
    return _paired(chart, pt, v, "dv").reshape(chart.k, chart.n)


def pairing_d2v(chart, pt, v) -> np.ndarray:
    """Velocity Hessian of the pairing, flattened over (i, a) pairs: slots a
    and b replaced by fiber directions i and j, zero where a == b."""
    return _paired(chart, pt, v, "d2v").reshape(chart.k * chart.n, -1)


def generating_w(L: Lagrangian, pt, v) -> float:
    """W(q, v, p) = <p, v> - L(q, v); the correspondence holds at critical
    points of W in v, where W itself equals the free parameter w."""
    return pairing(L.chart, pt, v) - L.value(pt, v)


def w_gradient(L: Lagrangian, pt, v) -> np.ndarray:
    return pairing_dv(L.chart, pt, v) - L.dv(pt, v)


# Newton steps taken, max |dW/dv| and velocity Hessian condition at the solution
SolveReport = namedtuple("SolveReport", "iterations residual condition")

# accepted max |dW/dv|, and the largest velocity Hessian condition not singular
SOLVE_TOL = 1e-10
COND_LIMIT = 1e12
# aliases of one stored momentum (and structural zeros) agree within this
CONSTRAINT_TOL = 1e-9


def legendre_solve(L: Lagrangian, pt, v0=None, maxiter=50):
    """Newton iteration for the critical point of v -> W(q, v, p).

    Returns ``(v, SolveReport)``: the velocity tensor with max |dW/dv| <=
    SOLVE_TOL, unique within the basin reached from ``v0`` (defaults to the
    zero tensor).  The velocity Hessian is checked at every iterate and at
    v; a condition above COND_LIMIT raises SingularHessian.
    """
    chart, k, n = L.chart, L.chart.k, L.chart.n
    v = np.zeros((k, n)) if v0 is None else np.asarray(v0, dtype=float).reshape(k, n).copy()
    for it in range(maxiter):
        grad = w_gradient(L, pt, v)
        residual = float(np.max(np.abs(grad)))
        hess = pairing_d2v(chart, pt, v) - L.d2v(pt, v)
        cond = float(np.linalg.cond(hess))
        if not np.isfinite(cond) or cond > COND_LIMIT:
            where = "solution" if residual <= SOLVE_TOL else "iterate"
            raise SingularHessian(f"velocity Hessian condition {cond:.3e} at {where}")
        if residual <= SOLVE_TOL:
            log.debug("legendre solve accepted after %d Newton steps: residual %.3e, "
                      "hessian condition %.3e", it, residual, cond)
            return v, SolveReport(it, residual, cond)
        v = v + np.linalg.solve(hess, -grad.reshape(-1)).reshape(k, n)
    raise NoConvergence(f"no convergence after {maxiter} Newton steps "
                        f"(residual {float(np.max(np.abs(w_gradient(L, pt, v)))):.3e})")


def weyl_legendre(L: Lagrangian, pt, v, w=0.0):
    """Closed-form momenta on the single-fiber sector: p^a_i = dL/dv^i_a and
    eps = w + L - sum (dL/dv) v.

    On a chart whose momentum storage identifies aliases (the constrained
    electromagnetic chart), all aliases of one stored coordinate must agree;
    disagreement beyond CONSTRAINT_TOL raises ConstraintViolation.
    """
    chart = L.chart
    v = np.asarray(v, dtype=float).reshape(chart.k, chart.n)
    dLdv = L.dv(pt, v)
    stored = {}
    for i in range(1, chart.k + 1):
        for a in range(1, chart.n + 1):
            val = dLdv[i - 1, a - 1]
            coord, sign = alias_value(chart, i, a)
            if coord is None:
                if abs(val) > CONSTRAINT_TOL:
                    raise ConstraintViolation(
                        f"dL/dv for fiber {i}, slot {a} must vanish, got {val:.3e}")
                continue
            name = chart.names[coord]
            cand = val / sign
            if name in stored and abs(stored[name] - cand) > CONSTRAINT_TOL:
                raise ConstraintViolation(
                    f"incompatible aliases for {name}: {stored[name]:.6e} vs {cand:.6e}")
            stored.setdefault(name, cand)
    return {**stored, "eps": w + L.value(pt, v) - float(np.sum(dLdv * v))}


def alias_value(chart, i: int, a: int):
    """(stored coordinate index, sign) with alias p^a_i = sign * stored;
    (None, 0) when the alias is a structural zero."""
    seq = list(range(chart.n))
    seq[a - 1] = chart.n + (i - 1)
    return chart.resolve_qtuple(tuple(seq))


class EnvelopeHamiltonian:
    """H(q, p) = W(q, V(q, p), p) with gradient through the envelope
    identities.  ``as_expression()`` is H as one opaque leaf of expressions,
    and ``partial(name)`` is the leaf of dH/d``name``.

    The velocity cache keeps a jet for each of the ``CACHE_SIZE`` most
    recently used points: v, the evaluation env of L, <p, v> and the entries
    of dH.  One stack of pairing minors gives <p, v> and every dH/dp; each
    dH/dq = -dL/dq is evaluated on its first request, so H and the other
    partials stay defined where one dL/dq is not.  H and all its partials at
    a point share one solve, and each of their reads is a lookup.
    ``cache_stats`` counts hits, misses and evictions; ``last_report`` is
    the ``SolveReport`` of the latest solve.
    """

    CACHE_SIZE = 64

    def __init__(self, L: Lagrangian):
        self.L = L
        self.chart = L.chart
        self._key = itemgetter(*L.chart.names)  # the point's coordinates, as a tuple
        self._cache = OrderedDict()
        self._leaf = Opaque("H", L.chart.names, self.value, self.partial)
        self._partials = {}
        self.cache_stats = {"hits": 0, "misses": 0, "evictions": 0}
        self.last_report = None

    def solve_velocity(self, pt) -> np.ndarray:
        """The velocity at ``pt``; its entry is then the most recently used."""
        key = self._key(pt)
        stats = self.cache_stats
        jet = self._cache.get(key)
        if jet is not None:
            self._cache.move_to_end(key)
            stats["hits"] += 1
        else:
            stats["misses"] += 1
            v, self.last_report = legendre_solve(self.L, pt)
            chart, t = self.chart, _tables(self.chart)
            signed = _minors(chart, v, "pairing")[0] * t.signs
            first_p = chart.n + chart.k
            dh_dp = np.bincount(t.coords, signed, chart.dim)[first_p:]
            jet = self._cache[key] = SimpleNamespace(
                v=v, env=self.L._env(pt, v), pairing=float(signed @ [pt[nm] for nm in t.names]),
                dh=dict(enumerate(dh_dp.tolist(), first_p)))
            if len(self._cache) > self.CACHE_SIZE:
                self._cache.popitem(last=False)
                stats["evictions"] += 1
                log.debug("velocity cache at %d points: evicted the least recently used "
                          "(%d evictions)", self.CACHE_SIZE, stats["evictions"])
        return jet.v

    def _jet(self, pt) -> SimpleNamespace:
        """The jet at ``pt``, after one counted lookup."""
        self.solve_velocity(pt)
        return self._cache[self._key(pt)]

    def value(self, pt) -> float:
        jet = self._jet(pt)
        return jet.pairing - float(self.L.expression.evaluate(jet.env))

    def partial(self, name) -> Opaque:
        """The leaf of dH/d``name``, one per coordinate, so that the same
        partial taken twice is the same expression atom.  It has no partials
        of its own."""
        leaf = self._partials.get(name)
        if leaf is None:
            idx = self.chart.index(name)

            def val(pt):
                jet = self._jet(pt)
                if idx not in jet.dh:  # a q-coordinate: -dL/dq, evaluated on first request
                    jet.dh[idx] = -float(self.L.derivative(name).evaluate(jet.env))
                return jet.dh[idx]
            leaf = self._partials[name] = Opaque(f"dH/d{name}", self.chart.names, val)
        return leaf

    def as_expression(self) -> Expression:
        return self._leaf


def hamiltonian_tensor(H: EnvelopeHamiltonian, pt, v=None) -> np.ndarray:
    """T^a_b = delta^a_b H - <p, z with slot a replaced by d/dx^b>; equals
    minus the stress-energy tensor across the correspondence."""
    chart, L = H.chart, H.L
    v = H.solve_velocity(pt) if v is None else np.asarray(v, dtype=float)
    out = -_paired(chart, pt, v, "tensor").reshape(chart.n, chart.n)
    out[np.diag_indices(chart.n)] += pairing(chart, pt, v) - L.value(pt, v)
    return out


def stress_energy(L: Lagrangian, pt, du) -> np.ndarray:
    """S^a_b = delta^a_b L - (dL/dv^i_a) du^i_b on the field jet in ``pt``
    (fiber values) and ``du`` (k x n velocity matrix)."""
    du = np.asarray(du, dtype=float).reshape(L.chart.k, L.chart.n)
    lval = L.value(pt, du)
    dv = L.dv(pt, du)
    return np.eye(L.chart.n) * lval - dv.T @ du
