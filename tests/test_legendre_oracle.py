"""The pairing kernel against sympy's determinant of the symbolic frame.

With a symbolic frame matrix Z = [X; V] (X an n x n block standing for the
base part, V the k x n velocities) the pairing is
P = sum over momenta c, presentations (I, s): s p_c det(Z[I]).  At X = 1:

* ``pairing`` is P, ``pairing_dv`` is dP/dV and ``pairing_d2v`` is d2P/dV2;
* ``hamiltonian_tensor`` is delta H - dP/dX^T, because det is linear in
  each column, so replacing column a by d/dx^b is the derivative by X[b, a];
* the dH/dp partial of ``EnvelopeHamiltonian`` is dP/dp_c at the solved V.

Points come from ``hypothesis`` with derandomized examples, so every run
checks the same points.
"""

import functools
import warnings

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polyfield.legendre import (  # noqa: E402
    EnvelopeHamiltonian, hamiltonian_tensor, pairing, pairing_d2v, pairing_dv,
)
from polyfield.phase import full_chart, maxwell_chart, weyl_chart  # noqa: E402

from test_legendre import kinetic_lagrangian  # noqa: E402

CHARTS = {
    "full(3,2)": lambda: full_chart(3, 2),
    "full(2,3)": lambda: full_chart(2, 3),
    "weyl(3,2)": lambda: weyl_chart(3, 2),
    "maxwell(3)": lambda: maxwell_chart(3),
}
TOL = 1e-12
MULTI_FIBER = 0.2  # keeps the velocity Hessian of the Lagrangian below nonsingular


@functools.lru_cache(maxsize=None)
def oracle(spec):
    """Chart, Lagrangian and lambdified sympy derivatives of the pairing."""
    chart = CHARTS[spec]()
    n, k = chart.n, chart.k
    X = sympy.Matrix(n, n, lambda b, a: sympy.Symbol(f"X{b}{a}"))
    V = sympy.Matrix(k, n, lambda i, a: sympy.Symbol(f"V{i}{a}"))
    p = [sympy.Symbol(f"p_{mc.name}") for mc in chart.momenta]
    Z = X.col_join(V)
    P = sum(s * pc * Z.extract(list(I), list(range(n))).det()
            for mc, pc in zip(chart.momenta, p) for I, s in mc.presentations)
    at_one = {X[b, a]: int(a == b) for a in range(n) for b in range(n)}
    vs = list(V)
    args = (vs, p)

    def fn(e):
        return sympy.lambdify(args, sympy.expand(sympy.sympify(e).subs(at_one)), "numpy")

    grad = sympy.Matrix(k, n, lambda i, a: sympy.diff(P, V[i, a]))
    table = {
        "pairing": fn(P),
        "dv": fn(grad),
        "d2v": fn(sympy.Matrix(k * n, k * n, lambda r, c: sympy.diff(P, vs[r], vs[c]))),
        "dX": fn(sympy.Matrix(n, n, lambda a, b: sympy.diff(P, X[b, a]))),
        "dp": [fn(sympy.diff(P, pc)) for pc in p],
    }
    return chart, kinetic_lagrangian(chart), table


def _close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert float(np.max(err, initial=0.0)) <= TOL, (got, want)


def _point(chart, coords):
    pt = dict(zip(chart.names, coords))
    for mc in chart.momenta:
        if mc.fiber_count >= 2:
            pt[mc.name] *= MULTI_FIBER
    return pt


unit = st.floats(-1.0, 1.0, allow_nan=False)
speed = st.floats(-2.0, 2.0, allow_nan=False)


@pytest.mark.parametrize("spec", list(CHARTS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_pairing_derivatives_match_sympy(spec, data):
    chart, L, f = oracle(spec)
    n, k = chart.n, chart.k
    pt = dict(zip(chart.names, data.draw(st.lists(unit, min_size=chart.dim, max_size=chart.dim))))
    v = np.array(data.draw(st.lists(speed, min_size=k * n, max_size=k * n))).reshape(k, n)
    args = (list(v.ravel()), [pt[mc.name] for mc in chart.momenta])
    _close(pairing(chart, pt, v), f["pairing"](*args))
    _close(pairing_dv(chart, pt, v), f["dv"](*args))
    _close(pairing_d2v(chart, pt, v), f["d2v"](*args))
    H = EnvelopeHamiltonian(L)
    want = np.eye(n) * (f["pairing"](*args) - L.value(pt, v)) - np.asarray(f["dX"](*args))
    _close(hamiltonian_tensor(H, pt, v), want)


@pytest.mark.parametrize("spec", list(CHARTS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_envelope_dh_dp_matches_sympy(spec, data):
    chart, L, f = oracle(spec)
    pt = _point(chart, data.draw(st.lists(unit, min_size=chart.dim, max_size=chart.dim)))
    H = EnvelopeHamiltonian(L)
    v = H.solve_velocity(pt)
    args = (list(v.ravel()), [pt[mc.name] for mc in chart.momenta])
    for mc, dp in zip(chart.momenta, f["dp"]):
        _close(H.partial(mc.name).value(pt), dp(*args))


@pytest.mark.parametrize("spec", list(CHARTS))
def test_subnormal_velocity_raises_no_warning(spec):
    # the example that made LAPACK's det warn "divide by zero": every
    # coordinate 0 and one velocity entry subnormal
    chart, L, f = oracle(spec)
    pt = dict.fromkeys(chart.names, 0.0)
    v = np.zeros(chart.k * chart.n)
    v[2] = 2.225073858507e-311
    v = v.reshape(chart.k, chart.n)
    args = (list(v.ravel()), [pt[mc.name] for mc in chart.momenta])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _close(pairing(chart, pt, v), f["pairing"](*args))
        _close(pairing_dv(chart, pt, v), f["dv"](*args))
        _close(pairing_d2v(chart, pt, v), f["d2v"](*args))
        want = np.eye(chart.n) * (f["pairing"](*args) - L.value(pt, v)) - np.asarray(f["dX"](*args))
        _close(hamiltonian_tensor(EnvelopeHamiltonian(L), pt, v), want)
