"""Graded exterior algebra over a chart.

Forms and multivectors are sparse maps from strictly increasing index
tuples (positions in the chart's coordinate list) to expression
coefficients.  Absent indices mean zero; a repeated index canonicalizes to
the zero element.  A vector field is the degree-1 multivector: it shares
the arithmetic, and a wedge of vector fields is a plain multivector.
``contract(X, a)`` and ``a.wedge(b)`` are the entry points for both.

Every operation (negation, sum, ``scale``, ``wedge``, ``contract``,
``exterior_derivative`` and ``lie_derivative``) emits keys that are already
sorted and of the right length, and returns through one builder,
``_Graded._new``, which only drops the coefficients that cancelled.  The
public constructor is for input from outside: it sorts each index tuple,
applies its permutation sign and folds keys that coincide.

The interior product follows the leading-slot convention: a decomposable
r-vector X = X_1 ^ ... ^ X_r fills the *first* r argument slots of a form,
(X . a)(V, ...) = a(X_1, ..., X_r, V, ...).  For a 1-vector this is the
usual interior product; the alternating signs of the Hamilton-equation
contractions come out of this convention rather than being inserted by
hand.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

import numpy as np

from . import expr as ex
from .expr import Expression, as_expr

__all__ = [
    "Form", "Multivector", "VectorField",
    "canonicalize", "contract",
    "exterior_derivative", "lie_derivative", "wedge_vectors",
]


def canonicalize(idx):
    """Sort an index tuple; return (sorted tuple, permutation sign) or None
    when an index repeats (the zero element)."""
    idx = tuple(idx)
    if len(set(idx)) != len(idx):
        return None
    order = sorted(range(len(idx)), key=idx.__getitem__)
    sign = _perm_sign(order)
    return tuple(idx[i] for i in order), sign


def _perm_sign(order):
    seen = [False] * len(order)
    sign = 1
    for i in range(len(order)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def _shuffle_sign(positions):
    # sign of moving the chosen positions of a tuple to its front, in order
    return (-1) ** sum(p - j for j, p in enumerate(positions))


class _Graded:
    """Shared sparse-coefficient machinery for forms and multivectors."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart, degree, coeffs=None):
        self.chart = chart
        self.degree = int(degree)
        if self.degree < 0:
            raise ValueError("negative degree")
        table = {}
        if coeffs and self.degree <= chart.dim:
            for idx, c in coeffs.items():
                c = as_expr(c)
                if c.is_zero():
                    continue
                canon = canonicalize(idx)
                if canon is None:
                    continue
                key, sign = canon
                if len(key) != self.degree:
                    raise ValueError(f"index {idx} has wrong length for degree {self.degree}")
                term = c if sign > 0 else -c
                table[key] = table[key] + term if key in table else term
        self.coeffs = {k: v for k, v in table.items() if not v.is_zero()}

    def _new(self, degree, table):
        """The one builder behind every operation: the keys of ``table`` are
        sorted and of length ``degree``; coefficients that cancelled drop."""
        out = object.__new__(self._kind(degree))
        out.chart = self.chart
        out.degree = degree
        out.coeffs = {k: v for k, v in table.items() if not v.is_zero()}
        return out

    def _kind(self, degree):
        return type(self)

    def is_zero(self) -> bool:
        return not self.coeffs

    def get(self, idx) -> Expression:
        canon = canonicalize(idx)
        if canon is None:
            return ex.ZERO
        key, sign = canon
        c = self.coeffs.get(key, ex.ZERO)
        return c if sign > 0 else -c

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return self._new(self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new(self.degree, {k: -v for k, v in self.coeffs.items()})

    def scale(self, factor):
        factor = as_expr(factor)
        if factor.is_zero():
            return self._new(self.degree, {})
        return self._new(self.degree, {k: factor * v for k, v in self.coeffs.items()})

    def __mul__(self, factor):
        return self.scale(factor)

    def __rmul__(self, factor):
        return self.scale(factor)

    def _check(self, other):
        if self.chart is not other.chart:
            raise ValueError("chart mismatch")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")

    def wedge(self, other):
        if self.chart is not other.chart:
            raise ValueError("chart mismatch")
        out = {}
        for I, a in self.coeffs.items():
            for J, b in other.coeffs.items():
                m = canonicalize(I + J)
                if m is None:
                    continue
                key, sign = m
                term = a * b if sign > 0 else -(a * b)
                out[key] = out[key] + term if key in out else term
        return self._new(self.degree + other.degree, out)

    def at(self, env):
        """Evaluate all coefficients; returns {index tuple: float}."""
        return {k: v.evaluate(env) for k, v in self.coeffs.items()}

    def max_abs_at(self, env) -> float:
        """Largest |coefficient| at the point, or over the batch when the
        env holds equally-shaped arrays."""
        return max((float(np.max(np.abs(v.evaluate(env)))) for v in self.coeffs.values()),
                   default=0.0)

    def terms(self):
        for k in sorted(self.coeffs):
            yield k, self.coeffs[k]

    def __repr__(self):
        names = self.chart.names
        rows = ", ".join(
            f"{'^'.join(names[i] for i in k) or '1'}: {v}" for k, v in self.terms())
        return f"<{type(self).__name__} deg {self.degree} [{rows}]>"


class Form(_Graded):
    """Degree-p antisymmetric covariant tensor with expression coefficients."""

    __slots__ = ()

    def d(self) -> "Form":
        return exterior_derivative(self)

    def debug_rows(self):
        """Stable (index names, printed coefficient) rows for golden files."""
        names = self.chart.names
        return [("^".join(names[i] for i in k), str(v)) for k, v in self.terms()]


class Multivector(_Graded):
    """Degree-r antisymmetric contravariant tensor."""

    __slots__ = ()


class VectorField(Multivector):
    """Degree-1 multivector: a sparse vector field with components keyed by
    coordinate position."""

    __slots__ = ()

    def __init__(self, chart, components):
        super().__init__(chart, 1, {(int(i),): c for i, c in components.items()})

    def _kind(self, degree):
        return VectorField if degree == 1 else Multivector

    @classmethod
    def coordinate(cls, chart, name):
        return cls(chart, {chart.index(name): ex.ONE})

    @property
    def components(self) -> dict:
        return {k[0]: c for k, c in self.coeffs.items()}

    def component(self, i) -> Expression:
        return self.coeffs.get((i,), ex.ZERO)

    def at(self, env):
        """Evaluate all components; returns {coordinate position: value},
        arrays when ``env`` holds a batch of points."""
        return {k[0]: c.evaluate(env) for k, c in self.coeffs.items()}

    def apply(self, f: Expression) -> Expression:
        """Directional derivative of a scalar expression."""
        names = self.chart.names
        free = f.free_symbols()
        out = ex.ZERO
        for (i,), c in self.coeffs.items():
            if names[i] in free:
                out = out + c * f.diff(names[i])
        return out

    def lie_bracket(self, other: "VectorField") -> "VectorField":
        touched = set(self.components) | set(other.components)
        return VectorField(self.chart, {
            m: self.apply(other.component(m)) - other.apply(self.component(m))
            for m in touched})


def wedge_vectors(fields) -> Multivector:
    fields = list(fields)
    if not fields:
        raise ValueError("empty wedge")
    out = fields[0]
    for f in fields[1:]:
        out = out.wedge(f)
    return out


def contract(X, a: Form) -> Form:
    """Interior product X . a with X filling the leading argument slots."""
    if X.chart is not a.chart:
        raise ValueError("chart mismatch")
    r, p = X.degree, a.degree
    if r > p:
        raise ValueError(f"cannot contract degree {r} multivector into degree {p} form")
    out = {}
    for K, c in a.coeffs.items():
        for positions in combinations(range(p), r):
            I = tuple(K[j] for j in positions)
            xc = X.coeffs.get(I)
            if xc is None:
                continue
            J = tuple(K[j] for j in range(p) if j not in positions)
            sign = _shuffle_sign(positions)
            term = xc * c if sign > 0 else -(xc * c)
            out[J] = out[J] + term if J in out else term
    return a._new(p - r, out)


def exterior_derivative(a: Form) -> Form:
    names = a.chart.names
    out = {}
    for K, c in a.coeffs.items():
        kset = set(K)
        free = c.free_symbols()
        for m, name in enumerate(names):
            if m in kset or name not in free:
                continue
            dc = c.diff(name)
            if dc.is_zero():
                continue
            j = bisect_left(K, m)
            key = K[:j] + (m,) + K[j:]
            term = dc if j % 2 == 0 else -dc
            out[key] = out[key] + term if key in out else term
    return a._new(a.degree + 1, out)


def lie_derivative(xi: VectorField, a: Form) -> Form:
    """L_xi a in coordinates: each coefficient a_K of a contributes

        xi(a_K) dq^K + sum_k a_K dq^{K_1} ^ ... ^ d(xi^{K_k}) ^ ... ^ dq^{K_p},

    one term per slot k of K, with d(xi^i) taken once per component.  A
    dq^m from d(xi^{K_k}) moves from slot k to its sorted place j among the
    other indices, with sign (-1)^(k - j), and vanishes when m is one of
    them.  This is Cartan's d(xi . a) + xi . da for any field and form,
    without building the two sums that cancel."""
    if xi.chart is not a.chart:
        raise ValueError("chart mismatch")
    d_xi = {}
    out = {}
    for K, c in a.coeffs.items():
        lead = xi.apply(c)
        out[K] = out[K] + lead if K in out else lead
        for k, i in enumerate(K):
            if i not in d_xi:
                d_xi[i] = exterior_derivative(a._new(0, {(): xi.component(i)})).coeffs
            rest = K[:k] + K[k + 1:]
            for (m,), dc in d_xi[i].items():
                if m in rest:
                    continue
                j = bisect_left(rest, m)
                key = rest[:j] + (m,) + rest[j:]
                term = c * dc if (k - j) % 2 == 0 else -(c * dc)
                out[key] = out[key] + term if key in out else term
    return a._new(a.degree, out)
