"""Charts on the multimomentum phase space.

``full_chart(n, k)`` builds the space of all graded momenta over an
(n+k)-dimensional configuration product: base coordinates x1..xn, fiber
coordinates, and one momentum coordinate for every strictly increasing
n-subset of configuration indices.  Momenta are stored in the adapted
(alias) orientation: ``eps`` pairs with the volume form, ``p2_1`` is the
momentum conjugate to fiber 1 along base slot 2 and so on; the completely
antisymmetric components for arbitrary index order are recovered through
sign-carrying presentations.

``weyl_chart`` keeps only the momenta with at most one fiber index, which
makes the Legendre correspondence single-valued.  ``maxwell_chart`` is the
Weyl chart over a cotangent fiber with the antisymmetry constraint on the
momenta built into the coordinate storage (only the upper triangle is a
coordinate; the transpose resolves to its negative, the diagonal to zero).

A chart may carry a positive volume density g(x); the canonical n-form is
then built from the weighted volume form and picks up the dg-terms through
exterior differentiation, with no special-casing downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import expr as ex
from .expr import Expression, Sym, as_expr
from .exterior import Form, VectorField, canonicalize, contract

__all__ = [
    "Chart", "MomentumCoord", "full_chart", "weyl_chart", "maxwell_chart",
    "restrict_weyl",
]


@dataclass(frozen=True)
class MomentumCoord:
    """One stored momentum coordinate.

    ``theta_terms`` lists the (fiber indices, base slots, sign) triples the
    coordinate is specified by: it enters the canonical n-form as coord *
    sum of signed wedge blocks (dy^{i1} ^ d_{a1}) . ... . omega.
    ``presentations`` is that sum read off as (q-subset, sign) pairs: the
    completely antisymmetric component over that canonical q-subset equals
    sign times the stored coordinate.  The chart builds theta from it.
    """

    name: str
    index: int
    theta_terms: tuple
    presentations: tuple

    @property
    def fiber_count(self):
        return len(self.theta_terms[0][0])


# base coordinates of the points at which a chart checks its volume density
_DENSITY_PROBE_BOX = (0.1, 0.9)


class Chart:
    def __init__(self, kind, base_names, fiber_names, momentum_specs, density=None):
        self.kind = kind
        self.base_names = tuple(base_names)
        self.fiber_names = tuple(fiber_names)
        self.n = len(self.base_names)
        self.k = len(self.fiber_names)
        if self.n < 1 or self.k < 1:
            raise ValueError("need at least one base and one fiber coordinate")
        if self.n > 9 or self.k > 9:
            raise ValueError("single-digit index naming supports at most 9 of each")

        names = list(self.base_names) + list(self.fiber_names)
        self.momenta = []
        for spec in momentum_specs:
            name, theta_terms = spec
            idx = len(names)
            names.append(name)
            pres = tuple(self._presentation(fib, base, sign) for fib, base, sign in theta_terms)
            self.momenta.append(MomentumCoord(name, idx, tuple(theta_terms), pres))
        self.names = tuple(names)
        self.dim = len(names)
        self._index = {nm: i for i, nm in enumerate(names)}
        self.symbols = frozenset(names)

        self.density = as_expr(density) if density is not None else ex.ONE
        extra = self.density.free_symbols() - set(self.base_names)
        if extra:
            raise ValueError(f"volume density may only depend on base coordinates, got {sorted(extra)}")
        self._check_density_positive()

        self._qsubset = {}
        for mc in self.momenta:
            for I, sign in mc.presentations:
                if I in self._qsubset:
                    raise ValueError(f"q-subset {I} presented twice")
                self._qsubset[I] = (mc.index, sign)

        self._theta = None
        self._omega_full = None
        self._omega_d = None
        self._theta_basis = None
        self._contract_cache = {}
        self._minor_tables = None  # legendre's stacked-minor tables, built on first use

    # -- construction helpers ------------------------------------------------

    def _presentation(self, fiber, base, sign):
        seq = list(range(self.n))
        for f, b in zip(fiber, base):
            seq[b - 1] = self.n + (f - 1)
        canon = canonicalize(tuple(seq))
        if canon is None:
            raise ValueError(f"degenerate momentum structure {fiber}/{base}")
        I, s = canon
        return I, s * sign

    def _check_density_positive(self):
        probes = np.random.default_rng(0).uniform(*_DENSITY_PROBE_BOX,
                                                  size=(16, len(self.base_names)))
        density = self.density.evaluate(dict(zip(self.base_names, probes.T)))
        bad = np.flatnonzero(np.broadcast_to(density, 16) <= 0.0)
        if bad.size:
            env = {nm: float(v) for nm, v in zip(self.base_names, probes[bad[0]])}
            raise ValueError(f"volume density non-positive at probe point {env}")

    # -- lookups ---------------------------------------------------------------

    def index(self, name: str) -> int:
        return self._index[name]

    def sym(self, name: str) -> Expression:
        if name not in self._index:
            raise KeyError(f"'{name}' is not a coordinate of this chart")
        return Sym(name)

    def is_base(self, i: int) -> bool:
        return i < self.n

    def is_momentum(self, i: int) -> bool:
        return i >= self.n + self.k

    def momentum(self, name: str) -> MomentumCoord:
        for mc in self.momenta:
            if mc.name == name:
                return mc
        raise KeyError(name)

    def resolve_qsubset(self, I):
        """Canonical q-subset (0-based position tuple) -> (coord index | None,
        sign); zero components resolve to (None, 0)."""
        return self._qsubset.get(tuple(I), (None, 0))

    def resolve_qtuple(self, idx):
        """Arbitrary-order q-position tuple -> (coord index | None, sign)."""
        canon = canonicalize(tuple(idx))
        if canon is None:
            return None, 0
        I, s = canon
        coord, sign = self.resolve_qsubset(I)
        if coord is None:
            return None, 0
        return coord, s * sign

    def canonical_momenta(self):
        """Yield (q-subset, coordinate index, sign) over all presentations."""
        for I, (coord, sign) in sorted(self._qsubset.items()):
            yield I, coord, sign

    # -- basic forms -----------------------------------------------------------

    def parse(self, text, extra_symbols=()):
        return ex.parse(text, symbols=self.symbols | set(extra_symbols))

    def form(self, degree, coeffs) -> Form:
        return Form(self, degree, coeffs)

    def zero_form(self, value=0.0) -> Form:
        return Form(self, 0, {(): as_expr(value)})

    def d_coord(self, name) -> Form:
        return Form(self, 1, {(self.index(name),): ex.ONE})

    def coordinate_field(self, name) -> VectorField:
        return VectorField.coordinate(self, name)

    def volume_form(self) -> Form:
        if self._omega_full is None:
            idx = tuple(range(self.n))
            self._omega_full = Form(self, self.n, {idx: self.density})
        return self._omega_full

    def omega_alpha(self, alpha: int) -> Form:
        """d/dx^alpha . omega (alpha is 1-based)."""
        return contract(self.coordinate_field(self.base_names[alpha - 1]), self.volume_form())

    def theta(self) -> Form:
        """Canonical n-form: the sum of c * Theta_c over the momentum
        coordinates c (see ``theta_basis``)."""
        if self._theta is None:
            self._theta = Form(self, self.n, {
                I: Sym(self.names[idx]) * coeff
                for idx, block in self.theta_basis() for I, coeff in block.coeffs.items()})
        return self._theta

    def multisymplectic_form(self) -> Form:
        """The closed (n+1)-form d(theta)."""
        if self._omega_d is None:
            self._omega_d = self.theta().d()
        return self._omega_d

    def theta_basis(self):
        """Per momentum coordinate c: (coord index, Theta_c), where Theta_c,
        the derivative of the canonical n-form by c, is read off the
        q-subset table: g(x) times the sign of each presentation of c, with
        g the volume density.  The blocks' keys are pairwise disjoint, since
        the constructor rejects a q-subset presented twice.
        """
        if self._theta_basis is None:
            g = self.density
            self._theta_basis = tuple(
                (mc.index, Form(self, self.n, {I: g if s > 0 else -g for I, s in mc.presentations}))
                for mc in self.momenta)
        return self._theta_basis

    def contract_omega_with(self, coord_index: int) -> Form:
        """Cached d/dc . d(theta) for the pointwise linear solves."""
        if coord_index not in self._contract_cache:
            vf = VectorField(self, {coord_index: ex.ONE})
            self._contract_cache[coord_index] = contract(vf, self.multisymplectic_form())
        return self._contract_cache[coord_index]

    # -- points ------------------------------------------------------------------

    def point(self, **kw):
        pt = dict.fromkeys(self.names, 0.0)
        for nm, v in kw.items():
            if nm not in self._index:
                raise KeyError(f"'{nm}' is not a coordinate")
            pt[nm] = float(v)
        return pt

    def random_point(self, rng, lo=-1.0, hi=1.0):
        return {nm: float(rng.uniform(lo, hi)) for nm in self.names}

    def __repr__(self):
        return f"<{self.kind} chart n={self.n} k={self.k} dim={self.dim}>"


def _momentum_name(base, fiber, k):
    if not fiber:
        return "eps"
    if k == 1 and len(fiber) == 1:
        return f"p{base[0]}"
    return "p" + "".join(str(b) for b in base) + "_" + "".join(str(f) for f in fiber)


def _graded_specs(n, k, max_fiber):
    specs = []
    for I in combinations(range(n + k), n):
        fiber = tuple(i - n + 1 for i in I if i >= n)
        if len(fiber) > max_fiber:
            continue
        present = {i for i in I if i < n}
        base = tuple(a for a in range(1, n + 1) if (a - 1) not in present)
        specs.append((_momentum_name(base, fiber, k), ((fiber, base, 1),)))
    return specs


def _default_fiber_names(k):
    return ("y",) if k == 1 else tuple(f"y{i}" for i in range(1, k + 1))


def full_chart(n, k, density=None, fiber_names=None) -> Chart:
    """Phase space with the complete set of graded momenta: n + k + C(n+k, n)
    coordinates."""
    fiber_names = tuple(fiber_names) if fiber_names else _default_fiber_names(k)
    if len(fiber_names) != k:
        raise ValueError("fiber_names length must equal k")
    return Chart("full", tuple(f"x{a}" for a in range(1, n + 1)), fiber_names,
                 _graded_specs(n, k, max_fiber=n), density)


def weyl_chart(n, k, density=None, fiber_names=None) -> Chart:
    """Restriction keeping eps and the single-fiber momenta (all momenta with
    two or more fiber indices pinned to zero)."""
    fiber_names = tuple(fiber_names) if fiber_names else _default_fiber_names(k)
    if len(fiber_names) != k:
        raise ValueError("fiber_names length must equal k")
    return Chart("weyl", tuple(f"x{a}" for a in range(1, n + 1)), fiber_names,
                 _graded_specs(n, k, max_fiber=1), density)


def maxwell_chart(n, density=None) -> Chart:
    """Weyl-type chart over a cotangent fiber A1..An with the antisymmetric
    momentum constraint held by storage: pA{a}_{b} with a < b is a
    coordinate, the transposed alias resolves to its negative and the
    diagonal to zero."""
    if n < 2:
        raise ValueError("the electromagnetic chart needs n >= 2")
    specs = [("eps", (((), (), 1),))]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            specs.append((f"pA{a}_{b}", (((a,), (b,), 1), ((b,), (a,), -1))))
    return Chart("maxwell", tuple(f"x{a}" for a in range(1, n + 1)),
                 tuple(f"A{a}" for a in range(1, n + 1)), specs, density)


def restrict_weyl(chart: Chart) -> Chart:
    """The Weyl restriction of a full chart (identity when nothing to pin)."""
    if chart.kind != "full":
        raise ValueError("restrict_weyl expects a full chart")
    return weyl_chart(chart.n, chart.k, chart.density, chart.fiber_names)


def embed_point(weyl: Chart, full: Chart, pt):
    """Weyl point -> full-chart point with the pinned momenta zero."""
    out = {nm: 0.0 for nm in full.names}
    for nm, v in pt.items():
        out[nm] = float(v)
    return out


def embed_form(weyl: Chart, full: Chart, form: Form) -> Form:
    """Reinterpret a Weyl-chart form on the full chart (shared names)."""
    remap = {}
    for key, c in form.coeffs.items():
        remap[tuple(full.index(weyl.names[i]) for i in key)] = c
    return Form(full, form.degree, remap)
