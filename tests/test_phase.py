import itertools
import math

import numpy as np
import pytest

from polyfield import expr as ex
from polyfield.exterior import canonicalize, contract
from polyfield.legendre import velocity_name
from polyfield.phase import (
    embed_form, embed_point, full_chart, maxwell_chart,
    restrict_weyl, weyl_chart,
)


def test_classical_mechanics_chart_n1_k1():
    chart = full_chart(1, 1)
    assert chart.names == ("x1", "y", "eps", "p1")
    theta = chart.theta()
    assert theta.get((0,)) is not None
    env = chart.point(eps=2.0, p1=3.0)
    vals = theta.at(env)
    assert vals[(0,)] == pytest.approx(2.0)  # eps dx1
    assert vals[(1,)] == pytest.approx(3.0)  # p dy


def test_full_chart_coordinate_count_n2_k2():
    chart = full_chart(2, 2)
    # 2 base + 2 fiber + C(4,2) momenta, enumerated by hand: 6 subsets
    subsets = list(itertools.combinations(range(4), 2))
    assert len(subsets) == 6
    assert chart.dim == 4 + 6 == 10


def test_weyl_chart_names_n2_k1():
    # momenta follow the lexicographic order of their canonical q-subsets:
    # (x1,x2) -> eps, (x1,y) -> p2, (x2,y) -> p1
    chart = weyl_chart(2, 1)
    assert chart.names == ("x1", "x2", "y", "eps", "p2", "p1")


def test_theta_flat_n2_k1():
    chart = weyl_chart(2, 1)
    theta = chart.theta()
    # eps dx1^dx2 + p1 dy^dx2 + p2 dx1^dy
    env = chart.point(eps=1.0, p1=2.0, p2=3.0)
    vals = theta.at(env)
    assert vals[(0, 1)] == pytest.approx(1.0)
    assert vals[(1, 2)] == pytest.approx(-2.0)  # dy^dx2 = -dx2^dy
    assert vals[(0, 2)] == pytest.approx(3.0)


def test_multisymplectic_form_n1_k1_is_symplectic():
    chart = full_chart(1, 1)
    omega = chart.multisymplectic_form()
    vals = omega.at(chart.point())
    assert vals == {(0, 2): pytest.approx(-1.0), (1, 3): pytest.approx(-1.0)}
    # d(eps)^dx1 + dp^dy carries coefficient -1 in sorted storage order


def test_multisymplectic_flat_matches_alias_display():
    chart = weyl_chart(2, 1)
    omega = chart.multisymplectic_form()
    built = chart.d_coord("eps").wedge(chart.volume_form())
    for a in (1, 2):
        built = built + chart.d_coord(f"p{a}").wedge(
            chart.d_coord("y").wedge(chart.omega_alpha(a)))
    rng = np.random.default_rng(5)
    for _ in range(10):
        env = chart.random_point(rng)
        assert (omega - built).max_abs_at(env) <= 1e-12


def test_curved_theta_and_dg_terms():
    # density g = 1 + x1^2/2: the differential picks up the dg terms
    g = ex.parse("1 + x1^2/2")
    chart = weyl_chart(2, 1, density=g)
    omega = chart.multisymplectic_form()
    vol = chart.volume_form()
    expected = chart.d_coord("eps").wedge(vol)
    for a in (1, 2):
        expected = expected + chart.d_coord(f"p{a}").wedge(
            chart.d_coord("y").wedge(chart.omega_alpha(a)))
    # - sum_a p^a (1/g) (dg/dx^a) dy ^ omega
    corr = chart.zero_form(0.0)
    for a in (1, 2):
        c = chart.sym(f"p{a}") * g.diff(f"x{a}") / g
        corr = corr + chart.zero_form(c)
    expected = expected - chart.d_coord("y").wedge(vol).scale(corr.get(()))
    rng = np.random.default_rng(11)
    for _ in range(20):
        env = chart.random_point(rng)
        assert (omega - expected).max_abs_at(env) <= 1e-10


@pytest.mark.parametrize("make", [
    lambda: full_chart(2, 1),
    lambda: full_chart(2, 2),
    lambda: weyl_chart(2, 1, density=ex.parse("1 + x1^2/2")),
    lambda: weyl_chart(3, 2),
    lambda: maxwell_chart(2, density=ex.parse("exp(x2/3)")),
    lambda: maxwell_chart(3),
])
def test_d_multisymplectic_is_zero(make):
    chart = make()
    domega = chart.multisymplectic_form().d()
    rng = np.random.default_rng(17)
    for _ in range(50):
        env = chart.random_point(rng)
        assert domega.max_abs_at(env) <= 1e-10


def test_alias_bijection_round_trip_full_chart():
    chart = full_chart(2, 2)
    seen = {}
    for I, coord, sign in chart.canonical_momenta():
        assert abs(sign) == 1
        assert I not in seen
        seen[I] = (coord, sign)
    # every n-subset of configuration indices is covered exactly once
    assert len(seen) == 6
    # arbitrary-order tuples resolve consistently with antisymmetry
    for I, (coord, sign) in seen.items():
        for perm in itertools.permutations(I):
            c2, s2 = chart.resolve_qtuple(perm)
            assert c2 == coord
            assert s2 == sign * canonicalize(perm)[1]


def test_known_alias_signs_n2_k1():
    chart = weyl_chart(2, 1)
    # p1 is the antisymmetric component on (y, x2): p_(x2,y) = -p1
    coord, sign = chart.resolve_qtuple((2, 1))
    assert chart.names[coord] == "p1"
    assert sign == 1
    coord, sign = chart.resolve_qtuple((1, 2))
    assert chart.names[coord] == "p1"
    assert sign == -1
    coord, sign = chart.resolve_qtuple((0, 2))
    assert chart.names[coord] == "p2"
    assert sign == 1


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_chart_names_are_distinct_and_not_velocities(n, k):
    full = full_chart(n, k)
    for chart in (full, weyl_chart(n, k), restrict_weyl(full), maxwell_chart(max(n, 2))):
        assert len(set(chart.names)) == chart.dim == len(chart.names)
        velocities = {velocity_name(chart, a, i)
                      for a in range(1, chart.n + 1) for i in range(1, chart.k + 1)}
        assert not velocities & set(chart.names)


def test_weyl_restriction_counts_and_identity():
    full = full_chart(2, 2)
    weyl = restrict_weyl(full)
    assert weyl.dim == 4 + 1 + 4  # x,y then eps plus n*k single-fiber momenta
    # n = 1: nothing to pin, restriction has the same coordinates
    f1 = full_chart(1, 3)
    w1 = restrict_weyl(f1)
    assert w1.names == f1.names


def test_weyl_theta_matches_restriction_display():
    full = full_chart(2, 2)
    weyl = restrict_weyl(full)
    theta_w = weyl.theta()
    rng = np.random.default_rng(23)
    for _ in range(10):
        pt_w = weyl.random_point(rng)
        pt_f = embed_point(weyl, full, pt_w)
        vals_full = full.theta().at(pt_f)
        vals_w = embed_form(weyl, full, theta_w).at(pt_f)
        for key in set(vals_full) | set(vals_w):
            assert vals_full.get(key, 0.0) == pytest.approx(vals_w.get(key, 0.0), abs=1e-12)


def test_maxwell_chart_constraint_resolution():
    chart = maxwell_chart(3)
    assert chart.fiber_names == ("A1", "A2", "A3")
    # transpose alias resolves with opposite sign, diagonal resolves to zero
    mc = chart.momentum("pA1_2")
    signs = {I: s for I, s in mc.presentations}
    assert len(signs) == 2
    # fiber a with base slot a is the constrained zero
    seq = [0, 1, 2]
    seq[0] = 3  # slot 1 <- A1
    coord, sign = chart.resolve_qtuple(tuple(sorted(seq)))
    assert coord is None and sign == 0


def test_maxwell_theta_matches_paperless_display():
    # theta = eps*omega + sum_{a,b} p^{A_a b} dA_a ^ omega_b with the
    # antisymmetric aliases resolved through the chart
    g = ex.parse("1 + x1^2/3")
    chart = maxwell_chart(2, density=g)
    theta = chart.theta()
    expected = chart.volume_form().scale(chart.sym("eps"))
    alias = {(1, 2): chart.sym("pA1_2"), (2, 1): -chart.sym("pA1_2")}
    for (a, b), coeff in alias.items():
        expected = expected + chart.d_coord(f"A{a}").wedge(chart.omega_alpha(b)).scale(coeff)
    rng = np.random.default_rng(2)
    for _ in range(10):
        env = chart.random_point(rng)
        assert (theta - expected).max_abs_at(env) <= 1e-12


def wedge_block(chart, fiber, base):
    """(dy^{i1} ^ d_{a1}) . ... . omega for paired fiber/base tuples: the base
    fields contracted into the volume form, the fiber differentials wedged in."""
    out = chart.volume_form()
    for f, b in zip(reversed(fiber), reversed(base)):
        out = contract(chart.coordinate_field(chart.base_names[b - 1]), out)
        out = chart.d_coord(chart.fiber_names[f - 1]).wedge(out)
    return out


@pytest.mark.parametrize("chart", [
    full_chart(3, 3, density=ex.parse("1 + x1^2/2 + x2*x3/4")),
    full_chart(2, 2),
    maxwell_chart(3),
], ids=["curved_full_3_3", "full_2_2", "maxwell_3"])
def test_theta_basis_matches_wedge_blocks(chart):
    # Theta_c read off the q-subset table against the signed sum of wedge
    # blocks of the momentum's specification, key for key and tree for tree
    basis = chart.theta_basis()
    assert [idx for idx, _ in basis] == [mc.index for mc in chart.momenta]
    for mc, (_, block) in zip(chart.momenta, basis):
        want = None
        for fiber, base, sign in mc.theta_terms:
            w = wedge_block(chart, fiber, base)
            w = w if sign > 0 else -w
            want = w if want is None else want + w
        assert list(block.coeffs) == list(want.coeffs)
        for key, coeff in block.coeffs.items():
            assert type(coeff) is type(want.coeffs[key])
            assert str(coeff) == str(want.coeffs[key])


def test_theta_basis_blocks_partition_the_momentum_qsubsets():
    for chart in (full_chart(2, 2), weyl_chart(3, 2), maxwell_chart(3)):
        keys = [set(block.coeffs) for _, block in chart.theta_basis()]
        union = set().union(*keys)
        assert len(union) == sum(len(k) for k in keys)
        assert union == {I for I, _, _ in chart.canonical_momenta()}


@pytest.mark.parametrize("chart", [
    full_chart(3, 2),
    full_chart(3, 3, density=ex.parse("1 + x1^2/2 + x2*x3/4")),
    weyl_chart(2, 1, density=ex.parse("1 + x1^2")),
    maxwell_chart(3),
], ids=["full_3_2", "curved_full_3_3", "curved_weyl_2_1", "maxwell_3"])
def test_momentum_columns_of_omega_are_theta_blocks(chart):
    # d/dc . Omega = Theta_c exactly for every momentum c, which is what lets
    # the defining system be solved diagonally per momentum
    for idx, block in chart.theta_basis():
        column = chart.contract_omega_with(idx)
        assert set(column.coeffs) == set(block.coeffs)
        for key, coeff in block.coeffs.items():
            assert (column.coeffs[key] - coeff).is_zero()


def test_density_must_be_positive():
    with pytest.raises(ValueError):
        weyl_chart(2, 1, density=ex.parse("x1 - 10"))


def test_density_check_names_the_first_failing_probe_point():
    # the 16 probes are drawn point by point from default_rng(0) in (0.1, 0.9)
    rng = np.random.default_rng(0)
    probes = [{nm: float(rng.uniform(0.1, 0.9)) for nm in ("x1", "x2")} for _ in range(16)]
    failing = [env for env in probes if env["x1"] * env["x2"] <= 0.1]
    assert len(failing) > 1 and failing[0] != probes[0]
    with pytest.raises(ValueError) as err:
        weyl_chart(2, 1, density=ex.parse("x1*x2 - 0.1"))
    assert str(err.value) == f"volume density non-positive at probe point {failing[0]}"


def test_density_only_base_coordinates():
    with pytest.raises(ValueError):
        weyl_chart(2, 1, density=ex.parse("y"))


def test_parse_is_chart_scoped():
    chart = weyl_chart(2, 1)
    e = chart.parse("eps + p1^2/2")
    assert e.evaluate(chart.point(eps=1.0, p1=2.0)) == pytest.approx(3.0)
    with pytest.raises(ex.UnknownSymbolError):
        chart.parse("eps + q7")
