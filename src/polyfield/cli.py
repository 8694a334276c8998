"""Command line for polyfield.

    polyfield legendre --chart full:3,2 --lagrangian "v1_1^2/2 - y1^2/2" --seed 0

``legendre`` solves the Legendre correspondence of a Lagrangian at one point
of a chart, drawn from the seed with every coordinate uniform in [-1, 1],
and prints the velocity, the envelope Hamiltonian H, the Newton report
(steps, residual, velocity Hessian condition), the determinant kernel of
the pairing minors and the velocity cache counters.  Chart specs are
``full:n,k``, ``weyl:n,k`` and ``maxwell:n``.
Exit status 2 means bad input; 1 means the solve failed at the point (a
singular velocity Hessian, no convergence, or L undefined there).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .expr import ExprError
from .legendre import EnvelopeHamiltonian, Lagrangian, LegendreError, minor_kernel
from .phase import full_chart, maxwell_chart, weyl_chart

CHARTS = {"full": (full_chart, 2), "weyl": (weyl_chart, 2), "maxwell": (maxwell_chart, 1)}


def chart_spec(text: str):
    """``kind:n[,k]`` -> chart."""
    kind, _, sizes = text.partition(":")
    if kind not in CHARTS:
        raise argparse.ArgumentTypeError(f"unknown chart kind {kind!r}; use {', '.join(CHARTS)}")
    build, arity = CHARTS[kind]
    try:
        dims = [int(s) for s in sizes.split(",")]
    except ValueError:
        dims = []
    if len(dims) != arity:
        form = "n,k" if arity == 2 else "n"
        raise argparse.ArgumentTypeError(f"chart spec {text!r} must read {kind}:{form}")
    try:
        return build(*dims)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def _legendre(args) -> int:
    chart = args.chart
    try:
        L = Lagrangian.parse(chart, args.lagrangian)
    except (ExprError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    pt = chart.random_point(np.random.default_rng(args.seed))
    H = EnvelopeHamiltonian(L)
    try:
        v = H.solve_velocity(pt)
        h = H.value(pt)
    except (LegendreError, ExprError) as e:  # ExprError: L undefined at the point
        print(f"legendre solve failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    rep = H.last_report
    print(f"chart: {chart!r}")
    print("point: " + ", ".join(f"{nm}={pt[nm]:.6g}" for nm in chart.names))
    print("velocity (fiber rows, base columns):")
    for row in v:
        print("  " + "  ".join(f"{x: .12g}" for x in row))
    print(f"H = {h:.15g}")
    print(f"newton: iterations {rep.iterations}, residual {rep.residual:.3e}, "
          f"hessian condition {rep.condition:.3e}")
    print(f"minors: {minor_kernel(chart.n)}")
    print("cache: " + ", ".join(f"{k} {n}" for k, n in H.cache_stats.items()))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="polyfield", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    leg = sub.add_parser("legendre", help="solve the Legendre correspondence at one point")
    leg.add_argument("--chart", type=chart_spec, required=True,
                     help="full:n,k, weyl:n,k or maxwell:n")
    leg.add_argument("--lagrangian", required=True,
                     help="L in the chart's coordinates and velocities v<a>_<i> (v<a> when k = 1)")
    leg.add_argument("--seed", type=int, default=0, help="seed of the point")
    args = ap.parse_args(argv)
    return _legendre(args)


if __name__ == "__main__":
    sys.exit(main())
