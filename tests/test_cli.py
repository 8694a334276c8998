import numpy as np
import pytest

from polyfield.cli import main
from polyfield.legendre import Lagrangian, legendre_solve
from polyfield.phase import full_chart

SCALAR = "v1_1^2/2 - v2_1^2/2 - v3_1^2/2 + v1_2^2/2 - v2_2^2/2 - v3_2^2/2 - y1^2/2"


def test_legendre_prints_solve_and_cache(capsys):
    assert main(["legendre", "--chart", "full:3,2", "--lagrangian", SCALAR, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "<full chart n=3 k=2 dim=15>" in out
    # the same point and solve, made here apart from the command
    chart = full_chart(3, 2)
    pt = chart.random_point(np.random.default_rng(3))
    v, rep = legendre_solve(Lagrangian.parse(chart, SCALAR), pt)
    lines = out.splitlines()
    start = lines.index("velocity (fiber rows, base columns):") + 1
    printed = np.array([[float(x) for x in line.split()] for line in lines[start:start + 2]])
    assert np.allclose(printed, v, rtol=1e-10, atol=1e-12)
    assert f"newton: iterations {rep.iterations}, residual {rep.residual:.3e}" in out
    assert "hessian condition" in out
    assert "minors: closed form n=3" in lines
    assert "cache: hits 1, misses 1, evictions 0" in out
    assert any(line.startswith("H = ") for line in lines)


def test_legendre_names_the_lapack_kernel_above_three(capsys):
    L = "v1^2/2 - v2^2/2 - v3^2/2 - v4^2/2 - y^2/2"
    assert main(["legendre", "--chart", "weyl:4,1", "--lagrangian", L]) == 0
    assert "minors: LAPACK det n=4" in capsys.readouterr().out.splitlines()


def test_legendre_reports_singular_hessian(capsys):
    # Maxwell's -F^2/4 is gauge-degenerate: the velocity Hessian is singular
    L = "-(v1_2 - v2_1)^2/4 - (v1_3 - v3_1)^2/4 - (v2_3 - v3_2)^2/4"
    assert main(["legendre", "--chart", "maxwell:3", "--lagrangian", L]) == 1
    assert "SingularHessian" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["bogus:2,1", "full:3", "maxwell:2,2", "weyl:a,b", "full:0,1"])
def test_legendre_rejects_bad_chart_spec(spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["legendre", "--chart", spec, "--lagrangian", "0"])
    assert exc.value.code == 2
    assert "--chart" in capsys.readouterr().err


def test_legendre_rejects_unknown_symbols(capsys):
    assert main(["legendre", "--chart", "weyl:2,1", "--lagrangian", "v1^2/2 + z"]) == 2
    assert "unknown symbol 'z'" in capsys.readouterr().err


def test_legendre_reports_lagrangian_undefined_at_the_point(capsys):
    # every coordinate lies in [-1, 1], so y - 2 < 0 at any seed
    L = "v1^2/2 - v2^2/2 - log(y - 2)"
    assert main(["legendre", "--chart", "weyl:2,1", "--lagrangian", L, "--seed", "4"]) == 1
    err = capsys.readouterr().err
    assert "legendre solve failed: EvalDomainError" in err and "log" in err


def test_legendre_rejects_overflowing_constant(capsys):
    assert main(["legendre", "--chart", "weyl:2,1", "--lagrangian", "v1^2/2 + 10^400"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
