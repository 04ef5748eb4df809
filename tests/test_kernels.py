import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from sortcycles import kernels


def toy_problem(n=60):
    grid = np.exp(np.linspace(np.log(1.0), np.log(6.0), n))
    R1 = np.array([0.9, 0.7])
    income1 = np.array([1.4, 1.1])
    res = 0.9 * grid[None, :] + income1[:, None] * grid[None, :] ** 0.3
    P = np.array([[0.95, 0.05], [0.3, 0.7]])
    C0 = 0.5 * res
    return grid, res, R1, P, C0


class TestInterp:
    def test_matches_numpy_interp_inside(self):
        xg = np.array([0.0, 1.0, 3.0, 7.0])
        yg = np.array([1.0, -2.0, 4.0, 0.5])
        for x in (0.0, 0.2, 1.0, 2.9, 6.999, 7.0):
            assert kernels.interp(xg, yg, x) == pytest.approx(np.interp(x, xg, yg), abs=1e-14)

    def test_clamps_outside(self):
        xg = np.array([1.0, 2.0])
        yg = np.array([5.0, 9.0])
        assert kernels.interp(xg, yg, 0.0) == 5.0
        assert kernels.interp(xg, yg, 3.0) == 9.0


class TestTimeIteration:
    def test_converges_and_is_feasible(self):
        grid, res, R1, P, C0 = toy_problem()
        C, it, sup = kernels.time_iteration(C0.copy(), grid, res, R1, -0.7, 0.9, P,
                                            0.96, 1e-10, 5000)
        assert sup < 1e-10
        C = np.asarray(C)
        assert np.all(C > 0.0)
        assert np.all(res - C >= grid[0] - 1e-12)
        assert np.all(res - C <= grid[-1] + 1e-12)

    def test_deterministic_rerun(self):
        grid, res, R1, P, C0 = toy_problem()
        out1 = kernels.time_iteration(C0.copy(), grid, res, R1, -0.7, 0.9, P, 0.96, 1e-10, 5000)
        out2 = kernels.time_iteration(C0.copy(), grid, res, R1, -0.7, 0.9, P, 0.96, 1e-10, 5000)
        assert np.array_equal(np.asarray(out1[0]), np.asarray(out2[0]))
        assert out1[1] == out2[1]


class TestStatePath:
    def test_transition_rule(self):
        u = np.array([0.1, 0.98, 0.5, 0.99, 0.1])
        s = np.asarray(kernels.state_path(u, 0.9, 0.8, 0))
        # stays while u < p_stay, flips otherwise
        assert list(s) == [0, 1, 1, 0, 0]


class TestImports:
    def test_only_numpy_scipy_and_the_standard_library(self):
        # every import statement in the package's source, at module level
        # and inside functions, so the lazily imported scipy modules are
        # checked although importing the package never runs them
        requested = set()
        for source in sorted(Path(kernels.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
                if isinstance(node, ast.Import):
                    requested.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    requested.add(node.module.split(".")[0])
        assert {"numpy", "scipy"} <= requested
        assert requested - {"numpy", "scipy"} - set(sys.stdlib_module_names) == set()
