"""Hot numeric kernels: Euler-equation time iteration and path recursion.

Two implementations live here.  The default compiles the scalar loops with
numba's @njit; setting the environment variable SORTCYCLES_NUMBA=0 (or an
absent numba install) selects a pure-numpy path instead.  Both paths perform
the same operations in the same order - the numpy fallback runs the bisection
synchronously across all grid nodes - so they agree to a few ulps (the only
divergence is the libm pow used for off-grid rental rates) and each path is
bit-deterministic run to run.  To compare their speed, run the benchmark's
layer trace under each setting, e.g.

    SORTCYCLES_NUMBA=0 python3 perfbench/run.py --workload dynamics --trace 1 --seed 1 --seconds 28

and read kernels.time_iteration.total_s and kernels.kpath.total_s; the runner
passes its environment to the CLI and records kernels.USE_NUMBA.

The chain is always two-state; expectation sums are written unrolled so the
floating-point summation order is fixed.
"""

from __future__ import annotations

import os

import numpy as np

#: bisection steps per Euler solve; 2^-90 of the bracket is below one ulp
BISECT_ITERS = 90

_flag = os.environ.get("SORTCYCLES_NUMBA", "1").strip().lower()
USE_NUMBA = _flag not in ("0", "false", "off")
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        USE_NUMBA = False


def _interp_scalar(xg, yg, x):
    """Linear interpolation with edge clamping; index via binary search."""
    n = xg.shape[0]
    if x <= xg[0]:
        return yg[0]
    if x >= xg[n - 1]:
        return yg[n - 1]
    lo = 0
    hi = n - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if xg[mid] <= x:
            lo = mid
        else:
            hi = mid
    w = (x - xg[lo]) / (xg[lo + 1] - xg[lo])
    return yg[lo] + w * (yg[lo + 1] - yg[lo])


def _time_iteration_scalar(C, K_grid, res, R1, am1, one_minus_delta, P, beta, tol, max_iter):
    """Scalar time iteration; written for numba."""
    n = K_grid.shape[0]
    K_min = K_grid[0]
    K_max = K_grid[n - 1]
    C_new = np.empty_like(C)
    sup = 0.0
    it = 0
    for it in range(1, max_iter + 1):
        sup = 0.0
        for s in range(2):
            for j in range(n):
                re = res[s, j]
                c_hi = re - K_min
                c_lo = re - K_max
                if c_lo < 1e-300:
                    c_lo = 1e-300
                if c_hi <= c_lo:
                    C_new[s, j] = c_hi
                else:
                    for _ in range(BISECT_ITERS):
                        c = 0.5 * (c_lo + c_hi)
                        kp = re - c
                        cp0 = _interp_scalar(K_grid, C[0], kp)
                        cp1 = _interp_scalar(K_grid, C[1], kp)
                        rk = kp ** am1
                        q = (P[s, 0] * (R1[0] * rk + one_minus_delta) / cp0
                             + P[s, 1] * (R1[1] * rk + one_minus_delta) / cp1)
                        if beta * c * q - 1.0 < 0.0:
                            c_lo = c
                        else:
                            c_hi = c
                    C_new[s, j] = 0.5 * (c_lo + c_hi)
                diff = abs(C_new[s, j] - C[s, j])
                if diff > sup:
                    sup = diff
        for s in range(2):
            for j in range(n):
                C[s, j] = C_new[s, j]
        if sup < tol:
            break
    return C, it, sup


def _time_iteration_numpy(C, K_grid, res, R1, am1, one_minus_delta, P, beta, tol, max_iter):
    """Vectorized fallback: bisection advances synchronously across nodes."""
    C = C.copy()
    K_min = K_grid[0]
    K_max = K_grid[-1]
    n = K_grid.shape[0]
    sup = 0.0
    it = 0

    def interp_rows(yg, x):
        idx = np.clip(np.searchsorted(K_grid, x, side="right") - 1, 0, n - 2)
        w = (x - K_grid[idx]) / (K_grid[idx + 1] - K_grid[idx])
        out = yg[idx] + w * (yg[idx + 1] - yg[idx])
        out = np.where(x <= K_min, yg[0], out)
        out = np.where(x >= K_max, yg[-1], out)
        return out

    for it in range(1, max_iter + 1):
        c_hi = res - K_min
        c_lo = np.maximum(res - K_max, 1e-300)
        degenerate = c_hi <= c_lo
        for _ in range(BISECT_ITERS):
            c = 0.5 * (c_lo + c_hi)
            kp = res - c
            cp0 = interp_rows(C[0], kp)
            cp1 = interp_rows(C[1], kp)
            rk = kp ** am1
            q = (P[:, 0][:, None] * (R1[0] * rk + one_minus_delta) / cp0
                 + P[:, 1][:, None] * (R1[1] * rk + one_minus_delta) / cp1)
            neg = beta * c * q - 1.0 < 0.0
            c_lo = np.where(neg, c, c_lo)
            c_hi = np.where(neg, c_hi, c)
        C_new = np.where(degenerate, res - K_min, 0.5 * (c_lo + c_hi))
        sup = float(np.max(np.abs(C_new - C)))
        C = C_new
        if sup < tol:
            break
    return C, it, sup


def _kpath_scalar(K0, states, K_grid, K_next_tab):
    T = states.shape[0]
    out = np.empty(T + 1)
    out[0] = K0
    for t in range(T):
        out[t + 1] = _interp_scalar(K_grid, K_next_tab[states[t]], out[t])
    return out


def _state_path_scalar(u, p_stay_low, p_stay_high, s0):
    T = u.shape[0]
    s = np.empty(T, dtype=np.int64)
    cur = s0
    for t in range(T):
        if cur == 0:
            if u[t] >= p_stay_low:
                cur = 1
        else:
            if u[t] >= p_stay_high:
                cur = 0
        s[t] = cur
    return s


if USE_NUMBA:
    # rebind the helper first so the jitted callers resolve the jitted symbol
    _interp_scalar = njit(cache=True)(_interp_scalar)
    time_iteration = njit(cache=True)(_time_iteration_scalar)
    kpath = njit(cache=True)(_kpath_scalar)
    state_path = njit(cache=True)(_state_path_scalar)
else:
    time_iteration = _time_iteration_numpy
    kpath = _kpath_scalar
    state_path = _state_path_scalar

interp = _interp_scalar


def warmup() -> None:
    """Trigger JIT compilation so timing-sensitive callers pay it up front."""
    grid = np.linspace(1.0, 2.0, 8)
    res = np.vstack([grid + 1.0, grid + 1.1])
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    C0 = 0.5 * res
    time_iteration(C0.copy(), grid, res, np.array([0.1, 0.2]), -0.7, 0.9, P, 0.96, 1e-6, 5)
    kpath(1.5, np.zeros(4, dtype=np.int64), grid, res)
    state_path(np.array([0.5, 0.99]), 0.9, 0.8, 0)
