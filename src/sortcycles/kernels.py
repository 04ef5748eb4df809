"""Hot numeric kernels: Euler-equation time iteration and path recursions.

Plain numpy and Python.  The time iteration bisects every grid node's Euler
equation at once; the capital and state-path recursions are scalar loops,
since each step depends on the last.  Every kernel is bit-deterministic run
to run.  The benchmark's layer trace times them:

    python3 perfbench/run.py --workload dynamics --trace 1 --seed 1 --seconds 28

reports kernels.time_iteration.total_s and kernels.kpath.total_s.

The chain is always two-state; expectation sums are written unrolled so the
floating-point summation order is fixed.
"""

from __future__ import annotations

import numpy as np

#: bisection steps per Euler solve; 2^-90 of the bracket is below one ulp
BISECT_ITERS = 90


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


interp = _interp_scalar


def time_iteration(C, K_grid, res, R1, am1, one_minus_delta, P, beta, tol, max_iter):
    """Euler-equation time iteration on the (2, n) consumption table C.

    Each sweep bisects every node's Euler equation at once, BISECT_ITERS
    steps in lockstep, with next period's rule interpolated piecewise
    linearly (clamped at the grid ends).  Returns (C, sweeps, sup diff) and
    leaves the caller's C untouched.
    """
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


def kpath(K0, states, K_grid, K_next_tab):
    """Capital path K_0..K_T under the savings table, state by state."""
    T = states.shape[0]
    out = np.empty(T + 1)
    out[0] = K0
    for t in range(T):
        out[t + 1] = _interp_scalar(K_grid, K_next_tab[states[t]], out[t])
    return out


def state_path(u, p_stay_low, p_stay_high, s0):
    """Two-state chain path: stay while u_t < the current stay probability."""
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

