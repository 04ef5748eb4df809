"""Independent numerical oracles used to freeze expected values.

Everything here is deliberately primitive: plain bisection, quadrature built
on scipy, finite differences, and a full static solve at every simulated
period.  None of it calls the closed forms or shortcuts it is used to check.
"""

import math

import numpy as np

import sortcycles as sc
from sortcycles import dynamics, kernels
from sortcycles.rng import block_uniforms


def bisect_root(f, lo, hi, iters=200):
    """Pure bisection; f(lo) and f(hi) must straddle zero."""
    flo = f(lo)
    assert flo * f(hi) < 0.0, "oracle bracket does not straddle the root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def lambda_oracle(params, z, lambda_theta=None):
    """10^-12-grade bisection on the job-distribution equation."""
    lt = params.lambda_theta if lambda_theta is None else lambda_theta
    denom = 1.0 + (1.0 - params.alpha - params.gamma) * (params.xi - 1.0)
    b = ((params.xi - 1.0) * (params.gamma - params.psi * (1.0 - params.alpha)) - params.psi) / (params.gamma * denom)
    d = (1.0 + (params.xi - 1.0) * (1.0 - params.alpha)) / denom
    target = d * z + lt

    def g(lam):
        return b * (lam / params.lambda_x) ** params.psi + lam - target

    hi = target + abs(b) * (1.0 + target / params.lambda_x) ** params.psi + 1.0
    while g(hi) <= 0.0:
        hi *= 2.0
    return bisect_root(g, 0.0, hi)


def gaussian_expectation(f, sigma, order=96):
    """E[f(eps)], eps ~ N(0, sigma^2), by Gauss-Hermite."""
    if sigma == 0.0:
        return float(np.asarray(f(np.zeros(1)))[0])
    x, w = np.polynomial.hermite_e.hermegauss(order)
    return float(np.sum(w * f(sigma * x)) / math.sqrt(2.0 * math.pi))


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def topshare_mc(a, s, rate, q, n, seed):
    """Brute-force Monte Carlo top-q revenue share for exp(a*Exp(rate)+s*Z)."""
    g = np.random.default_rng(seed)
    logr = a * g.exponential(1.0 / rate, n) + s * g.standard_normal(n)
    r = np.exp(logr - logr.max())
    r.sort()
    k = int(round(q * n))
    return r[-k:].sum() / r.sum()



def simulate_oracle(policy, params, chain, T, burn_in, seed, A=1.0, K0=None, s0=0):
    """Per-period recorder: a full static solve at every (s_t, K_t).

    Shares the state path and the capital recursion with ``simulate`` and
    re-solves each period's statics instead of scaling a K=1 table.
    """
    states = dynamics.draw_state_path(chain, T, seed)
    if K0 is None:
        K0 = sc.steady_state(params, chain.z_states[s0], A)[0]
    kpath = np.asarray(kernels.kpath(float(K0), states, policy.K_grid, policy.K_next))
    shocks = [sc.AggregateShockState.from_params(params, z=z, A=A) for z in chain.z_states]
    cols = {name: np.empty(T) for name in
            ("z", "K", "Y", "C", "measured_tfp", "lambda_t", "var_log_wage",
             "var_log_tfpq", "var_log_tfpr", "labor_share", "R", "w0", "income")}
    for t in range(T):
        K = kpath[t]
        eq = sc.solve_static(params, shocks[int(states[t])], K)
        vw, vq, vr = sc.analytic_moments(eq, params, eq.shock)
        income = eq.household_income
        row = {"z": eq.shock.z, "K": K, "Y": eq.Y,
               "C": (1.0 - params.delta) * K + income - kpath[t + 1],
               "measured_tfp": sc.measured_tfp(eq), "lambda_t": eq.lambda_t,
               "var_log_wage": vw, "var_log_tfpq": vq, "var_log_tfpr": vr,
               "labor_share": eq.labor_share, "R": eq.R, "w0": eq.w0, "income": income}
        for name, value in row.items():
            cols[name][t] = value
    cols["states"] = states
    return cols


def irf_oracle(policy, params, chain, horizon, n_sims, seed, A=1.0):
    """Scalar IRF: one treated/control pair at a time, a full static solve per
    record and ``kernels.interp`` for each capital step.  Returns the
    (horizon+1, 5) mean differences in IRFResult column order."""
    presim_T = 200 + 10 * n_sims
    pre_states = dynamics.draw_state_path(chain, presim_T, seed, stream_label="irf-presim")
    K0 = sc.steady_state(params, chain.z_states[0], A)[0]
    pre_k = np.asarray(kernels.kpath(K0, pre_states, policy.K_grid, policy.K_next))
    boom_k = pre_k[:-1][pre_states == 0]
    boom_k = boom_k[200:] if boom_k.shape[0] > 200 + n_sims else boom_k
    if boom_k.shape[0] == 0:
        boom_k = np.array([K0])
    idx = (np.arange(n_sims) * max(1, boom_k.shape[0] // n_sims)) % boom_k.shape[0]
    inits = boom_k[idx]
    u_all = block_uniforms(seed, "irf-chain", 0, n_sims * max(horizon, 1))[:, 0]
    u_all = u_all.reshape(n_sims, max(horizon, 1))
    shocks = [sc.AggregateShockState.from_params(params, z=z, A=A) for z in chain.z_states]
    stay = (chain.p_stay_low, chain.p_stay_high)

    acc = np.zeros((horizon + 1, 5))
    for r in range(n_sims):
        s_treat, s_ctrl = 1, 0
        K_t = K_c = float(inits[r])
        for h in range(horizon + 1):
            rec = []
            for s, K in ((s_treat, K_t), (s_ctrl, K_c)):
                eq = sc.solve_static(params, shocks[s], K)
                rec.append((math.log(eq.Y), sc.measured_tfp(eq),
                            *sc.analytic_moments(eq, params, eq.shock)))
            acc[h] += np.subtract(rec[0], rec[1])
            if h == horizon:
                break
            K_t = kernels.interp(policy.K_grid, policy.K_next[s_treat], K_t)
            K_c = kernels.interp(policy.K_grid, policy.K_next[s_ctrl], K_c)
            s_treat = s_treat if u_all[r, h] < stay[s_treat] else 1 - s_treat
            s_ctrl = s_ctrl if u_all[r, h] < stay[s_ctrl] else 1 - s_ctrl
    return acc / n_sims
