"""Independent numerical oracles used to freeze expected values.

Everything here is deliberately primitive: plain bisection, quadrature built
on scipy, finite differences, a full static solve at every simulated period,
and a policy solve plus simulation where calibration needs only the state
path.  None of it calls the closed forms or shortcuts it is used to check.
"""

import math

import numpy as np

import sortcycles as sc
import sortcycles.calibrate as cal
from sortcycles import dynamics, kernels
from sortcycles.firms import revenue_concentration
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


def topshare_fixed_bisection(a, s, rate, q):
    """``firms.pareto_lognormal_topshare`` with its threshold bisection run
    for all 200 steps, without stopping once the bracket stops shrinking."""
    from scipy.special import log_ndtr, ndtr, ndtri

    if s == 0.0:
        if a > 0.0:
            return q ** (1.0 - a / rate)
        if a < 0.0:
            cut = -math.log1p(-q) / rate
            return 1.0 - math.exp((a - rate) * cut)
        return q
    if a == 0.0:
        return float(ndtr(s - ndtri(1.0 - q)))
    m = rate / abs(a)
    if a > 0.0:
        def tail_prob(t):
            u = t / s
            return float(ndtr(-u) + math.exp(min(-m * t + 0.5 * (m * s) ** 2
                                                 + log_ndtr(u - m * s), 0.0)))

        def upper_share(t):
            u = t / s
            lead = float(ndtr(s - u))
            rest = math.exp(-(rate - a) * t / a + 0.5 * ((m * s) ** 2 - s * s)
                            + log_ndtr(u - m * s))
            return lead + rest
    else:
        def tail_prob(t):
            u = t / s
            return float(ndtr(-u)) - math.exp(min(m * t + 0.5 * (m * s) ** 2
                                                  + log_ndtr(-u - m * s), 0.0))

        def upper_share(t):
            u = t / s
            lead = float(ndtr(s - u))
            rest = math.exp((rate + abs(a)) * t / abs(a) + 0.5 * ((m * s) ** 2 - s * s)
                            + log_ndtr(-u - m * s))
            return lead - rest
    lo = -60.0 * s - 60.0 / m * (a < 0.0) - 1.0
    hi = 60.0 * s + (60.0 * a / rate if a > 0.0 else 0.0) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail_prob(mid) > q:
            lo = mid
        else:
            hi = mid
    return upper_share(0.5 * (lo + hi))



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


def full_mode_moments_oracle(free_params, fixed_params, chain_template, T, burn_in, grid_n,
                             seed):
    """Full-mode calibration moments the long way: a per-state static solve
    for the revenue shares, then a policy solve on ``grid_n`` nodes and a
    T-period simulation whose recorded path gives the state frequency, TFP
    volatility and the period averages.  Raises what those solves raise
    (``GridExit`` when the simulated capital leaves the grid)."""
    params, chain = cal.assemble(free_params, fixed_params, chain_template)
    shares = []
    for z in chain.z_states:
        shock = sc.AggregateShockState.from_params(params, z=z)
        shares.append(revenue_concentration(sc.solve_static(params, shock, 1.0), params, shock))
    policy = sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=grid_n))
    path = sc.simulate(policy, params, chain, T=T, burn_in=burn_in, seed=seed)
    f_high = float(np.mean(path.states[burn_in:]))
    freq = (1.0 - f_high, f_high)
    return {
        "labor_share": float(np.mean(path.labor_share[burn_in:])),
        "wage_inequality": float(np.mean(path.var_log_wage[burn_in:])),
        "rev_share_top10": freq[0] * shares[0][0] + freq[1] * shares[1][0],
        "rev_share_p50_p90": freq[0] * shares[0][1] + freq[1] * shares[1][1],
        "std_tfp": float(np.std(path.measured_tfp[burn_in:])),
    }
