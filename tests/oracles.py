"""Independent numerical oracles used to freeze expected values.

Everything here is deliberately primitive: plain bisection, Gauss-Hermite
quadrature, finite differences, a full static solve at every simulated period,
hand-written interpolation in the policy solver and the impulse response, and
a policy solve plus simulation where calibration needs only the state path.
None of it calls the closed forms or shortcuts it is used to check.
"""

import math

import numpy as np

import sortcycles as sc
import sortcycles.calibrate as cal
from sortcycles import dynamics
from sortcycles.firms import _log_ndtr, _ndtr, revenue_concentration
from sortcycles.rng import block_uniforms, normal_icdf


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


def interp_scalar(xg, yg, x):
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


def time_iteration_oracle(C, K_grid, res, R1, am1, one_minus_delta, P, beta, tol, max_iter,
                          bisect_iters=90):
    """Euler-equation time iteration on the (2, n) consumption table C.

    Each sweep bisects every node's Euler equation at once, ``bisect_iters``
    steps in lockstep, with next period's rule interpolated by a
    searchsorted lookup and an explicit clamp at the grid ends.  Returns
    (C, sweeps, sup diff) and leaves the caller's C untouched.
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
        for _ in range(bisect_iters):
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


def policy_oracle(params, policy, tol=1e-9, max_iter=10_000):
    """(C, sweeps, sup diff) of the oracle time iteration on ``policy``'s grid,
    resources, state table and chain, from the rule max(res - K, 0.05 res)."""
    res = policy.resources
    C0 = np.maximum(res - policy.K_grid[None, :], 0.05 * res)
    P = np.asarray(policy.chain.transition_matrix, dtype=float)
    return time_iteration_oracle(C0, policy.K_grid, res, policy.table.R, params.alpha - 1.0,
                                 1.0 - params.delta, P, params.beta, tol, max_iter)


def euler_residuals_oracle(policy, params, points, states):
    """``dynamics.euler_residuals`` one point at a time with ``interp_scalar``."""
    omd = 1.0 - params.delta
    R1, income1 = policy.table.R, policy.table.income
    P = policy.chain.transition_matrix
    out = np.empty(len(points))
    for i, (K, s) in enumerate(zip(points, states)):
        c = interp_scalar(policy.K_grid, policy.C[s], K)
        kp = omd * K + income1[s] * K ** params.alpha - c
        q = 0.0
        for sp in range(2):
            cp = interp_scalar(policy.K_grid, policy.C[sp], kp)
            q += P[s][sp] * (R1[sp] * kp ** (params.alpha - 1.0) + omd) / cp
        out[i] = abs(params.beta * c * q - 1.0)
    return out


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
    """``firms.pareto_lognormal_topshare`` with its threshold found by a
    fixed 200-step bisection instead of safeguarded Newton.  Its subject is
    the threshold search, so it shares the package's normal cdfs."""
    if s == 0.0:
        if a > 0.0:
            return q ** (1.0 - a / rate)
        if a < 0.0:
            cut = -math.log1p(-q) / rate
            return 1.0 - math.exp((a - rate) * cut)
        return q
    if a == 0.0:
        return _ndtr(s - float(normal_icdf(1.0 - q)))
    m = rate / abs(a)
    if a > 0.0:
        def tail_prob(t):
            u = t / s
            return _ndtr(-u) + math.exp(min(-m * t + 0.5 * (m * s) ** 2
                                           + _log_ndtr(u - m * s), 0.0))

        def upper_share(t):
            u = t / s
            lead = _ndtr(s - u)
            rest = math.exp(-(rate - a) * t / a + 0.5 * ((m * s) ** 2 - s * s)
                            + _log_ndtr(u - m * s))
            return lead + rest
    else:
        def tail_prob(t):
            u = t / s
            return _ndtr(-u) - math.exp(min(m * t + 0.5 * (m * s) ** 2
                                           + _log_ndtr(-u - m * s), 0.0))

        def upper_share(t):
            u = t / s
            lead = _ndtr(s - u)
            rest = math.exp((rate + abs(a)) * t / abs(a) + 0.5 * ((m * s) ** 2 - s * s)
                            + _log_ndtr(-u - m * s))
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



def simulate_oracle(policy, params, chain, T, burn_in, seed, K0=None, s0=0):
    """Per-period recorder: a full static solve at every (s_t, K_t).

    Shares the state path and the capital recursion with ``simulate`` (its
    subject is the per-period statics) and re-solves each period's statics
    instead of scaling a K=1 table.
    """
    states = dynamics.draw_state_path(chain, T, seed)
    if K0 is None:
        K0 = sc.steady_state(params, chain.z_states[s0])[0]
    kpath = dynamics._capital_path(policy, float(K0), states)
    shocks = [sc.AggregateShockState.from_params(params, z=z) for z in chain.z_states]
    cols = {name: np.empty(T) for name in
            ("z", "K", "Y", "C", "measured_tfp", "lambda_t", "var_log_wage",
             "var_log_tfpq", "var_log_tfpr", "labor_share", "R", "w0", "income")}
    for t in range(T):
        K = kpath[t]
        eq = sc.solve_static(params, shocks[int(states[t])], K)
        vw, vq, vr = sc.analytic_moments(eq)
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


def irf_oracle(policy, params, chain, horizon, n_sims, seed):
    """Scalar IRF: one treated/control pair at a time, a full static solve per
    record and ``interp_scalar`` for each capital step, presimulation
    included.  Returns the (horizon+1, 5) mean differences in IRFResult
    column order."""
    presim_T = 200 + 10 * n_sims
    pre_states = dynamics.draw_state_path(chain, presim_T, seed, stream_label="irf-presim")
    K0 = sc.steady_state(params, chain.z_states[0])[0]
    pre_k = np.empty(presim_T + 1)
    pre_k[0] = K0
    for t in range(presim_T):
        pre_k[t + 1] = interp_scalar(policy.K_grid, policy.K_next[pre_states[t]], pre_k[t])
    boom_k = pre_k[:-1][pre_states == 0]
    boom_k = boom_k[200:] if boom_k.shape[0] > 200 + n_sims else boom_k
    if boom_k.shape[0] == 0:
        boom_k = np.array([K0])
    idx = (np.arange(n_sims) * max(1, boom_k.shape[0] // n_sims)) % boom_k.shape[0]
    inits = boom_k[idx]
    u_all = block_uniforms(seed, "irf-chain", 0, n_sims * max(horizon, 1))[:, 0]
    u_all = u_all.reshape(n_sims, max(horizon, 1))
    shocks = [sc.AggregateShockState.from_params(params, z=z) for z in chain.z_states]
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
                            *sc.analytic_moments(eq)))
            acc[h] += np.subtract(rec[0], rec[1])
            if h == horizon:
                break
            K_t = interp_scalar(policy.K_grid, policy.K_next[s_treat], K_t)
            K_c = interp_scalar(policy.K_grid, policy.K_next[s_ctrl], K_c)
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
        shares.append(revenue_concentration(sc.solve_static(params, shock, 1.0)))
    policy = sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=grid_n))
    path = sc.simulate(policy, T=T, burn_in=burn_in, seed=seed)
    f_high = float(np.mean(path.states[burn_in:]))
    freq = (1.0 - f_high, f_high)
    return {
        "labor_share": float(np.mean(path.labor_share[burn_in:])),
        "wage_inequality": float(np.mean(path.var_log_wage[burn_in:])),
        "rev_share_top10": freq[0] * shares[0][0] + freq[1] * shares[1][0],
        "rev_share_p50_p90": freq[0] * shares[0][1] + freq[1] * shares[1][1],
        "std_tfp": float(np.std(path.measured_tfp[burn_in:])),
    }


def cross_section_moments_oracle(panel, eq):
    """Moments of a held panel the whole-array way: a stable argsort of
    minus revenue for the shares and ``np.average`` / ``np.var`` over every
    firm at once for the log-variances."""
    n = len(panel)
    rev_sorted = panel.revenue[np.argsort(-panel.revenue, kind="stable")]
    total = float(rev_sorted.sum())
    k10 = int(round(0.10 * n))
    k50 = int(round(0.50 * n))
    log_wage = np.log(panel.wage_bill / panel.l)
    mean = float(np.average(log_wage, weights=panel.l))
    return sc.CrossSectionMoments(
        var_log_wage=float(np.average((log_wage - mean) ** 2, weights=panel.l)),
        var_log_tfpq=float(np.var(panel.log_tfpq)),
        var_log_tfpr=float(np.var(panel.log_tfpr)),
        labor_share=eq.labor_share,
        rev_share_top10=float(rev_sorted[:k10].sum()) / total,
        rev_share_p50_p90=float(rev_sorted[k10:k50].sum()) / total,
        n_firms=n,
        seed=panel.seed,
    )


def write_csv_oracle(path, columns):
    """A CSV table formatted whole: every row's text is built before one write."""
    rows = np.column_stack([np.asarray(col, dtype=np.float64)
                            for col in columns.values()]).tolist()
    row_format = ",".join(["%.17g"] * len(columns))
    lines = [",".join(columns), *(row_format % tuple(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n")
