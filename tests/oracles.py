"""Independent numerical oracles used to freeze expected values.

Everything here is deliberately primitive: plain bisection, Gauss-Hermite
quadrature, finite differences, a full static solve at every simulated period,
hand-written interpolation in the policy solver and the impulse response, a
policy solve plus simulation where calibration needs only the state path, a
sampled panel held whole with every firm-level column, the inverse normal
cdf with its branches gathered by masks, the steady-state bisection with all
of its 200 steps, and verify's type integrals one type node at a time.  None
of it calls the closed forms or
shortcuts it is used to check; the held panel is the library's own sampler,
whose closed forms the firm-level tests check.  The fixed-point residual and
the bracket scan evaluate statics' own job-distribution equation: their
subject is its root, not the equation.  The closed-form savings rule of
full depreciation (delta = 1) is exact: it checks the policy solver, the
simulated path and the impulse response against the model, not against
themselves.  Two pieces model what no subcommand
computes: the scalar calibration objective, the squared norm of
``calibrate.residuals``, and a firm-type redraw law with a Markov type rate,
whose cross-section acceptance criterion 9 checks for stationarity.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import sortcycles as sc
import sortcycles.calibrate as cal
from sortcycles import dynamics, verify
from sortcycles.firms import SAMPLE_CHUNK, _log_ndtr, _ndtr, _sample_chunk, revenue_concentration
from sortcycles.rng import block_uniforms, exponential_icdf, normal_icdf
from sortcycles.statics import _job_equation, _root_bracket


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


def node_resources(policy):
    """(2, n) resources (1 - delta) K + I1_s K^alpha at ``policy``'s nodes, from
    its state table's K = 1 household income I1."""
    params, K = policy.params, policy.K_grid[None, :]
    return (1.0 - params.delta) * K + policy.table.income[:, None] * K ** params.alpha


def policy_oracle(params, policy, tol=1e-9, max_iter=10_000):
    """(C, sweeps, sup diff) of the oracle time iteration on ``policy``'s grid,
    resources, state table and chain, from the rule max(res - K, 0.05 res)."""
    res = node_resources(policy)
    C0 = np.maximum(res - policy.K_grid[None, :], 0.05 * res)
    P = np.asarray(policy.chain.transition_matrix, dtype=float)
    return time_iteration_oracle(C0, policy.K_grid, res, policy.table.R, params.alpha - 1.0,
                                 1.0 - params.delta, P, params.beta, tol, max_iter)


def full_depreciation_shares(policy):
    """(sigma_boom, sigma_recession): the exact shares of income saved at
    delta = 1, the two-state case of Brock and Mirman (1972).

    Utility is logarithmic and income and R scale as K^alpha and K^(alpha-1)
    per state, so at delta = 1 the savings rule is K' = sigma_s I1_s K^alpha
    (:func:`full_depreciation_savings`).  With rho_s = R1_s / I1_s from the
    K = 1 state table, x_s = sigma_s / (1 - sigma_s) solves the linear system
    x = beta P diag(rho) (1 + x).
    """
    params, table = policy.params, policy.table
    assert params.delta == 1.0, "the closed form holds at delta = 1 only"
    M = params.beta * np.asarray(policy.chain.transition_matrix, dtype=float) * (
        table.R / table.income)[None, :]
    x = np.linalg.solve(np.eye(2) - M, M.sum(axis=1))
    return x / (1.0 + x)


def full_depreciation_savings(policy, K, states):
    """The exact savings rule at delta = 1, sigma_s I1_s K^alpha, at capital K
    in states ``states``."""
    sigma = full_depreciation_shares(policy)
    s = np.asarray(states)
    return sigma[s] * policy.table.income[s] * np.asarray(K, dtype=float) ** policy.params.alpha


def full_depreciation_log_y_response(policy, d_share):
    """The mean log Y response of an impulse response at delta = 1, as a linear
    filter of its treated-minus-control recession share d_share.

    Under the exact rule log K' = c_s + alpha log K, c_s = log(sigma_s I1_s),
    and log Y = log Y1_s + alpha log K, so each episode's gap in log K obeys
    dk[h+1] = (c_1 - c_0) ds[h] + alpha dk[h] from dk[0] = 0, and its gap in
    log Y is (log Y1_1 - log Y1_0) ds[h] + alpha dk[h]; both are linear, so
    the means over episodes obey the same filter in d_share.
    """
    alpha, table = policy.params.alpha, policy.table
    c = np.log(full_depreciation_shares(policy) * table.income)
    log_y1 = np.log(table.Y)
    dk, out = 0.0, np.empty(len(d_share))
    for h, ds in enumerate(d_share):
        out[h] = (log_y1[1] - log_y1[0]) * ds + alpha * dk
        dk = (c[1] - c[0]) * ds + alpha * dk
    return out


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


def fixed_point_residual(params, shock, lam):
    """statics' own G(lam), lam a float or an array: the residual that
    lambda_t, its unique nonnegative root, must zero."""
    return _job_equation(params, shock)[0](lam)


def bracket_scan_sign_changes(params, shock, n_points=10_000):
    """Count sign changes of statics' G over the solver's bracket on a uniform scan."""
    hi = _root_bracket(params, *_job_equation(params, shock))
    signs = np.sign(fixed_point_residual(params, shock, np.linspace(0.0, hi, n_points)))
    signs = signs[signs != 0.0]
    return int(np.sum(signs[1:] != signs[:-1]))


def steady_state_oracle(params, z_fixed, A=1.0):
    """(K*, C*) by the full 200-step bisection on beta (R(K) + 1 - delta) = 1,
    every step taken even after the bracket has stopped shrinking."""
    shock = sc.AggregateShockState(z=z_fixed, A=A)
    r_star = 1.0 / params.beta - 1.0 + params.delta

    def rental(K):
        return sc.solve_static(params, shock, K).R

    lo = 1e-8
    assert rental(lo) > r_star, "oracle bracket does not straddle the steady state"
    hi = 1.0
    while rental(hi) >= r_star:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rental(mid) > r_star:
            lo = mid
        else:
            hi = mid
    k_star = 0.5 * (lo + hi)
    eq = sc.solve_static(params, shock, k_star)
    return k_star, eq.household_income - params.delta * k_star


def type_density_oracle(eq, firm_log):
    """theta -> verify's type-density integrand at one theta, by one firm
    solve on the wedge grid."""
    params = eq.params
    grids = []
    for sigma in (params.sigma1, params.sigma2):
        if sigma == 0.0:
            grids.append((np.zeros(1), np.ones(1)))
        else:
            x, w = np.polynomial.hermite_e.hermegauss(verify.GH_ORDER)
            grids.append((sigma * x, w / math.sqrt(2.0 * math.pi)))
    (n1, w1), (n2, w2) = grids
    E1, E2 = np.meshgrid(n1, n2, indexing="ij")
    W = np.outer(w1, w2)
    lt = params.lambda_theta

    def integrand(theta):
        logs = firm_log(verify.independent_firm_solution(eq, theta, E1, E2))
        return float(np.sum(W * np.exp(logs + math.log(lt) - lt * theta)))

    return integrand


def type_integral_oracle(eq, firm_log, upper):
    """verify's composite Gauss-Legendre type integral over [0, upper], one
    integrand evaluation per node."""
    integrand = type_density_oracle(eq, firm_log)
    x, w = np.polynomial.legendre.leggauss(verify.GL_NODES)
    half = 0.5 * upper / verify.GL_PANELS
    left = np.arange(verify.GL_PANELS)[:, None] * (2.0 * half)
    nodes = (left + half * (x + 1.0)).ravel()
    return float(np.dot(np.tile(half * w, verify.GL_PANELS), [integrand(t) for t in nodes]))


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



def simulate_oracle(policy, params, chain, T, burn_in, seed, K0=None):
    """Per-period recorder: a full static solve at every (s_t, K_t).

    Shares the state path and the capital recursion with ``simulate`` (its
    subject is the per-period statics) and re-solves each period's statics
    instead of scaling a K=1 table.
    """
    states = dynamics.draw_state_path(chain, T, seed)
    if K0 is None:
        K0 = sc.steady_state(params, chain.z_states[0])[0]
    kpath = dynamics._capital_path(policy, float(K0), states)
    shocks = [sc.AggregateShockState(z=z) for z in chain.z_states]
    cols = {name: np.empty(T) for name in
            ("z", "K", "Y", "C", "measured_tfp", "lambda_t", "var_log_wage",
             "var_log_tfpq", "var_log_tfpr", "labor_share", "R", "w0", "income")}
    for t in range(T):
        K = kpath[t]
        eq = sc.solve_static(params, shocks[int(states[t])], K)
        vw, vq, vr = sc.dispersions(eq.params, eq.shock, eq.lambda_t)
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
    included.  Returns the (horizon+1, 5) mean differences in the order of
    impulse_response's d_ columns."""
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
    shocks = [sc.AggregateShockState(z=z) for z in chain.z_states]
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
                            *sc.dispersions(eq.params, eq.shock, eq.lambda_t)))
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
    T-period simulation whose state path, indexing the policy's state table
    period by period, gives the state frequency, TFP volatility and the
    period averages.  Raises what those solves raise (``GridExit`` when the
    simulated capital leaves the grid)."""
    params, chain = cal.assemble(free_params, fixed_params, chain_template)
    shares = []
    for z in chain.z_states:
        shock = sc.AggregateShockState(z=z)
        shares.append(revenue_concentration(sc.solve_static(params, shock, 1.0)))
    policy = sc.solve_policy(params, chain, grid_spec=sc.GridSpec(n=grid_n))
    path = sc.simulate(policy, T=T, burn_in=burn_in, seed=seed)
    states = path.states[burn_in:]
    f_high = float(np.mean(states))
    freq = (1.0 - f_high, f_high)
    return {
        "labor_share": float(np.mean(policy.table.labor_share[states])),
        "wage_inequality": float(np.mean(policy.table.var_log_wage[states])),
        "rev_share_top10": freq[0] * shares[0][0] + freq[1] * shares[1][0],
        "rev_share_p50_p90": freq[0] * shares[0][1] + freq[1] * shares[1][1],
        "std_tfp": float(np.std(policy.table.measured_tfp[states])),
    }


#: the objective where a guard fails: no feasible point reaches it
INFEASIBLE = math.inf


def objective(free_params, fixed_params, targets, chain, weights):
    """Squared norm of ``calibrate.residuals``: the weighted sum of squared
    proportional deviations, or INFEASIBLE (infinite) on guard failure."""
    r = cal.residuals(free_params, fixed_params, targets, chain, weights)
    total = float(r @ r)
    return total if math.isfinite(total) else INFEASIBLE

def firm_columns(eq, chunk):
    """A chunk of the library's sampler with the columns only the tests read:
    the price P, the wedges tau1 and tau2, the matched worker type and the
    wage bill w(x)·l."""
    params = eq.params
    theta = chunk["theta"]
    matched_x = (eq.lambda_t / params.lambda_x) * theta
    return {**chunk,
            "P": (params.xi / (params.xi - 1.0)) * chunk["chi"],
            "tau1": np.exp(eq.shock.z * theta + chunk["eps1"]),
            "tau2": np.exp(chunk["eps2"]),
            "matched_x": matched_x,
            "wage_bill": sc.wage(eq, matched_x) * chunk["l"]}


class HeldPanel:
    """A cross-section held whole, one attribute per column, in draw order."""

    def __init__(self, columns, seed):
        self.columns = tuple(columns)
        for name, col in columns.items():
            setattr(self, name, col)
        self.seed = seed

    def __len__(self):
        return self.theta.shape[0]

    def row(self, i):
        """One firm: each column's value as a float attribute."""
        return SimpleNamespace(**{name: float(getattr(self, name)[i]) for name in self.columns})


def held_panel(eq, n, seed):
    """The seeded n-firm panel (n >= 1) with every column of ``firm_columns``,
    drawn by the library's sampler in chunks of SAMPLE_CHUNK, as the moments
    draw it, and held whole: 15 columns, 120 bytes per firm."""
    cols = None
    for start in range(0, n, SAMPLE_CHUNK):
        stop = min(start + SAMPLE_CHUNK, n)
        chunk = firm_columns(eq, _sample_chunk(eq, seed, start, stop))
        if cols is None:
            cols = {name: np.empty(n) for name in chunk}
        for name, col in chunk.items():
            cols[name][start:stop] = col
    return HeldPanel(cols, seed)


def tfpq_tail_index(log_tfpq, top_fraction=0.1):
    """Hill estimator of the Pareto tail index of TFPQ levels.

    log TFPQ is exactly exponential, so levels are exact Pareto with index
    lambda_theta / (lambda_t/lambda_x)^psi; the Hill estimate over the top
    order statistics is the natural empirical counterpart.
    """
    logs = np.sort(log_tfpq)
    k = max(int(top_fraction * logs.shape[0]), 2)
    tail = logs[-k:]
    return 1.0 / float(np.mean(tail[1:] - tail[0]))


def cross_section_moments_oracle(panel, eq, log_wage=None):
    """Moments of a held panel the whole-array way: a stable argsort of
    minus revenue for the shares and ``np.average`` / ``np.var`` over every
    firm at once for the log-variances.  The log wage is log(wage_bill / l)
    unless given."""
    n = len(panel)
    rev_sorted = panel.revenue[np.argsort(-panel.revenue, kind="stable")]
    total = float(rev_sorted.sum())
    k10 = int(round(0.10 * n))
    k50 = int(round(0.50 * n))
    if log_wage is None:
        log_wage = np.log(panel.wage_bill / panel.l)
    mean = float(np.average(log_wage, weights=panel.l))
    return {
        "var_log_wage": float(np.average((log_wage - mean) ** 2, weights=panel.l)),
        "var_log_tfpq": float(np.var(panel.log_tfpq)),
        "var_log_tfpr": float(np.var(panel.log_tfpr)),
        "labor_share": eq.labor_share,
        "rev_share_top10": float(rev_sorted[:k10].sum()) / total,
        "rev_share_p50_p90": float(rev_sorted[k10:k50].sum()) / total,
        "n_firms": n,
        "seed": panel.seed,
    }


def write_csv_oracle(path, columns):
    """A CSV table formatted whole: every row's text is built before one write."""
    rows = np.column_stack([np.asarray(col, dtype=np.float64)
                            for col in columns.values()]).tolist()
    row_format = ",".join(["%.17g"] * len(columns))
    lines = [",".join(columns), *(row_format % tuple(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def normal_icdf_masked(p):
    """AS 241 (PPND16) with each branch's points gathered by boolean masks: the
    central rational on the central points, both tail rationals on every tail
    point, the r <= 5 one kept where r <= 5."""
    p = np.asarray(p, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    q = p - 0.5
    out = np.empty_like(p)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] * q[central]
        num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                    + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
                  + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
                + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
        den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                    + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
                  + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
                + 4.2313330701600911252e1) * r + 1.0)
        out[central] = q[central] * num / den

    tails = ~central
    if np.any(tails):
        pt = p[tails]
        qt = q[tails]
        r = np.where(qt < 0.0, pt, 1.0 - pt)
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        r1 = r - 1.6
        num1 = (((((((7.74545014278341407640e-4 * r1 + 2.27238449892691845833e-2) * r1
                     + 2.41780725177450611770e-1) * r1 + 1.27045825245236838258e0) * r1
                   + 3.64784832476320460504e0) * r1 + 5.76949722146069140550e0) * r1
                 + 4.63033784615654529590e0) * r1 + 1.42343711074968357734e0)
        den1 = (((((((1.05075007164441684324e-9 * r1 + 5.47593808499534494600e-4) * r1
                     + 1.51986665636164571966e-2) * r1 + 1.48103976427480074590e-1) * r1
                   + 6.89767334985100004550e-1) * r1 + 1.67638483018380384940e0) * r1
                 + 2.05319162663775882187e0) * r1 + 1.0)
        r2 = r - 5.0
        num2 = (((((((2.01033439929228813265e-7 * r2 + 2.71155556874348757815e-5) * r2
                     + 1.24266094738807843860e-3) * r2 + 2.65321895265761230930e-2) * r2
                   + 2.96560571828504891230e-1) * r2 + 1.78482653991729133580e0) * r2
                 + 5.46378491116411436990e0) * r2 + 6.65790464350110377720e0)
        den2 = (((((((2.04426310338993978564e-15 * r2 + 1.42151175831644588870e-7) * r2
                     + 1.84631831751005468180e-5) * r2 + 7.86869131145613259100e-4) * r2
                   + 1.48753612908506148525e-2) * r2 + 1.36929880922735805310e-1) * r2
                 + 5.99832206555887937690e-1) * r2 + 1.0)
        val = np.where(near, num1 / den1, num2 / den2)
        out[tails] = np.where(qt < 0.0, -val, val)

    return out[0] if scalar else out


class InvalidProcess(sc.SortCyclesError):
    """A firm-type redraw process violates its parameter restriction."""


@dataclass(frozen=True)
class ThetaRedrawProcess:
    """Firm-type redraw law with a two-state Markov rate lambda_theta_t.

    theta' = rho*theta with probability p_{t+1}, else rho*theta + Exp(lambda_{t+1}),
    where p_{t+1} = rho * lambda_{t+1} / lambda_t.  The cross-section stays
    exactly Exp(lambda_theta_t) provided lambda_low < lambda_high < lambda_low/rho.
    """

    rho: float
    lambda_low: float
    lambda_high: float
    p_stay_low: float
    p_stay_high: float

    def __post_init__(self):
        # rho = 0 is the full-redraw (i.i.d.) limit and is admitted
        if not 0.0 <= self.rho < 1.0:
            raise sc.DomainError(f"rho must lie in [0, 1), got {self.rho}")
        if not (self.lambda_low > 0.0 and self.lambda_high > 0.0):
            raise sc.DomainError("redraw rates must be positive")
        if not 0.0 <= self.p_stay_low <= 1.0 or not 0.0 <= self.p_stay_high <= 1.0:
            raise sc.DomainError("stay probabilities must lie in [0, 1]")

    @property
    def rates(self):
        return (self.lambda_low, self.lambda_high)

    def check_valid(self):
        """Raise InvalidProcess unless every implied keep probability lies in [0, 1]."""
        for lam_from in self.rates:
            for lam_to in self.rates:
                p = self.rho * lam_to / lam_from
                if not 0.0 <= p <= 1.0:
                    raise InvalidProcess(
                        f"keep probability rho*lambda'/lambda = {p:.6g} outside [0, 1] "
                        f"(requires lambda_low < lambda_high < lambda_low/rho; got "
                        f"lambda_low={self.lambda_low}, lambda_high={self.lambda_high}, rho={self.rho})")


def theta_process_check(process, n, T, seed):
    """Simulate the firm-type redraw law and KS-test exponential stationarity.

    Start from the exact stationary cross-section, evolve n firms T periods
    under theta' = rho theta (+ Exp(lambda') with prob 1 - rho lambda'/lambda),
    and compare the empirical distribution against Exp(lambda_t) at five
    checkpoints.  Passing requires sqrt(n) * KS < 1.95 at >= 4 of 5.  The
    rate follows a two-state chain with the process's stay probabilities.
    """
    process.check_valid()
    rate_chain = sc.MarkovChain2(z_high=0.0, p_stay_low=process.p_stay_low,
                                 p_stay_high=process.p_stay_high)
    states = dynamics.draw_state_path(rate_chain, T, seed, stream_label="theta-state")
    rates = np.array(process.rates)[np.concatenate(([0], states))]

    theta = exponential_icdf(block_uniforms(seed, "theta-init", 0, n)[:, 0], rates[0])
    checkpoints = sorted(set(np.linspace(T // 5, T, 5, dtype=int)))
    passes = 0
    blocks_per_period = (n + 1) // 2  # two firms per block: (keep-u, redraw-u) pairs
    for t in range(1, T + 1):
        u = block_uniforms(seed, "theta-step", (t - 1) * blocks_per_period, blocks_per_period)
        u = u.reshape(-1, 2)[:n]
        p_keep = process.rho * rates[t] / rates[t - 1]
        eps = exponential_icdf(u[:, 1], rates[t])
        theta = process.rho * theta + np.where(u[:, 0] < p_keep, 0.0, eps)
        if t in checkpoints:
            sorted_theta = np.sort(theta)
            cdf = 1.0 - np.exp(-rates[t] * sorted_theta)
            grid = np.arange(1, n + 1) / n
            ks = float(max(np.max(np.abs(grid - cdf)), np.max(np.abs(grid - 1.0 / n - cdf))))
            if math.sqrt(n) * ks < 1.95:
                passes += 1
    return verify.CheckResult("theta_process_stationarity", float(passes), 4.0, passes >= 4)
