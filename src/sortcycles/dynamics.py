"""Household dynamics: the consumption policy on a (K, z) grid, stochastic
simulation, and generalized impulse responses.

The aggregate economy behaves like a stochastic growth model whose period
"technology" is the within-period equilibrium of :mod:`sortcycles.statics`.
Two exact scale facts make the dynamic problem cheap: holding the shock state
fixed, Y, factor incomes and w0 are homogeneous of degree alpha in K and R of
degree alpha-1, while lambda_t, the labor share, measured TFP and the three
dispersions do not depend on K at all.  The chain has two states, so one
table of K=1 statics per state (:func:`state_table`) serves everything: the
policy solver evaluates resources and rental rates at the nodes from it, a
path's columns index it with the states and scale by the power of K, and a
K-free moment of any history is its two values weighted by the history's
state shares (:func:`state_moments`, for paths and calibration alike; an
impulse response's is the gap times the treated-minus-control recession
share).  A solved :class:`Policy` carries its parameters, chain, table and
per-state steady-state capital, so simulations and impulse responses take
the policy alone and nothing downstream re-solves them.

The solver is Carroll's endogenous grid method on resources: given next
period's consumption rule at the K' nodes, the Euler equation gives today's
consumption in closed form, and so the resources that choose each node; one
``np.interp`` of every node's own resources against them is the new savings
rule, with the grid floor and ceiling saved where resources fall outside.
Every rule in this module -- consumption in the residuals, savings in the
solver and along simulated paths -- is interpolated piecewise-linearly with
``np.interp``, which clamps at the grid ends; a simulated path, one scalar
per period, steps by a plain-Python copy of its rule.

Impulse responses are generalized: treated/control path pairs share every
random innovation, the treated path is forced into the high-z state at
horizon zero, the control into the boom state, and both follow the chain
afterwards.  Common random numbers remove simulation noise from the
difference at desk-scale replication counts.  All pairs advance together,
one horizon at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridExit, NoConvergence
from .params import (AggregateShockState, MarkovChain2, ModelParams, require_finite_floats,
                     require_ints)
from .rng import block_uniforms
from .statics import StaticEquilibrium, dispersions, measured_tfp, solve_static, steady_state


@dataclass(frozen=True)
class GridSpec:
    """Capital grid: n log-spaced nodes spanning the scaled steady-state hull.
    The fractions are held as finite Python floats."""

    n: int = 400
    lo_frac: float = 0.5
    hi_frac: float = 1.5

    def __post_init__(self):
        require_ints(n=self.n)
        require_finite_floats(self, ("lo_frac", "hi_frac"))
        if self.n < 2:
            raise DomainError("grid needs at least 2 nodes")
        if not 0.0 < self.lo_frac < self.hi_frac:
            raise DomainError("grid fractions must satisfy 0 < lo < hi")


@dataclass(frozen=True)
class Policy:
    """Converged savings/consumption rule on the capital grid, with the
    parameters, chain, K=1 state table and per-state K* it was solved with."""

    params: ModelParams
    chain: MarkovChain2
    K_grid: np.ndarray
    C: np.ndarray        # (2, n) consumption at nodes
    K_next: np.ndarray   # (2, n) savings at nodes; C + K_next = the node's resources
    table: StateTable
    k_star: tuple[float, float]  # steady-state capital per state
    n_iterations: int
    sup_diff: float


@dataclass(frozen=True)
class SimulationPath:
    """A simulated economy: its state path, capital and consumption, and the
    policy whose state table gives every other column."""

    states: np.ndarray
    K: np.ndarray
    C: np.ndarray
    policy: Policy
    burn_in: int

    def __len__(self) -> int:
        return self.states.shape[0]

    def columns(self) -> dict[str, np.ndarray]:
        """The columns of ``path.csv``, in order: each period's K=1 table row
        scaled by the matching power of K_t."""
        table, alpha, s, K = self.policy.table, self.policy.params.alpha, self.states, self.K
        K_alpha = K ** alpha
        return {"t": np.arange(len(self), dtype=float), "z": table.z[s], "K": K,
                "Y": table.Y[s] * K_alpha, "C": self.C, "measured_tfp": table.measured_tfp[s],
                "lambda_t": table.lambda_t[s], "var_log_wage": table.var_log_wage[s],
                "var_log_tfpq": table.var_log_tfpq[s], "var_log_tfpr": table.var_log_tfpr[s],
                "labor_share": table.labor_share[s], "R": table.R[s] * K ** (alpha - 1.0),
                "w0": table.w0[s] * K_alpha}

    def moments(self) -> dict[str, float]:
        """Moments over the post-burn-in sample: the K-free ones from its
        state shares, the means of Y, C and K period by period."""
        sl, table = slice(self.burn_in, None), self.policy.table
        weights = state_shares(self.states[sl])
        Y = table.Y[self.states] * self.K ** self.policy.params.alpha  # as in columns()
        return {**state_moments(weights, table.measured_tfp, labor_share=table.labor_share,
                                wage_inequality=table.var_log_wage,
                                var_log_tfpq=table.var_log_tfpq,
                                var_log_tfpr=table.var_log_tfpr),
                "mean_Y": float(np.mean(Y[sl])),
                "mean_C": float(np.mean(self.C[sl])), "mean_K": float(np.mean(self.K[sl])),
                "recession_frequency": weights[1]}


@dataclass(frozen=True)
class StateTable:
    """Within-period statics at K=1, one entry per chain state.

    At capital K a period in state s has Y, household income and w0 equal to
    the K=1 value times K**alpha and R equal to it times K**(alpha-1); the
    other columns do not depend on K.  ``equilibria`` keeps each state's K=1
    solve, for K-free statistics the columns do not carry (the calibration's
    revenue-concentration shares).
    """

    z: np.ndarray
    Y: np.ndarray
    income: np.ndarray
    R: np.ndarray
    w0: np.ndarray
    lambda_t: np.ndarray
    labor_share: np.ndarray
    measured_tfp: np.ndarray
    var_log_wage: np.ndarray
    var_log_tfpq: np.ndarray
    var_log_tfpr: np.ndarray
    equilibria: tuple[StaticEquilibrium, ...]


def state_table(params: ModelParams, chain: MarkovChain2) -> StateTable:
    """Solve the statics once per chain state at K=1."""
    eqs = tuple(solve_static(params, AggregateShockState(z=z), 1.0) for z in chain.z_states)
    rows = [(eq.shock.z, eq.Y, eq.household_income, eq.R, eq.w0, eq.lambda_t,
             eq.labor_share, measured_tfp(eq), *dispersions(eq.params, eq.shock, eq.lambda_t))
            for eq in eqs]
    return StateTable(*(np.array(col) for col in zip(*rows)), equilibria=eqs)


def state_shares(states: np.ndarray) -> tuple[float, float]:
    """(w_boom, w_recession): the shares of the two states in a state path."""
    f = float(np.mean(states))
    return (1.0 - f, f)


def state_moments(weights: tuple[float, float], measured_tfp,
                  **columns) -> dict[str, float]:
    """The K-free moments of a history whose two states have shares
    ``weights``: each named per-state column's average w_0·c_0 + w_1·c_1,
    then std_tfp, the std of two-valued measured TFP, |gap|·sqrt(w_0·w_1)."""
    w0, w1 = weights
    return {**{name: w0 * c[0] + w1 * c[1] for name, c in columns.items()},
            "std_tfp": abs(measured_tfp[1] - measured_tfp[0]) * math.sqrt(w0 * w1)}


def solve_policy(params: ModelParams, chain: MarkovChain2,
                 grid_spec: GridSpec | None = None, tol: float = 1e-9,
                 max_iter: int = 10_000) -> Policy:
    """Endogenous-grid iteration on the Euler equation until the consumption
    rule is fixed.

    Each sweep takes next period's rule at the K' nodes, reads today's
    consumption c = 1/(beta E[(R' + 1 - delta)/C']) from the Euler equation,
    and so the resources m = c + K' that choose each node.  Inverting m by
    ``np.interp`` at every node's own resources gives the savings rule; its
    clamping saves the grid floor or ceiling where resources fall outside
    the endogenous grid.  A grid whose floor is not below every node's
    resources leaves no consumption there and raises DomainError.
    """
    spec = grid_spec or GridSpec()
    k_star = tuple(steady_state(params, z)[0] for z in chain.z_states)
    K_lo = spec.lo_frac * min(k_star)
    K_hi = spec.hi_frac * max(k_star)
    K_grid = np.exp(np.linspace(math.log(K_lo), math.log(K_hi), spec.n))
    # pin the ends exactly so hull checks are not hostage to exp/log rounding
    K_grid[0], K_grid[-1] = K_lo, K_hi

    table = state_table(params, chain)
    omd = 1.0 - params.delta
    res = omd * K_grid[None, :] + table.income[:, None] * K_grid[None, :] ** params.alpha
    if np.any(res <= K_lo):
        raise DomainError(f"grid floor K={K_lo:.6g} leaves no consumption at "
                          f"{int(np.sum(res <= K_lo))} nodes: resources there do not exceed it")
    gross = table.R[:, None] * K_grid[None, :] ** (params.alpha - 1.0) + omd  # R' + 1 - delta
    P = np.asarray(chain.transition_matrix, dtype=float)

    # Start from saving the grid floor, a rule increasing in K.  If C rises in
    # K', gross/C falls, so m rises strictly and np.interp may invert it; the
    # new K_next then rises by less than res, so C rises again: every sweep
    # keeps m increasing.
    C = res - K_lo
    sup = math.inf
    sweep = 0
    for sweep in range(1, max_iter + 1):
        m = 1.0 / (params.beta * (P @ (gross / C))) + K_grid
        K_next = np.array([np.interp(res[s], m[s], K_grid) for s in range(2)])
        C_new = res - K_next
        sup = float(np.max(np.abs(C_new - C)))
        C = C_new
        if sup < tol:
            break
    if sup >= tol:
        raise NoConvergence(f"endogenous-grid iteration stalled after {sweep} sweeps "
                            f"(sup diff {sup:.3g})")
    return Policy(params=params, chain=chain, K_grid=K_grid, C=C, K_next=K_next,
                  table=table, k_star=k_star, n_iterations=sweep, sup_diff=sup)


def euler_residuals(policy: Policy, params: ModelParams, points: np.ndarray,
                    states: np.ndarray) -> np.ndarray:
    """Unit-free Euler residuals |beta E[(C/C')(R'+1-delta)] - 1| off grid."""
    if params != policy.params:
        raise DomainError("euler_residuals: params differ from those the policy was solved with")
    K = np.asarray(points, dtype=float)
    s = np.asarray(states, dtype=np.int64)
    omd = 1.0 - params.delta
    P = np.asarray(policy.chain.transition_matrix, dtype=float)
    c = np.where(s == 0, np.interp(K, policy.K_grid, policy.C[0]),
                 np.interp(K, policy.K_grid, policy.C[1]))
    kp = omd * K + policy.table.income[s] * K ** params.alpha - c
    rk = kp ** (params.alpha - 1.0)
    R1 = policy.table.R
    q = (P[s, 0] * (R1[0] * rk + omd) / np.interp(kp, policy.K_grid, policy.C[0])
         + P[s, 1] * (R1[1] * rk + omd) / np.interp(kp, policy.K_grid, policy.C[1]))
    return np.abs(params.beta * c * q - 1.0)


def draw_state_path(chain: MarkovChain2, T: int, seed: int,
                    stream_label: str = "simulate-z") -> np.ndarray:
    """Seeded path s_1..s_T of the chain's state indices (0 = boom,
    1 = recession) from state 0: the chain stays while u_t is below the
    current state's stay probability and switches otherwise.
    """
    u = block_uniforms(seed, stream_label, 0, T)[:, 0]
    stay = (chain.p_stay_low, chain.p_stay_high)
    s = np.empty(T, dtype=np.int64)
    cur = 0
    for t, u_t in enumerate(u.tolist()):
        if u_t >= stay[cur]:
            cur = 1 - cur
        s[t] = cur
    return s


def _capital_path(policy: Policy, K0: float, states: np.ndarray) -> np.ndarray:
    """Capital path K_0..K_T under the savings rule, state by state.

    Each period is the scalar ``np.interp(K, K_grid, K_next[s])`` in plain
    Python, bit for bit on a finite grid: the same clamps at the grid ends
    and np.interp's formula slope·(K - x_j) + y_j from the node x_j at or
    below K, which gives y_j at a node.  A NaN stays NaN.
    """
    xp = policy.K_grid.tolist()
    rules = policy.K_next.tolist()
    lo, hi = xp[0], xp[-1]
    k = float(K0)
    out = [k]
    for s in states.tolist():
        fp = rules[s]
        if k < lo:
            k = fp[0]
        elif k < hi:
            j = bisect_right(xp, k) - 1
            k = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (k - xp[j]) + fp[j]
        elif k >= hi:
            k = fp[-1]
        out.append(k)
    return np.array(out)


def simulate(policy: Policy, T: int = 10_000, burn_in: int = 100, seed: int = 0,
             K0: float | None = None) -> SimulationPath:
    """Simulate the economy for T periods.

    The states follow the policy's chain from the boom.  The capital
    recursion interpolates the policy's savings rule and starts, unless K0
    is given, at the boom steady state.  Consumption is each period's
    income, the state's K=1 value scaled by K_t**alpha, plus undepreciated
    capital less the savings, so it satisfies the budget identity at the
    simulated capital stock rather than by grid interpolation.
    """
    require_ints(T=T, burn_in=burn_in)
    if burn_in < 0:
        raise DomainError(f"burn_in={burn_in} must be nonnegative")
    if T <= burn_in:
        raise DomainError(f"T={T} must exceed burn_in={burn_in}")
    states = draw_state_path(policy.chain, T, seed)
    kpath = _capital_path(policy, policy.k_star[0] if K0 is None else float(K0), states)
    lo, hi = policy.K_grid[0], policy.K_grid[-1]
    bad = np.where((kpath < lo) | (kpath > hi))[0]
    if bad.size:
        raise GridExit(int(bad[0]), float(kpath[bad[0]]))

    K = kpath[:-1]
    income = policy.table.income[states] * K ** policy.params.alpha
    C = (1.0 - policy.params.delta) * K + income - kpath[1:]
    if np.any(C <= 0.0):
        t_bad = int(np.argmax(C <= 0.0))
        raise NoConvergence(f"nonpositive consumption at period {t_bad}; grid too narrow")
    return SimulationPath(states=states, K=K, C=C, policy=policy, burn_in=burn_in)


def impulse_response(policy: Policy, horizon: int = 20, n_sims: int = 1000,
                     seed: int = 0) -> dict[str, np.ndarray]:
    """Generalized IRF to entering the high-z state, averaged over the
    ergodic boom distribution of capital.

    Initial capital stocks are boom-period values from a presimulated path;
    each episode then runs a treated path (forced z = z_high at horizon 0)
    and a control path (z = z_low) under common innovations of the policy's
    own chain.  Only log Y is evaluated pair by pair: a K-free column's
    deviation is its gap times the treated-minus-control recession share.
    Returns the columns of ``irf.csv``, in order: the horizon h = 0..horizon,
    then the mean deviations d_log_Y, d_measured_tfp, d_var_log_wage,
    d_var_log_tfpq and d_var_log_tfpr.
    """
    require_ints(horizon=horizon, n_sims=n_sims)
    if n_sims < 1:
        raise DomainError("n_sims must be at least 1")
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
    stride = 10
    presim_T = 200 + stride * n_sims
    pre_states = draw_state_path(policy.chain, presim_T, seed, stream_label="irf-presim")
    K0 = policy.k_star[0]
    pre_k = _capital_path(policy, K0, pre_states)
    boom_k = pre_k[:-1][pre_states == 0]
    boom_k = boom_k[200:] if boom_k.shape[0] > 200 + n_sims else boom_k
    if boom_k.shape[0] == 0:
        boom_k = np.array([K0])  # chain never visits the boom; condition on its steady state
    idx = (np.arange(n_sims) * max(1, boom_k.shape[0] // n_sims)) % boom_k.shape[0]
    inits = boom_k[idx]

    u_all = block_uniforms(seed, "irf-chain", 0, n_sims * max(horizon, 1))[:, 0]
    u_all = u_all.reshape(n_sims, max(horizon, 1))

    table, alpha = policy.table, policy.params.alpha
    stay = np.array([policy.chain.p_stay_low, policy.chain.p_stay_high])
    # row 0 is the treated path of every episode, row 1 its control
    s = np.array([np.ones(n_sims, dtype=np.int64), np.zeros(n_sims, dtype=np.int64)])
    K = np.array([inits, inits])
    d_log_Y, d_share = np.empty(horizon + 1), np.empty(horizon + 1)
    for h in range(horizon + 1):
        log_Y = np.log(table.Y[s] * K ** alpha)
        d_log_Y[h] = np.mean(log_Y[0] - log_Y[1])
        d_share[h] = np.mean(s[0] - s[1])
        if h == horizon:
            break
        K = np.where(s == 0, np.interp(K, policy.K_grid, policy.K_next[0]),
                     np.interp(K, policy.K_grid, policy.K_next[1]))
        s = np.where(u_all[:, h] < stay[s], s, 1 - s)
    # each K-free deviation d_<column> is the column's gap times d_share
    kfree = {f"d_{name}": (getattr(table, name)[1] - getattr(table, name)[0]) * d_share
             for name in ("measured_tfp", "var_log_wage", "var_log_tfpq", "var_log_tfpr")}
    return {
        "h": np.arange(horizon + 1, dtype=float),
        "d_log_Y": d_log_Y,
        **kfree,
    }
