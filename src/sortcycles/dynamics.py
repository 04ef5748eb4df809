"""Household dynamics: steady states, the consumption policy on a (K, z)
grid, stochastic simulation, and generalized impulse responses.

The aggregate economy behaves like a stochastic growth model whose period
"technology" is the within-period equilibrium of :mod:`sortcycles.statics`.
Two exact scale facts make the dynamic problem cheap: holding the shock state
fixed, Y, factor incomes and w0 are homogeneous of degree alpha in K and R of
degree alpha-1, while lambda_t, the labor share, measured TFP and the three
dispersions do not depend on K at all.  The chain has two states, so one
table of K=1 statics per state (:func:`state_table`) serves everything: the
policy solver evaluates resources and rental rates off-grid from it, and
simulations and impulse responses index it with the state path and scale by
the matching power of K.  The solver itself is time iteration: given next
period's consumption rule, the Euler equation is solved node by node with
bisection (the Euler residual is strictly increasing in current consumption),
and the rule is interpolated piecewise-linearly between nodes.

Impulse responses are generalized: treated/control path pairs share every
random innovation, the treated path is forced into the high-z state at
horizon zero, the control into the boom state, and both follow the chain
afterwards.  Common random numbers remove simulation noise from the
difference at desk-scale replication counts.  All pairs advance together,
one horizon at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BracketFailure, DomainError, GridExit, NoConvergence
from .params import (AggregateShockState, LogVolProcess, MarkovChain2, ThetaRedrawProcess,
                     ValidatedParams)
from .rng import block_uniforms, normal_icdf
from .statics import measured_tfp, solve_static
from .firms import analytic_moments


@dataclass(frozen=True)
class GridSpec:
    """Capital grid: n log-spaced nodes spanning the scaled steady-state hull."""

    n: int = 400
    lo_frac: float = 0.5
    hi_frac: float = 1.5

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("grid needs at least 2 nodes")
        if not 0.0 < self.lo_frac < self.hi_frac:
            raise DomainError("grid fractions must satisfy 0 < lo < hi")


@dataclass(frozen=True)
class Policy:
    """Converged savings/consumption rule on the capital grid."""

    K_grid: np.ndarray
    z_states: tuple[float, float]
    P: np.ndarray
    C: np.ndarray        # (2, n) consumption at nodes
    K_next: np.ndarray   # (2, n) savings at nodes; C + K_next = resources exactly
    resources: np.ndarray
    R1: np.ndarray       # rental rate at K=1 per state
    income1: np.ndarray  # household income at K=1 per state
    n_iterations: int
    sup_diff: float

    def consumption(self, state: int, K: float) -> float:
        return kernels.interp(self.K_grid, self.C[state], K)


@dataclass(frozen=True)
class SimulationPath:
    """Per-period record of a simulated economy."""

    states: np.ndarray
    z: np.ndarray
    K: np.ndarray
    Y: np.ndarray
    C: np.ndarray
    measured_tfp: np.ndarray
    lambda_t: np.ndarray
    var_log_wage: np.ndarray
    var_log_tfpq: np.ndarray
    var_log_tfpr: np.ndarray
    labor_share: np.ndarray
    R: np.ndarray
    w0: np.ndarray
    income: np.ndarray
    seed: int
    burn_in: int

    def __len__(self) -> int:
        return self.z.shape[0]

    def post_burn(self, series: np.ndarray) -> np.ndarray:
        return series[self.burn_in:]

    def moments(self) -> dict[str, float]:
        """Time-averaged moments over the post-burn-in sample."""
        sl = slice(self.burn_in, None)
        return {
            "labor_share": float(np.mean(self.labor_share[sl])),
            "wage_inequality": float(np.mean(self.var_log_wage[sl])),
            "var_log_tfpq": float(np.mean(self.var_log_tfpq[sl])),
            "var_log_tfpr": float(np.mean(self.var_log_tfpr[sl])),
            "std_tfp": float(np.std(self.measured_tfp[sl])),
            "mean_Y": float(np.mean(self.Y[sl])),
            "mean_C": float(np.mean(self.C[sl])),
            "mean_K": float(np.mean(self.K[sl])),
            "recession_frequency": float(np.mean(self.states[sl])),
        }


@dataclass(frozen=True)
class IRFResult:
    """Mean treated-minus-control deviations by horizon."""

    horizon: int
    d_log_Y: np.ndarray
    d_measured_tfp: np.ndarray
    d_var_log_wage: np.ndarray
    d_var_log_tfpq: np.ndarray
    d_var_log_tfpr: np.ndarray
    n_episodes: int


@dataclass(frozen=True)
class StateTable:
    """Within-period statics at K=1, one entry per chain state.

    At capital K a period in state s has Y, household income and w0 equal to
    the K=1 value times K**alpha and R equal to it times K**(alpha-1); the
    other columns do not depend on K.
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


def state_table(params: ValidatedParams, chain: MarkovChain2, A: float = 1.0) -> StateTable:
    """Solve the statics once per chain state at K=1."""
    rows = []
    for z in chain.z_states:
        eq = solve_static(params, AggregateShockState.from_params(params, z=z, A=A), 1.0)
        rows.append((eq.shock.z, eq.Y, eq.household_income, eq.R, eq.w0, eq.lambda_t,
                     eq.labor_share, measured_tfp(eq), *analytic_moments(eq, params, eq.shock)))
    return StateTable(*(np.array(col) for col in zip(*rows)))


def steady_state(params: ValidatedParams, z_fixed: float, A: float = 1.0) -> tuple[float, float]:
    """Deterministic steady state (K*, C*) of the fixed-shock economy.

    K* solves beta (R(K*) + 1 - delta) = 1 by bisection; R is strictly
    decreasing in K (its elasticity is alpha - 1 < 0).  C* then follows from
    the budget constraint with investment at replacement level.
    """
    shock = AggregateShockState.from_params(params, z=z_fixed, A=A)
    r_star = 1.0 / params.beta - 1.0 + params.delta

    def rental(K: float) -> float:
        return solve_static(params, shock, K).R

    lo = 1e-8
    if rental(lo) <= r_star:
        raise BracketFailure("rental rate below the Euler target even at minimal capital")
    hi = 1.0
    for _ in range(200):
        if rental(hi) < r_star:
            break
        hi *= 2.0
    else:  # pragma: no cover
        raise BracketFailure("could not bracket the steady-state capital stock")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rental(mid) > r_star:
            lo = mid
        else:
            hi = mid
    k_star = 0.5 * (lo + hi)
    eq = solve_static(params, shock, k_star)
    c_star = eq.household_income - params.delta * k_star
    return k_star, c_star


def solve_policy(params: ValidatedParams, chain: MarkovChain2, A: float = 1.0,
                 grid_spec: GridSpec | None = None, tol: float = 1e-9,
                 max_iter: int = 10_000) -> Policy:
    """Time iteration on the Euler equation until the consumption rule is fixed."""
    spec = grid_spec or GridSpec()
    k_stars = [steady_state(params, z, A)[0] for z in chain.z_states]
    K_lo = spec.lo_frac * min(k_stars)
    K_hi = spec.hi_frac * max(k_stars)
    K_grid = np.exp(np.linspace(math.log(K_lo), math.log(K_hi), spec.n))
    # pin the ends exactly so hull checks are not hostage to exp/log rounding
    K_grid[0], K_grid[-1] = K_lo, K_hi

    table = state_table(params, chain, A)
    R1, income1 = table.R, table.income
    res = (1.0 - params.delta) * K_grid[None, :] + income1[:, None] * K_grid[None, :] ** params.alpha
    P = np.asarray(chain.transition_matrix, dtype=float)

    C0 = np.maximum(res - K_grid[None, :], 0.05 * res)
    C, n_iter, sup = kernels.time_iteration(
        C0.copy(), K_grid, res, R1, params.alpha - 1.0, 1.0 - params.delta,
        P, params.beta, tol, max_iter)
    if sup >= tol:
        raise NoConvergence(f"time iteration stalled after {n_iter} sweeps (sup diff {sup:.3g})")
    C = np.asarray(C)
    return Policy(K_grid=K_grid, z_states=chain.z_states, P=P, C=C, K_next=res - C,
                  resources=res, R1=R1, income1=income1, n_iterations=int(n_iter),
                  sup_diff=float(sup))


def euler_residuals(policy: Policy, params: ValidatedParams, points: np.ndarray,
                    states: np.ndarray) -> np.ndarray:
    """Unit-free Euler residuals |beta E[(C/C')(R'+1-delta)] - 1| off grid."""
    out = np.empty(points.shape[0])
    omd = 1.0 - params.delta
    am1 = params.alpha - 1.0
    for i, (K, s) in enumerate(zip(points, states)):
        s = int(s)
        c = policy.consumption(s, K)
        resources = omd * K + policy.income1[s] * K ** params.alpha
        kp = resources - c
        q = 0.0
        for sp in range(2):
            cp = policy.consumption(sp, kp)
            q += policy.P[s, sp] * (policy.R1[sp] * kp ** am1 + omd) / cp
        out[i] = abs(params.beta * c * q - 1.0)
    return out


def draw_state_path(chain: MarkovChain2, T: int, seed: int, s0: int = 0,
                    stream_label: str = "simulate-z") -> np.ndarray:
    """Seeded Markov path of state indices (0 = boom, 1 = recession)."""
    u = block_uniforms(seed, stream_label, 0, T)[:, 0]
    return np.asarray(kernels.state_path(u, chain.p_stay_low, chain.p_stay_high, s0))


def simulate(policy: Policy, params: ValidatedParams, chain: MarkovChain2,
             T: int = 10_000, burn_in: int = 100, seed: int = 0, A: float = 1.0,
             K0: float | None = None, s0: int = 0) -> SimulationPath:
    """Simulate the economy for T periods and record the full period statics.

    The capital recursion interpolates the policy table.  Each recorded
    period's statics are the state's K=1 values from :func:`state_table`
    scaled by the exact power of K_t, so consumption satisfies the budget
    identity at the simulated capital stock rather than by grid
    interpolation.
    """
    if T <= burn_in:
        raise DomainError(f"T={T} must exceed burn_in={burn_in}")
    states = draw_state_path(chain, T, seed)
    if K0 is None:
        K0 = steady_state(params, chain.z_states[s0], A)[0]
    kpath = np.asarray(kernels.kpath(float(K0), states, policy.K_grid, policy.K_next))
    lo, hi = policy.K_grid[0], policy.K_grid[-1]
    bad = np.where((kpath < lo) | (kpath > hi))[0]
    if bad.size:
        raise GridExit(int(bad[0]), float(kpath[bad[0]]))

    table = state_table(params, chain, A)
    K = kpath[:-1]
    K_alpha = K ** params.alpha
    income = table.income[states] * K_alpha
    C = (1.0 - params.delta) * K + income - kpath[1:]
    if np.any(C <= 0.0):
        t_bad = int(np.argmax(C <= 0.0))
        raise NoConvergence(f"nonpositive consumption at period {t_bad}; grid too narrow")
    return SimulationPath(
        states=states, z=table.z[states], K=K, Y=table.Y[states] * K_alpha, C=C,
        measured_tfp=table.measured_tfp[states], lambda_t=table.lambda_t[states],
        var_log_wage=table.var_log_wage[states], var_log_tfpq=table.var_log_tfpq[states],
        var_log_tfpr=table.var_log_tfpr[states], labor_share=table.labor_share[states],
        R=table.R[states] * K ** (params.alpha - 1.0), w0=table.w0[states] * K_alpha,
        income=income, seed=seed, burn_in=burn_in)


def impulse_response(policy: Policy, params: ValidatedParams, chain: MarkovChain2,
                     horizon: int = 20, n_sims: int = 1000, seed: int = 0,
                     A: float = 1.0) -> IRFResult:
    """Generalized IRF to entering the high-z state, averaged over the
    ergodic boom distribution of capital.

    Initial capital stocks are boom-period values from a presimulated path;
    each episode then runs a treated path (forced z = z_high at horizon 0)
    and a control path (z = z_low) under common chain innovations.
    """
    if n_sims < 1:
        raise DomainError("n_sims must be at least 1")
    if horizon < 0:
        raise DomainError("horizon must be nonnegative")
    stride = 10
    presim_T = 200 + stride * n_sims
    pre_states = draw_state_path(chain, presim_T, seed, stream_label="irf-presim")
    K0 = steady_state(params, chain.z_states[0], A)[0]
    pre_k = np.asarray(kernels.kpath(K0, pre_states, policy.K_grid, policy.K_next))
    boom_k = pre_k[:-1][pre_states == 0]
    boom_k = boom_k[200:] if boom_k.shape[0] > 200 + n_sims else boom_k
    if boom_k.shape[0] == 0:
        boom_k = np.array([K0])  # chain never visits the boom; condition on its steady state
    idx = (np.arange(n_sims) * max(1, boom_k.shape[0] // n_sims)) % boom_k.shape[0]
    inits = boom_k[idx]

    u_all = block_uniforms(seed, "irf-chain", 0, n_sims * max(horizon, 1))[:, 0]
    u_all = u_all.reshape(n_sims, max(horizon, 1))

    table = state_table(params, chain, A)
    stay = np.array([chain.p_stay_low, chain.p_stay_high])
    # row 0 is the treated path of every episode, row 1 its control
    s = np.array([np.ones(n_sims, dtype=np.int64), np.zeros(n_sims, dtype=np.int64)])
    K = np.array([inits, inits])
    acc = np.empty((horizon + 1, 5))
    for h in range(horizon + 1):
        rec = np.array([np.log(table.Y[s] * K ** params.alpha), table.measured_tfp[s],
                        table.var_log_wage[s], table.var_log_tfpq[s], table.var_log_tfpr[s]])
        acc[h] = np.mean(rec[:, 0] - rec[:, 1], axis=1)
        if h == horizon:
            break
        # np.interp clamps at the grid ends, as the kpath recursion does
        K = np.where(s == 0, np.interp(K, policy.K_grid, policy.K_next[0]),
                     np.interp(K, policy.K_grid, policy.K_next[1]))
        s = np.where(u_all[:, h] < stay[s], s, 1 - s)
    return IRFResult(horizon=horizon, d_log_Y=acc[:, 0], d_measured_tfp=acc[:, 1],
                     d_var_log_wage=acc[:, 2], d_var_log_tfpq=acc[:, 3],
                     d_var_log_tfpr=acc[:, 4], n_episodes=n_sims)


def generate_shock_path(params: ValidatedParams,
                        process: MarkovChain2 | ThetaRedrawProcess | LogVolProcess,
                        T: int, seed: int) -> list[AggregateShockState]:
    """Aggregate shock-state sequences for any of the supported driver laws.

    MarkovChain2 varies z; ThetaRedrawProcess varies lambda_theta_t (the
    aggregate law only; the firm-level redraw construction is exercised by
    the verification module); LogVolProcess varies the wedge volatilities.
    """
    if isinstance(process, MarkovChain2):
        states = draw_state_path(process, T, seed, stream_label="shock-z")
        return [AggregateShockState.from_params(params, z=process.z_states[int(s)]) for s in states]
    if isinstance(process, ThetaRedrawProcess):
        process.check_valid()
        chain = MarkovChain2(z_high=0.0, p_stay_low=process.p_stay_low,
                             p_stay_high=process.p_stay_high)
        states = draw_state_path(chain, T, seed, stream_label="shock-lambda")
        return [AggregateShockState.from_params(params, z=0.0,
                                                lambda_theta_t=process.rates[int(s)])
                for s in states]
    if isinstance(process, LogVolProcess):
        u = block_uniforms(seed, "shock-vol", 0, T)
        e1 = process.sigma_l * normal_icdf(u[:, 0])
        e2 = process.sigma_k * normal_icdf(u[:, 1])
        out = []
        log_s1 = math.log(params.sigma1) if params.sigma1 > 0 else 0.0
        log_s2 = math.log(params.sigma2) if params.sigma2 > 0 else 0.0
        anchor1, anchor2 = log_s1, log_s2
        for t in range(T):
            log_s1 = anchor1 + process.rho1 * (log_s1 - anchor1) + e1[t]
            log_s2 = anchor2 + process.rho2 * (log_s2 - anchor2) + e2[t]
            out.append(AggregateShockState.from_params(
                params, z=0.0,
                sigma1_t=math.exp(log_s1) if params.sigma1 > 0 else 0.0,
                sigma2_t=math.exp(log_s2) if params.sigma2 > 0 else 0.0))
        return out
    raise DomainError(f"unsupported shock process type {type(process).__name__}")
