"""Structural parameters, exogenous shock processes, and configuration loading.

Everything here is an immutable value object.  Model code only accepts
``ValidatedParams`` (produced by :func:`validate`), so the technology and
distribution assumptions are enforced once, at the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import DomainError, InvalidProcess


@dataclass(frozen=True)
class ModelParams:
    """Structural constants: technology, preferences, type and wedge distributions.

    alpha, gamma   capital and labor intensities (decreasing returns: alpha+gamma < 1)
    delta, beta    depreciation rate and discount factor per period
    xi             CES elasticity of substitution across intermediate goods
    psi            worker-type intensity in firm productivity, in [0, 1]
    lambda_x       rate of the exponential worker-type distribution
    lambda_theta   rate of the exponential firm-type distribution (baseline)
    sigma1, sigma2 std devs of the labor- and capital-wedge shocks
    """

    alpha: float
    gamma: float
    delta: float
    beta: float
    xi: float
    psi: float
    lambda_x: float
    lambda_theta: float
    sigma1: float
    sigma2: float


@dataclass(frozen=True)
class ValidatedParams(ModelParams):
    """ModelParams that passed :func:`validate`; safe for all downstream operations."""

    @property
    def kappa(self) -> float:
        return (self.xi - 1.0) / self.xi

    @property
    def eta_q(self) -> float:
        return self.xi / (1.0 + (1.0 - self.alpha - self.gamma) * (self.xi - 1.0))


def validate(params: ModelParams) -> ValidatedParams:
    """Check the maintained assumptions and wrap the values as validated.

    Raises DomainError naming the violated constraint.  Idempotent: validating
    a ValidatedParams returns an equal object.
    """
    p = params
    for name in ("alpha", "gamma", "delta", "beta", "xi", "psi", "lambda_x", "lambda_theta", "sigma1", "sigma2"):
        v = getattr(p, name)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise DomainError(f"{name} must be a finite real number, got {v!r}")
    if not p.alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {p.alpha}")
    if not p.gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {p.gamma}")
    if not p.alpha + p.gamma < 1.0:
        raise DomainError(f"alpha+gamma must be < 1 (decreasing returns), got {p.alpha + p.gamma}")
    if not p.xi > 1.0:
        raise DomainError(f"xi must exceed 1, got {p.xi}")
    if not 0.0 <= p.psi <= 1.0:
        raise DomainError(f"psi must lie in [0, 1], got {p.psi}")
    if not p.lambda_x > 0.0:
        raise DomainError(f"lambda_x must be positive, got {p.lambda_x}")
    if not p.lambda_theta > 0.0:
        raise DomainError(f"lambda_theta must be positive, got {p.lambda_theta}")
    if not p.sigma1 >= 0.0:
        raise DomainError(f"sigma1 must be nonnegative, got {p.sigma1}")
    if not p.sigma2 >= 0.0:
        raise DomainError(f"sigma2 must be nonnegative, got {p.sigma2}")
    if not 0.0 < p.beta < 1.0:
        raise DomainError(f"beta must lie in (0, 1), got {p.beta}")
    if not 0.0 <= p.delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {p.delta}")
    return ValidatedParams(**{f.name: float(getattr(p, f.name)) for f in fields(ModelParams)})


@dataclass(frozen=True)
class AggregateShockState:
    """The time-varying exogenous drivers of one period.

    z is the market-efficiency level: the loading of the labor wedge on firm
    type.  z = 0 is admitted (it is the boom state of the calibration) even
    though the theory's maintained assumption is z > 0; every formula is
    continuous at z = 0.
    """

    z: float
    A: float = 1.0
    lambda_theta_t: float = float("nan")
    sigma1_t: float = float("nan")
    sigma2_t: float = float("nan")

    def __post_init__(self):
        if not self.z >= 0.0:
            raise DomainError(f"z must be nonnegative, got {self.z}")
        if not self.A > 0.0:
            raise DomainError(f"A must be positive, got {self.A}")

    @staticmethod
    def from_params(params: ValidatedParams, z: float, A: float = 1.0,
                    lambda_theta_t: float | None = None,
                    sigma1_t: float | None = None,
                    sigma2_t: float | None = None) -> "AggregateShockState":
        """Shock state with unspecified drivers pinned at their baseline values."""
        return AggregateShockState(
            z=float(z),
            A=float(A),
            lambda_theta_t=params.lambda_theta if lambda_theta_t is None else float(lambda_theta_t),
            sigma1_t=params.sigma1 if sigma1_t is None else float(sigma1_t),
            sigma2_t=params.sigma2 if sigma2_t is None else float(sigma2_t),
        )

    def with_z(self, z: float) -> "AggregateShockState":
        return replace(self, z=float(z))


@dataclass(frozen=True)
class MarkovChain2:
    """Two-state market-efficiency chain: z in {z_low, z_high}.

    State 0 is the boom (low z), state 1 the recession (high z).
    p_stay_low / p_stay_high are the probabilities of remaining in each state.
    """

    z_high: float
    p_stay_low: float
    p_stay_high: float
    z_low: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_stay_low <= 1.0:
            raise DomainError(f"p_stay_low must lie in [0, 1], got {self.p_stay_low}")
        if not 0.0 <= self.p_stay_high <= 1.0:
            raise DomainError(f"p_stay_high must lie in [0, 1], got {self.p_stay_high}")
        if not self.z_low >= 0.0:
            raise DomainError(f"z_low must be nonnegative, got {self.z_low}")
        if not self.z_high >= 0.0:
            raise DomainError(f"z_high must be nonnegative, got {self.z_high}")

    @property
    def z_states(self) -> tuple[float, float]:
        return (self.z_low, self.z_high)

    @property
    def transition_matrix(self):
        return ((self.p_stay_low, 1.0 - self.p_stay_low),
                (1.0 - self.p_stay_high, self.p_stay_high))


#: the published two-state chain: z in {0, 0.3984}, stay probabilities per state
PUBLISHED_CHAIN = MarkovChain2(z_high=0.3984, p_stay_low=0.977, p_stay_high=0.688)


def stationary_distribution(chain: MarkovChain2) -> tuple[float, float]:
    """Ergodic probabilities (prob_low, prob_high) solving pi = pi P.

    For the 2-state chain the linear system has the explicit solution
    pi_low = (1-p_hh) / ((1-p_ll) + (1-p_hh)).  The doubly degenerate identity
    chain (both states absorbing) has no unique stationary vector; by
    convention it returns (0.5, 0.5).
    """
    leave_low = 1.0 - chain.p_stay_low
    leave_high = 1.0 - chain.p_stay_high
    total = leave_low + leave_high
    if total == 0.0:
        return (0.5, 0.5)
    return (leave_high / total, leave_low / total)


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
            raise DomainError(f"rho must lie in [0, 1), got {self.rho}")
        if not (self.lambda_low > 0.0 and self.lambda_high > 0.0):
            raise DomainError("redraw rates must be positive")
        if not 0.0 <= self.p_stay_low <= 1.0 or not 0.0 <= self.p_stay_high <= 1.0:
            raise DomainError("stay probabilities must lie in [0, 1]")

    @property
    def rates(self) -> tuple[float, float]:
        return (self.lambda_low, self.lambda_high)

    def check_valid(self) -> None:
        """Raise InvalidProcess unless every implied keep probability lies in [0, 1]."""
        for lam_from in self.rates:
            for lam_to in self.rates:
                p = self.rho * lam_to / lam_from
                if not 0.0 <= p <= 1.0:
                    raise InvalidProcess(
                        f"keep probability rho*lambda'/lambda = {p:.6g} outside [0, 1] "
                        f"(requires lambda_low < lambda_high < lambda_low/rho; got "
                        f"lambda_low={self.lambda_low}, lambda_high={self.lambda_high}, rho={self.rho})")


@dataclass(frozen=True)
class LogVolProcess:
    """AR(1) laws for the log wedge volatilities, anchored at the baseline levels.

    log sigma_it - log sigma_i = rho_i (log sigma_{i,t-1} - log sigma_i) + eps,
    eps ~ N(0, sigma_l^2) resp. N(0, sigma_k^2).  Anchoring keeps the path
    constant at the calibrated sigmas when the innovation variances are zero.
    """

    rho1: float
    rho2: float
    sigma_l: float
    sigma_k: float

    def __post_init__(self):
        if not (-1.0 < self.rho1 < 1.0 and -1.0 < self.rho2 < 1.0):
            raise DomainError("log-volatility persistences must lie in (-1, 1)")
        if self.sigma_l < 0.0 or self.sigma_k < 0.0:
            raise DomainError("innovation std devs must be nonnegative")


# --- JSON configuration -----------------------------------------------------

_PARAM_KEYS = tuple(f.name for f in fields(ModelParams))
_CHAIN_KEYS = ("z_high", "p_stay_low", "p_stay_high", "z_low")


def _require_keys(section: dict, allowed: tuple[str, ...], required: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise DomainError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(section))
    if missing:
        raise DomainError(f"missing key(s) in {where}: {', '.join(missing)}")


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON file whose root is an object; DomainError (naming ``what``)
    if the file cannot be read, is not JSON, or has another root type."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DomainError(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise DomainError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError(f"{what} root must be a JSON object")
    return raw


def load_config(path: str | Path) -> tuple[ValidatedParams, MarkovChain2]:
    """Read a {"params": {...}, "chain": {...}} JSON file.

    Field names must match the dataclasses exactly; unknown keys are an error
    so that typos in calibration sweeps fail loudly instead of silently using
    defaults.
    """
    raw = read_json_object(path, "config")
    _require_keys(raw, ("params", "chain"), ("params", "chain"), "config root")
    if not isinstance(raw["params"], dict) or not isinstance(raw["chain"], dict):
        raise DomainError("'params' and 'chain' must be JSON objects")
    _require_keys(raw["params"], _PARAM_KEYS, _PARAM_KEYS, "'params'")
    _require_keys(raw["chain"], _CHAIN_KEYS, _CHAIN_KEYS[:3], "'chain'")
    params = validate(ModelParams(**raw["params"]))
    chain = MarkovChain2(**raw["chain"])
    return params, chain


def published_calibration() -> tuple[ValidatedParams, MarkovChain2]:
    """The published annual calibration (fixed block plus calibrated block)."""
    params = validate(ModelParams(
        alpha=0.3, gamma=0.6, delta=0.10, beta=0.96, xi=9.0,
        psi=0.4022, lambda_x=0.8681, lambda_theta=2.6160, sigma1=0.2293, sigma2=0.0,
    ))
    return params, PUBLISHED_CHAIN
