"""Structural parameters, exogenous shock processes, and configuration loading.

Everything here is an immutable value object that checks itself whenever it
is built, ``dataclasses.replace`` included: a ``ModelParams`` that exists
satisfies the technology and distribution assumptions, so model code never
sees an unchecked point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import DomainError


def is_finite_real(value) -> bool:
    """Whether value is a finite int or float (a bool is neither): the one
    rule every number the package reads from a user must pass."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def require_finite_floats(obj, names: tuple[str, ...]) -> None:
    """Check each named field of the frozen dataclass ``obj`` with
    :func:`is_finite_real`, DomainError naming the first that fails, and store
    it as a Python float."""
    for name in names:
        value = getattr(obj, name)
        if not is_finite_real(value):
            raise DomainError(f"{name} must be a finite real number, got {value!r}")
        if type(value) is not float:  # skips the write for a replaced point's old fields
            object.__setattr__(obj, name, float(value))


def require_ints(**counts) -> None:
    """DomainError naming the first of ``counts`` that is no int (a bool is
    not one): the rule of every count the package takes."""
    for name, value in counts.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")


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

    Construction raises DomainError naming the violated assumption and stores
    every field as a Python float.  kappa = (xi-1)/xi and
    eta_q = xi / (1 + (1-alpha-gamma)(xi-1)) are derived once per point;
    equality and hashing read the ten fields alone.
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
    kappa: float = field(init=False, repr=False, compare=False)
    eta_q: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_finite_floats(self, _PARAM_KEYS)
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if not self.alpha + self.gamma < 1.0:
            raise DomainError(f"alpha+gamma must be < 1 (decreasing returns), "
                              f"got {self.alpha + self.gamma}")
        if not self.xi > 1.0:
            raise DomainError(f"xi must exceed 1, got {self.xi}")
        if not 0.0 <= self.psi <= 1.0:
            raise DomainError(f"psi must lie in [0, 1], got {self.psi}")
        if not self.lambda_x > 0.0:
            raise DomainError(f"lambda_x must be positive, got {self.lambda_x}")
        if not self.lambda_theta > 0.0:
            raise DomainError(f"lambda_theta must be positive, got {self.lambda_theta}")
        if not self.sigma1 >= 0.0:
            raise DomainError(f"sigma1 must be nonnegative, got {self.sigma1}")
        if not self.sigma2 >= 0.0:
            raise DomainError(f"sigma2 must be nonnegative, got {self.sigma2}")
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError(f"delta must lie in [0, 1], got {self.delta}")
        object.__setattr__(self, "kappa", (self.xi - 1.0) / self.xi)
        object.__setattr__(self, "eta_q",
                           self.xi / (1.0 + (1.0 - self.alpha - self.gamma) * (self.xi - 1.0)))


#: the fields a config's "params" object holds: the ten constructor arguments
_PARAM_KEYS = tuple(f.name for f in fields(ModelParams) if f.init)


@dataclass(frozen=True)
class AggregateShockState:
    """The time-varying exogenous drivers of one period, held as finite Python floats.

    z is the market-efficiency level: the loading of the labor wedge on firm
    type.  z = 0 is admitted (it is the boom state of the calibration) even
    though the theory's maintained assumption is z > 0; every formula is
    continuous at z = 0.  A is total factor productivity.  The firm-type rate
    and the wedge volatilities are structural: every formula reads them from
    the parameters.
    """

    z: float
    A: float = 1.0

    def __post_init__(self):
        require_finite_floats(self, ("z", "A"))
        if not self.z >= 0.0:
            raise DomainError(f"z must be nonnegative, got {self.z}")
        if not self.A > 0.0:
            raise DomainError(f"A must be positive, got {self.A}")


@dataclass(frozen=True)
class MarkovChain2:
    """Two-state market-efficiency chain: z in {z_low, z_high}.

    State 0 is the boom (low z), state 1 the recession (high z), so z_low
    may not exceed z_high.
    p_stay_low / p_stay_high are the probabilities of remaining in each state.
    Every field is held as a finite Python float.
    """

    z_high: float
    p_stay_low: float
    p_stay_high: float
    z_low: float = 0.0

    def __post_init__(self):
        require_finite_floats(self, _CHAIN_KEYS)
        if not 0.0 <= self.p_stay_low <= 1.0:
            raise DomainError(f"p_stay_low must lie in [0, 1], got {self.p_stay_low}")
        if not 0.0 <= self.p_stay_high <= 1.0:
            raise DomainError(f"p_stay_high must lie in [0, 1], got {self.p_stay_high}")
        if not self.z_low >= 0.0:
            raise DomainError(f"z_low must be nonnegative, got {self.z_low}")
        if not self.z_high >= 0.0:
            raise DomainError(f"z_high must be nonnegative, got {self.z_high}")
        if not self.z_low <= self.z_high:
            raise DomainError(f"z_low must not exceed z_high (state 0 is the boom), got "
                              f"z_low={self.z_low}, z_high={self.z_high}")

    @property
    def z_states(self) -> tuple[float, float]:
        return (self.z_low, self.z_high)

    @property
    def transition_matrix(self):
        return ((self.p_stay_low, 1.0 - self.p_stay_low),
                (1.0 - self.p_stay_high, self.p_stay_high))


#: the fields a config's "chain" object may hold, z_low optional
_CHAIN_KEYS = tuple(f.name for f in fields(MarkovChain2))

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


# --- JSON configuration -----------------------------------------------------


def require_keys(section: dict, allowed: tuple[str, ...], required: tuple[str, ...], where: str) -> None:
    """DomainError naming ``where`` unless every key of ``section`` is allowed
    and every required key is present."""
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


def load_config(path: str | Path) -> tuple[ModelParams, MarkovChain2]:
    """Read a {"params": {...}, "chain": {...}} JSON file.

    Field names must match the dataclasses exactly; unknown keys are an error
    so that typos in calibration sweeps fail loudly instead of silently using
    defaults.
    """
    raw = read_json_object(path, "config")
    require_keys(raw, ("params", "chain"), ("params", "chain"), "config root")
    if not isinstance(raw["params"], dict) or not isinstance(raw["chain"], dict):
        raise DomainError("'params' and 'chain' must be JSON objects")
    require_keys(raw["params"], _PARAM_KEYS, _PARAM_KEYS, "'params'")
    require_keys(raw["chain"], _CHAIN_KEYS, _CHAIN_KEYS[:3], "'chain'")
    return ModelParams(**raw["params"]), MarkovChain2(**raw["chain"])


def published_calibration() -> tuple[ModelParams, MarkovChain2]:
    """The published annual calibration (fixed block plus calibrated block)."""
    params = ModelParams(alpha=0.3, gamma=0.6, delta=0.10, beta=0.96, xi=9.0, psi=0.4022,
                         lambda_x=0.8681, lambda_theta=2.6160, sigma1=0.2293, sigma2=0.0)
    return params, PUBLISHED_CHAIN
