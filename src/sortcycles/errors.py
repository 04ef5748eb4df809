"""Exception hierarchy shared across the package."""


class SortCyclesError(Exception):
    """Base class for all model errors."""


class DomainError(SortCyclesError):
    """A structural parameter or configuration value violates the model's assumptions."""


class NoRoot(SortCyclesError):
    """The job-distribution equation has no nonnegative root (degenerate psi edge)."""


class UnboundedCapitalDemand(SortCyclesError):
    """lambda_theta - kappa*eta_Q*eta_Q_theta <= 0: the capital-demand integral diverges."""


class NonFinite(SortCyclesError):
    """An intermediate quantity overflowed (log magnitude beyond the exp cap)."""


class BracketFailure(SortCyclesError):
    """A bisection bracket could not be established."""


class NoConvergence(SortCyclesError):
    """An iterative solver exhausted its iteration budget."""


class GridExit(SortCyclesError):
    """The simulated capital stock left the policy grid hull."""

    def __init__(self, period: int, value: float):
        super().__init__(f"capital left the grid hull at period {period} (K={value:g})")
        self.period = period
        self.value = value


class EmptyPanel(SortCyclesError):
    """A cross-section operation received an empty firm panel."""

