"""Exception hierarchy shared across the package."""


class ContactPlanError(Exception):
    """Base class for all package-specific errors; layers an error passes
    through may add context to its ``diagnostics`` dict."""

    def __init__(self, *args, diagnostics: dict | None = None):
        super().__init__(*args)
        self.diagnostics = dict(diagnostics or {})


class UnbalancedStateError(ContactPlanError):
    """The robot cannot be statically supported (ground reaction not upward)."""


class InfeasibleStepError(ContactPlanError):
    """The SQP cannot go on: a non-finite iterate, a non-finite QP input,
    inconsistent equality rows (raised in two places), the active-set
    iteration limit, or a QP subproblem that stays infeasible after elastic
    relaxation."""


class PlanStepError(ContactPlanError):
    """A planning step failed; carries diagnostics and the partial trace."""

    def __init__(self, message: str, waypoint_index: int | None = None,
                 diagnostics: dict | None = None, partial_steps: list | None = None):
        super().__init__(message, diagnostics=diagnostics)
        self.waypoint_index = waypoint_index
        self.partial_steps = partial_steps or []


class ScenarioError(ContactPlanError):
    """A scenario file failed to parse or validate."""
