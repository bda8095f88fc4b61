"""Error taxonomy.

Domain errors are rejected inputs; numeric failures are computations that
started from valid inputs but could not finish reliably. The CLI maps the
former to exit code 2 and the latter to exit code 3.
"""


class DomainError(ValueError):
    """An argument is outside the model's domain."""


class DegenerateRadiusError(DomainError):
    """r = 0 was passed to an operation that integrates over the window."""


class SignalOutsideSupportError(DomainError):
    """The signal lies outside the sampling window of a finite-radius policy."""


class UndefinedOddsError(DomainError):
    """Source-quality odds are undefined when only one type exists (h in {0, 1})."""


class NumericFailure(RuntimeError):
    """A numerical routine could not meet its reliability contract."""


class QuadratureError(NumericFailure):
    """The double quadrature degenerated, its state rule would exceed
    quadrature.MAX_STATE_NODES nodes, the action map would add more than
    ABS_TOL * prior_var to the loss it serves, or a value of
    censor.expected_utility, censor.signal_moments_vs_r,
    inference.expected_action or the soft-window objective failed its
    self-check, quadrature._checked: its Kronrod value and the embedded
    Gauss value from the same tensor differ by more than 1e3 * ABS_TOL in
    the quantity's unit (prior_var for a utility or a variance, its square
    root for an action, 1 for a correlation), under the rule as configured
    and again with quad_nodes doubled. Re-run with more quad_nodes."""


class ScanBoundError(NumericFailure):
    """The objective is still rising above the no-restriction benchmark, by
    more than INVARIANT_TOL * prior_var, at the scan boundary. The scan
    reaches the converged tail, so the likely cause is a quadrature too
    coarse for the parameters; re-run with more quad_nodes."""


class RejectionStallError(NumericFailure):
    """Rejection sampling acceptance rate fell below the stall threshold."""


class ConfigError(ValueError):
    """Invalid run configuration (CLI flags, config file, or parameter keys)."""
