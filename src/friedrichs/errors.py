"""Exception hierarchy for the friedrichs package.

ModelValidityError subclasses indicate that the requested total
quasi-momentum p violates the model hypotheses (no unique non-degenerate
band maximum); the CLI maps them to exit code 2.  ConfigError subclasses
indicate an unusable model configuration and map to exit code 1.
"""


class FriedrichsError(Exception):
    """Base class for all package errors."""


class InvalidInputError(FriedrichsError, ValueError):
    """Raised on non-finite or otherwise malformed numeric input."""


class ConfigError(FriedrichsError, ValueError):
    """Raised when a model configuration cannot be used."""


class TrivialFormFactorError(ConfigError):
    """Form factor is identically zero."""


class InvalidDispersionError(ConfigError):
    """Dispersion coefficients are unusable (e.g. non-positive hopping)."""


class ModelValidityError(FriedrichsError):
    """The model hypotheses fail at the requested quasi-momentum."""


class DegenerateMaximumError(ModelValidityError):
    """The band maximum has a Hessian that is not negative definite."""


class NonUniqueMaximumError(ModelValidityError):
    """Two distinct maximizers attain the band edge within tolerance."""


class NewtonConvergenceError(ModelValidityError):
    """Newton polishing of a critical point did not converge."""


class QuadratureError(FriedrichsError):
    """Base class for quadrature failures."""


class BelowThresholdError(QuadratureError, ValueError):
    """Spectral parameter z lies below the band edge M(p)."""


class QuadratureNotConvergedError(QuadratureError):
    """Refinement did not reach the target tolerance."""


class ExpansionFitError(FriedrichsError):
    """Least-squares fit of the edge expansion failed its residual gate."""


class BracketingError(FriedrichsError):
    """Root finding failed: no sign change on the bracket, a NaN value of
    the objective, or no convergence within the iteration limit."""


def check_coupling(mu):
    """Raise InvalidInputError unless mu is positive and finite."""
    if not 0.0 < mu < float("inf"):
        raise InvalidInputError("mu = %r is not positive and finite"
                                % (float(mu),))
