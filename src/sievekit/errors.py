"""Exception types shared across the toolkit.

The class decides the CLI exit code: 3 for a ResourceError (BudgetExceeded,
ToleranceNotMet, QuadratureFailure, LimitTooLarge, RangeOverflow,
Int64Overflow), 2 for any other SieveKitError and for a ValueError.  A
whole-number argument is refused by the ValueError "<name> = <value> must
be an integer", or "<name> = <value> must be >= <low>" below its bound.
"""


class SieveKitError(Exception):
    """Base class for every toolkit-specific error."""


class ResourceError(SieveKitError):
    """A budget, cap, tolerance or number range ran out (CLI exit 3)."""


class GcdViolation(SieveKitError):
    """Some form has gcd(a_i, b_i) != 1."""


class ZeroDiscriminant(SieveKitError):
    """Discriminant vanishes (an a_i is zero or two forms are proportional)."""


class DensityZero(SieveKitError):
    """rho(p) = 0 for a prime dividing the requested modulus."""


class ZeroFactor(SieveKitError):
    """rho(p) = p makes a singular-product factor vanish."""


class ZeroValue(SieveKitError):
    """A form vanishes at the requested argument, so Omega is undefined."""


class LimitTooLarge(ResourceError):
    """Requested table size exceeds the configured memory cap."""


class ToleranceNotMet(ResourceError):
    """Interval solver could not reach the requested tolerance."""


class RangeOverflow(ResourceError):
    """Value not representable in double precision; use the log-scaled API."""


class Int64Overflow(ResourceError):
    """Form values over the requested range do not fit in a signed 64-bit integer."""


class OutOfRange(SieveKitError):
    """Evaluation point lies beyond the solved domain."""


class OutOfValidity(SieveKitError):
    """Argument outside the validity range of an asymptotic formula."""


class QuadratureFailure(ResourceError):
    """Adaptive quadrature reported a non-converged result."""


class PoleError(SieveKitError):
    """Special function evaluated at a pole."""


class DomainError(SieveKitError):
    """Arguments violate a documented domain restriction."""


class SupportEmpty(SieveKitError):
    """No squarefree support element exists for the given cutoffs."""


class BudgetExceeded(ResourceError):
    """Enumeration or sieving budget exhausted."""


class DivisionByZero(SieveKitError):
    """f'(m) = 0 for an element of the weight support."""


class InfeasibleB(SieveKitError):
    """Richert weight b would be non-positive for the requested r."""
