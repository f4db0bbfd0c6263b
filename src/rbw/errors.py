"""Exception and warning types shared across the package."""


class RBWError(Exception):
    """Base class for all validation errors raised by this package."""


class ContractViolation(RBWError, ValueError):
    """A residual over tolerance or a broken identity; the CLI's only exit-2 error."""


# ---------------------------------------------------------------- groups

class GroupValidationError(RBWError):
    """A multiplication table fails one of the group axioms."""


class NonClosed(GroupValidationError):
    """The table maps a pair outside the element set, or misses a pair."""


class MissingIdentity(GroupValidationError):
    """No (unique) two-sided identity element exists."""


class MissingInverse(GroupValidationError):
    """Some element has no (unique) two-sided inverse."""


class NonAssociative(GroupValidationError):
    """Some triple violates associativity."""


# ---------------------------------------------------------------- matrices

class DimensionMismatch(RBWError):
    """Matrix or vector dimensions do not agree."""


class UnknownElement(RBWError, KeyError):
    """A group-element label is not part of the group."""
    __str__ = Exception.__str__     # the message as written, not KeyError's repr


class NotHermitian(ContractViolation):
    """A matrix required to be hermitian is not, beyond tolerance."""


class NotUnitary(ContractViolation):
    """A matrix required to be unitary is not, beyond tolerance."""


class NonOrthonormalBasis(ContractViolation):
    """A ket list required to be orthonormal is not, beyond tolerance."""


class InconsistentExpectations(ContractViolation):
    """Expectation values are not self-consistent for the given irrep."""


class NonPhysicalStateWarning(UserWarning):
    """A reconstructed density matrix has a negative eigenvalue or a
    trace away from one, beyond the physicality threshold."""


# ---------------------------------------------------------------- optics

class MalformedPipeline(RBWError):
    """An optical-element sequence violates the supported layout rules."""


# ---------------------------------------------------------------- relativity

class SuperluminalVelocity(RBWError):
    """|v| >= c in a boost."""


class MixedFrames(RBWError):
    """Events from different frames were combined without a boost."""


# ---------------------------------------------------------------- algebra

class UnknownGenerator(RBWError, KeyError):
    """A generator label is not part of the bracket table."""
    __str__ = Exception.__str__     # the message as written, not KeyError's repr


class MNotCentral(ContractViolation):
    """The mass generator fails to commute with the contracted algebra."""


# ---------------------------------------------------------------- cli

class UsageError(RBWError):
    """Bad command-line arguments."""
