"""Exception hierarchy shared across the package."""


class PolycodeError(Exception):
    """Base class for all package errors."""


class DivisionByZero(PolycodeError):
    """Inverse of zero requested in a prime field."""


class DuplicateEvaluationPoint(PolycodeError):
    """Two interpolation points share the same x coordinate."""


class DecodingFailure(PolycodeError):
    """No codeword within the correction radius; corruption detected.

    Its absence proves nothing beyond the radius: enough coordinated faults
    move the received word within the radius of a wrong codeword.
    """


class InvalidParameters(PolycodeError):
    """Parameters violate a documented precondition."""


class RangeOverflow(PolycodeError):
    """Real embedding would exceed the representable field range."""


class ShapeMismatch(PolycodeError):
    """Matrix or vector dimensions are incompatible."""


class EmptyInput(PolycodeError):
    """An operation received an empty sequence it cannot handle."""


class NonDivisiblePartition(PolycodeError):
    """Requested partition count does not divide the dimension."""


class TooManyWorkersForField(PolycodeError):
    """More workers than distinct field elements available."""


class NotDecodable(PolycodeError):
    """The responded set does not satisfy the scheme's decodability predicate."""


class NotEnoughResults(NotDecodable):
    """Fewer worker results than the scheme needs to decode."""


class NonDivisibleGroups(PolycodeError):
    """Group count does not divide the worker count (1D MDS layout)."""


class InvalidGrid(PolycodeError):
    """Product code needs m = n and a perfect-square worker count."""


class HarnessTimeout(PolycodeError):
    """No decodable response set ever formed in the harness."""


class InvalidModelParams(PolycodeError):
    """Latency model parameters out of range."""


class NeverDecodable(PolycodeError):
    """Even the full response set fails the decodability predicate."""


class DominanceViolation(PolycodeError):
    """A scheme beat the polynomial code's latency on a common sample."""
