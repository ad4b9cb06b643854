"""Exception hierarchy shared by all modules.  Each class carries its CLI
verdict, an exit code and a stderr label: Invalid exits 2, Inconclusive 3,
MalformedInput 1, and any other library error 2."""


class HermiwittError(Exception):
    """Base class for all library errors."""

    exit_code = 2
    label = "error"


class Invalid(HermiwittError):
    """The input is well-formed but fails a validation."""

    label = "invalid"


class Inconclusive(HermiwittError):
    """The digits or the search budget ran out before a verdict."""

    exit_code = 3
    label = "inconclusive"


class MalformedInput(HermiwittError):
    """Unreadable input: bad JSON, a missing or ill-typed field."""

    exit_code = 1


class PrecisionExhausted(Inconclusive):
    """A result would be known to absolute precision <= 0 digits."""


class IndistinguishableZero(Invalid):
    """A valuation/classification was requested on an element that is
    indistinguishable from zero at its tracked precision."""


class DivisionByIndistinguishableZero(IndistinguishableZero):
    pass


class WrongBase(HermiwittError):
    pass


class NotASquare(Invalid):
    pass


class WrongSymmetryType(Invalid):
    pass


class EpsilonMismatch(Invalid):
    pass


class DegenerateForm(Invalid):
    pass


class OracleInconclusive(Inconclusive):
    """Raised when a decision procedure cannot certify its verdict within
    the precision budget.  Never a silent guess."""


class NotSelfAdjoint(HermiwittError):
    pass


class NotSkewAdjoint(Invalid):
    pass


class Singular(Invalid):
    pass


class NotQuadratic(Invalid):
    pass


class NotInD(HermiwittError):
    pass


class NoSimilitudeFound(Inconclusive):
    """Similitude search budget exhausted (a precision/budget error, not a
    mathematical verdict)."""


class InvalidParameter(Invalid):
    pass


class InfeasibleLift(Invalid):
    pass


class IncomparableTokens(Invalid):
    pass
