"""Exception taxonomy shared by every module.

All library errors derive from EquicodeError so callers can catch broadly;
the CLI maps a few of them onto dedicated exit codes (see cli.EXIT_CODES).
"""


class EquicodeError(Exception):
    """Base class for all errors raised by this package."""


# --- field construction and arithmetic ---------------------------------

class CompositeP(EquicodeError):
    """The claimed characteristic is not prime."""


class ReducibleModulus(EquicodeError):
    """The supplied modulus polynomial is not irreducible."""


class DegreeMismatch(EquicodeError):
    """Modulus degree does not match the requested extension degree."""


class CtxMismatch(EquicodeError):
    """Operands belong to different field contexts."""


class DivisionByZero(EquicodeError, ZeroDivisionError):
    """Multiplicative inverse (or order) of zero requested."""


class NoSuchRoot(EquicodeError):
    """No element of the requested multiplicative order exists."""


# --- group algebra ------------------------------------------------------

class Mismatch(EquicodeError):
    """Operands live over different groups or fields."""


class BadRootOrder(EquicodeError):
    """The supplied root of unity does not have the required exact order."""


class OrderDividesCharacteristic(EquicodeError):
    """The group order vanishes in the field, so no inverse transform exists."""


# --- matrices over K[G] -------------------------------------------------

class DimMismatch(EquicodeError):
    """Matrix/vector shapes are incompatible."""


class NotFree(EquicodeError):
    """Columns do not span a free module of the expected rank."""


class NotSystematizable(EquicodeError):
    """No unit pivot is available at some elimination step."""


class NotSplit(EquicodeError):
    """The group algebra is not split over this field (needs e | q-1, p not | o)."""


class RankDeficient(EquicodeError):
    """A matrix that must have full rank does not."""


# --- linear algebra -----------------------------------------------------

class Inconsistent(EquicodeError):
    """The linear system has no solution."""


# --- codes and decoding -------------------------------------------------

class InvariantViolation(EquicodeError):
    """A structural identity of a code failed; the message names it."""


class TooManyPoints(EquicodeError):
    """More evaluation points requested than the field can supply."""


class NotInImage(EquicodeError):
    """The vector is not a codeword (interpolation precondition violated)."""


class DegreeWindow(EquicodeError):
    """Decoder degree bookkeeping refuses these parameters."""


class NotADenominatorCandidate(EquicodeError):
    """The zero vector can never be a denominator."""


class CheckFailed(EquicodeError):
    """A verification step that must hold did not."""


class DecodeFail(EquicodeError):
    """Decoding failed: no denominator found or the error system was inconsistent."""


class DegreeWindowWarning(UserWarning):
    """Degree bookkeeping outside the comfortable window; results still exact."""


# --- CLI / serialization ------------------------------------------------

class ParseError(EquicodeError):
    """Malformed input file or inline value."""
