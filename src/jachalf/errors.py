"""Exception types shared across the library.

Each class carries the exit code the CLI gives it.  The two large
categories declare it once: an InputError, malformed or out-of-scope input,
exits 2, and an InvalidOperand, a point off the curve, operands on
different curves, an invalid divisor or a divisor that is not the claimed
half, exits 3.  InfinityInput, the point at infinity where an affine point
is needed, declares 4, FieldTooLarge, a torsion scan too large to run,
declares 5, and an error that only a library bug can raise keeps the
default 1.
"""


class JachalfError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class InputError(JachalfError):
    """Malformed or out-of-scope input: exit code 2."""

    exit_code = 2


class InvalidOperand(JachalfError):
    """A well-formed operand that is not what the operation needs: exit code 3."""

    exit_code = 3


class NotPrime(InputError):
    """The characteristic is not an odd prime below 2^62."""


class CharacteristicTwo(InputError):
    """Characteristic 2 is excluded."""


class ReducibleModulus(InputError):
    """The extension modulus is not irreducible over F_p, or is too long.

    A modulus of degree k is refused before any power when k^3 * bits(p)
    exceeds 2^18 (k <= 16 near p = 2^62, k <= 50 at p = 3).
    """


class DivisionByZero(JachalfError, ZeroDivisionError):
    """Division by the zero element or zero polynomial."""


class CtxMismatch(InputError):
    """Operands belong to different field contexts."""


class TowerExhausted(InputError):
    """A square root would need a field above the quadratic tower step."""


class DuplicateRoot(InputError):
    """Curve roots must be pairwise distinct."""


class EvenDegree(InputError):
    """Even-degree models (two points at infinity) are not supported."""


class NotOnCurve(InvalidOperand):
    """The coordinates do not satisfy the curve equation."""


class CurveMismatch(InvalidOperand):
    """Operands belong to different curves."""


class InvalidDivisor(InvalidOperand):
    """A Mumford pair violating monicity, degree bounds, or U | V^2 - f."""


class FieldTooLarge(JachalfError):
    """A torsion scan's work estimate, from the size of the tower field, the
    genus and the max order, exceeds the desk-scale scan bound."""

    exit_code = 5


class MaxOrderTooSmall(InputError, ValueError):
    """A torsion scan's max order is below 3, the smallest order it checks."""


class InfinityInput(JachalfError):
    """The point at infinity is not accepted here."""

    exit_code = 4


class InternalInvariantViolation(JachalfError):
    """A proven-impossible condition occurred; indicates an implementation bug."""


class NotAHalf(InvalidOperand):
    """The divisor is not the half of the given point with the given s_1.

    recover_tuple decides this by the certificate f - v_D^2 = (x - a) U^2
    with v_D(a) = -b, where v_D = V + (-1)^g s_1 U; no group law is used.
    """


class GenusTooLarge(InputError):
    """Halving on a curve of genus above halving.HALVE_GENUS_LIMIT, whose 4^g
    halves would not fit in bounded time and memory."""


class PointNotRational(InputError):
    """Point coordinates lie outside the prime field."""


class NonRationalCurve(InputError):
    """The curve polynomial does not have prime-field coefficients."""


class ParseError(InputError):
    """Malformed input file or command-line operand."""
