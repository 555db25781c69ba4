"""Exception types shared across the library.

Each class declares the exit code the CLI gives it: 2 for malformed or
out-of-scope input, 3 for a point off the curve, an invalid divisor or a
divisor that is not the claimed half, 4 for the point at infinity where an
affine point is needed, 5 for a torsion scan too large to run, and the default 1
for an error that only a library bug can raise.
"""


class JachalfError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class NotPrime(JachalfError):
    """The characteristic is not an odd prime below 2^62."""

    exit_code = 2


class CharacteristicTwo(JachalfError):
    """Characteristic 2 is excluded."""

    exit_code = 2


class ReducibleModulus(JachalfError):
    """The extension modulus is not irreducible over F_p, or is too long.

    A modulus of degree k is refused before any power when k^3 * bits(p)
    exceeds 2^18 (k <= 16 near p = 2^62, k <= 50 at p = 3).
    """

    exit_code = 2


class DivisionByZero(JachalfError, ZeroDivisionError):
    """Division by the zero element or zero polynomial."""


class CtxMismatch(JachalfError):
    """Operands belong to different field contexts."""

    exit_code = 2


class TowerExhausted(JachalfError):
    """A square root would need a field above the quadratic tower step."""

    exit_code = 2


class DuplicateRoot(JachalfError):
    """Curve roots must be pairwise distinct."""

    exit_code = 2


class EvenDegree(JachalfError):
    """Even-degree models (two points at infinity) are not supported."""

    exit_code = 2


class NotOnCurve(JachalfError):
    """The coordinates do not satisfy the curve equation."""

    exit_code = 3


class CurveMismatch(JachalfError):
    """Operands belong to different curves."""

    exit_code = 3


class InvalidDivisor(JachalfError):
    """A Mumford pair violating monicity, degree bounds, or U | V^2 - f."""

    exit_code = 3


class FieldTooLarge(JachalfError):
    """A torsion scan's work estimate, from the size of the tower field, the
    genus and the max order, exceeds the desk-scale scan bound."""

    exit_code = 5


class MaxOrderTooSmall(JachalfError, ValueError):
    """A torsion scan's max order is below 3, the smallest order it checks."""

    exit_code = 2


class InfinityInput(JachalfError):
    """The point at infinity is not accepted here."""

    exit_code = 4


class InternalInvariantViolation(JachalfError):
    """A proven-impossible condition occurred; indicates an implementation bug."""


class NotAHalf(JachalfError):
    """The divisor is not the half of the given point with the given s_1.

    recover_tuple decides this by the certificate f - v_D^2 = (x - a) U^2
    with v_D(a) = -b, where v_D = V + (-1)^g s_1 U; no group law is used.
    """

    exit_code = 3


class GenusTooLarge(JachalfError):
    """Halving on a curve of genus above halving.HALVE_GENUS_LIMIT, whose 4^g
    halves would not fit in bounded time and memory."""

    exit_code = 2


class PointNotRational(JachalfError):
    """Point coordinates lie outside the prime field."""

    exit_code = 2


class NonRationalCurve(JachalfError):
    """The curve polynomial does not have prime-field coefficients."""

    exit_code = 2


class ParseError(JachalfError):
    """Malformed input file or command-line operand."""

    exit_code = 2
