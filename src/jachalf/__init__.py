"""Exact divisor-class arithmetic and point halving on odd-degree
hyperelliptic Jacobians over finite fields."""

from .errors import (
    CharacteristicTwo,
    CtxMismatch,
    CurveMismatch,
    DivisionByZero,
    DuplicateRoot,
    EvenDegree,
    FieldTooLarge,
    GenusTooLarge,
    InfinityInput,
    InternalInvariantViolation,
    InvalidDivisor,
    JachalfError,
    NonRationalCurve,
    NotAHalf,
    NotOnCurve,
    NotPrime,
    ParseError,
    PointNotRational,
    ReducibleModulus,
    TowerExhausted,
)
from .field import FieldCtx, FieldElement, TowerField, ctx_new
from .poly import Poly, elementary_symmetric, from_roots, gcd, xgcd
from .jacobian import (
    Curve,
    MumfordDivisor,
    Point,
    add,
    curve_new,
    double,
    negate,
    scalar_mul,
    to_class,
    torsion_scan,
    zero_class,
)
from .halving import HalfClass, SqrtTuple, halve, mumford_from_tuple, recover_tuple, sqrt_tuples
from .rationality import (
    all_halves_rational,
    class_is_rational,
    divisible_by_two,
    frobenius_divisor,
    rational_factors,
)

__version__ = "0.1.0"
