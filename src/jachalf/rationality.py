"""Criteria for halves being defined over the prime field K0 = F_p.

Three levels: per-class (the symmetric functions s_1..s_{2g} lie in F_p),
all-classes (every a - alpha_i is a square already in F_p), and existence
(a - x is a square in the quotient algebra L = F_p[x]/(f)).  The last test
factors f through Frobenius orbits of its supplied roots, so no general
polynomial factorization is ever needed.
"""

from __future__ import annotations

from .errors import (
    InfinityInput,
    InternalInvariantViolation,
    NonRationalCurve,
    PointNotRational,
)
from .poly import Poly, from_roots


def class_is_rational(half):
    """Whether the half lies in J(F_p): every coefficient of (U, V) lies in F_p."""
    return rational_witness(half) is None


def rational_witness(half):
    """Why the half lies outside J(F_p), or None when it lies inside.

    For a point with a, b in F_p the witness is the first index i (1-based)
    with s_i outside F_p, the criterion of the halving theorem; it is
    cross-checked against the coefficients of (U, V), and disagreement would
    be an implementation bug.  For any other point the s_i decide nothing,
    and the witness is the first coefficient outside F_p, as ("U", j) or
    ("V", j) for the coefficient of x^j.
    """
    by_coeffs = next(
        (
            (name, j)
            for name, poly in (("U", half.U), ("V", half.V))
            for j, c in enumerate(poly.coeffs)
            if not c.in_prime_field()
        ),
        None,
    )
    point = half.tuple.point
    if not (point.a.in_prime_field() and point.b.in_prime_field()):
        return by_coeffs
    g = half.divisor.curve.g
    by_s = next(
        (i for i, si in enumerate(half.s[: 2 * g], start=1) if not si.in_prime_field()),
        None,
    )
    if (by_s is None) != (by_coeffs is None):
        raise InternalInvariantViolation("s_i and (U, V) rationality disagree")
    return by_s


def frobenius_divisor(divisor):
    """Coefficient-wise Frobenius image of a Mumford pair."""
    from .jacobian import MumfordDivisor

    ctx = divisor.curve.ctx
    u = Poly(ctx, [c.frobenius() for c in divisor.U.coeffs])
    v = Poly(ctx, [c.frobenius() for c in divisor.V.coeffs])
    return MumfordDivisor(divisor.curve, u, v, validate=False)


def _require_rational_point(point):
    if point.infinite:
        raise InfinityInput("the point at infinity has no affine coordinates")
    if not (point.a.in_prime_field() and point.b.in_prime_field()):
        raise PointNotRational(
            f"point {[point.a.encode(), point.b.encode()]} has coordinates outside F_p"
        )


def all_halves_rational(point):
    """Theorem-level test: every half is F_p-rational iff each alpha_i is in
    F_p and a - alpha_i is a square in F_p."""
    return all_halves_rational_report(point)["result"]


def all_halves_rational_report(point):
    _require_rational_point(point)
    curve = point.curve
    p = curve.ctx.p
    a_int = point.a.as_prime_int()
    for i, alpha in enumerate(curve.roots):
        if not alpha.in_prime_field():
            return {
                "result": False,
                "witness": {"root_index": i, "reason": "root-not-in-prime-field"},
            }
        c = (a_int - alpha.as_prime_int()) % p
        if c != 0 and pow(c, (p - 1) // 2, p) != 1:
            return {
                "result": False,
                "witness": {"root_index": i, "reason": "nonsquare-in-prime-field"},
            }
    return {"result": True, "witness": None}


def _frobenius_orbits(curve):
    """Partition the curve roots into Frobenius orbits (indices)."""
    index = {alpha: i for i, alpha in enumerate(curve.roots)}
    seen = set()
    orbits = []
    for i, alpha in enumerate(curve.roots):
        if i in seen:
            continue
        orbit = [i]
        beta = alpha.frobenius()
        while beta != alpha:
            if beta not in index:
                raise NonRationalCurve("root set is not Frobenius-stable")
            orbit.append(index[beta])
            beta = beta.frobenius()
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def rational_factors(curve):
    """Irreducible factors of f over F_p as integer coefficient tuples."""
    factors = []
    for orbit in _frobenius_orbits(curve):
        m = from_roots(curve.ctx, [curve.roots[i] for i in orbit])
        coeffs = []
        for c in m.coeffs:
            if not c.in_prime_field():
                raise InternalInvariantViolation("a full Frobenius orbit gave non-F_p coefficients")
            coeffs.append(c.as_prime_int())
        factors.append(tuple(coeffs))
    return factors


def divisible_by_two(point):
    """Theorem-level existence test: P is divisible by 2 in J(F_p) iff
    a - x is a square in every component field of L = F_p[x]/(f)."""
    return divisible_by_two_report(point)["result"]


def divisible_by_two_report(point):
    _require_rational_point(point)
    curve = point.curve
    p = curve.ctx.p
    if not all(c.in_prime_field() for c in curve.f.coeffs):
        raise NonRationalCurve(
            f"curve with roots {[r.encode() for r in curve.roots]}: "
            "f does not have F_p coefficients"
        )
    a_int = point.a.as_prime_int()

    result = True
    failing = None
    for m in rational_factors(curve):
        # a - x is a square in F_p[x]/(m) exactly when its norm m(a) is 0
        # (a zero component: 0 = 0^2) or a square in F_p
        norm = 0
        for c in reversed(m):
            norm = (norm * a_int + c) % p
        if norm and pow(norm, (p - 1) // 2, p) != 1:
            result = False
            failing = list(m)
            break
    return {
        "result": result,
        "weierstrass": point.is_weierstrass(),
        "witness": None if result else {"failing_factor": failing},
    }
