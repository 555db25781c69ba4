"""Curves y^2 = f(x), their points, and Jacobian arithmetic on Mumford pairs.

The group law is Cantor composition followed by reduction, returning the
unique fully reduced representative (U monic, deg V < deg U <= g, U | V^2 - f).
It doubles as the independent verification oracle for the halving formulas.
"""

from __future__ import annotations

from functools import partial

from .errors import (
    CurveMismatch,
    CtxMismatch,
    DuplicateRoot,
    EvenDegree,
    FieldTooLarge,
    InvalidDivisor,
    NotOnCurve,
)
from .poly import (
    Poly,
    common_payloads,
    from_payloads,
    from_roots,
    padd,
    pdivmod,
    pmonic,
    pneg,
    psub,
    pxgcd,
)

# x-candidates enumerated by torsion_scan; q_tower above this refuses to run
SCAN_LIMIT = 10**6


class Curve:
    """y^2 = f(x) = prod (x - alpha_i) with 2g+1 distinct roots, odd char."""

    __slots__ = ("ctx", "g", "roots", "f")

    def __init__(self, ctx, roots):
        rs = []
        for r in roots:
            if isinstance(r, int):
                r = ctx.from_int(r)
            elif not ctx.same_field(r.field.base):
                raise CtxMismatch("root from a different context")
            rs.append(r)
        if len(rs) % 2 == 0:
            raise EvenDegree("need an odd number of roots (degree 2g+1 model)")
        if len(rs) < 3:
            raise EvenDegree("need at least 3 roots (genus >= 1)")
        for i, r in enumerate(rs):
            for s in rs[i + 1 :]:
                if r == s:
                    raise DuplicateRoot(f"repeated root {r.encode()}")
        self.ctx = ctx
        self.g = (len(rs) - 1) // 2
        self.roots = tuple(rs)
        self.f = from_roots(ctx, rs)

    def same_curve(self, other):
        return (
            self.ctx.same_field(other.ctx)
            and self.g == other.g
            and self.roots == other.roots
        )

    def check_same(self, other):
        if not self.same_curve(other):
            raise CurveMismatch("operands live on different curves")

    def __repr__(self):
        return f"Curve(g={self.g}, p={self.ctx.p}, k={self.ctx.k})"


def curve_new(ctx, roots):
    return Curve(ctx, roots)


class Point:
    """Affine point (a, b) with b^2 = f(a), or the single point at infinity."""

    __slots__ = ("curve", "a", "b", "infinite")

    def __init__(self, curve, a=None, b=None, infinite=False):
        self.curve = curve
        self.infinite = infinite
        if infinite:
            self.a = None
            self.b = None
            return
        ctx = curve.ctx
        if isinstance(a, int):
            a = ctx.from_int(a)
        if isinstance(b, int):
            b = ctx.from_int(b)
        if b * b != curve.f(a):
            raise NotOnCurve(f"b^2 != f(a) for a={a.encode()}, b={b.encode()}")
        self.a = a
        self.b = b

    @classmethod
    def infinity(cls, curve):
        return cls(curve, infinite=True)

    def is_weierstrass(self):
        return not self.infinite and self.b.is_zero()

    def involution(self):
        if self.infinite:
            return self
        return Point(self.curve, self.a, -self.b)

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        if not self.curve.same_curve(other.curve):
            return False
        if self.infinite or other.infinite:
            return self.infinite and other.infinite
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.infinite:
            return hash(("inf", self.curve.ctx.p))
        return hash((self.a, self.b))

    def __repr__(self):
        if self.infinite:
            return "Point(infinity)"
        return f"Point({self.a.encode()}, {self.b.encode()})"


class MumfordDivisor:
    """Reduced divisor class in Mumford form (U, V); (1, 0) is the zero class."""

    __slots__ = ("curve", "U", "V")

    def __init__(self, curve, U, V, validate=True):
        self.curve = curve
        self.U = U
        self.V = V
        if validate:
            self.validate()

    def validate(self):
        U, V, curve = self.U, self.V, self.curve
        if U.is_zero() or not U.is_monic():
            raise InvalidDivisor("U must be monic and nonzero")
        if U.degree() > curve.g:
            raise InvalidDivisor(f"deg U = {U.degree()} exceeds genus {curve.g}")
        if U.degree() == 0:
            if not V.is_zero():
                raise InvalidDivisor("the zero class is exactly (1, 0)")
            return
        if V.degree() >= U.degree():
            raise InvalidDivisor("deg V must be smaller than deg U")
        if not ((V * V - curve.f) % U).is_zero():
            raise InvalidDivisor("U does not divide V^2 - f")

    def is_zero(self):
        return self.U.degree() == 0

    def key(self):
        return (self.U, self.V)

    def __eq__(self, other):
        if not isinstance(other, MumfordDivisor):
            return NotImplemented
        if not self.curve.same_curve(other.curve):
            return False
        return self.U == other.U and self.V == other.V

    def __hash__(self):
        return hash(self.key())

    def encode(self):
        return {"U": self.U.encode(), "V": self.V.encode()}

    def __repr__(self):
        return f"MumfordDivisor(U={self.U.encode()}, V={self.V.encode()})"


def zero_class(curve):
    ctx = curve.ctx
    return MumfordDivisor(curve, Poly(ctx, (1,)), Poly.zero(ctx), validate=False)


def to_class(point):
    """cl((P) - (infinity)): infinity -> (1, 0); (a, b) -> (x - a, b)."""
    curve = point.curve
    if point.infinite:
        return zero_class(curve)
    ctx = curve.ctx
    return MumfordDivisor(
        curve,
        Poly(ctx, (-point.a, 1)),
        Poly.constant(point.b),
        validate=False,
    )


def add(d1, d2):
    """Cantor composition + reduction; returns the canonical representative.

    U1, U2, V1, V2 and f are lifted once to the join F of their field
    objects; composition and reduction run on the payload kernels of
    poly.py, and only the result is built as Polys over F.
    """
    d1.curve.check_same(d2.curve)
    curve = d1.curve
    F, (U1, U2, V1, V2, f) = common_payloads(d1.U, d2.U, d1.V, d2.V, curve.f)
    plus, times, divide = partial(padd, F), F.polymul, partial(pdivmod, F)

    g1, e1, e2 = pxgcd(F, U1, U2)
    if len(g1) == 1:  # gcd(U1, U2) = 1
        U3 = times(U1, U2)
        V3 = divide(plus(times(times(e1, U1), V2), times(times(e2, U2), V1)), U3)[1]
    else:
        d, c1, c2 = pxgcd(F, g1, plus(V1, V2))
        U3 = divide(times(U1, U2), times(d, d))[0]
        num = plus(
            plus(times(times(c1, e1), times(U1, V2)), times(times(c1, e2), times(U2, V1))),
            times(c2, plus(times(V1, V2), f)),
        )
        V3 = divide(divide(num, d)[0], U3)[1]

    g = curve.g
    while len(U3) > g + 1:
        U3n = pmonic(F, divide(psub(F, f, times(V3, V3)), U3)[0])
        V3 = divide(pneg(F, V3), U3n)[1]
        U3 = U3n
    if len(U3) == 1:
        return zero_class(curve)
    return MumfordDivisor(
        curve, from_payloads(F, pmonic(F, U3)), from_payloads(F, V3), validate=False
    )


def negate(d):
    if d.is_zero():
        return d
    return MumfordDivisor(d.curve, d.U, -d.V, validate=False)


def double(d):
    return add(d, d)


def scalar_mul(n, d):
    n = int(n)
    if n < 0:
        return scalar_mul(-n, negate(d))
    acc = zero_class(d.curve)
    if n == 0:
        return acc
    bits = bin(n)[2:]
    acc = d
    for bit in bits[1:]:
        acc = double(acc)
        if bit == "1":
            acc = add(acc, d)
    return acc


def torsion_scan(curve, n_max):
    """Exhaustive affine-point census over the tower field with order checks.

    For every point P found: 2P must have a degree-g representative (P not
    2-torsion), and for g > 1 no P may have order n for 3 <= n <= min(n_max, 2g).
    Returns {"points_scanned": int, "violations": [...]}.
    """
    ctx = curve.ctx
    if ctx.q2 > SCAN_LIMIT:
        raise FieldTooLarge(
            f"tower field has {ctx.q2} elements; scan bound is {SCAN_LIMIT}"
        )
    g = curve.g
    hi = min(int(n_max), 2 * g) if g > 1 else 2
    violations = []
    points = 0
    for x in ctx.tower.elements():
        fx = curve.f(x)
        if fx.is_zero():
            points += 1  # Weierstrass point, 2-torsion: nothing to check
            continue
        if not fx.is_square():
            continue
        s = fx.sqrt()
        for b in (s, -s):
            points += 1
            p = Point(curve, x, b)
            d = to_class(p)
            chain = d
            for n in range(2, hi + 1):
                chain = add(chain, d)  # chain = n * P
                if n == 2 and chain.U.degree() != g:
                    violations.append(
                        {"point": [p.a.encode(), p.b.encode()],
                         "kind": "double-left-theta", "deg_u": chain.U.degree()}
                    )
                if n >= 3 and chain.is_zero():
                    violations.append(
                        {"point": [p.a.encode(), p.b.encode()],
                         "kind": "small-order", "order": n}
                    )
    return {"points_scanned": points, "violations": violations}
