"""Curves y^2 = f(x), their points, and Jacobian arithmetic on Mumford pairs.

The group law is Cantor composition followed by reduction, returning the
unique fully reduced representative (U monic, deg V < deg U <= g, U | V^2 - f).
It doubles as the independent verification oracle for the halving formulas.

add is the generic law, pure Cantor.  double doubles a point class
(x - a, b) by the tangent at (a, b): one inversion, and for g = 1 the
classical tangent rule in place of a reduction step.  Every other class
takes Cantor's doubling (Math. Comp. 48, 1987): one xgcd(U, 2V), U^2 as the
composed U, and a first reduction step that never forms V^2; when
gcd(U, 2V) != 1 (a Weierstrass point in the support) it is add(d, d).
scalar_mul walks a width-4 signed-digit (NAF) expansion, odd digits in
(-8, 8), taking negative digits from negate, which is free because the
hyperelliptic involution acts as -1 on the Jacobian.  torsion_scan doubles
each point by the tangent and tests nP = 0 as ceil(n/2) P = -floor(n/2) P,
so it builds only half of the multiples.  Halving verifies its output by a
certificate, not by this group law (see halving._half_failure); the
acceptance tests check the halves with the generic add, so the oracle they
use stays independent of both the halving formulas and the doubling
formulas.
"""

from __future__ import annotations

from functools import partial

from .errors import (
    CurveMismatch,
    CtxMismatch,
    DuplicateRoot,
    EvenDegree,
    FieldTooLarge,
    InternalInvariantViolation,
    InvalidDivisor,
    NotOnCurve,
)
from .field import _int_value
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
    if len(g1) == 1:  # gcd(U1, U2) = 1: V3 = V1 mod U1 and V3 = V2 mod U2
        U3 = times(U1, U2)
        V3 = plus(V1, times(U1, divide(times(e1, psub(F, V2, V1)), U2)[1]))
    else:
        d, c1, c2 = pxgcd(F, g1, plus(V1, V2))
        U3 = divide(times(U1, U2), times(d, d))[0]
        num = plus(
            plus(times(times(c1, e1), times(U1, V2)), times(times(c1, e2), times(U2, V1))),
            times(c2, plus(times(V1, V2), f)),
        )
        V3 = divide(divide(num, d)[0], U3)[1]
    return _reduce(curve, F, f, U3, V3)


def _reduce(curve, F, f, U3, V3):
    """Cantor's reduction of a composed pair with deg V3 < deg U3, over F."""
    times, divide = F.polymul, partial(pdivmod, F)
    while len(U3) > curve.g + 1:
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


def _double_point(curve, F, a, b, f):
    """2 cl((P) - (infinity)) for P = (a, b), b != 0, by the tangent at P,
    over F.

    lambda = f'(a) / 2b is the slope of the tangent y = b + lambda (x - a).
    For g >= 2 the pair ((x - a)^2, b + lambda (x - a)) is already reduced.
    For g = 1 the tangent meets the curve again at x3 = lambda^2 - f2 - 2a
    (f2 the x^2 coefficient of f), and 2P = (x3, -(b + lambda (x3 - a))).
    """
    add, sub, mul = F.add, F.sub, F.mul
    fa, dfa = f[-1], F._zero  # Horner on f and on f'
    for c in f[-2::-1]:
        dfa = add(mul(dfa, a), fa)
        fa = add(mul(fa, a), c)
    lam = mul(dfa, F.inv(add(b, b)))
    if curve.g == 1:
        x3 = sub(sub(mul(lam, lam), f[2]), add(a, a))
        U3 = (F.neg(x3), F._one)
        V3 = (F.neg(add(b, mul(lam, sub(x3, a)))),)
    else:
        U3 = (mul(a, a), F.neg(add(a, a)), F._one)
        V3 = (sub(b, mul(lam, a)), lam)
    return MumfordDivisor(
        curve, from_payloads(F, U3), from_payloads(F, V3), validate=False
    )


def double(d):
    """2D, equal to add(d, d).

    A point class (x - a, b) doubles by the tangent rule (_double_point).
    Any other class takes Cantor's doubling: with c * 2V = 1 mod U and
    W = (f - V^2)/U, the composed pair is U3 = U^2, V3 = V + U * (c W mod U).
    The first reduction step, (f - V3^2)/U3 = (W - 2Vk)/U - k^2 with
    k = c W mod U, never forms V3^2.  When gcd(U, 2V) != 1 (a Weierstrass
    point in the support) this is add(d, d).
    """
    if d.is_zero():
        return d
    curve = d.curve
    F, (U, V, f) = common_payloads(d.U, d.V, curve.f)
    if len(U) == 2:  # a point (a, b); b = 0 is 2-torsion
        return _double_point(curve, F, F.neg(U[0]), V[0], f) if V else zero_class(curve)
    times, divide = F.polymul, partial(pdivmod, F)
    twoV = padd(F, V, V)
    g1, _, c = pxgcd(F, U, twoV)
    if len(g1) != 1:
        return add(d, d)
    W = divide(psub(F, f, times(V, V)), U)[0]
    k = divide(times(c, W), U)[1]
    U3 = times(U, U)
    V3 = padd(F, V, times(U, k))
    if len(U3) > curve.g + 1:
        U3n = pmonic(F, psub(F, divide(psub(F, W, times(twoV, k)), U)[0], times(k, k)))
        V3 = divide(pneg(F, V3), U3n)[1]
        U3 = U3n
    return _reduce(curve, F, f, U3, V3)


def _naf4(n):
    """Width-4 NAF of n > 0, least significant digit first: each digit is 0
    or odd in (-8, 8), and any two nonzero digits are at least four places
    apart."""
    digits = []
    while n:
        r = 0
        if n & 1:
            r = (n & 15) - 16 if n & 8 else n & 15
            n -= r
        digits.append(r)
        n >>= 1
    return digits


def scalar_mul(n, d):
    """nD by a width-4 signed window: about log2(n) doublings and log2(n)/5
    additions, negative digits taking the negation, which is free.  Only
    the odd multiples D, 3D, ... up to the largest digit used are built."""
    n = _int_value(n, "scalar")
    if n < 0:
        n, d = -n, negate(d)
    if n == 0:
        return zero_class(d.curve)
    digits = _naf4(n)
    odd = [d]  # odd[i] = (2i + 1) D
    top = max(map(abs, digits))
    if top > 1:
        twice = double(d)
        while 2 * len(odd) - 1 < top:
            odd.append(add(odd[-1], twice))
    acc = odd[digits.pop() >> 1]  # the leading digit is positive
    for r in reversed(digits):
        acc = double(acc)
        if r:
            acc = add(acc, odd[r >> 1] if r > 0 else negate(odd[-r >> 1]))
    return acc


def torsion_scan(curve, n_max):
    """Exhaustive affine-point census over the tower field with order checks.

    For every point P found: the reduced representative of 2P must have
    deg U = min(g, 2), i.e. (x - a)^2 for g >= 2 and a point for g = 1 (P not
    2-torsion), and for g > 1 no P may have order n for
    3 <= n <= hi = min(n_max, 2g).  Only the multiples mP for
    m <= ceil(hi/2) are built, 2P by double and the rest by add; nP = 0
    exactly when ceil(n/2) P = -floor(n/2) P, which compares reduced Mumford
    pairs, unique per class.  At g = 2 that needs no add at all.  No Point
    is built: each (a, b) goes straight to its class (x - a, b), and one
    squaring per x-value checks the root b of f(a).
    Returns {"points_scanned": int, "violations": [...]}.
    """
    ctx = curve.ctx
    if ctx.q2 > SCAN_LIMIT:
        raise FieldTooLarge(
            f"tower field has {ctx.q2} elements; scan bound is {SCAN_LIMIT}"
        )
    g = curve.g
    hi = min(int(n_max), 2 * g) if g > 1 else 2
    deg_2p = min(g, 2)  # 2P - 2(infinity) is reduced for g >= 2
    violations = []
    points = 0
    T = ctx.tower
    for x in T.elements():
        fx = curve.f(x)
        if fx.is_zero():
            points += 1  # Weierstrass point, 2-torsion: nothing to check
            continue
        if not fx.is_square():
            continue
        s = fx.sqrt()
        if s * s != fx:
            raise InternalInvariantViolation(f"sqrt(f(x))^2 != f(x) at x = {x.encode()}")
        x_minus_a = from_payloads(T, (T.neg(x.payload), T._one))
        for b in (s, -s):
            points += 1
            d = MumfordDivisor(curve, x_minus_a, Poly.constant(b), validate=False)
            mult = [None, d, double(d)]  # mult[m] = m * P
            if mult[2].U.degree() != deg_2p:
                violations.append(
                    {"point": [x.encode(), b.encode()],
                     "kind": "double-left-theta", "deg_u": mult[2].U.degree()}
                )
            while len(mult) <= (hi + 1) // 2:
                mult.append(add(mult[-1], d))
            for n in range(3, hi + 1):
                if mult[(n + 1) // 2] == negate(mult[n // 2]):
                    violations.append(
                        {"point": [x.encode(), b.encode()],
                         "kind": "small-order", "order": n}
                    )
    return {"points_scanned": points, "violations": violations}
