"""Curves y^2 = f(x), their points, and Jacobian arithmetic on Mumford pairs.

The group law is Cantor composition followed by reduction, returning the
unique fully reduced representative (U monic, deg V < deg U <= g, U | V^2 - f).
It doubles as the independent verification oracle for the halving formulas.

add is the generic law, pure Cantor.  double has one rule: a point class
(x - a, b) doubles by the tangent at (a, b), one inversion, and for g = 1
the classical tangent rule in place of a reduction step; every other class
is add(d, d).
add and double are thin wrappers: they lift their operands to payloads
with poly.lifted and run the Cantor cores _cantor_add and _cantor_double,
which take and return reduced payload pairs (U, V); _negate is (U, -V).
scalar_mul and torsion_scan walk on reduced payload pairs only, with f
lifted once per call.  scalar_mul picks the steps: when D and f meet in a
base context for a prime field (k = 1) and g <= 3, closed_forms.law, the
closed forms on plain int tuples with one inversion per step, and one step
of the Cantor cores wherever the formulas do not cover one (see the
closed_forms module).  Every other curve and field, and torsion_scan over
the tower, walk with the Cantor cores themselves: _cantor_double,
_cantor_add and _negate with g, the field and f bound.
scalar_mul walks a width-4 signed-digit (NAF) expansion, odd digits in
(-8, 8), taking negative digits from the steps' negate, which is free
because the hyperelliptic involution acts as -1 on the Jacobian.
torsion_scan doubles each point by the tangent and tests nP = 0 as
ceil(n/2) P = -floor(n/2) P, so it builds only half of the multiples.
Neither calls the public add, double or negate, and add itself stays pure
Cantor.  Halving verifies its output by a certificate, not by this group
law (see halving._half_failure); the acceptance tests check the halves with
the generic add, so the oracle they use stays independent of both the
halving formulas and the doubling formulas.
"""

from __future__ import annotations

from functools import partial

from .closed_forms import law
from .errors import (
    CurveMismatch,
    CtxMismatch,
    DuplicateRoot,
    EvenDegree,
    FieldTooLarge,
    InternalInvariantViolation,
    InvalidDivisor,
    MaxOrderTooSmall,
    NotOnCurve,
)
from .field import FieldElement, _int_value, _trim
from .poly import (
    Poly,
    from_payloads,
    from_roots,
    lifted,
    padd,
    pdivmod,
    pmonic,
    peval,
    pneg,
    psub,
    pxgcd,
)

# torsion_scan refuses a scan whose work estimate,
# |tower| * k^2 * g * max order / 2, exceeds this
SCAN_LIMIT = 10**6


class Curve:
    """y^2 = f(x) = prod (x - alpha_i) with 2g+1 distinct roots, odd char.

    The roots lie in F_q, the field of ctx: an int is read there, a tower
    value that lies in F_q is stored over its base, and any other value
    raises CtxMismatch naming the root.
    """

    __slots__ = ("ctx", "g", "roots", "f")

    def __init__(self, ctx, roots):
        rs = []
        for r in roots:
            if not isinstance(r, FieldElement):
                r = ctx.from_int(r)
            else:
                F, x = r.field.lowest(r.payload)
                if F.tower is F or not ctx.same_field(F):
                    raise CtxMismatch(
                        f"root {r.encode()} does not lie in the curve's field F_{ctx.p}^{ctx.k}"
                    )
                r = FieldElement(F, x)
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
        """Whether the curves have the same roots; roots compare by value, and
        roots of two fields are unequal."""
        return self.roots == other.roots

    def check_same(self, other):
        if not self.same_curve(other):
            raise CurveMismatch("operands live on different curves")

    def __repr__(self):
        return f"Curve(g={self.g}, p={self.ctx.p}, k={self.ctx.k})"


def curve_new(ctx, roots):
    return Curve(ctx, roots)


class Point:
    """Affine point (a, b) with b^2 = f(a), or the single point at infinity.

    The coordinates lie in F_q or its tower; one of another field raises
    CtxMismatch naming it, a message built only when b^2 = f(a) fails.
    """

    __slots__ = ("curve", "a", "b", "infinite")

    def __init__(self, curve, a=None, b=None, infinite=False):
        self.curve = curve
        self.infinite = infinite
        if infinite:
            self.a = None
            self.b = None
            return
        ctx = curve.ctx
        if not isinstance(a, FieldElement):
            a = ctx.from_int(a)
        if not isinstance(b, FieldElement):
            b = ctx.from_int(b)
        try:
            on_curve = b * b == curve.f(a)
        except CtxMismatch:
            on_curve = False
        if not on_curve:
            for name, c in (("a", a), ("b", b)):
                B = c.field.base
                if not ctx.same_field(B):
                    raise CtxMismatch(
                        f"coordinate {name} = {c.encode()} of F_{B.p}^{B.k} does not "
                        f"lie in the curve's field F_{ctx.p}^{ctx.k}"
                    )
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
        """Raise InvalidDivisor, naming the pair, unless (U, V) is reduced."""
        U, V, curve = self.U, self.V, self.curve

        def invalid(why):
            return InvalidDivisor(f"(U, V) = ({U.encode()}, {V.encode()}): {why}")

        if U.is_zero() or not U.is_monic():
            raise invalid("U must be monic and nonzero")
        if U.degree() > curve.g:
            raise invalid(f"deg U = {U.degree()} exceeds genus {curve.g}")
        if U.degree() == 0:
            if not V.is_zero():
                raise invalid("the zero class is exactly (1, 0)")
            return
        if V.degree() >= U.degree():
            raise invalid("deg V must be smaller than deg U")
        if not ((V * V - curve.f) % U).is_zero():
            raise invalid("U does not divide V^2 - f")

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
        Poly(ctx, (point.b,)),
        validate=False,
    )


def _divisor(curve, F, U, V):
    """The class of the reduced payload pair (U, V) over F."""
    if len(U) == 1:
        return zero_class(curve)
    return MumfordDivisor(curve, from_payloads(F, U), from_payloads(F, V), validate=False)


def add(d1, d2):
    """Cantor composition + reduction; returns the canonical representative.

    U1, U2, V1, V2 and f are moved once by poly.lifted, from d1.U.field,
    to the join F of their field objects; _cantor_add runs on the payload
    kernels of poly.py, and only the result is built as Polys over F.
    """
    d1.curve.check_same(d2.curve)
    curve = d1.curve
    F, (U1, U2, V1, V2, f) = lifted(d1.U.field, d1.U, d2.U, d1.V, d2.V, curve.f)
    return _divisor(curve, F, *_cantor_add(curve.g, F, f, (U1, V1), (U2, V2)))


def _cantor_add(g, F, f, D1, D2):
    """Cantor composition + reduction of the payload pairs D1 = (U1, V1) and
    D2 = (U2, V2) over F: the reduced (U, V), with U = (F._one,) for the
    zero class."""
    (U1, V1), (U2, V2) = D1, D2
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
    return _reduce(g, F, f, U3, V3)


def _reduce(g, F, f, U3, V3):
    """Cantor's reduction of a composed pair with deg V3 < deg U3, over F,
    as a pair of payload tuples.  The zero class comes out as
    ((F._one,), ()): pmonic makes a nonzero constant F._one, and a
    remainder mod a constant is empty."""
    times, divide = F.polymul, partial(pdivmod, F)
    while len(U3) > g + 1:
        U3n = pmonic(F, divide(psub(F, f, times(V3, V3)), U3)[0])
        V3 = divide(pneg(F, V3), U3n)[1]
        U3 = U3n
    return tuple(pmonic(F, U3)), tuple(V3)


def negate(d):
    if d.is_zero():
        return d
    return MumfordDivisor(d.curve, d.U, -d.V, validate=False)


def _negate(F, D):
    """-D for the payload pair D = (U, V) over F: (U, -V)."""
    U, V = D
    return U, tuple(pneg(F, V))


def _double_point(g, F, a, b, f):
    """2 cl((P) - (infinity)) for P = (a, b), b != 0, by the tangent at P,
    as a payload pair over F.

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
    if g == 1:
        x3 = sub(sub(mul(lam, lam), f[2]), add(a, a))
        U3 = (F.neg(x3), F._one)
        V3 = (F.neg(add(b, mul(lam, sub(x3, a)))),)
    else:
        U3 = (mul(a, a), F.neg(add(a, a)), F._one)
        V3 = (sub(b, mul(lam, a)), lam)
    return U3, _trim(V3, F._zero)


def double(d):
    """2D, equal to add(d, d); see _cantor_double."""
    if d.is_zero():
        return d
    curve = d.curve
    F, (U, V, f) = lifted(d.U.field, d.U, d.V, curve.f)
    return _divisor(curve, F, *_cantor_double(curve.g, F, f, (U, V)))


def _cantor_double(g, F, f, D):
    """2D for the payload pair D = (U, V) as a reduced pair over F, equal to
    _cantor_add of D with itself: a point class (x - a, b) doubles by the
    tangent (_double_point), and every other class is _cantor_add(D, D).
    """
    U, V = D
    if len(U) == 1:
        return D
    if len(U) == 2:  # a point (a, b); b = 0 is 2-torsion
        return _double_point(g, F, F.neg(U[0]), V[0], f) if V else ((F._one,), ())
    return _cantor_add(g, F, f, D, D)


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


def _walk(n, d, double, add, negate):
    """n d for n != 0 by the width-4 NAF, on any representation of the class
    d that double, add and negate take; n < 0 walks -n from -d.  Only the
    odd multiples d, 3d, ... up to the largest digit used are built."""
    if n < 0:
        n, d = -n, negate(d)
    digits = _naf4(n)
    odd = [d]  # odd[i] = (2i + 1) d
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


def scalar_mul(n, d):
    """nD by a width-4 signed window: about log2(n) doublings and log2(n)/5
    additions, negative digits taking the negation, which is free.

    D and f are lifted once to F, the join of their field objects, and the
    window is walked on payloads with one set of steps: the Cantor cores
    _cantor_double, _cantor_add and _negate, and when F is a base context
    for a prime field (k = 1), the curve's own or another, and g <= 3,
    the closed forms of closed_forms.law, which hand each step they do not
    cover to one of those Cantor cores.  Only the result is built as a
    MumfordDivisor.  It lies over F for every n, unless it is the zero
    class, which is zero_class(curve); its value and encoding are Cantor's.
    """
    n = _int_value(n, "scalar")
    curve, g = d.curve, d.curve.g
    if n == 0:
        return zero_class(curve)
    F, (U, V, f) = lifted(d.U.field, d.U, d.V, curve.f)
    steps = partial(_cantor_double, g, F, f), partial(_cantor_add, g, F, f), partial(_negate, F)
    if F.tower is F or F.k != 1 or g > 3:
        return _divisor(curve, F, *_walk(n, (U, V), *steps))
    state, pair, *steps = law(F, f, *steps)
    return _divisor(curve, F, *pair(_walk(n, state(U, V), *steps)))


def torsion_scan(curve, n_max):
    """Exhaustive affine-point census over the tower field with order checks.

    For every point P found: the reduced representative of 2P must have
    deg U = min(g, 2), i.e. (x - a)^2 for g >= 2 and a point for g = 1 (P not
    2-torsion), and for g > 1 no P may have order n for
    3 <= n <= hi = min(n_max, 2g); at g = 1, hi = 2.  The scan walks with
    the Cantor cores (_cantor_double, _cantor_add, _negate) over the tower
    T, on the f it lifts to T once: a point is the payload pair
    ((-a, 1), (b,)), 2P comes from the tangent and only the multiples mP
    for m <= ceil(hi/2) are built.  nP = 0 exactly when
    ceil(n/2) P = -floor(n/2) P, which compares reduced pairs, unique per
    class, by value.  One sqrt per x-value both tests f(x) for a square and
    roots it, and one squaring checks the root.  A max order below 3 is
    refused with MaxOrderTooSmall at every genus, and a scan whose work
    estimate q^2 * k^2 * g * hi / 2 exceeds SCAN_LIMIT with FieldTooLarge,
    both before any square root: q^2 = |T| counts the x-values,
    k^2 = [F_q : F_p]^2 weighs the cost of one tower operation, and the
    rest counts the multiples, so the estimate is q^2 k^2 g^2 at hi = 2g.
    Returns {"points_scanned": int, "violations": [...]}.
    """
    n_max = _int_value(n_max, "max order")
    if n_max < 3:
        raise MaxOrderTooSmall(
            f"max order {n_max} is below 3, the smallest order a scan checks"
        )
    ctx, g = curve.ctx, curve.g
    hi = min(n_max, 2 * g)  # 2 at g = 1, as n_max >= 3
    work = ctx.q2 * ctx.k**2 * g * hi // 2
    if work > SCAN_LIMIT:
        raise FieldTooLarge(
            f"a scan of the {ctx.q2}-element tower field of degree {2 * ctx.k} "
            f"over F_{ctx.p} at genus {g} to order "
            f"{hi} has work estimate {work}; scan bound is {SCAN_LIMIT}"
        )
    deg_2p = min(g, 2)  # 2P - 2(infinity) is reduced for g >= 2
    violations = []
    points = 0
    T, (f,) = lifted(ctx.tower, curve.f)
    zero, one, neg = T._zero, T._one, T.neg
    double, add = partial(_cantor_double, g, T, f), partial(_cantor_add, g, T, f)
    negate = partial(_negate, T)
    for i in range(T.q):
        x = T._from_index(i)
        fx = peval(T, f, x)
        if fx == zero:
            points += 1  # Weierstrass point, 2-torsion: nothing to check
            continue
        s = T.sqrt(fx)
        if s is None:
            continue
        s = min(s, neg(s))  # the canonical root, as FieldElement.sqrt
        if T.mul(s, s) != fx:
            raise InternalInvariantViolation(
                f"sqrt(f(x))^2 != f(x) at x = {T.elem(x).encode()}"
            )
        x_minus_a = (neg(x), one)
        for b in (s, neg(s)):
            points += 1
            P = (x_minus_a, (b,))
            mult = [None, P, double(P)]  # mult[m] = m * P
            deg_u = len(mult[2][0]) - 1
            if deg_u != deg_2p:
                violations.append(
                    {"point": [T.elem(x).encode(), T.elem(b).encode()],
                     "kind": "double-left-theta", "deg_u": deg_u}
                )
            while len(mult) <= (hi + 1) // 2:
                mult.append(add(mult[-1], P))
            for n in range(3, hi + 1):
                if mult[(n + 1) // 2] == negate(mult[n // 2]):
                    violations.append(
                        {"point": [T.elem(x).encode(), T.elem(b).encode()],
                         "kind": "small-order", "order": n}
                    )
    return {"points_scanned": points, "violations": violations}
