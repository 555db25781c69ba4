"""Division by 2 on the Jacobian: all 2^{2g} halves of a curve point.

Given P = (a, b), every choice of square roots r_i of a - alpha_i with
prod r_i = -b determines one divisor class with 2*class = P.  Its Mumford
pair comes out of closed formulas in the elementary symmetric functions
s_i of the r_i, linear in the s_i when written in y = a - x:

    U(x) = (-1)^g [ y^g + sum_{j=1..g} s_{2j} y^{g-j} ]
    V(x) = [ sum_{j=1..g} s_{2j-1} y^{g-j+1} ] - b - s_1 * (-1)^g U(x)

and the map is inverted by r_i = s_1 + (-1)^g V(alpha_i) / U(alpha_i).
Each r_i lies in the base field or in its quadratic tower, and the
arithmetic goes to the tower only where an operand lies there; rational
results are detected afterwards coefficient-wise.
"""

from __future__ import annotations

from .errors import (
    InfinityInput,
    InternalInvariantViolation,
    InvalidDivisor,
    NotAHalf,
    TowerExhausted,
    WeierstrassCollision,
)
from .poly import Poly, elementary_symmetric, gcd
from .jacobian import MumfordDivisor, double, to_class


class SqrtTuple:
    """A tuple (r_1, ..., r_{2g+1}) with r_i^2 = a - alpha_i and prod r_i = -b."""

    __slots__ = ("curve", "point", "r", "index")

    def __init__(self, curve, point, r, index):
        self.curve = curve
        self.point = point
        self.r = tuple(r)
        self.index = index

    def _check(self):
        a, b = self.point.a, self.point.b
        prod = self.curve.ctx.one()
        for ri, alpha in zip(self.r, self.curve.roots):
            if ri * ri != a - alpha:
                raise InternalInvariantViolation("r_i^2 != a - alpha_i")
            prod = prod * ri
        if prod != -b:
            raise InternalInvariantViolation("prod r_i != -b")

    def encode(self):
        return [ri.encode() for ri in self.r]

    def __repr__(self):
        return f"SqrtTuple(index={self.index}, r={self.encode()})"


class HalfClass:
    """A half of P: the Mumford divisor plus its generating data.

    Carries the sqrt tuple, the symmetric functions s_1..s_{2g+1}, and the
    intermediate v_D = (-1)^g s_1 U + V used by the f - v_D^2 identity.
    """

    __slots__ = ("divisor", "tuple", "s", "v_d")

    def __init__(self, divisor, tup, s, v_d):
        self.divisor = divisor
        self.tuple = tup
        self.s = s
        self.v_d = v_d

    @property
    def U(self):
        return self.divisor.U

    @property
    def V(self):
        return self.divisor.V

    @property
    def index(self):
        return self.tuple.index

    def __repr__(self):
        return f"HalfClass(index={self.index}, {self.divisor!r})"


def sqrt_tuples(point):
    """All 2^{2g} sign choices, in deterministic counter order.

    One coordinate is pinned: the last one, whose root is forced by
    prod r_i = -b, or for a Weierstrass input the zero one.  Counter bits
    flip the canonical roots of the other 2g coordinates in index order, and
    the pinned one takes its sign from the parity of the counter, which for
    the zero root changes nothing.
    """
    if point.infinite:
        raise InfinityInput("cannot halve the point at infinity")
    curve = point.curve
    g = curve.g
    a, b = point.a, point.b
    rhos = []
    for i, alpha in enumerate(curve.roots, start=1):
        try:
            rhos.append((a - alpha).sqrt())
        except TowerExhausted:
            raise TowerExhausted(
                f"point {[point.a.encode(), point.b.encode()]}: a - alpha_{i} is not "
                "a square in F_{p^{2k}}, so its halves lie above the tower"
            ) from None

    if b.is_zero():
        pinned = next(i for i, rho in enumerate(rhos) if rho.is_zero())
    else:
        pinned = 2 * g
        prod = curve.ctx.one()
        for rho in rhos[:pinned]:
            prod = prod * rho
        rhos[pinned] = (-b) / prod
    free = [i for i in range(2 * g + 1) if i != pinned]
    signed = [(rho, -rho) for rho in rhos]  # indexed by a sign bit

    out = []
    for counter in range(1 << (2 * g)):
        r = list(rhos)
        for bit, i in enumerate(free):
            r[i] = signed[i][counter >> bit & 1]
        r[pinned] = signed[pinned][counter.bit_count() & 1]
        out.append(SqrtTuple(curve, point, r, counter))
    return out


def mumford_from_tuple(tup, verify=True):
    """Mumford pair of the half determined by a sqrt tuple."""
    curve = tup.curve
    ctx = curve.ctx
    a, b = tup.point.a, tup.point.b
    s = elementary_symmetric(ctx, tup.r)

    # Horner in y = a - x: w = y^g + sum s_{2j} y^(g-j), v = sum s_{2j-1} y^(g-j+1)
    y = Poly(ctx, (a, -1))
    w, v = Poly(ctx, (1,)), Poly.zero(ctx)
    for j in range(1, curve.g + 1):
        w = w * y + s[2 * j - 1]  # s_{2j}; s is 0-based
        v = (v + s[2 * j - 2]) * y  # s_{2j-1}
    v_d = v - b
    u_poly = -w if curve.g % 2 else w
    v_poly = v_d - w * s[0]

    divisor = MumfordDivisor(curve, u_poly, v_poly, validate=False)
    half = HalfClass(divisor, tup, s, v_d)
    if verify:
        _verify_structure(half)
    return half


def _verify_structure(half):
    """A valid Mumford pair, with the two properties of a half on top:
    deg U = g and gcd(U, f) = 1."""
    divisor = half.divisor
    try:
        divisor.validate()
    except InvalidDivisor as exc:
        raise InternalInvariantViolation(f"half is not a valid Mumford pair: {exc}") from None
    curve = divisor.curve
    if divisor.U.degree() != curve.g:
        raise InternalInvariantViolation("deg U != g")
    if gcd(divisor.U, curve.f).degree() != 0:
        raise InternalInvariantViolation("U shares a root with f")


def halve(point, verify=True):
    """All 2^{2g} divisor classes doubling to P, in sign-counter order.

    With verify on (the default) every output is checked: pairwise distinct,
    doubles back to cl((P) - (infinity)) under the Cantor oracle, U coprime
    to f, and P itself outside the support.  A root of U at x = a is only
    possible with V(a) = -b there, i.e. the support may contain the
    involuted point but never P.
    """
    tuples = sqrt_tuples(point)
    halves = [mumford_from_tuple(t, verify=verify) for t in tuples]
    if verify:
        keys = {h.divisor.key() for h in halves}
        if len(keys) != len(halves):
            raise InternalInvariantViolation("halves are not pairwise distinct")
        target = to_class(point)
        for h in halves:
            if double(h.divisor) != target:
                raise InternalInvariantViolation("double(half) != class of P")
            if point.b.is_zero() and not h.U(point.a):
                raise InternalInvariantViolation("P lies in the support of a half")
    return halves


def recover_tuple(d, point=None, s1=None):
    """Invert mumford_from_tuple via r_i = s_1 + (-1)^g V(alpha_i)/U(alpha_i).

    Accepts a HalfClass (s_1 and the point come from its generating data) or
    a bare MumfordDivisor together with the point and s_1.
    """
    if isinstance(d, HalfClass):
        if s1 is None:
            s1 = d.s[0]
        if point is None:
            point = d.tuple.point
        divisor, index = d.divisor, d.index
    else:
        divisor, index = d, -1
        if point is None or s1 is None:
            raise ValueError("bare divisor needs both the point and s_1")
    if point.infinite:
        raise InfinityInput("halves of the point at infinity are out of scope")

    curve = divisor.curve
    if double(divisor) != to_class(point):
        raise NotAHalf("divisor does not double to the given point")

    g = curve.g
    sign = (-1) ** g
    r = []
    for alpha in curve.roots:
        ua = divisor.U(alpha)
        if ua.is_zero():
            raise WeierstrassCollision("U vanishes at a curve root")
        r.append(s1 + divisor.V(alpha) * sign / ua)
    tup = SqrtTuple(curve, point, r, index)
    tup._check()
    return tup
