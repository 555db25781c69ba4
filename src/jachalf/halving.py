"""Division by 2 on the Jacobian: all 2^{2g} halves of a curve point.

Given P = (a, b), every choice of square roots r_i of a - alpha_i with
prod r_i = -b determines one divisor class with 2*class = P.  Its Mumford
pair comes out of closed formulas in the elementary symmetric functions
s_i of the r_i, linear in the s_i when written in y = a - x:

    U(x) = (-1)^g [ y^g + sum_{j=1..g} s_{2j} y^{g-j} ]
    V(x) = [ sum_{j=1..g} s_{2j-1} y^{g-j+1} ] - b - s_1 * (-1)^g U(x)

and the map is inverted by r_i = s_1 + (-1)^g V(alpha_i) / U(alpha_i).
Each r_i lies in the base field or in its quadratic tower.  Per tuple
poly.lifted moves the r_i, a, b and f to one field object F, the tower
exactly when one of them lies there, starting from curve.ctx; rational
results are detected afterwards coefficient-wise.

mumford_from_tuple runs on the payload kernels of poly.py: the s_i come
from the product recurrence, and the Horner in y = a - x multiplies a
coefficient list by y as a scaled copy less a shifted one.  Polys and
FieldElements are built only for the returned HalfClass.  A half is
verified by one certificate, f - v_D^2 = (x - a) U^2 with
v_D = V + (-1)^g s_1 U, checked on the same payloads, and not by the group
law (see _half_failure); recover_tuple checks a caller's divisor with it.
"""

from __future__ import annotations

from .errors import (
    GenusTooLarge,
    InfinityInput,
    InternalInvariantViolation,
    NotAHalf,
    TowerExhausted,
)
from .field import FieldElement
from .poly import (
    _scale,
    _symmetric,
    _trim,
    from_payloads,
    lifted,
    padd,
    peval,
    pneg,
    psub,
)
from .jacobian import _divisor

# halving refuses a curve of higher genus; `jachalf halve` at g = 7 and g = 8
# took 2.9 s / 82 MiB and 13.8 s / 313 MiB on one Xeon core (Python 3.11)
HALVE_GENUS_LIMIT = 7


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

    Carries the sqrt tuple, the symmetric functions s_1..s_{2g+1} as
    FieldElements, and the intermediate v_D = (-1)^g s_1 U + V of the
    formulas as a Poly, all over the tuple's one field object, like U and V.
    The certificate does not trust v_D and rebuilds it from V (see
    _half_failure).
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
    if g > HALVE_GENUS_LIMIT:
        raise GenusTooLarge(
            f"curve of genus {g} has 4^{g} halves per point; "
            f"halving is bounded to genus {HALVE_GENUS_LIMIT}"
        )
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


def _times_y(F, P, a):
    """(a - x) P over F for a nonempty payload list P: a P minus P shifted
    up one place.  The leading coefficient is -P[-1]."""
    mul, sub = F.mul, F.sub
    out = [mul(a, P[0])]
    out += [sub(mul(a, c), prev) for prev, c in zip(P, P[1:])]
    out.append(F.neg(P[-1]))
    return out


def mumford_from_tuple(tup, verify=True):
    """Mumford pair of the half determined by a sqrt tuple; with verify on,
    its certificate is checked against s_1 of the tuple.  Runs on payloads
    over F, where lifted joins the r_i, a, b and f."""
    curve, point, g = tup.curve, tup.point, tup.curve.g
    F, (*r, a, b, f) = lifted(curve.ctx, *tup.r, point.a, point.b, curve.f)
    s = _symmetric(F, r)[1:]
    add, sub, mul = F.add, F.sub, F.mul

    # Horner in y = a - x: w = y^g + sum s_{2j} y^(g-j), v = sum s_{2j-1} y^(g-j+1)
    w, v = [F._one], [F._zero]
    for j in range(g):
        w = _times_y(F, w, a)
        w[0] = add(w[0], s[2 * j + 1])  # s_{2j}; s is 0-based
        v[0] = add(v[0], s[2 * j])  # s_{2j-1}
        v = _times_y(F, v, a)
    v[0] = sub(v[0], b)  # v_D
    s1 = s[0]
    U = pneg(F, w) if g % 2 else w
    V = _trim([sub(x, mul(s1, y)) for x, y in zip(v, w)], F._zero)

    if verify:
        reason = _half_failure(F, g, f, U, V, a, b, s1)
        if reason:
            raise InternalInvariantViolation(f"formula output is not a half: {reason}")
    divisor = _divisor(curve, F, U, V)
    return HalfClass(divisor, tup, tuple(FieldElement(F, e) for e in s), from_payloads(F, v))


def _half_failure(F, g, f, U, V, a, b, s1):
    """Why (U, V) is not the half of P = (a, b) whose tuple has first
    symmetric function s1, or None when it is.  All are payloads over F:
    U, V and f trimmed lists, a, b and s1 single payloads.

    v_D = V + (-1)^g s1 U is built from the divisor's own V.  The function
    y - v_D(x) has divisor 2D + iota(P) - (2g+1)(infinity) exactly when
    f - v_D^2 = (x - a) U^2, so the identity proves 2 cl(D) = cl((P) -
    (infinity)) once v_D(a) = -b; without that check -v_D would certify
    2D = iota(P).  As v_D = V mod U the identity also gives U | V^2 - f, and
    with U monic, deg U = g and deg V < g it makes (U, V) a reduced half
    with U(alpha_i) != 0 (see below).  For b = 0, a is a root, so P lies
    outside the support.
    """
    if len(U) != g + 1 or U[-1] != F._one or len(V) > g:
        return f"need U monic of degree g = {g} and deg V < g"
    s1U = _scale(F, U, s1)
    v_d = psub(F, V, s1U) if g % 2 else padd(F, V, s1U)
    if peval(F, v_d, a) != F.neg(b):
        return "v_D(a) != -b"
    # the identity as v_D^2 - f = (a - x) U^2
    if psub(F, F.polymul(v_d, v_d), f) != _times_y(F, F.polymul(U, U), a):
        return "f - v_D^2 != (x - a) U^2"
    # No root alpha of f needs U(alpha) != 0 checked: U(alpha) = 0 would give
    # v_D(alpha)^2 = f(alpha) = 0, so (x - alpha)^2 would divide both v_D^2
    # and (x - a) U^2, hence f, which is squarefree.
    return None


def halve(point, verify=True):
    """All 2^{2g} divisor classes doubling to P, in sign-counter order.

    With verify on (the default) every output carries the certificate
    f - v_D^2 = (x - a) U^2 with v_D(a) = -b (see _half_failure), checked
    in mumford_from_tuple, and the outputs are checked pairwise distinct.
    No group law is used: the acceptance tests check the halves with
    Cantor's add instead.  A root of U at x = a is possible only with
    V(a) = -b, i.e. the support may contain the involuted point but never P.
    """
    tuples = sqrt_tuples(point)
    halves = [mumford_from_tuple(t, verify=verify) for t in tuples]
    if verify and len({h.divisor.key() for h in halves}) != len(halves):
        raise InternalInvariantViolation("halves are not pairwise distinct")
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
    curve.check_same(point.curve)
    F, (U, V, f, a, b, s1p) = lifted(
        curve.ctx, divisor.U, divisor.V, curve.f, point.a, point.b, s1
    )
    reason = _half_failure(F, curve.g, f, U, V, a, b, s1p)
    if reason:
        raise NotAHalf(f"divisor is not the half of the point with this s_1: {reason}")

    sign = (-1) ** curve.g
    r = [s1 + divisor.V(alpha) * sign / divisor.U(alpha) for alpha in curve.roots]
    tup = SqrtTuple(curve, point, r, index)
    tup._check()
    return tup
