"""The closed-form group laws that scalar_mul walks over a prime field.

Over F_p (k = 1) a class of full degree g <= 3 is a flat tuple of ints, and
one add or double is a fixed formula with one inversion, pow(., -1, p): the
chord-and-tangent rule for g = 1, and Harley's composition followed by
reduction for g = 2 (one step, after Lange) and g = 3 (two steps, after
Pelzl, Wollinger, Guajardo and Paar, and Costello and Lauter).

law(F, f, cantor_double, cantor_add, cantor_negate) is the one frame of
the three: it reads g from len(f) = 2g + 2 and returns (state, pair,
double, add, negate), where state and pair convert a reduced payload pair
(U, V) to the law's representation and back, and the other three are the
steps of jacobian._walk.  The frame alone knows the layout:

  - a class with deg U = g is the int tuple (u_{g-1}, ..., u_0,
    v_{g-1}, ..., v_0) of U = x^g + u_{g-1} x^{g-1} + ... + u_0 and V, so
    at g = 1 the point (x, y) is (u0, v0) = (-x, y);
  - any other class, the zero class ((1,), ()) included, is its reduced
    payload pair (U, V).

The frame tells them apart by the full-degree test D[0].__class__ is int
(at g = 1 both have length 2).  Negation is free, since the hyperelliptic
involution acts as -1 on the Jacobian: negate negates the v's of a flat
tuple and hands a pair to cantor_negate.  A step the formulas do not cover
(an operand with deg U < g, U1 and U2 or U and 2V with a common root, or a
result with deg U < g) is one step of the Cantor law on the reduced pairs,
state(*cantor_x(pair(...))), wrapped once here from the cantor_double and
cantor_add the caller passes: jacobian's _cantor_double, _cantor_add and
_negate with g, F and f bound.

The formulas, _chord_tangent, _genus2 and _genus3, map (p, f, and the two
wrapped Cantor steps) to (double, add); each tests its operands and its
nonzero denominators inline and calls the wrapped step itself.  The result
equals Cantor's, so scalar_mul's values and encodings do not depend on the
path.  Nothing is kept between calls.
"""

from .field import _trim


def law(F, f, cantor_double, cantor_add, cantor_negate):
    """(state, pair, double, add, negate) of the closed-form law for the
    genus of f over the prime field F, on the layout of the module
    docstring."""
    p, g = F.p, len(f) // 2 - 1

    def state(U, V):
        if len(U) <= g:
            return U, V
        return (*U[-2::-1], *(0,) * (g - len(V)), *V[::-1])

    def pair(D):
        if D[0].__class__ is int:
            return (*D[g - 1::-1], 1), _trim(D[:g - 1:-1], 0)
        return D

    def negate(D):
        if D[0].__class__ is int:
            return (*D[:g], *[-v % p for v in D[g:]])
        return cantor_negate(D)

    def double(D):
        return state(*cantor_double(pair(D)))

    def add(D1, D2):
        return state(*cantor_add(pair(D1), pair(D2)))

    formulas = (_chord_tangent, _genus2, _genus3)[g - 1]
    return (state, pair, *formulas(p, f, double, add), negate)


def _chord_tangent(p, f, cantor_double, cantor_add):
    """The g = 1 group law over F_p: the chord and tangent rules on the
    point (x, y) as (u, y) = (-x, y).

    P + Q, u1 != u2, is the chord rule: lambda = (y2 - y1)/(u1 - u2),
    u3 = f2 - u1 - u2 - lambda^2 and y3 = lambda (u3 - u1) - y1.  2P, y != 0,
    is the tangent rule with lambda = f'(x)/2y = ((3u - 2f2) u + f1)/2y.
    Q = +-P, a double with y = 0 and the zero class take the Cantor steps.
    """
    _, f1, f2, _ = f

    def double(P):
        u, y = P
        if y and u.__class__ is int:
            lam = ((3 * u - 2 * f2) * u + f1) * pow(2 * y, -1, p) % p
            u3 = (f2 - 2 * u - lam * lam) % p
            return u3, (lam * (u3 - u) - y) % p
        return cantor_double(P)

    def add(P, Q):
        u1, y1 = P
        u2, y2 = Q
        if u1 != u2 and u1.__class__ is int is u2.__class__:
            lam = (y2 - y1) * pow(u1 - u2, -1, p) % p
            u3 = (f2 - u1 - u2 - lam * lam) % p
            return u3, (lam * (u3 - u1) - y1) % p
        return cantor_add(P, Q)

    return double, add


def _genus2(p, f, cantor_double, cantor_add):
    """The g = 2 group law over F_p on int payloads: Harley's composition
    with one reduction step, in Lange's affine form (AAECC 15, 2005), h = 0.

    Its operands of degree 2 are the tuples (u1, u0, v1, v0).
    D1 + D2, both of degree 2: with r = res(U1, U2) and
    s = (V1 - V2)/U2 mod U1 = (s1 x + s0), the sum is
    U' = (s (s U2 + 2 V2) - (f - V2^2)/U2)/U1 made monic and
    V' = -(V2 + s U2) mod U'.  2D is the same with U1 = U2 = U and
    s = ((f - V^2)/U)/(2V) mod U, r = res(U, 2V).  Both compute r s and
    invert r s1 once.  When r = 0 (U1, U2 share a root, or a Weierstrass
    point lies in the support of D) or s1 = 0 (deg U' < 2), and whenever
    an operand has deg U < 2, the step is cantor_add or cantor_double.
    """
    _, _, f2, f3, f4, _ = f

    def finish(u21, u20, v21, v20, e3, e2, r, s1, s0):
        """(U', V') from r, r s = s1 x + s0, the operand (U2, V2) and the x^3
        and x^2 coefficients e3, e2 of U1 U2.  With s = lead (x + c) and
        l = (x + c) U2, U1 U2 U' = (l + V2/lead)^2 - f/lead^2, whose x^5 and
        x^4 coefficients give U', and V' = -(lead l + V2) mod U'."""
        w = pow(r * s1, -1, p)  # the one inversion
        lead = s1 * s1 % p * w % p  # s1 / r
        il = r * r % p * w % p  # 1 / lead
        il2 = il * il % p
        c = s0 * r % p * w % p  # s0 / s1
        l2, l1, l0 = u21 + c, (u21 * c + u20) % p, u20 * c % p
        u1 = (2 * l2 - il2 - e3) % p
        u0 = (l2 * l2 + 2 * (l1 + v21 * il) - f4 * il2 - u1 * e3 - e2) % p
        t = l2 - u1
        return u1, u0, (lead * (u1 * t + u0 - l1) - v21) % p, (lead * (u0 * t - l0) - v20) % p

    def add(P, Q):
        if len(P) == 4 == len(Q):
            u11, u10, v11, v10 = P
            u21, u20, v21, v20 = Q
            z1, z2 = u11 - u21, u20 - u10
            z3 = (u11 * z1 + z2) % p  # r / U2 = z1 x + z3 mod U1
            r = (z2 * z3 + z1 * z1 * u10) % p
            w0, w1 = v10 - v20, v11 - v21
            a, b = z3 * w0 % p, z1 * w1 % p
            s1 = ((z3 + z1) * (w0 + w1) - a - b * (1 + u11)) % p
            if r and s1:
                s0 = (a - u10 * b) % p
                return finish(u21, u20, v21, v20, u11 + u21, u10 + u20 + u11 * u21, r, s1, s0)
        return cantor_add(P, Q)

    def double(P):
        if len(P) == 4:
            u1, u0, v1, v0 = P
            t1, t0 = 2 * v1, 2 * v0
            w3 = u1 * t1 % p
            i1, i0 = -t1, t0 - w3  # r / 2V = i1 x + i0 mod U
            r = (u0 * t1 * t1 + t0 * i0) % p
            a2 = f4 - u1  # (f - V^2)/U = x^3 + a2 x^2 + a1 x + a0
            a1 = (f3 - u1 * a2 - u0) % p
            a0 = (f2 - v1 * v1 - u1 * a1 - u0 * a2) % p
            k1 = (u1 * (u1 - a2) - u0 + a1) % p  # k = (f - V^2)/U mod U
            k0 = (u0 * (u1 - a2) + a0) % p
            a, b = k0 * i0 % p, k1 * i1 % p
            s1 = ((i0 + i1) * (k0 + k1) - a - b * (1 + u1)) % p
            if r and s1:
                s0 = (a - u0 * b) % p
                return finish(u1, u0, v1, v0, 2 * u1, 2 * u0 + u1 * u1, r, s1, s0)
        return cantor_double(P)

    return double, add


def _genus3(p, f, cantor_double, cantor_add):
    """The g = 3 group law over F_p on int payloads: Harley's composition
    with two reduction steps, deg 6 -> 4 -> 3, in affine coordinates with
    one inversion per step, as in Pelzl, Wollinger, Guajardo and Paar,
    "Hyperelliptic curve cryptosystems: closing the performance gap to
    elliptic curves" (CHES 2003), and Costello and Lauter, "Group law
    computations on Jacobians of hyperelliptic curves" (SAC 2011), h = 0.

    Its operands of degree 3 are the tuples (u2, u1, u0, v2, v1, v0).
    D1 + D2, both of degree 3: s = (V1 - V2)/U2 mod U1 = s2 x^2 + s1 x + s0
    comes from Cramer's rule on the product by U2 mod U1, whose determinant
    is r = res(U1, U2), as r s.  2D is the same with U1 = U2 = U and
    s = ((f - V^2)/U)/(2V) mod U, r = res(U, 2V).  With V = V2 + s U2 the
    first reduction gives U' = (V^2 - f)/(s2^2 U1 U2), monic of degree 4,
    and V' = -V mod U'; the second gives U'' = (f - V'^2)/U', monic of
    degree 3 with no division, and V'' = -V' mod U''.  Only 1/r and 1/s2
    are needed, both from one inversion of r s2.  When r = 0 (U1 and U2
    share a root, D1 = +-D2, or a Weierstrass point lies in the support of
    a doubled D) or s2 = 0 (a result of degree < 3), and whenever an operand
    has deg U < 3, the step is cantor_add or cantor_double.
    """
    _, _, _, f3, f4, f5, f6, _ = f

    def solve(u2, u1, u0, b2, b1, b0, w2, w1, w0):
        """(r, r s2, r s1, r s0) for s B = W mod U, deg B, deg W < 3: the
        columns B, C = x B, D = x^2 B mod U have determinant r = res(U, B),
        and r s0, r s1, r s2 are W . (C x D), W . (D x B), W . (B x C)."""
        c2, c1, c0 = (b1 - b2 * u2) % p, (b0 - b2 * u1) % p, -b2 * u0 % p
        d2, d1, d0 = (c1 - c2 * u2) % p, (c0 - c2 * u1) % p, -c2 * u0 % p
        x0, x1, x2 = c1 * d2 - c2 * d1, c2 * d0 - c0 * d2, c0 * d1 - c1 * d0
        y0, y1, y2 = d1 * b2 - d2 * b1, d2 * b0 - d0 * b2, d0 * b1 - d1 * b0
        z0, z1, z2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
        return ((b0 * x0 + b1 * x1 + b2 * x2) % p, (w0 * z0 + w1 * z1 + w2 * z2) % p,
                (w0 * y0 + w1 * y1 + w2 * y2) % p, (w0 * x0 + w1 * x1 + w2 * x2) % p)

    def finish(u2, u1, u0, v2, v1, v0, e5, e4, e3, e2, r, rs2, rs1, rs0):
        """(U'', V'') from r, r s, the operand (U2, V2) and the x^5 .. x^2
        coefficients e5 .. e2 of U1 U2.  With s = s2 (x^2 + c1 x + c0) and
        l = (x^2 + c1 x + c0) U2, U1 U2 U' = (l + V2/s2)^2 - f/s2^2, whose
        x^9 .. x^6 coefficients give U', and V' = -(s2 l + V2) mod U'."""
        w = pow(r * rs2, -1, p)  # the one inversion
        s2 = rs2 * rs2 % p * w % p
        rw = r * w % p  # 1 / (r s2)
        il, c1, c0 = r * rw % p, rs1 * rw % p, rs0 * rw % p  # 1/s2, s1/s2, s0/s2
        il2 = il * il % p
        l4, l3 = (u2 + c1) % p, (u1 + c1 * u2 + c0) % p
        l2, l1, l0 = (u0 + c1 * u1 + c0 * u2) % p, (c1 * u0 + c0 * u1) % p, c0 * u0 % p
        m2, m1 = (l2 + il * v2) % p, (l1 + il * v1) % p
        q3 = (2 * l4 - e5) % p  # U' = x^4 + q3 x^3 + q2 x^2 + q1 x + q0
        q2 = (2 * l3 + l4 * l4 - e4 - q3 * e5) % p
        q1 = (2 * (m2 + l4 * l3) - il2 - e3 - q3 * e4 - q2 * e5) % p
        q0 = (2 * (m1 + l4 * m2) + l3 * l3 - f6 * il2 - e2 - q3 * e3 - q2 * e4 - q1 * e5) % p
        t = l4 - q3  # l = (x + t) U' + (l mod U')
        y3 = -s2 * (l3 - q2 - t * q3) % p  # V' = y3 x^3 + y2 x^2 + y1 x + y0
        y2 = (-s2 * (l2 - q1 - t * q2) - v2) % p
        y1 = (-s2 * (l1 - q0 - t * q1) - v1) % p
        y0 = (-s2 * (l0 - t * q0) - v0) % p
        z2 = (f6 - y3 * y3 - q3) % p  # U'' = x^3 + z2 x^2 + z1 x + z0
        z1 = (f5 - 2 * y3 * y2 - q2 - z2 * q3) % p
        z0 = (f4 - 2 * y3 * y1 - y2 * y2 - q1 - z2 * q2 - z1 * q3) % p
        return z2, z1, z0, (y3 * z2 - y2) % p, (y3 * z1 - y1) % p, (y3 * z0 - y0) % p

    def add(P, Q):
        if len(P) == 6 == len(Q):
            a2, a1, a0, b2, b1, b0 = P
            u2, u1, u0, v2, v1, v0 = Q
            r, rs2, rs1, rs0 = solve(a2, a1, a0, u2 - a2, u1 - a1, u0 - a0, b2 - v2, b1 - v1, b0 - v0)
            if r and rs2:
                e3 = (a0 + u0 + a2 * u1 + a1 * u2) % p
                e2 = (a2 * u0 + a1 * u1 + a0 * u2) % p
                return finish(u2, u1, u0, v2, v1, v0, a2 + u2, (a1 + u1 + a2 * u2) % p, e3, e2,
                              r, rs2, rs1, rs0)
        return cantor_add(P, Q)

    def double(P):
        if len(P) == 6:
            u2, u1, u0, v2, v1, v0 = P
            w3 = f6 - u2  # (f - V^2)/U = x^4 + w3 x^3 + w2 x^2 + w1 x + w0
            w2 = (f5 - u1 - u2 * w3) % p
            w1 = (f4 - v2 * v2 - u0 - u1 * w3 - u2 * w2) % p
            w0 = (f3 - 2 * v2 * v1 - u0 * w3 - u1 * w2 - u2 * w1) % p
            t = w3 - u2  # its remainder mod U is the W of solve
            r, rs2, rs1, rs0 = solve(u2, u1, u0, 2 * v2, 2 * v1, 2 * v0,
                                     w2 - u1 - t * u2, w1 - u0 - t * u1, w0 - t * u0)
            if r and rs2:
                return finish(u2, u1, u0, v2, v1, v0, 2 * u2, 2 * u1 + u2 * u2,
                              2 * (u0 + u2 * u1), 2 * u2 * u0 + u1 * u1, r, rs2, rs1, rs0)
        return cantor_double(P)

    return double, add
