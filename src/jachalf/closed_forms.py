"""The closed-form group laws that scalar_mul walks over a prime field.

Over F_p (k = 1) a class of full degree g <= 3 is a flat tuple of ints, and
one add or double is a fixed formula with one inversion, pow(., -1, p): the
chord-and-tangent rule for g = 1, and Harley's composition followed by
reduction for g = 2 (one step, after Lange) and g = 3 (two steps, after
Pelzl, Wollinger, Guajardo and Paar, and Costello and Lauter).  Each
scalar_mul call builds its law, _chord_tangent, _genus2 or _genus3, from
the field F, the payloads of f and the Cantor steps, and the law returns
(state, pair, double, add, negate): state and pair convert a reduced
payload pair (U, V) to the law's representation and back, and the other
three are the steps of jacobian._walk.

A step the g = 2 and g = 3 formulas do not cover (an operand with
deg U < g, a resultant r = 0, or a vanishing leading coefficient s1 or s2,
so that the result has deg U < g) is one step of the Cantor law on the
reduced payload pairs: the cantor_double, cantor_add and cantor_negate the
caller passes, jacobian's _cantor_double, _cantor_add and _negate with g,
F and f bound.  Classes of lower degree keep that pair form.  The result
equals Cantor's, so scalar_mul's values and encodings do not depend on the
path.  Nothing is kept between calls.
"""

from .field import _trim


def _chord_tangent(F, f, *_):
    """The g = 1 group law over F_p on int payloads, in affine coordinates.

    A class is the point (x, y), or None for the zero class.  Returns
    (state, pair, double, add, negate): state and pair convert from and to
    reduced payload pairs (U, V) = (x - x0, y0).  P + Q is the chord rule,
    lambda = (y2 - y1)/(x2 - x1), x3 = lambda^2 - f2 - x1 - x2 and
    y3 = -(y1 + lambda (x3 - x1)); 2P is the tangent rule of
    jacobian._double_point.  The Cantor steps a caller passes are not
    needed: the two rules cover every class.
    """
    p = F.p
    _, f1, f2, _ = f

    def state(U, V):
        return (-U[0] % p, V[0] if V else 0) if len(U) == 2 else None

    def pair(P):
        return ((1,), ()) if P is None else ((-P[0] % p, 1), (P[1],))

    def double(P):
        if P is None or not P[1]:
            return None
        x, y = P
        lam = ((3 * x + 2 * f2) * x + f1) * pow(2 * y, -1, p) % p
        x3 = (lam * lam - f2 - 2 * x) % p
        return x3, -(y + lam * (x3 - x)) % p

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:  # Q = P or Q = -P
            return double(P) if y1 == y2 else None
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - f2 - x1 - x2) % p
        return x3, -(y1 + lam * (x3 - x1)) % p

    def negate(P):
        return None if P is None else (P[0], -P[1] % p)

    return state, pair, double, add, negate


def _genus2(F, f, cantor_double, cantor_add, cantor_negate):
    """The g = 2 group law over F_p on int payloads: Harley's composition
    with one reduction step, in Lange's affine form (AAECC 15, 2005), h = 0.

    A class with deg U = 2 is the tuple (u1, u0, v1, v0); any other class
    is its reduced payload pair (U, V).  Returns (state, pair, double, add,
    negate) as _chord_tangent does.

    D1 + D2, both of degree 2: with r = res(U1, U2) and
    s = (V1 - V2)/U2 mod U1 = (s1 x + s0), the sum is
    U' = (s (s U2 + 2 V2) - (f - V2^2)/U2)/U1 made monic and
    V' = -(V2 + s U2) mod U'.  2D is the same with U1 = U2 = U and
    s = ((f - V^2)/U)/(2V) mod U, r = res(U, 2V).  Both compute r s and
    invert r s1 once.  When r = 0 (U1, U2 share a root, or a Weierstrass
    point lies in the support of D) or s1 = 0 (deg U' < 2), and whenever
    an operand has deg U < 2, the step is cantor_add or cantor_double on
    the pairs, and cantor_negate negates them.
    """
    p = F.p
    _, _, f2, f3, f4, _ = f

    def state(U, V):
        if len(U) != 3:
            return U, V
        return U[1], U[0], V[1] if len(V) == 2 else 0, V[0] if V else 0

    def pair(D):
        if len(D) == 2:
            return D
        u1, u0, v1, v0 = D
        return (u0, u1, 1), _trim((v0, v1), 0)

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
        return state(*cantor_add(pair(P), pair(Q)))

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
        return state(*cantor_double(pair(P)))

    def negate(D):
        if len(D) == 4:
            return D[0], D[1], -D[2] % p, -D[3] % p
        return cantor_negate(D)

    return state, pair, double, add, negate


def _genus3(F, f, cantor_double, cantor_add, cantor_negate):
    """The g = 3 group law over F_p on int payloads: Harley's composition
    with two reduction steps, deg 6 -> 4 -> 3, in affine coordinates with
    one inversion per step, as in Pelzl, Wollinger, Guajardo and Paar,
    "Hyperelliptic curve cryptosystems: closing the performance gap to
    elliptic curves" (CHES 2003), and Costello and Lauter, "Group law
    computations on Jacobians of hyperelliptic curves" (SAC 2011), h = 0.

    A class with deg U = 3 is the tuple (u2, u1, u0, v2, v1, v0); any other
    class is its reduced payload pair (U, V).  Returns (state, pair, double,
    add, negate) as _chord_tangent does.

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
    has deg U < 3, the step is cantor_add or cantor_double on the pairs,
    and cantor_negate negates them.
    """
    p = F.p
    _, _, _, f3, f4, f5, f6, _ = f

    def state(U, V):
        if len(U) != 4:
            return U, V
        v0, v1, v2 = (*V, 0, 0, 0)[:3]
        return U[2], U[1], U[0], v2, v1, v0

    def pair(D):
        if len(D) == 2:
            return D
        u2, u1, u0, v2, v1, v0 = D
        return (u0, u1, u2, 1), _trim((v0, v1, v2), 0)

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
        return state(*cantor_add(pair(P), pair(Q)))

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
        return state(*cantor_double(pair(P)))

    def negate(D):
        return cantor_negate(D) if len(D) == 2 else (*D[:3], -D[3] % p, -D[4] % p, -D[5] % p)

    return state, pair, double, add, negate
