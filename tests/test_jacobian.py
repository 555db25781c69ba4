"""Curves, points, and the Cantor group law."""

import random
import re
from functools import partial, reduce
from itertools import combinations

import pytest

from jachalf import closed_forms, jacobian
from jachalf.errors import (
    CtxMismatch,
    CurveMismatch,
    DuplicateRoot,
    EvenDegree,
    FieldTooLarge,
    InternalInvariantViolation,
    InvalidDivisor,
    MaxOrderTooSmall,
    NotOnCurve,
)
from jachalf.field import TowerField, ctx_new
from jachalf.jacobian import (
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
from jachalf.halving import halve
from jachalf.poly import Poly, gcd

from helpers import affine_points, make_ctx, random_curve, random_point


class TestCurve:
    def test_g1_example(self, curve_g1_f7):
        assert curve_g1_f7.g == 1
        assert curve_g1_f7.f == Poly(curve_g1_f7.ctx, [0, -1, 0, 1])

    def test_g2_example(self, curve_g2_f49):
        # x(x^2-1)(x^2+1) = x^5 - x with F_7 coefficients
        assert curve_g2_f49.g == 2
        assert curve_g2_f49.f == Poly(curve_g2_f49.ctx, [0, -1, 0, 0, 0, 1])

    def test_duplicate_root(self, f7):
        with pytest.raises(DuplicateRoot):
            curve_new(f7, [0, 0, 1])

    def test_even_degree(self, f7):
        with pytest.raises(EvenDegree):
            curve_new(f7, [0, 1, 2, 3])
        with pytest.raises(EvenDegree):
            curve_new(f7, [0])

    @pytest.mark.parametrize("root", [2.5, "2", True])
    def test_non_integer_root_is_refused(self, f7, root):
        with pytest.raises(TypeError, match=re.escape(repr(root))):
            curve_new(f7, [0, 1, root])

    def test_tower_root_with_a_base_value_is_stored_over_the_context(self, f7):
        curve = curve_new(f7, [f7.tower.from_int(2), 0, 1])
        assert curve.f.field is f7 and all(r.field is f7 for r in curve.roots)
        assert curve.f == curve_new(f7, [2, 0, 1]).f

    def test_root_outside_the_field_of_definition_is_refused(self, f7, f49):
        for root, named in [
            (f7.tower.generator(), "[[0], [1]]"),
            (f7.tower.generator() + 3, "[[3], [1]]"),
            (f49.generator(), "[0, 1]"),
            (ctx_new(11, [1]).from_int(5), "[5]"),
        ]:
            with pytest.raises(CtxMismatch, match=re.escape(f"root {named}")):
                curve_new(f7, [0, 1, root])


class TestPoint:
    def test_valid_point(self, curve_g1_f7):
        p = Point(curve_g1_f7, 4, 2)  # f(4) = 60 = 4 = 2^2
        assert not p.infinite and not p.is_weierstrass()

    def test_not_on_curve(self, curve_g1_f7):
        with pytest.raises(NotOnCurve):
            Point(curve_g1_f7, 3, 1)  # f(3) = 24 = 3 != 1

    @pytest.mark.parametrize("a, b, bad", [(1, 2.5, 2.5), (4, "2", "2"), (True, 0, True)])
    def test_non_integer_coordinate_is_refused(self, curve_g1_f7, a, b, bad):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            Point(curve_g1_f7, a, b)

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_coordinate_of_another_field_is_named(self, curve_g1_f7, which):
        """(4, 2) lies on the curve over F_7; the same values over F_11 do not,
        and the error names the coordinate, its field and the curve's."""
        foreign = ctx_new(11, [1]).from_int(4 if which == "a" else 2)
        a, b = (foreign, 2) if which == "a" else (4, foreign)
        message = f"coordinate {which} = {foreign.encode()} of F_11^1 does not lie in "
        with pytest.raises(CtxMismatch, match=re.escape(message + "the curve's field F_7^1")):
            Point(curve_g1_f7, a, b)

    def test_tower_coordinates_stay_accepted(self, curve_g1_f7):
        """A point over the tower F_49 of the curve's field, with a and b
        outside F_7, is still a point of the curve."""
        def outside_f7(x):
            return x is not None and len(x.encode()) == 2  # [[c0], [c1]]

        f = curve_g1_f7.f
        a = next(
            x for x in curve_g1_f7.ctx.tower.elements()
            if outside_f7(x) and outside_f7(f(x).sqrt())
        )
        b = f(a).sqrt()
        point = Point(curve_g1_f7, a, b)
        assert (point.a, point.b) == (a, b)

    def test_involution(self, p42):
        q = p42.involution()
        assert q.a == 4 and q.b == 5
        assert q.involution() == p42

    def test_involution_fixes_infinity(self, curve_g1_f7):
        inf = Point.infinity(curve_g1_f7)
        assert inf.involution() == inf

    def test_weierstrass(self, p10):
        assert p10.is_weierstrass()
        assert p10.involution() == p10

    def test_equal_points_collapse_in_a_set(self, curve_g1_f7):
        tower = curve_g1_f7.ctx.tower
        p = Point(curve_g1_f7, 4, 2)
        q = Point(curve_g1_f7, tower.from_int(4), tower.from_int(2))  # values in F_7
        assert q.a.field is tower and p == q and hash(p) == hash(q)
        inf = Point.infinity(curve_g1_f7)
        assert inf == Point.infinity(curve_g1_f7) and p != inf
        assert len({p, q, p.involution(), inf, Point.infinity(curve_g1_f7)}) == 3

    def test_equality_with_a_foreign_value_is_false(self, p42):
        assert (p42 == "x") is False and (p42 != "x") is True

    def test_points_on_two_curves_differ(self, curve_g1_f7, f7):
        other = curve_new(f7, [0, 1, 2])  # (0, 0) lies on both
        assert Point(curve_g1_f7, 0, 0) != Point(other, 0, 0)
        assert Point.infinity(curve_g1_f7) != Point.infinity(other)


class TestMumford:
    def test_to_class_infinity(self, curve_g1_f7):
        d = to_class(Point.infinity(curve_g1_f7))
        assert d.is_zero()
        assert d == zero_class(curve_g1_f7)

    def test_to_class_affine(self, p42):
        d = to_class(p42)
        assert d.U.encode() == [[3], [1]] and d.V.encode() == [[2]]

    def test_validate_rejects_nonmonic(self, curve_g1_f7):
        ctx = curve_g1_f7.ctx
        with pytest.raises(InvalidDivisor):
            MumfordDivisor(curve_g1_f7, Poly(ctx, [1, 2]), Poly.zero(ctx))

    def test_validate_rejects_degree_overflow(self, curve_g1_f7):
        ctx = curve_g1_f7.ctx
        with pytest.raises(InvalidDivisor):
            MumfordDivisor(curve_g1_f7, Poly(ctx, [0, 0, 1]), Poly.zero(ctx))

    def test_validate_rejects_bad_v(self, curve_g1_f7):
        ctx = curve_g1_f7.ctx
        with pytest.raises(InvalidDivisor):
            MumfordDivisor(curve_g1_f7, Poly(ctx, [3, 1]), Poly(ctx, [3]))

    def test_validate_rejects_nonzero_v_over_one(self, curve_g1_f7):
        ctx = curve_g1_f7.ctx
        with pytest.raises(InvalidDivisor, match="zero class"):
            MumfordDivisor(curve_g1_f7, Poly(ctx, [1]), Poly(ctx, [2]))

    def test_validate_rejects_v_of_degree_deg_u(self, curve_g1_f7):
        ctx = curve_g1_f7.ctx
        with pytest.raises(InvalidDivisor, match="deg V"):
            MumfordDivisor(curve_g1_f7, Poly(ctx, [3, 1]), Poly(ctx, [2, 1]))

    def test_every_refusal_names_the_pair(self, curve_g1_f7):
        ctx = curve_g1_f7.ctx
        cases = [  # U, V, the reason
            ([1, 2], [], "U must be monic and nonzero"),
            ([], [], "U must be monic and nonzero"),
            ([0, 0, 1], [], "deg U = 2 exceeds genus 1"),
            ([1], [2], "the zero class is exactly (1, 0)"),
            ([3, 1], [2, 1], "deg V must be smaller than deg U"),
            ([3, 1], [3], "U does not divide V^2 - f"),
        ]
        for u, v, why in cases:
            U, V = Poly(ctx, u), Poly(ctx, v)
            message = f"(U, V) = ({U.encode()}, {V.encode()}): {why}"
            with pytest.raises(InvalidDivisor, match=f"^{re.escape(message)}$"):
                MumfordDivisor(curve_g1_f7, U, V)

    def test_equal_classes_collapse_in_a_set(self, p42):
        curve = p42.curve
        tower = curve.ctx.tower
        d = to_class(p42)
        e = to_class(Point(curve, tower.from_int(4), tower.from_int(2)))
        assert e.U.field is tower and d == e and hash(d) == hash(e)
        z = zero_class(curve)
        assert len({d, e, double(d), negate(d), z, scalar_mul(4, d)}) == 4

    def test_equality_with_a_foreign_value_is_false(self, p42):
        d = to_class(p42)
        assert (d == 3) is False and (d != 3) is True

    def test_classes_on_two_curves_differ(self, curve_g1_f7, f7):
        other = curve_new(f7, [0, 1, 2])
        assert to_class(Point(curve_g1_f7, 0, 0)) != to_class(Point(other, 0, 0))
        assert zero_class(curve_g1_f7) != zero_class(other)

    def test_encode_roundtrip(self, p42):
        d = to_class(p42)
        enc = d.encode()
        ctx = p42.curve.ctx
        u = Poly(ctx, [ctx.decode(c) for c in enc["U"]])
        v = Poly(ctx, [ctx.decode(c) for c in enc["V"]])
        assert MumfordDivisor(p42.curve, u, v) == d


class TestGroupLaw:
    def test_inverse_pair(self, p42):
        assert add(to_class(p42), to_class(p42.involution())).is_zero()

    def test_double_example(self, p42):
        d = double(to_class(p42))
        assert d.U.encode() == [[6], [1]] and d.V.is_zero()  # (x-1, 0)

    def test_order_four(self, p42):
        assert scalar_mul(4, to_class(p42)).is_zero()
        assert not scalar_mul(2, to_class(p42)).is_zero()

    def test_negative_scalar(self, p42):
        d = to_class(p42)
        assert scalar_mul(-3, d) == negate(scalar_mul(3, d))

    def test_mixed_field_objects(self):
        """A base and a tower operand, or operands over two context objects
        for one field, add like the same divisors lifted by hand to the
        join of their fields, and the sum lies over that join."""
        c1, c2 = ctx_new(7, [1]), ctx_new(7, [1])
        k1, k2 = curve_new(c1, [0, 1, 2, 3, 4]), curve_new(c2, [0, 1, 2, 3, 4])

        def classes(curve, field):
            xs = [x for x in field.elements() if field is curve.ctx or not x.in_prime_field()]
            pts = [Point(curve, x, curve.f(x).sqrt()) for x in xs if curve.f(x).is_square()]
            pts = [pt for pt in pts if not pt.is_weierstrass()][:3]
            return [to_class(pt) for pt in pts] + [double(to_class(pts[0]))]

        base1, base2 = classes(k1, c1), classes(k2, c2)
        tower1, tower2 = classes(k1, c1.tower), classes(k2, c2.tower)
        cases = [  # operands, the field of their sum
            (base1, tower2, c2.tower),
            (tower1, base2, c1.tower),
            (base1, base2, c1),
            (tower1, tower2, c1.tower),
        ]
        for left, right, field in cases:
            for d1 in left:
                for d2 in right:
                    by_hand = add(*(
                        MumfordDivisor(d.curve, Poly(field, d.U.coeffs), Poly(field, d.V.coeffs))
                        for d in (d1, d2)
                    ))
                    s = add(d1, d2)
                    assert s == by_hand and s.encode() == by_hand.encode()
                    assert s.is_zero() or (s.U.field is field and s.V.field is field)

    def test_curve_mismatch(self, curve_g1_f7, f7):
        other = curve_new(f7, [0, 2, 5])
        with pytest.raises(CurveMismatch):
            add(zero_class(curve_g1_f7), zero_class(other))

    def test_chord_tangent_oracle_g1(self, curve_g1_f7):
        """Cantor addition against the classical elliptic chord-tangent law."""
        pts = affine_points(curve_g1_f7)
        f = curve_g1_f7.f
        fprime = Poly(curve_g1_f7.ctx, [c * (i + 1) for i, c in enumerate(f.coeffs[1:])])
        for p in pts:
            for q in pts:
                s = add(to_class(p), to_class(q))
                if p.a == q.a and p.b == -q.b:
                    assert s.is_zero()
                    continue
                if p == q:
                    lam = fprime(p.a) / (2 * p.b)
                else:
                    lam = (q.b - p.b) / (q.a - p.a)
                x3 = lam * lam - p.a - q.a
                y3 = lam * (p.a - x3) - p.b
                assert s == to_class(Point(curve_g1_f7, x3, y3))

    def test_brute_force_group_order(self):
        """Every class is killed by the group order, computed by exhaustion."""
        for p, roots in [(5, [0, 1, 4]), (7, [0, 1, 6]), (11, [1, 3, 0, 5, 8])]:
            ctx = ctx_new(p, [1])
            curve = curve_new(ctx, roots)
            classes = {zero_class(curve).key()}
            frontier = [to_class(pt) for pt in affine_points(curve)]
            gens = list(frontier)
            while frontier:
                d = frontier.pop()
                if d.key() in classes:
                    continue
                classes.add(d.key())
                frontier.extend(add(d, g) for g in gens)
            order = len(classes)
            for g in gens[:6]:
                assert scalar_mul(order, g).is_zero()

    def test_associativity_random(self):
        rng = random.Random(7)
        ctx = make_ctx(5, 2)
        curve = random_curve(ctx, 2, rng)
        pts = affine_points(curve)
        for _ in range(25):
            a, b, c = (to_class(rng.choice(pts)) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))

    def test_semireduced_structure(self):
        """Weierstrass roots of U appear with multiplicity one: gcd(U, f)^2
        never divides U for random sums involving 2-torsion classes."""
        rng = random.Random(11)
        ctx = ctx_new(11, [1])
        curve = random_curve(ctx, 2, rng)
        pts = affine_points(curve)
        w = [to_class(pt) for pt in pts if pt.is_weierstrass()]
        for _ in range(40):
            d = add(rng.choice(w), to_class(rng.choice(pts)))
            shared = gcd(d.U, curve.f)
            if shared.degree() > 0:
                assert not (d.U % (shared * shared)).is_zero()
            d.validate()

    def test_negate_matches_involution(self):
        rng = random.Random(3)
        ctx = ctx_new(13, [1])
        curve = random_curve(ctx, 2, rng)
        for pt in affine_points(curve)[:10]:
            assert to_class(pt.involution()) == negate(to_class(pt))


P61 = 2**61 - 1


def _divisor_pool(curve, field, rng, n_random=12):
    """Reduced divisors over field: random sums of at most g points, and
    the degenerate ones a doubling must handle.  Returns (pool, two_torsion).
    """
    ctx, g = curve.ctx, curve.g
    if field.p == P61:
        xs = [field.from_int(rng.randrange(P61)) for _ in range(40)]
    else:
        xs = list(field.elements())
    pts = []
    for x in xs:
        fx = curve.f(x)
        if not fx.is_zero() and fx.is_square():
            pts.append(Point(curve, x, fx.sqrt()))
    weierstrass = [to_class(Point(curve, r, ctx.zero())) for r in curve.roots]
    two_torsion = [weierstrass[0], add(weierstrass[0], weierstrass[1])]
    pool = [zero_class(curve), to_class(pts[0])] + two_torsion
    pool.append(add(weierstrass[2], to_class(pts[1])))  # gcd(U, 2V) != 1
    for _ in range(n_random):
        d = zero_class(curve)
        for _ in range(rng.randint(1, g)):
            d = add(d, to_class(rng.choice(pts)))
        pool.append(d)
    return pool, two_torsion


def _ladder(n, d):
    """n * d by the plain binary ladder on the generic add."""
    if n < 0:
        return _ladder(-n, negate(d))
    acc = zero_class(d.curve)
    for bit in bin(n)[2:]:
        acc = add(acc, acc)
        if bit == "1":
            acc = add(acc, d)
    return acc


def _test_curve(p, g, rng, n_points, half):
    """A random curve over F_p with f2 != 0, which the g = 1 chord and
    tangent rules subtract, n_points points with distinct x over F_p, and,
    if half is set, a class over F_p that _low_double finds."""
    ctx = ctx_new(p, [1])
    while True:
        if p == P61:
            curve = curve_new(ctx, [rng.randrange(P61) for _ in range(2 * g + 1)])
        else:
            curve = random_curve(ctx, g, rng)
        if curve.f.coeffs[2].is_zero() or len(_points(curve, rng)) < n_points:
            continue
        if not half or _low_double(curve, rng) is not None:
            return curve


def _points(curve, rng):
    """Non-Weierstrass points over curve.ctx with distinct x, in random order
    and of random sign: all of them for a small field, else 40."""
    ctx = curve.ctx
    xs = [rng.randrange(ctx.p) for _ in range(80)] if ctx.p == P61 else rng.sample(range(ctx.p), ctx.p)
    out = []
    for x in dict.fromkeys(xs):
        fx = curve.f(ctx.from_int(x))
        if not fx.is_zero() and fx.is_square():
            out.append(Point(curve, x, fx.sqrt() * rng.choice((1, -1))))
    return out[:40]


def _point_classes(curve, rng, n):
    return [to_class(pt) for pt in _points(curve, rng)[:n]]


def _half_of_a_point(curve, rng):
    """A class over curve.ctx whose double is a point class, or None.  The
    roots lie in curve.ctx, so a point has a half there exactly when every
    a - alpha is a square (PAPER.md); no other point is halved."""
    ctx = curve.ctx
    for pt in _points(curve, rng):
        if not all((pt.a - r).is_square() for r in curve.roots):
            continue
        for h in halve(pt):
            if h.U.field is ctx and h.V.field is ctx:
                return h.divisor
    return None


def _low_double(curve, rng):
    """A class over curve.ctx whose double has degree 1 (a half of a point),
    or else, at g = 3, one whose double has degree < 3; None if there is
    neither.  At g = 3 a point has a half over F_p only when its seven
    a - alpha are squares: at p = 2^61 - 1 about once in 2^7 points, so it
    draws points until one has, and over F_13 never, since F_13 has six
    nonzero squares, so it searches the sums of three points."""
    half = _half_of_a_point(curve, rng)
    if half is not None or curve.g < 3:
        return half
    if curve.ctx.p == P61:
        while half is None:
            half = _half_of_a_point(curve, rng)
        return half
    pts = _point_classes(curve, rng, 40)
    for ds in combinations(pts + [negate(P) for P in pts], curve.g):
        d = reduce(add, ds)
        if d.U.degree() == curve.g and double(d).U.degree() < curve.g:
            return d
    return None


def _fallback_classes(curve, rng):
    """(class, why, forced) over curve.ctx: classes built to force the
    closed-form double to Cantor, and others."""
    ctx, g = curve.ctx, curve.g
    P, Q, R = _point_classes(curve, rng, 3)
    W = [to_class(Point(curve, r, ctx.zero())) for r in curve.roots]
    out = [(zero_class(curve), "zero"), (P, "deg U = 1"), (W[0], "2-torsion")]
    if g == 1:
        return [(d, why, False) for d, why in out]
    out = [(d, why, True) for d, why in out] + [
        (add(W[0], W[1]), "2-torsion", True),
        (add(W[2], P), "a Weierstrass point in the support", True),
        (_low_double(curve, rng), "a double of lower degree (s1 = 0, s2 = 0)", True),
    ]
    if g == 2:
        return out + [(add(P, Q), "generic", False), (add(Q, negate(R)), "generic", False)]
    return out + [
        (add(P, Q), "deg U = 2", True),
        (add(add(W[0], W[1]), W[2]), "2-torsion of degree 3", True),
        (add(add(W[2], P), Q), "a Weierstrass point in the support, deg U = 3", True),
        (add(add(P, Q), R), "generic", False),
        (add(add(P, Q), negate(R)), "generic", False),
    ]


def _fallback_pairs(curve, rng):
    """(D1, D2, why, forced) over curve.ctx: pairs built to force the
    closed-form add to Cantor, and others."""
    P, Q, R, S, T, *U = _point_classes(curve, rng, 6)
    zero = zero_class(curve)
    W = [to_class(Point(curve, r, curve.ctx.zero())) for r in curve.roots]
    if curve.g == 1:
        pairs = [(P, Q), (P, P), (P, negate(P)), (P, zero), (zero, P), (W[0], W[0]), (W[0], P)]
        return [(d1, d2, "chord and tangent", False) for d1, d2 in pairs]
    PQ, RS = add(P, Q), add(R, S)
    if curve.g == 3:
        PQR, STU, ST = add(PQ, R), add(add(S, T), U[0]), add(S, T)
        return [
            (PQR, STU, "generic", False),
            (add(PQ, negate(R)), STU, "generic", False),
            (PQR, add(add(W[0], W[1]), W[2]), "2-torsion", False),
            (add(add(W[2], P), Q), add(RS, T), "a Weierstrass point in the support", False),
            (PQR, zero, "zero", True),
            (P, STU, "deg U = 1", True),
            (STU, PQ, "deg U = 2", True),
            (PQR, add(P, ST), "U1 and U2 share a root", True),
            (PQR, add(negate(P), ST), "U1 and U2 share a root, V1 != V2 there", True),
            (PQR, PQR, "D1 = D2", True),
            (PQR, negate(PQR), "D1 = -D2", True),
            (PQR, add(ST, negate(PQR)), "a sum of degree 2 (s2 = 0)", True),
            (PQR, add(S, negate(PQR)), "a sum of degree 1 (s2 = 0)", True),
        ]
    return [
        (PQ, RS, "generic", False),
        (PQ, add(W[0], W[1]), "2-torsion", False),
        (add(W[2], P), RS, "a Weierstrass point in the support", False),
        (PQ, zero, "zero", True),
        (P, RS, "deg U = 1", True),
        (PQ, add(P, R), "U1 and U2 share a root", True),
        (PQ, add(negate(P), R), "U1 and U2 share a root, V1 != V2 there", True),
        (PQ, PQ, "D1 = D2", True),
        (PQ, negate(PQ), "D1 = -D2", True),
        (PQ, add(T, negate(PQ)), "a sum of degree 1 (s1 = 0)", True),
    ]


def _needs_cantor(ds, total):
    """Whether the g = 2 or g = 3 closed forms hand the sum or double of ds,
    equal to total, to Cantor: an operand with deg U < g, r = 0 (U1 and U2,
    or U and 2V, share a root) or deg U < g for the total (s1 = 0 at g = 2,
    s2 = 0 at g = 3)."""
    U1, U2 = ds[0].U, ds[-1].U
    shared = gcd(U1, U2 if len(ds) == 2 else ds[0].V + ds[0].V)
    return min(U1.degree(), U2.degree(), total.U.degree()) < ds[0].curve.g or shared.degree() > 0


def _law_step(curve, op, *ds):
    """One add or double of scalar_mul's closed forms for the curve's genus,
    as a class."""
    F, f, g = curve.ctx, curve.f.pc, curve.g
    cantor = (partial(jacobian._cantor_double, g, F, f), partial(jacobian._cantor_add, g, F, f),
              partial(jacobian._negate, F))
    law = (closed_forms._chord_tangent, closed_forms._genus2, closed_forms._genus3)[g - 1]
    state, pair, double, add, _ = law(F, f, *cantor)
    step = add if op == "add" else double
    out = step(*(state(d.U.pc, d.V.pc) for d in ds))
    return jacobian._divisor(curve, F, *pair(out))


def _count_cantor(monkeypatch):
    """Counts of the closed forms' fallbacks to Cantor's add and double."""
    calls = {"add": 0, "double": 0}
    for name in calls:
        real = getattr(jacobian, f"_cantor_{name}")

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(jacobian, f"_cantor_{name}", counted)
    return calls


class TestDoubling:
    @pytest.mark.parametrize(
        "p,modulus,tower",
        [(13, [1], False), (P61, [1], False), (7, [1, 0, 1], False), (13, [1], True)],
        ids=["F13", "F_p61", "F49", "F13-tower"],
    )
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_double_is_add_to_itself(self, p, modulus, tower, g):
        rng = random.Random(p + g)
        ctx = ctx_new(p, modulus)
        if p == P61:
            curve = curve_new(ctx, [rng.randrange(P61) for _ in range(2 * g + 1)])
        else:
            curve = random_curve(ctx, g, rng)
        pool, two_torsion = _divisor_pool(curve, ctx.tower if tower else ctx, rng)
        if g > 1:  # a pair with no reduction step
            assert any(2 * d.U.degree() <= g for d in pool if not d.is_zero())
        assert any(gcd(d.U, d.V + d.V).degree() > 0 for d in pool if not d.is_zero())
        for d in pool:
            twice = double(d)
            assert twice == add(d, d) and twice.encode() == add(d, d).encode()
        assert all(double(d).is_zero() for d in two_torsion)
        assert double(pool[0]) is pool[0]

    @pytest.mark.parametrize(
        "p,modulus,tower",
        [(13, [1], False), (7, [1, 0, 1], False), (13, [1], True)],
        ids=["F13", "F49", "F13-tower"],
    )
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_tangent_on_every_point(self, p, modulus, tower, g):
        """Every point class: the tangent branch of double against add."""
        rng = random.Random(100 * p + g)
        ctx = ctx_new(p, modulus)
        curve = random_curve(ctx, g, rng)
        while curve.f.coeffs[2].is_zero():  # the tangent rule subtracts f2 at g = 1
            curve = random_curve(ctx, g, rng)
        pts = affine_points(curve, field=ctx.tower if tower else ctx)
        assert sum(pt.is_weierstrass() for pt in pts) == 2 * g + 1
        for pt in pts:
            d = to_class(pt)
            twice = double(d)
            assert twice.encode() == add(d, d).encode()
            assert twice.is_zero() == pt.is_weierstrass()

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_tangent_at_large_prime(self, g):
        rng = random.Random(g)
        ctx = ctx_new(P61, [1])
        curve = curve_new(ctx, [rng.randrange(P61) for _ in range(2 * g + 1)])
        assert not curve.f.coeffs[2].is_zero()
        n = 0
        while n < 20:
            x = ctx.from_int(rng.randrange(P61))
            fx = curve.f(x)
            if fx.is_square():
                d = to_class(Point(curve, x, fx.sqrt()))
                assert double(d).encode() == add(d, d).encode()
                n += 1
        for r in curve.roots:
            assert double(to_class(Point(curve, r, ctx.zero()))).is_zero()


class TestScalarMul:
    @pytest.mark.parametrize("g,p", [(1, 13), (2, 13), (3, 11)])
    def test_matches_binary_ladder(self, g, p):
        """Every n in [-70, 70], multiples of the order and 10^20-sized n,
        against the binary ladder on the generic add."""
        rng = random.Random(g)
        curve = random_curve(ctx_new(p, [1]), g, rng)
        pool, _ = _divisor_pool(curve, curve.ctx, rng, n_random=4)
        orders = []
        for d in pool:
            acc, order = d, 1
            while not acc.is_zero() and order <= 70:
                acc, order = add(acc, d), order + 1
            big = [rng.randrange(10**20, 10**21) for _ in range(3)]
            if acc.is_zero():
                orders.append(order)
                big += [order * 10**19, order * 10**19 + 1]
            for n in list(range(-70, 71)) + big + [-n for n in big]:
                assert scalar_mul(n, d).encode() == _ladder(n, d).encode()
        assert any(order > 2 for order in orders)

    def test_large_prime_field(self):
        rng = random.Random(61)
        for g in (1, 2, 3):
            curve = curve_new(ctx_new(P61, [1]), list(range(2 * g + 1)))
            pool, _ = _divisor_pool(curve, curve.ctx, rng, n_random=2)
            for d in pool[-3:]:
                for n in (rng.getrandbits(61), -rng.getrandbits(61), 10**20 + 7):
                    assert scalar_mul(n, d).encode() == _ladder(n, d).encode()

    @pytest.mark.parametrize("p", [13, P61], ids=["F13", "F_p61"])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_closed_forms_match_binary_ladder(self, g, p):
        """The closed-form walk for g = 1, 2, 3 over F_p against the binary
        ladder on the generic add, by value, encoding and field object, for
        classes that send its steps to Cantor.  Classes over the tower walk
        on the Cantor cores, and classes over a second context object for F_p
        on the closed forms; the ladder, which starts from the zero class
        over the curve's context, moves the latter to that context, so
        those compare by encoding."""
        rng = random.Random(10 * p + g)
        curve = _test_curve(p, g, rng, 3, True)
        ctx = curve.ctx
        pool = [d for d, _, _ in _fallback_classes(curve, rng)]
        other = ctx_new(p, [1])
        pool += [
            MumfordDivisor(curve, Poly(F, d.U.coeffs), Poly(F, d.V.coeffs))
            for F in (ctx.tower, other)
            for d in pool[-2:]
        ]
        scalars = [rng.getrandbits(61) for _ in range(3)] + [2**61 - 1, 10**20 + 7]
        if p == 13:
            scalars += list(range(1, 40))
        for d in pool:
            for n in scalars + [-n for n in scalars[:3]]:
                fast, slow = scalar_mul(n, d), _ladder(n, d)
                assert fast == slow and fast.encode() == slow.encode()
                if d.U.field is not other:
                    assert fast.U.field is slow.U.field and fast.V.field is slow.V.field

    @pytest.mark.parametrize("p", [13, P61], ids=["F13", "F_p61"])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_closed_form_steps_take_every_fallback(self, g, p, monkeypatch):
        """Each add and double of the closed forms against Cantor's add, on
        the classes and pairs that force each fallback to Cantor: deg U < g,
        2-torsion, a Weierstrass point in the support, U1 and U2 sharing a
        root, D1 = +-D2, a sum or a double of degree < g (s1 = 0 at g = 2,
        s2 = 0 at g = 3).  g = 1 has none."""
        rng = random.Random(20 * p + g)
        curve = _test_curve(p, g, rng, max(5, 2 * g), False)
        steps = [("add", (d1, d2), *rest) for d1, d2, *rest in _fallback_pairs(curve, rng)]
        curve = _test_curve(p, g, rng, 3, True)
        steps += [("double", (d,), *rest) for d, *rest in _fallback_classes(curve, rng)]
        calls = _count_cantor(monkeypatch)
        closed = 0
        for op, ds, why, forced in steps:
            want = add(ds[0], ds[-1])
            by_cantor = g > 1 and _needs_cantor(ds, want)
            assert by_cantor or not forced, why
            calls.update(add=0, double=0)
            assert _law_step(ds[0].curve, op, *ds).encode() == want.encode(), why
            assert (sum(calls.values()) > 0) == by_cantor, why
            closed += not by_cantor
        assert closed >= 2

    def test_genus2_steps_at_large_prime(self, monkeypatch):
        """The g = 2 add and double in closed form against Cantor's add on
        600 random pairs of classes P + Q and R + S, four distinct points,
        at p = 2^61 - 1, with no step taken by Cantor."""
        rng = random.Random(2)
        ctx = ctx_new(P61, [1])
        curve = curve_new(ctx, [rng.randrange(P61) for _ in range(5)])
        pts = _point_classes(curve, rng, 40)
        pairs = []
        for _ in range(600):
            P, Q, R, S = rng.sample(pts, 4)
            d1, d2 = add(P, Q), add(R, S)
            pairs.append((d1, d2, add(d1, d2), add(d1, d1)))
        calls = _count_cantor(monkeypatch)
        for d1, d2, total, twice in pairs:
            assert _law_step(curve, "add", d1, d2).encode() == total.encode()
            assert _law_step(curve, "double", d1).encode() == twice.encode()
        assert calls == {"add": 0, "double": 0}

    def test_genus3_steps_at_large_prime(self, monkeypatch):
        """The g = 3 add and double in closed form against Cantor's add on
        600 random pairs of classes P + Q + R and S + T + U, six distinct
        points, at p = 2^61 - 1, with no step taken by Cantor.  The random
        roots make every coefficient of f nonzero."""
        rng = random.Random(3)
        ctx = ctx_new(P61, [1])
        curve = curve_new(ctx, [rng.randrange(P61) for _ in range(7)])
        assert all(c for c in curve.f.pc)
        pts = _point_classes(curve, rng, 40)
        pairs = []
        for _ in range(600):
            P, Q, R, S, T, U = rng.sample(pts, 6)
            d1, d2 = add(add(P, Q), R), add(add(S, T), U)
            pairs.append((d1, d2, add(d1, d2), add(d1, d1)))
        calls = _count_cantor(monkeypatch)
        for d1, d2, total, twice in pairs:
            assert _law_step(curve, "add", d1, d2).encode() == total.encode()
            assert _law_step(curve, "double", d1).encode() == twice.encode()
        assert calls == {"add": 0, "double": 0}

    def test_second_context_walks_in_closed_form(self, monkeypatch):
        """A g = 2 or g = 3 class over a second context object for F_p,
        p = 2^61 - 1, walks the closed forms as one over the curve's
        context does: no step is Cantor's, and each multiple has the same
        encoding and lies over that second object."""
        rng = random.Random(16)
        ctx, other = ctx_new(P61, [1]), ctx_new(P61, [1])
        calls = _count_cantor(monkeypatch)
        for g in (2, 3):
            curve = curve_new(ctx, [rng.randrange(P61) for _ in range(2 * g + 1)])
            d = zero_class(curve)
            for P in _point_classes(curve, rng, g):
                d = add(d, P)
            d_other = MumfordDivisor(curve, Poly(other, d.U.coeffs), Poly(other, d.V.coeffs))
            scalars = [rng.getrandbits(61) for _ in range(5)]
            calls.update(add=0, double=0)
            want = [scalar_mul(n, d) for n in scalars]
            got = [scalar_mul(n, d_other) for n in scalars]
            assert calls == {"add": 0, "double": 0}, g
            assert [m.encode() for m in got] == [m.encode() for m in want]
            assert all(m.U.field is other and m.V.field is other for m in got)

    @pytest.mark.parametrize("n", [2.9, "3", True, None])
    def test_non_integer_scalar_is_refused(self, p42, n):
        with pytest.raises(TypeError):
            scalar_mul(n, to_class(p42))

    def test_result_lies_over_the_join_for_every_n(self):
        """A 2-torsion class over a second context object for F_13, on a
        g = 3 curve over F_13: every odd multiple is the class itself and
        lies over that object, the join of its fields and f's, whether or
        not the walk passes through the zero class; every even multiple is
        the zero class."""
        curve = curve_new(ctx_new(13, [1]), range(7))
        other = ctx_new(13, [1])
        d = MumfordDivisor(curve, Poly(other, [0, 1]), Poly.zero(other))
        for n in (1, 3, 17, 33, -5, 2**61 + 1):
            m = scalar_mul(n, d)
            assert m == d and m.U.field is other and m.V.field is other, n
        for n in (2, 16, -34):
            assert scalar_mul(n, d).encode() == zero_class(curve).encode()


def test_walks_call_no_public_group_law(monkeypatch):
    """scalar_mul and torsion_scan walk on payload pairs only: with the
    public add, double and negate patched to raise, the same calls return
    the same encodings and reports.  The classes lie over the curve's
    context, its tower and a second context object for the same field."""
    rng = random.Random(15)

    def mul(n, d):
        return scalar_mul(n, d).encode()

    calls = []
    for p, modulus in ((13, [1]), (7, [1, 0, 1])):
        ctx, other = ctx_new(p, modulus), ctx_new(p, modulus)
        for g in (1, 2, 3):
            curve = random_curve(ctx, g, rng)
            pool = _divisor_pool(curve, ctx, rng, n_random=2)[0]
            pool += _divisor_pool(curve, ctx.tower, rng, n_random=2)[0][-3:]
            pool += [
                MumfordDivisor(curve, Poly(other, d.U.coeffs), Poly(other, d.V.coeffs))
                for d in pool[4:6]
            ]
            for d in pool:
                for n in (1, 2, 3, 17, -5, 2**40 + 11):
                    calls.append((mul, n, d))
    f7, f49 = ctx_new(7, [1]), ctx_new(7, [1, 0, 1])
    t = f49.generator()
    calls += [
        (torsion_scan, curve_new(f7, [0, 1, 6]), 4),
        (torsion_scan, curve_new(f49, [0, 1, 6, t, -t]), 4),
        (torsion_scan, curve_new(ctx_new(11, [1]), range(7)), 6),
    ]
    want = [fn(*args) for fn, *args in calls]

    def refuse(*args):
        raise AssertionError("the walk called the public group law")

    for name in ("add", "double", "negate"):
        monkeypatch.setattr(jacobian, name, refuse)
    assert [fn(*args) for fn, *args in calls] == want


@pytest.mark.parametrize("g", [1, 2, 3])
def test_cantor_law_compares_by_value(g):
    """torsion_scan compares payload pairs with ==, so each Cantor core
    returns the same containers for the same class: 2D = D + D,
    D + (-D) = 0 and -(-D) = D hold as payload pairs over the tower, for
    point classes (the tangent) and every other class (Cantor)."""
    rng = random.Random(30 + g)
    ctx = ctx_new(13, [1])
    curve = random_curve(ctx, g, rng)
    T = ctx.tower

    def lift(P):
        return tuple(T.lift(P.field, c) for c in P.pc)

    f = lift(curve.f)
    double, add = partial(jacobian._cantor_double, g, T, f), partial(jacobian._cantor_add, g, T, f)
    negate = partial(jacobian._negate, T)
    zero = ((T._one,), ())
    for d in _divisor_pool(curve, T, rng, n_random=6)[0]:
        D = lift(d.U), lift(d.V)
        assert double(D) == add(D, D)
        assert add(D, negate(D)) == zero
        assert negate(negate(D)) == D


class TestTorsionScan:
    def test_g1_vacuous(self, curve_g1_f7):
        report = torsion_scan(curve_g1_f7, 4)
        assert report["violations"] == []
        assert report["points_scanned"] == 63  # |C(F_49)| - 1 point at infinity

    @pytest.mark.parametrize("p", [7, 11])
    def test_g3_clean(self, p):
        """For g >= 2, 2P reduces to ((x - a)^2, .), so deg U = 2 < g at g = 3."""
        curve = curve_new(ctx_new(p, [1]), range(7))
        report = torsion_scan(curve, 6)
        assert report["points_scanned"] > 0
        assert report["violations"] == []

    def test_violations_are_reported(self, monkeypatch):
        """A double that returns -P for one point makes that point fail both
        checks: 2P has deg U = 1, and 3P = 2P + P = 0.  The scan doubles
        payload pairs through the Cantor core, which is patched here."""
        ctx = ctx_new(13, [1])
        curve = curve_new(ctx, [0, 1, 2, 3, 4])
        a = ctx.from_int(5)
        b = curve.f(a).sqrt()
        target = to_class(Point(curve, a, b))
        true_double = jacobian._cantor_double

        def double_or_negate(g, F, f, D):
            if jacobian._divisor(curve, F, *D) == target:
                return jacobian._negate(F, D)
            return true_double(g, F, f, D)

        monkeypatch.setattr(jacobian, "_cantor_double", double_or_negate)
        report = torsion_scan(curve, 4)
        where = [a.encode(), b.encode()]
        assert report["violations"] == [
            {"point": where, "kind": "double-left-theta", "deg_u": 1},
            {"point": where, "kind": "small-order", "order": 3},
        ]

    def test_wrong_root_is_refused(self, monkeypatch):
        """No Point checks b^2 = f(a) in the scan; the scan checks its root of
        f(x) itself, once per x-value.  The scan roots payloads with the
        tower's sqrt, patched here to return f(x) + 1."""
        curve = curve_new(ctx_new(13, [1]), [0, 1, 2, 3, 4])
        monkeypatch.setattr(TowerField, "sqrt", lambda T, a: T.add(a, T._one))
        with pytest.raises(InternalInvariantViolation, match="sqrt"):
            torsion_scan(curve, 4)

    def test_field_too_large(self):
        ctx = ctx_new(1009, [1])
        curve = curve_new(ctx, [0, 1, 2])
        with pytest.raises(FieldTooLarge):
            torsion_scan(curve, 4)

    @pytest.mark.parametrize(
        "p,g,n_max,accepted",
        [
            (997, 1, 4, True),  # q^2 = 994 009; n_max is not read at g = 1
            (499, 2, 4, True),  # 4 q^2 = 996 004
            (503, 2, 4, False),  # 4 q^2 = 1 012 036
            (337, 3, 4, True),  # 6 q^2 = 681 414
            (337, 3, 6, False),  # 9 q^2 = 1 022 121
            (997, 50, 4, False),  # 100 q^2
            # k = 2 (p, modulus t^2 - c, c a non-square mod p), weighed by k^2 = 4
            pytest.param((19, [1, 0, 1]), 1, 4, True, id="19^2-1-4-True"),  # 4 q^2 = 521 284
            pytest.param((23, [1, 0, 1]), 1, 4, False, id="23^2-1-4-False"),  # 1 119 364
            pytest.param((13, [11, 0, 1]), 2, 4, True, id="13^2-2-4-True"),  # 16 q^2 = 456 976
            pytest.param((17, [14, 0, 1]), 2, 4, False, id="17^2-2-4-False"),  # 1 336 336
        ],
    )
    def test_work_bound(self, monkeypatch, p, g, n_max, accepted):
        """The scan bound weighs |tower| = q^2 by k^2, g and the effective
        max order, q^2 k^2 g min(n_max, 2g) / 2, and refuses before any
        square root.  An accepted scan is stopped at its first root.  p is
        a prime field's p, or (p, modulus) for a k = 2 field."""

        class Started(Exception):
            pass

        def sqrt(T, a):
            raise Started

        monkeypatch.setattr(TowerField, "sqrt", sqrt)
        p, modulus = p if isinstance(p, tuple) else (p, [1])
        curve = curve_new(ctx_new(p, modulus), range(2 * g + 1))
        if accepted:
            with pytest.raises(Started):
                torsion_scan(curve, n_max)
        else:
            with pytest.raises(FieldTooLarge, match=f"at genus {g} "):
                torsion_scan(curve, n_max)

    @pytest.mark.parametrize("p", [7, 1009])
    @pytest.mark.parametrize("n_max", [-3, 0, 1, 2])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_max_order_below_3_is_refused(self, monkeypatch, g, n_max, p):
        """One rule at every genus, checked before the work estimate (F_1009
        is above the scan bound) and before any square root."""

        class Started(Exception):
            pass

        def sqrt(T, a):
            raise Started

        monkeypatch.setattr(TowerField, "sqrt", sqrt)
        curve = curve_new(ctx_new(p, [1]), range(2 * g + 1))
        with pytest.raises(MaxOrderTooSmall, match=rf"^max order {n_max} is below 3"):
            torsion_scan(curve, n_max)

    @pytest.mark.parametrize("n_max", [4.9, "4", True, None])
    @pytest.mark.parametrize("g", [1, 2])
    def test_non_integer_max_order_is_refused(self, g, n_max):
        curve = curve_new(ctx_new(7, [1]), range(2 * g + 1))
        with pytest.raises(TypeError, match="max order"):
            torsion_scan(curve, n_max)
