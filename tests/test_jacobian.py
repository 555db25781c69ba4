"""Curves, points, and the Cantor group law."""

import random

import pytest

from jachalf import jacobian
from jachalf.errors import (
    CurveMismatch,
    DuplicateRoot,
    EvenDegree,
    FieldTooLarge,
    InternalInvariantViolation,
    InvalidDivisor,
    NotOnCurve,
)
from jachalf.field import FieldElement, ctx_new
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


class TestPoint:
    def test_valid_point(self, curve_g1_f7):
        p = Point(curve_g1_f7, 4, 2)  # f(4) = 60 = 4 = 2^2
        assert not p.infinite and not p.is_weierstrass()

    def test_not_on_curve(self, curve_g1_f7):
        with pytest.raises(NotOnCurve):
            Point(curve_g1_f7, 3, 1)  # f(3) = 24 = 3 != 1

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

    @pytest.mark.parametrize("n", [2.9, "3", True, None])
    def test_non_integer_scalar_is_refused(self, p42, n):
        with pytest.raises(TypeError):
            scalar_mul(n, to_class(p42))


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
        checks: 2P has deg U = 1, and 3P = 2P + P = 0."""
        ctx = ctx_new(13, [1])
        curve = curve_new(ctx, [0, 1, 2, 3, 4])
        a = ctx.from_int(5)
        b = curve.f(a).sqrt()
        target = to_class(Point(curve, a, b))
        true_double = double
        monkeypatch.setattr(
            jacobian, "double", lambda d: negate(d) if d == target else true_double(d)
        )
        report = torsion_scan(curve, 4)
        where = [a.encode(), b.encode()]
        assert report["violations"] == [
            {"point": where, "kind": "double-left-theta", "deg_u": 1},
            {"point": where, "kind": "small-order", "order": 3},
        ]

    def test_wrong_root_is_refused(self, monkeypatch):
        """No Point checks b^2 = f(a) in the scan; the scan checks its root of
        f(x) itself, once per x-value."""
        curve = curve_new(ctx_new(13, [1]), [0, 1, 2, 3, 4])
        monkeypatch.setattr(FieldElement, "sqrt", lambda x: x + 1)
        with pytest.raises(InternalInvariantViolation, match="sqrt"):
            torsion_scan(curve, 4)

    def test_field_too_large(self):
        ctx = ctx_new(1009, [1])
        curve = curve_new(ctx, [0, 1, 2])
        with pytest.raises(FieldTooLarge):
            torsion_scan(curve, 4)
