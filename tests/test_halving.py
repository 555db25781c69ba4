"""Division by 2: sqrt tuples, the closed formulas, and root recovery."""

import random
import re
import time

import pytest

from jachalf.errors import (
    GenusTooLarge,
    InfinityInput,
    InternalInvariantViolation,
    NotAHalf,
    TowerExhausted,
)
from jachalf.field import ctx_new
from jachalf.halving import SqrtTuple, halve, mumford_from_tuple, recover_tuple, sqrt_tuples
from jachalf.jacobian import MumfordDivisor, Point, add, curve_new, double, negate, to_class
from jachalf.poly import Poly, elementary_symmetric, from_roots

from helpers import affine_points, make_ctx, random_curve, random_point

P61 = 2**61 - 1


def _reference_half(tup):
    """(U, V, v_D, s) of a tuple by the closed formulas on Poly objects: the
    Horner in y = a - x with Poly operators, and elementary_symmetric."""
    curve = tup.curve
    ctx = curve.ctx
    a, b = tup.point.a, tup.point.b
    s = elementary_symmetric(ctx, tup.r)
    y = Poly(ctx, (a, -1))
    w, v = Poly(ctx, (1,)), Poly.zero(ctx)
    for j in range(1, curve.g + 1):
        w = w * y + s[2 * j - 1]  # s_{2j}
        v = (v + s[2 * j - 2]) * y  # s_{2j-1}
    v_d = v - b
    return (-w if curve.g % 2 else w), v_d - w * s[0], v_d, s


def _g2_point():
    """A point with b != 0 on y^2 = x(x - 1)(x - 2)(x - 3)(x - 4) over F_13."""
    ctx = ctx_new(13, [1])
    curve = curve_new(ctx, [0, 1, 2, 3, 4])
    return Point(curve, 5, curve.f(ctx.from_int(5)).sqrt())


class TestSqrtTuples:
    def test_weierstrass_fixture(self, p10):
        tuples = sqrt_tuples(p10)
        assert len(tuples) == 4
        # roots of (1 - alpha_i): 1, 0, 2 -> canonical sqrts 1, 0, 3
        reprs = {tuple(r.encode()[0] for r in t.r) for t in tuples}
        assert reprs == {(1, 0, 3), (6, 0, 3), (1, 0, 4), (6, 0, 4)}
        for t in tuples:
            t._check()

    def test_product_constraint(self, p42):
        tuples = sqrt_tuples(p42)
        assert len(tuples) == 4
        b = p42.b
        for t in tuples:
            prod = t.r[0]
            for ri in t.r[1:]:
                prod = prod * ri
            assert prod == -b
            t._check()

    def test_counter_order_deterministic(self, p42):
        first = [t.encode() for t in sqrt_tuples(p42)]
        second = [t.encode() for t in sqrt_tuples(p42)]
        assert first == second
        assert [t.index for t in sqrt_tuples(p42)] == [0, 1, 2, 3]

    def test_infinity_rejected(self, curve_g1_f7):
        with pytest.raises(InfinityInput):
            sqrt_tuples(Point.infinity(curve_g1_f7))


class TestMumfordFromTuple:
    def test_fixture_classes(self, p10):
        f7 = p10.curve.ctx
        by_tuple = {}
        for t in sqrt_tuples(p10):
            key = tuple(r.encode()[0] for r in t.r)
            half = mumford_from_tuple(t)
            by_tuple[key] = (half.U.encode(), half.V.encode())
        assert by_tuple[(1, 0, 3)] == ([[3], [1]], [[2]])  # (x-4, 2)
        assert by_tuple[(1, 0, 4)] == ([[2], [1]], [[1]])  # (x-5, 1)
        assert by_tuple[(6, 0, 4)] == ([[3], [1]], [[5]])  # (4, 5) = iota(4, 2)

    def test_eq3_identity_fixture(self, p10):
        for t in sqrt_tuples(p10):
            half = mumford_from_tuple(t)
            f = p10.curve.f
            a = p10.a
            xma = Poly(p10.curve.ctx.tower, (-a, 1))
            assert f - half.v_d * half.v_d == xma * half.U * half.U

    def test_self_check_rejects_wrong_product(self, p42):
        """Negating one r_i gives prod r_i = +b: the formulas still return a
        pair, and the certificate must refuse it."""
        for pt in (p42, _g2_point()):
            t = sqrt_tuples(pt)[1]
            r = list(t.r)
            r[0] = -r[0]
            with pytest.raises(InternalInvariantViolation):
                mumford_from_tuple(SqrtTuple(pt.curve, pt, r, t.index), verify=True)


class TestAgainstPolyReference:
    """mumford_from_tuple runs on payload lists; every output must equal the
    Poly-level formulas in value, in encoding and in its field object."""

    @staticmethod
    def _check_point(point):
        for t in sqrt_tuples(point):
            half = mumford_from_tuple(t)
            U, V, v_d, s = _reference_half(t)
            for got, want in ((half.U, U), (half.V, V), (half.v_d, v_d), *zip(half.s, s)):
                assert got == want
                assert got.encode() == want.encode()
                assert got.field is want.field
            assert len(half.s) == len(s)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_grid(self, g, p):
        """F_p, or F_{p^2} (k = 2) when F_p has too few elements."""
        rng = random.Random(100 * g + p)
        curve = random_curve(make_ctx(p, g), g, rng)
        for _ in range(4):
            self._check_point(random_point(curve, rng))

    def test_cubic_extension(self):
        ctx = ctx_new(3, [1, 2, 0, 1])  # F_27
        curve = curve_new(ctx, list(ctx.elements())[3:8])
        for point in affine_points(curve)[:6]:
            self._check_point(point)

    def test_roots_in_the_tower(self):
        """Base points of F_25 with some a - alpha_i a non-square: the r_i
        and every half lie in the tower."""
        ctx = ctx_new(5, [3, 0, 1])
        curve = curve_new(ctx, [ctx.decode(r) for r in ([4, 1], [0, 3], [1, 4], [1, 3], [0, 4])])
        points = [
            pt for pt in affine_points(curve)
            if not all((pt.a - alpha).is_square() for alpha in curve.roots)
        ]
        assert len(points) >= 4
        for point in points[:8]:
            self._check_point(point)
            assert mumford_from_tuple(sqrt_tuples(point)[0]).U.field is ctx.tower

    def test_points_with_tower_coordinates(self):
        ctx = ctx_new(11, [1])
        curve = curve_new(ctx, [0, 1, 2])
        checked = 0
        for point in affine_points(curve, field=ctx.tower):
            if point.a.in_prime_field():
                continue
            try:
                self._check_point(point)
            except TowerExhausted:
                continue
            checked += 1
        assert checked == 16

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_large_prime(self, g):
        ctx = ctx_new(P61, [1])
        curve = curve_new(ctx, range(2 * g + 1))
        rng = random.Random(g)
        points = 0
        while points < 10:
            a = ctx.from_int(rng.randrange(P61))
            fa = curve.f(a)
            if fa.is_square():
                self._check_point(Point(curve, a, fa.sqrt()))
                points += 1


class TestHalve:
    def test_order_four_example(self, p10):
        halves = halve(p10)
        got = {(h.U.encode()[0][0], h.V.encode()[0][0]) for h in halves}
        assert got == {(3, 2), (3, 5), (2, 1), (2, 6)}  # x-4 / x-5 pairs
        target = to_class(p10)
        for h in halves:
            assert double(h.divisor) == target
            assert double(double(h.divisor)).is_zero()  # order 4

    def test_cardinality_g2(self, curve_g2_f49):
        p = random_point(curve_g2_f49, random.Random(0))
        halves = halve(p, verify=True)
        assert len(halves) == 16
        assert len({h.divisor.key() for h in halves}) == 16

    def test_genus_above_the_bound(self):
        """g = 8 is refused before any square root is taken."""
        ctx = ctx_new(37, [1])
        curve = curve_new(ctx, range(17))
        for point in (Point(curve, 0, 0), Point(curve, 20, curve.f(ctx.from_int(20)).sqrt())):
            with pytest.raises(GenusTooLarge, match="genus 8"):
                sqrt_tuples(point)
            with pytest.raises(GenusTooLarge, match="genus 8"):
                halve(point)

    def test_halve_infinity(self, curve_g1_f7):
        with pytest.raises(InfinityInput):
            halve(Point.infinity(curve_g1_f7))

    def test_involution_equivariance(self, curve_g2_f49):
        rng = random.Random(5)
        p = random_point(curve_g2_f49, rng)
        ours = {h.divisor.key() for h in halve(p, verify=False)}
        flipped = {
            negate(h.divisor).key() for h in halve(p.involution(), verify=False)
        }
        assert ours == flipped

    def test_parity_split(self, curve_g1_f7):
        """h_r(t) = prod (t - r_i) splits into the odd part t * prod(t^2 - a + c_j)
        and the even part -v_D(a - t^2)."""
        p = Point(curve_g1_f7, 4, 2)
        ctx = curve_g1_f7.ctx
        for t in sqrt_tuples(p):
            half = mumford_from_tuple(t)
            h_r = from_roots(ctx.tower, t.r)
            n = len(h_r.coeffs)
            zero = ctx.tower.zero()
            odd = Poly(ctx.tower, [c if i % 2 else zero for i, c in enumerate(h_r.coeffs)])
            even = h_r - odd
            a = p.a
            amt2 = Poly(ctx.tower, (a, zero, ctx.tower.from_int(-1)))  # a - t^2
            # U(x) = (-1)^g prod (x - (a - c_j^2)) means prod(t^2 - a + c_j) is
            # (-1)^g U(a - t^2) up to the same sign convention
            sign = ctx.tower.from_int((-1) ** curve_g1_f7.g)
            assert odd == Poly.x(ctx.tower) * (sign * half.U.compose(amt2))
            assert even == -half.v_d.compose(amt2)

    def test_support_can_contain_involuted_point(self):
        """For a point of odd order the involuted point shows up in a half's
        support: U(a) = 0 with V(a) = -b.  P itself never does."""
        ctx = ctx_new(13, [1])
        curve = curve_new(ctx, [0, 2, 5])
        p = Point(curve, 1, 2)
        assert double(to_class(p)) == to_class(p.involution())  # order 3
        a = p.a
        hits = 0
        for h in halve(p, verify=True):
            ua = h.U(a)
            if ua.is_zero():
                hits += 1
                assert h.V(a) == -p.b
        assert hits == 1

    def test_random_small_curves(self):
        rng = random.Random(42)
        for p, g in [(5, 1), (13, 1), (7, 2)]:
            ctx = make_ctx(p, g)
            curve = random_curve(ctx, g, rng)
            pt = random_point(curve, rng)
            if pt is None:
                continue
            halves = halve(pt, verify=True)
            assert len(halves) == 4**g

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_roots_of_f_stay_out_of_the_support(self, g):
        """U(alpha_i) != 0 for every half on the acceptance grid: the
        certificate implies it, so _half_failure does not check it."""
        rng = random.Random(g)
        for p in (5, 7, 11, 13):
            curve = random_curve(make_ctx(p, g), g, rng)
            for _ in range(3):
                for h in halve(random_point(curve, rng), verify=True):
                    assert not any(h.U(alpha).is_zero() for alpha in curve.roots)


class TestRecoverTuple:
    def test_fixture_recovery(self, p10):
        for t in sqrt_tuples(p10):
            half = mumford_from_tuple(t)
            back = recover_tuple(half)
            assert back.r == t.r

    def test_bare_divisor_recovery(self, p10):
        half = next(
            h
            for h in halve(p10)
            if h.U.encode() == [[3], [1]] and h.V.encode() == [[2]]
        )
        t = recover_tuple(half.divisor, point=p10, s1=half.s[0])
        assert tuple(r.encode()[0] for r in t.r) == (1, 0, 3)

    def test_not_a_half(self, p10, p42):
        half = halve(p10)[0]
        with pytest.raises(NotAHalf):
            recover_tuple(half.divisor, point=p42, s1=half.s[0])

    def test_bare_divisor_needs_s1(self, p10):
        half = halve(p10)[0]
        with pytest.raises(ValueError, match="s_1"):
            recover_tuple(half.divisor, point=p10)
        with pytest.raises(ValueError, match="s_1"):
            recover_tuple(half.divisor, s1=half.s[0])

    def test_point_at_infinity_is_refused(self, p10):
        half = halve(p10)[0]
        inf = Point.infinity(p10.curve)
        with pytest.raises(InfinityInput):
            recover_tuple(half.divisor, point=inf, s1=half.s[0])
        with pytest.raises(InfinityInput):
            recover_tuple(half, point=inf)

    def test_doubling_check_guards_recovery(self, curve_g1_f7, p42):
        ctx = curve_g1_f7.ctx
        d = to_class(Point(curve_g1_f7, 1, 0))  # 2-torsion, not a half of (4, 2)
        with pytest.raises(NotAHalf):
            recover_tuple(d, point=p42, s1=ctx.tower.zero())

    @pytest.fixture(scope="class")
    def half_g2(self):
        return halve(_g2_point())[5]

    @pytest.mark.parametrize("wrong", ["s1 + 1", "5"])
    def test_wrong_s1_is_not_a_half(self, half_g2, wrong):
        s1 = half_g2.s[0] + 1 if wrong == "s1 + 1" else 5
        assert s1 != half_g2.s[0]
        with pytest.raises(NotAHalf, match="s_1"):
            recover_tuple(half_g2.divisor, point=half_g2.tuple.point, s1=s1)

    def test_negated_half_fails_only_the_sign_check(self, half_g2):
        """-v_D satisfies the identity too, and certifies 2D = iota(P)."""
        point, s1 = half_g2.tuple.point, half_g2.s[0]
        neg = negate(half_g2.divisor)
        v = neg.V - neg.U * s1  # V + (-1)^g s_1 U with g = 2 and s_1 -> -s_1
        curve = point.curve
        xma = Poly(curve.ctx, (-point.a, 1))
        assert curve.f - v * v == xma * neg.U * neg.U
        with pytest.raises(NotAHalf, match="v_D"):
            recover_tuple(neg, point=point, s1=-s1)

    def test_v_d_is_built_from_the_divisor(self, half_g2):
        """A V off by a constant, passed with the right s_1, is refused."""
        d = half_g2.divisor
        bent = MumfordDivisor(d.curve, d.U, d.V + 1, validate=False)
        with pytest.raises(NotAHalf):
            recover_tuple(bent, point=half_g2.tuple.point, s1=half_g2.s[0])

    def test_unreduced_pair_is_not_a_half(self, half_g2):
        """(U, V + U) with s_1 - 1 and (-U, V) with -s_1 give the same v_D and
        pass the identity; only the shape check refuses them (g = 2)."""
        d, point, s1 = half_g2.divisor, half_g2.tuple.point, half_g2.s[0]
        for U, V, s in ((d.U, d.V + d.U, s1 - 1), (-d.U, d.V, -s1)):
            with pytest.raises(NotAHalf, match="monic of degree g"):
                recover_tuple(MumfordDivisor(d.curve, U, V, validate=False), point=point, s1=s)

    def test_non_half_with_matching_sign_fails_the_identity(self):
        """A reduced class that is not a half, given the s_1 that makes
        v_D(a) = -b, passes the shape and sign checks; only the identity
        f - v_D^2 = (x - a) U^2 refuses it."""
        point = _g2_point()
        curve, ctx = point.curve, point.curve.ctx
        assert point.a == 5 and point.b == 4
        d = add(to_class(Point(curve, 8, 5)), to_class(Point(curve, 9, 1)))
        assert d.U.degree() == 2 and double(d) != to_class(point)
        a = ctx.from_int(5)
        s1 = (-point.b - d.V(a)) / d.U(a)
        assert (d.V + d.U * s1)(a) == -point.b  # v_D(a) = -b at g = 2
        with pytest.raises(NotAHalf, match=re.escape("f - v_D^2 != (x - a) U^2")):
            recover_tuple(d, point=point, s1=s1)

    def test_roundtrip_g2(self, curve_g2_f49):
        rng = random.Random(9)
        pt = random_point(curve_g2_f49, rng)
        for t in sqrt_tuples(pt)[:6]:
            half = mumford_from_tuple(t)
            assert recover_tuple(half).r == t.r


class TestLargePrime:
    """Square roots take base-field work only, so halving at p = 2^61 - 1 is
    quick even when some a - alpha_i is a base non-square."""

    P61 = 2**61 - 1  # = 3 (mod 4), so t^2 + 1 is irreducible

    @pytest.mark.parametrize("modulus", [[1], [1, 0, 1]], ids=["k1", "k2"])
    @pytest.mark.parametrize("g", [1, 2])
    def test_halve_within_budget(self, g, modulus):
        start = time.perf_counter()
        ctx = ctx_new(self.P61, modulus)
        k = ctx.k
        curve = curve_new(ctx, [ctx.from_coeffs([i] * k) for i in range(2 * g + 1)])
        point = None
        for n in range(2 * g + 1, 200):
            a = ctx.from_coeffs([n] + [1] * (k - 1))
            fa = curve.f(a)
            if fa.is_square() and not all((a - r).is_square() for r in curve.roots):
                point = Point(curve, a, fa.sqrt())
                break
        assert point is not None
        halves = halve(point, verify=True)
        assert len(halves) == 4**g
        assert time.perf_counter() - start < 10
