"""Prime-field rationality criteria for halves."""

import random

import pytest

from jachalf.errors import (
    InfinityInput,
    InternalInvariantViolation,
    NonRationalCurve,
    PointNotRational,
)
from jachalf.field import ctx_new
from jachalf.halving import HalfClass, halve
from jachalf.jacobian import Point, curve_new
from jachalf.rationality import (
    all_halves_rational,
    all_halves_rational_report,
    class_is_rational,
    divisible_by_two,
    divisible_by_two_report,
    frobenius_divisor,
    rational_factors,
    rational_witness,
)

from helpers import affine_points


class TestClassIsRational:
    def test_fixture_all_rational(self, p10):
        halves = halve(p10)
        assert all(class_is_rational(h) for h in halves)
        assert all(rational_witness(h) is None for h in halves)

    def test_no_rational_half_of_42(self, p42):
        halves = halve(p42)
        assert not any(class_is_rational(h) for h in halves)
        assert all(rational_witness(h) is not None for h in halves)

    def test_matches_frobenius_fixedness(self, curve_g2_f49):
        rng = random.Random(2)
        pts = affine_points(curve_g2_f49, prime_only=True)
        p = rng.choice(pts)
        for h in halve(p, verify=False):
            assert class_is_rational(h) == (frobenius_divisor(h.divisor) == h.divisor)

    def test_point_outside_prime_field(self):
        # halves whose s_i all lie in F_p although (U, V) does not
        ctx = ctx_new(5, [3, 0, 1])
        roots = [[4, 1], [0, 3], [1, 4], [1, 3], [0, 4]]
        curve = curve_new(ctx, [ctx.decode(r) for r in roots])
        point = Point(curve, ctx.decode([3, 1]), ctx.decode([2, 0]))
        halves = halve(point)
        assert any(all(si.in_prime_field() for si in h.s[:4]) for h in halves)
        for h in halves:
            coeffs = {"U": h.U.coeffs, "V": h.V.coeffs}
            rational = all(c.in_prime_field() for cs in coeffs.values() for c in cs)
            assert class_is_rational(h) == rational
            witness = rational_witness(h)
            assert (witness is None) == rational
            if witness is not None:
                name, j = witness
                assert not coeffs[name][j].in_prime_field()


    def test_disagreeing_s_and_pair_is_an_internal_error(self, p10):
        """A rational half given an s_1 outside F_p: the two criteria
        disagree, which only a bug could cause, and rational_witness says so."""
        half = halve(p10)[0]
        u = p10.curve.ctx.tower.generator()
        bent = HalfClass(half.divisor, half.tuple, (u,) + half.s[1:], half.v_d)
        with pytest.raises(InternalInvariantViolation, match="disagree"):
            rational_witness(bent)


class TestFrobeniusAction:
    def test_permutes_halves(self, curve_g2_f49):
        rng = random.Random(4)
        pts = affine_points(curve_g2_f49, prime_only=True)
        p = rng.choice(pts)
        halves = halve(p, verify=False)
        keys = {h.divisor.key() for h in halves}
        images = {frobenius_divisor(h.divisor).key() for h in halves}
        assert images == keys

    def test_rational_classes_are_fixed_points(self, p10):
        for h in halve(p10):
            assert frobenius_divisor(h.divisor) == h.divisor


class TestAllHalvesRational:
    def test_fixture_true(self, p10):
        # 1-0=1, 1-1=0, 1-6=2 are all squares mod 7
        assert all_halves_rational(p10) is True

    def test_fixture_false(self, p42):
        # 4-1=3 is a non-square mod 7
        assert all_halves_rational(p42) is False

    def test_nonrational_root_fails(self, curve_g2_f49):
        p = affine_points(curve_g2_f49, prime_only=True)[0]
        assert all_halves_rational(p) is False  # roots t, -t are outside F_7

    def test_report_names_the_root_outside_the_prime_field(self, curve_g2_f49):
        # 1 - 0, 1 - 1 and 1 - 6 are squares mod 7; the fourth root t is not in F_7
        report = all_halves_rational_report(Point(curve_g2_f49, 1, 0))
        assert report == {
            "result": False,
            "witness": {"root_index": 3, "reason": "root-not-in-prime-field"},
        }

    def test_rejects_nonrational_point(self, curve_g2_f49):
        t = curve_g2_f49.ctx.generator()
        f_t = curve_g2_f49.f(t)
        if f_t.is_square():
            p = Point(curve_g2_f49, t, f_t.sqrt())
            with pytest.raises(PointNotRational):
                all_halves_rational(p)

    @pytest.mark.parametrize("predicate", [all_halves_rational, divisible_by_two])
    def test_rejects_infinity(self, curve_g1_f7, predicate):
        with pytest.raises(InfinityInput):
            predicate(Point.infinity(curve_g1_f7))

    def test_count_equivalence(self):
        ctx = ctx_new(13, [1])
        curve = curve_new(ctx, [0, 1, 2, 5, 9])
        for p in affine_points(curve)[:12]:
            count = sum(class_is_rational(h) for h in halve(p, verify=False))
            assert all_halves_rational(p) == (count == 16)


class TestRationalFactors:
    def test_g2_fixture_factors(self, curve_g2_f49):
        # x^5 - x = x (x-1) (x+1) (x^2+1) over F_7
        factors = sorted(rational_factors(curve_g2_f49))
        assert factors == [(0, 1), (1, 0, 1), (1, 1), (6, 1)]

    def test_nonstable_roots_rejected(self, f49):
        t = f49.generator()
        curve = curve_new(f49, [f49.from_int(0), f49.from_int(1), t])
        with pytest.raises(NonRationalCurve, match=r"curve with roots \[.*\]: f does not have F_p"):
            rational_factors(curve)


class TestDivisibleByTwo:
    def test_fixture_true(self, p10):
        assert divisible_by_two(p10) is True

    def test_fixture_false_with_witness(self, p42):
        report = divisible_by_two_report(p42)
        assert report["result"] is False
        assert report["witness"]["failing_factor"] == [6, 1]  # x - 1: 3 non-square

    def test_weierstrass_quartic_factor(self, curve_g2_f49):
        """(0,0) on y^2 = x^5 - x: the component of -x at x^2+1 decides it."""
        p = Point(curve_g2_f49, 0, 0)
        report = divisible_by_two_report(p)
        assert report["weierstrass"] is True
        assert report["result"] is False
        assert report["witness"]["failing_factor"] == [6, 1]  # -1 at x - 1
        count = sum(class_is_rational(h) for h in halve(p, verify=False))
        assert count == 0

    def test_existence_equivalence(self):
        ctx = ctx_new(11, [1])
        curve = curve_new(ctx, [0, 1, 3, 5, 9])
        for p in affine_points(curve)[:14]:
            count = sum(class_is_rational(h) for h in halve(p, verify=False))
            assert divisible_by_two(p) == (count >= 1)

    def test_zero_component_counts_as_square(self, p10):
        # a = 1 is itself a root, so the component at x-1 is 0 = 0^2
        assert divisible_by_two(p10) is True

    def test_rejects_nonrational_curve(self, f49):
        t = f49.generator()
        curve = curve_new(f49, [f49.from_int(0), t, -t + 1])
        with pytest.raises(NonRationalCurve):
            divisible_by_two(Point(curve, 0, 0))
