"""Polynomial arithmetic over field contexts."""

import pytest
from hypothesis import given, settings, strategies as st

from jachalf.errors import DivisionByZero
from jachalf.field import ctx_new
from jachalf.poly import Poly, elementary_symmetric, from_roots, gcd, xgcd


@pytest.fixture(scope="module")
def ctx():
    return ctx_new(7, [1])


def poly_strategy(ctx, max_deg=6):
    return st.lists(
        st.integers(min_value=0, max_value=ctx.p - 1), min_size=0, max_size=max_deg + 1
    ).map(lambda cs: Poly(ctx, cs))


class TestBasics:
    def test_trailing_zeros_trimmed(self, ctx):
        assert Poly(ctx, [1, 2, 0, 0]).degree() == 1

    def test_zero_degree_sentinel(self, ctx):
        assert Poly.zero(ctx).degree() == -1
        assert Poly.zero(ctx).is_zero()

    def test_monic(self, ctx):
        q = Poly(ctx, [2, 4]).monic()
        assert q.is_monic() and q == Poly(ctx, [4, 1])  # 2/4 = 2*2 = 4

    def test_product_example(self, ctx):
        # (x-4)^2 = x^2 - x + 2 over F_7
        xm4 = Poly(ctx, [-4, 1])
        assert xm4 * xm4 == Poly(ctx, [2, -1, 1])

    def test_mixed_operands_across_two_contexts(self):
        # two context objects for the same field F_7; u^2 = v^2 = 3
        c1, c2 = ctx_new(7, [1]), ctx_new(7, [1])
        u, v = c1.tower.generator(), c2.tower.generator()
        b1, b2 = Poly(c1, [3, 1]), Poly(c2, [3, 1])  # x + 3
        t1, t2 = Poly(c1.tower, [u, 1]), Poly(c2.tower, [v, 1])  # x + u
        cases = [  # a, b, field of the result, encodings of a + b and a * b
            (b1, t2, c2.tower, [[[3], [1]], [2]], [[[0], [3]], [[3], [1]], [1]]),
            (t1, b2, c1.tower, [[[3], [1]], [2]], [[[0], [3]], [[3], [1]], [1]]),
            (t1, t2, c1.tower, [[[0], [2]], [2]], [[3], [[0], [2]], [1]]),
            (b1, b2, c1, [[6], [2]], [[2], [6], [1]]),
        ]
        for a, b, field, total, product in cases:
            assert (a + b).field is field and (a * b).field is field
            assert (a + b).encode() == total and (a * b).encode() == product
            assert (b + a).encode() == total and (b * a).encode() == product
        assert b1 == b2 and t1 == t2 and t1 != b2
        assert Poly(c1.tower, [3, 1]) == b2 and b1 == Poly(c2.tower, [3, 1])
        assert Poly(c1, [v, 1]).field is c2.tower and Poly(c1, [v, 1]) == t1

    def test_equals_a_field_element_both_ways(self):
        c, other = ctx_new(7, [1]), ctx_new(11, [1])
        u = c.tower.generator()
        cases = [  # polynomial, element, equal
            (Poly(c, [3]), c.from_int(3), True),
            (Poly(c, [3]), c.from_int(4), False),
            (Poly(c, [3]), c.tower.from_int(3), True),
            (Poly(c.tower, [u]), u, True),
            (Poly(c.tower, [u]), c.from_int(3), False),
            (Poly(c, [3, 1]), c.from_int(3), False),
            (Poly(c, [3]), other.from_int(3), False),
        ]
        for poly, elem, equal in cases:
            assert (poly == elem) is equal and (elem == poly) is equal
            assert (poly != elem) is not equal and (elem != poly) is not equal


class TestDivmod:
    def test_example(self, ctx):
        a = Poly(ctx, [0, -1, 0, 1])  # x^3 - x
        b = Poly(ctx, [-4, 1])
        q, r = divmod(a, b)
        assert q == Poly(ctx, [1, 4, 1])
        assert r == Poly(ctx, [4])  # remainder theorem: a(4) = 60 = 4

    def test_divide_by_zero(self, ctx):
        with pytest.raises(DivisionByZero):
            divmod(Poly(ctx, [1]), Poly.zero(ctx))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, ctx, data):
        a = data.draw(poly_strategy(ctx))
        b = data.draw(poly_strategy(ctx))
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()


class TestXgcd:
    def test_coprime_linears(self, ctx):
        g, s, t = xgcd(Poly(ctx, [-1, 1]), Poly(ctx, [-2, 1]))
        assert g == Poly(ctx, [1])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bezout(self, ctx, data):
        a = data.draw(poly_strategy(ctx))
        b = data.draw(poly_strategy(ctx))
        g, s, t = xgcd(a, b)
        assert s * a + t * b == g
        if not g.is_zero():
            assert g.is_monic()
            assert (a % g).is_zero() and (b % g).is_zero()

    def test_gcd_of_shared_factor(self, ctx):
        shared = Poly(ctx, [3, 1])
        assert gcd(shared * Poly(ctx, [1, 1]), shared * Poly(ctx, [2, 1])) == shared


class TestEval:
    def test_horner(self, ctx):
        f = Poly(ctx, [0, -1, 0, 1])
        assert f(ctx.from_int(4)) == 4
        assert f(ctx.from_int(0)) == 0

    def test_constant_term(self, ctx):
        f = Poly(ctx, [5, 3, 1])
        assert f(ctx.from_int(0)) == 5

    def test_compose(self, ctx):
        f = Poly(ctx, [0, 0, 1])  # x^2
        inner = Poly(ctx, [1, 1])  # x + 1
        assert f.compose(inner) == Poly(ctx, [1, 2, 1])
        with pytest.raises(TypeError):
            f(inner)


class TestFromRootsAndSymmetric:
    def test_cubic_example(self, ctx):
        f = from_roots(ctx, [0, 1, 6])
        assert f == Poly(ctx, [0, -1, 0, 1])  # x^3 - x

    def test_empty_product(self, ctx):
        assert from_roots(ctx, []) == Poly(ctx, [1])

    def test_single_root(self, ctx):
        assert from_roots(ctx, [5]) == Poly(ctx, [-5, 1])

    def test_symmetric_examples(self, ctx):
        s = elementary_symmetric(ctx, [1, 0, 3])
        assert [si.as_prime_int() for si in s] == [4, 3, 0]
        s = elementary_symmetric(ctx, [2, 5])
        assert [si.as_prime_int() for si in s] == [0, 3]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_duality(self, ctx, data):
        vals = data.draw(
            st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6)
        )
        els = [ctx.from_int(v) for v in vals]
        f = from_roots(ctx, els)
        s = elementary_symmetric(ctx, els)
        n = len(els)
        for i in range(1, n + 1):
            assert f.coeffs[n - i] == ctx.from_int((-1) ** i) * s[i - 1]
        for v in els:
            assert f(v).is_zero()
