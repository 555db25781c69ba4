"""Polynomial arithmetic over field contexts."""

import operator
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from jachalf import poly
from jachalf.errors import DivisionByZero
from jachalf.field import ctx_new
from jachalf.poly import (
    Poly,
    elementary_symmetric,
    from_payloads,
    from_roots,
    gcd,
    pdivmod,
    pxgcd,
    xgcd,
)


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

    @pytest.mark.parametrize("c", [1.5, "2", True])
    def test_non_integer_coefficient_is_refused(self, ctx, c):
        for field in (ctx, ctx.tower):
            with pytest.raises(TypeError, match=re.escape(repr(c))):
                Poly(field, [c, 1])
        # comparing with any int, a bool included, still gives a bool
        assert (Poly(ctx, [1]) == True) is True and (Poly(ctx, [1, 1]) == True) is False

    def test_monic(self, ctx):
        q = Poly(ctx, [2, 4]).monic()
        assert q.is_monic() and q == Poly(ctx, [4, 1])  # 2/4 = 2*2 = 4

    def test_product_example(self, ctx):
        # (x-4)^2 = x^2 - x + 2 over F_7
        xm4 = Poly(ctx, [-4, 1])
        assert xm4 * xm4 == Poly(ctx, [2, -1, 1])

    @pytest.mark.parametrize(
        "op, other",
        [(operator.add, "a"), (operator.sub, 1.5), (operator.mul, None), (operator.truediv, [])],
    )
    def test_foreign_operand_raises_type_error(self, ctx, op, other):
        for p in (Poly(ctx, [3, 1]), Poly(ctx.tower, [ctx.tower.generator(), 1])):
            with pytest.raises(TypeError):
                op(p, other)
            with pytest.raises(TypeError):
                op(other, p)

    def test_equality_with_foreign_values(self, ctx):
        p = Poly(ctx, [3, 1])
        assert (p == "a") is False and (p != "a") is True
        assert p != Poly(ctx_new(11, [1]), [3, 1]) and Poly(ctx, [3]) != ctx_new(11, [1]).from_int(3)

    def test_reflected_operators(self, ctx):
        p = Poly(ctx, [1, 1])
        assert 3 - p == Poly(ctx, [2, -1]) and (3 - p).field is ctx
        assert ctx.from_int(3) - p == Poly(ctx, [2, -1])
        xm4 = Poly(ctx, [-4, 1])
        square = Poly(ctx, [2, -1, 1])  # (x - 4)^2
        assert square // xm4 == xm4 and (square % xm4).is_zero()
        assert (square + 1) // xm4 == xm4 and square // 2 == Poly(ctx, [1, 3, 4])

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


class TestHashing:
    """Polynomials hash like the values they compare equal to."""

    def test_constants_hash_as_their_coefficient(self):
        c, f49 = ctx_new(7, [1]), ctx_new(7, [1, 0, 1])
        u, t = c.tower.generator(), f49.generator()
        groups = [  # values that are all equal to one another
            [Poly(c, [3]), Poly(c.tower, [3]), c.from_int(3), c.tower.from_int(3), 3],
            [Poly(c.tower, [u]), Poly(c, [u, 0]), u, ctx_new(7, [1]).tower.generator()],
            [Poly(f49, [t]), Poly(f49.tower, [t]), t],
            [Poly.zero(c), Poly.zero(c.tower), Poly(c, [0, 0]), c.zero(), c.tower.zero(), 0],
            [Poly.zero(f49), Poly.zero(f49.tower), f49.zero(), 0],
        ]
        for group in groups:
            assert all(a == b for a in group for b in group)
            assert len({hash(v) for v in group}) == 1

    def test_longer_polynomials_hash_by_lowest_field(self):
        c1, c2, f49 = ctx_new(7, [1]), ctx_new(7, [1]), ctx_new(7, [1, 0, 1])
        t = f49.generator()
        groups = [
            [Poly(c1, [3, 1]), Poly(c2, [3, 1]), Poly(c1.tower, [3, 1]), Poly(c2.tower, [3, 1])],
            [Poly(c1.tower, [c1.tower.generator(), 1]), Poly(c2, [c2.tower.generator(), 1])],
            [Poly(f49, [t, 0, 1]), Poly(f49.tower, [t, 0, 1])],
        ]
        for group in groups:
            assert all(a == b for a in group for b in group)
            assert len({hash(v) for v in group}) == 1
        assert len({Poly(c1, [3, 1]), Poly(c1, [3, 1]), Poly(c1, [1, 3])}) == 2


class TestDivmod:
    def test_example(self, ctx):
        a = Poly(ctx, [0, -1, 0, 1])  # x^3 - x
        b = Poly(ctx, [-4, 1])
        q, r = divmod(a, b)
        assert q == Poly(ctx, [1, 4, 1])
        assert r == Poly(ctx, [4])  # remainder theorem: a(4) = 60 = 4

    @pytest.mark.parametrize("other", ["a", 1.5, None])
    def test_foreign_divisor_raises_type_error(self, ctx, other):
        p = Poly(ctx, [3, 1])
        for op in (divmod, operator.floordiv, operator.mod):
            with pytest.raises(TypeError):
                op(p, other)

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

    def test_gcd_runs_on_the_kernel(self, ctx, monkeypatch):
        # a trace of gcd shows no xgcd span inside it
        def traced_xgcd(a, b):
            raise AssertionError("gcd called the public xgcd")

        monkeypatch.setattr(poly, "xgcd", traced_xgcd)
        a, b = Poly(ctx, [6, 5, 1]), Poly(ctx, [6, 1])  # (x + 3)(x + 2) and x - 1
        assert gcd(a, b) == 1 and gcd(a, Poly(ctx, [4, 2])) == Poly(ctx, [2, 1])
        assert gcd(Poly.zero(ctx), Poly.zero(ctx)).is_zero()


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


P61 = 2**61 - 1
KERNEL_FIELDS = {  # name -> builds the field object
    "F13": lambda: ctx_new(13, [1]),
    "F_2^61-1": lambda: ctx_new(P61, [1]),
    "F5^3": lambda: ctx_new(5, [1, 1, 0, 1]),  # t^3 + t + 1
    "F7^2": lambda: ctx_new(7, [3, 1, 1]),  # t^2 + t + 3
    "F13^2": lambda: ctx_new(13, [1]).tower,
    "F5^6": lambda: ctx_new(5, [1, 1, 0, 1]).tower,
    "F7^4": lambda: ctx_new(7, [3, 1, 1]).tower,
    "F_(2^61-1)^2": lambda: ctx_new(P61, [1, 0, 1]),  # t^2 + 1
    "F_(2^61-1)^4": lambda: ctx_new(P61, [1, 0, 1]).tower,
}


def _random_payloads(F, rng, n, lead=None):
    """n random payloads of F, the last one nonzero (or lead when given)."""
    def draw():
        return F._from_index(rng.randrange(F.q))

    out = [draw() for _ in range(n)]
    if n:
        out[-1] = lead if lead is not None else draw()
        while out[-1] == F._zero:
            out[-1] = draw()
    return out


def _ints(x):
    """The ints of a payload, or of a list of payloads, in order."""
    if isinstance(x, int):
        yield x
    else:
        for y in x:
            yield from _ints(y)


def _schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _check_identity(F, lhs, rhs, rng):
    """lhs = rhs for two lists of factor lists: sum of products, compared
    as ints mod p for k = 1 and else at deg + 1 distinct points."""
    p = F.p
    if F.base is F and F.k == 1:
        def total(terms):
            acc = {}
            for factors in terms:
                prod = [1]
                for f in factors:
                    prod = _schoolbook(prod, f, p)
                for i, c in enumerate(prod):
                    acc[i] = (acc.get(i, 0) + c) % p
            return {i: c for i, c in acc.items() if c}

        assert total(lhs) == total(rhs)
        return
    deg = max(sum(len(f) for f in factors) for factors in lhs + rhs)
    indices = set()  # distinct; rng.sample cannot take a range of q > 2^63
    while len(indices) <= deg:
        indices.add(rng.randrange(F.q))
    points = [F.elem(F._from_index(i)) for i in sorted(indices)]

    def value(terms, x):
        acc = F.zero()
        for factors in terms:
            prod = F.one()
            for f in factors:
                prod = prod * from_payloads(F, f)(x)
            acc = acc + prod
        return acc

    for x in points:
        assert value(lhs, x) == value(rhs, x)


@pytest.mark.parametrize("name", list(KERNEL_FIELDS))
class TestKernels:
    """The payload kernels, checked against arithmetic computed independently."""

    def test_mul(self, name):
        F, rng = KERNEL_FIELDS[name](), random.Random(name)
        for _ in range(40):
            a = _random_payloads(F, rng, rng.randrange(0, 7))
            b = _random_payloads(F, rng, rng.randrange(0, 7))
            prod = F.polymul(a, b)
            assert len(prod) == (len(a) + len(b) - 1 if a and b else 0)
            assert all(0 <= c < F.p for c in _ints(prod))  # reduced payloads
            if F.base is F and F.k == 1:
                assert prod == _schoolbook(a, b, F.p)
            _check_identity(F, [[prod]], [[a, b]], rng)

    @pytest.mark.parametrize("monic", [True, False])
    def test_divmod(self, name, monic):
        F, rng = KERNEL_FIELDS[name](), random.Random(f"{name}/{monic}")
        for _ in range(40):
            a = _random_payloads(F, rng, rng.randrange(0, 9))
            lead = F._one if monic else None
            b = _random_payloads(F, rng, rng.randrange(1, 5), lead)
            while not monic and b[-1] == F._one:
                b = _random_payloads(F, rng, len(b))
            q, r = pdivmod(F, a, b)
            assert len(r) < len(b) and (not r or r[-1] != F._zero)
            _check_identity(F, [[a]], [[q, b], [r]], rng)

    def test_xgcd(self, name):
        F, rng = KERNEL_FIELDS[name](), random.Random(name)
        for _ in range(30):
            shared = _random_payloads(F, rng, rng.randrange(1, 3))
            a = F.polymul(shared, _random_payloads(F, rng, rng.randrange(0, 5)))
            b = F.polymul(shared, _random_payloads(F, rng, rng.randrange(0, 5)))
            g, s, t = pxgcd(F, a, b)
            if a or b:
                assert g[-1] == F._one and len(g) >= len(shared)
                assert not pdivmod(F, a, g)[1] and not pdivmod(F, b, g)[1]
            _check_identity(F, [[s, a], [t, b]], [[g]], rng)
