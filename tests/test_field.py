"""Field tower arithmetic: contexts, axioms, square roots, Frobenius."""

import collections
import itertools
import operator
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from jachalf.errors import (
    CharacteristicTwo,
    CtxMismatch,
    DivisionByZero,
    NotPrime,
    ReducibleModulus,
    TowerExhausted,
)
from jachalf.field import _is_odd_prime, ctx_new


@pytest.fixture(scope="module")
def f27():
    # F_27 = F_3[t]/(t^3 - t - 1)
    return ctx_new(3, [2, 2, 0, 1])


@pytest.fixture(scope="module")
def f49t():
    # F_49 = F_7[t]/(t^2 + t + 3), discriminant 1 - 12 = 3, a non-square mod 7:
    # the k = 2 modulus whose t term runs the c1 terms of product and inverse
    return ctx_new(7, [3, 1, 1])


class TestCtxNew:
    def test_prime_field(self, f7):
        assert f7.k == 1 and f7.q == 7 and f7.q2 == 49

    def test_quadratic_extension(self, f49):
        assert f49.k == 2 and f49.q == 49
        t = f49.generator()
        assert t * t == -1

    def test_modulus_one_means_prime_field(self):
        assert ctx_new(11, [1]).k == 1

    def test_rejects_two(self):
        with pytest.raises(CharacteristicTwo):
            ctx_new(2, [1])

    def test_rejects_composite(self):
        with pytest.raises(NotPrime):
            ctx_new(15, [1])

    def test_rejects_oversized_prime(self):
        with pytest.raises(NotPrime):
            ctx_new(2**89 - 1, [1])

    def test_rejects_reducible_modulus(self):
        # x^2 - 2 = (x - 3)(x + 3) over F_7
        with pytest.raises(ReducibleModulus):
            ctx_new(7, [5, 0, 1])

    def test_rejects_non_monic_modulus(self):
        with pytest.raises(ReducibleModulus):
            ctx_new(7, [1, 0, 3])

    def test_smallest_nonsquare_found(self, f7, f49):
        assert f7.nonsquare == 3  # squares mod 7 are {0,1,2,4}
        assert not f49.elem(f49.nonsquare).is_square()

    def test_ctx_mismatch_between_fields(self, f7, f49):
        with pytest.raises(CtxMismatch):
            f7.from_int(1) + f49.from_int(1)

    @pytest.mark.parametrize("n", [1.5, 2.5, "3", True])
    def test_from_int_refuses_non_integers(self, f7, n):
        for field in (f7, f7.tower):
            with pytest.raises(TypeError, match=re.escape(repr(n))):
                field.from_int(n)
        # comparing with any int, a bool included, still gives a bool
        assert (f7.from_int(1) == True) is True and (f7.from_int(2) == True) is False


class TestDegreeOneModulus:
    """Every monic degree-1 modulus gives F_p itself, as [1] does."""

    MODULI = [[3, 1], [13, 1], [-1, 1]]

    @pytest.mark.parametrize("modulus", MODULI)
    def test_mixes_with_the_prime_field(self, f7, modulus):
        c = ctx_new(7, modulus)
        assert c.modulus == f7.modulus and c.same_field(f7)
        x, y = f7.from_int(2), c.from_int(3)
        assert (x + y).encode() == [5] and (x + y).field is f7
        assert (y * x).encode() == [6] and (y * x).field is c
        assert (x + c.tower.generator()).field is c.tower

    @pytest.mark.parametrize("modulus", MODULI)
    def test_equal_values_compare_equal(self, f7, modulus):
        c = ctx_new(7, modulus)
        assert c.from_int(4) == f7.from_int(4) and f7.from_int(4) == c.from_int(4)
        assert c.tower.generator() == f7.tower.generator()
        assert c.from_int(4) != f7.from_int(5)

    @pytest.mark.parametrize("modulus", MODULI)
    def test_generator_is_a_root_of_the_modulus(self, modulus):
        c = ctx_new(7, modulus)
        t = c.generator()
        assert sum(m * t**i for i, m in enumerate(c.modulus)) == 0


def _monic_moduli(p, k):
    """Every monic polynomial of degree k over F_p, low-to-high."""
    return [list(low) + [1] for low in itertools.product(range(p), repeat=k)]


def _has_factor(m, p, d):
    """Whether some monic polynomial of degree d divides m, by trial division."""
    for f in _monic_moduli(p, d):
        r = list(m)
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i]
            for j in range(d + 1):
                r[i - d + j] = (r[i - d + j] - c * f[j]) % p
        if not any(r[:d]):
            return True
    return False


class TestIrreducibility:
    @pytest.mark.parametrize(
        "p, counts",
        [(3, [3, 8, 18, 48, 116]), (5, [10, 40, 150]), (7, [21, 112])],
    )
    def test_accepts_exactly_the_irreducible_moduli(self, p, counts):
        # Gauss's counts of monic irreducibles of degree 2, 3, ... over F_p; the
        # reducible ones include splits such as 5 = 2 + 3, degrees not dividing k
        for k, count in enumerate(counts, 2):
            accepted = 0
            for m in _monic_moduli(p, k):
                irreducible = not any(_has_factor(m, p, d) for d in range(1, k // 2 + 1))
                try:
                    ctx_new(p, m)
                except ReducibleModulus:
                    assert not irreducible, m
                else:
                    accepted += 1
                    assert irreducible, m
            assert accepted == count

    @pytest.mark.parametrize("p, k", [(3, 50), (2**61 - 1, 16)])
    def test_degree_bound(self, p, k):
        # the largest degree within k^3 * bits(p) <= 2^18 reaches the
        # irreducibility test; the next one is refused before it
        with pytest.raises(ReducibleModulus, match="not irreducible"):
            ctx_new(p, [0] * k + [1])
        with pytest.raises(ReducibleModulus, match=f"degree {k + 1} .* too large"):
            ctx_new(p, [0] * (k + 1) + [1])


class TestPrimality:
    def test_agrees_with_a_sieve_below_10_5(self):
        n = 10**5
        sieve = [False, False] + [True] * (n - 2)
        for i in range(2, int(n**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(range(i * i, n, i))
        sieve[2] = False  # odd primes only
        assert [m for m in range(n) if _is_odd_prime(m) != sieve[m]] == []

    @pytest.mark.parametrize(
        "n, prime",
        [
            (3825123056546413051, False),  # strong pseudoprime to each prime base <= 31
            (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5 and 7
            (561, False),  # Carmichael number
            (2**61 - 1, True),
            (2**62 - 57, True),  # the largest prime below 2^62
        ],
    )
    def test_hard_cases(self, n, prime):
        assert _is_odd_prime(n) is prime

    @pytest.mark.parametrize(
        "p, error, message",
        [
            (2**62, NotPrime, "machine-word bound"),
            (2**89 - 1, NotPrime, "machine-word bound"),
            (2, CharacteristicTwo, "characteristic 2"),
        ],
    )
    def test_ctx_new_refuses(self, p, error, message):
        with pytest.raises(error, match=message):
            ctx_new(p, [1])

    def test_ctx_new_accepts_the_largest_prime_below_the_bound(self):
        assert ctx_new(2**62 - 57, [1]).p == 2**62 - 57


class TestArithmetic:
    def test_examples_mod_7(self, f7):
        three, five = f7.from_int(3), f7.from_int(5)
        assert (three + five) == 1
        assert (three * five) == 1
        assert (three - five) == 5
        assert (three / five) == 2  # 5^-1 = 3, 3*3 = 9 = 2

    def test_division_by_zero(self, f7):
        with pytest.raises(DivisionByZero):
            f7.from_int(1) / f7.from_int(0)

    @pytest.mark.parametrize("name", ["f49t", "tower of F_7", "f27"])
    def test_inverse_of_zero(self, f7, f49t, f27, name):
        # F_{p^2} and the tower of F_p on _quadratic, and F_{p^3}
        field = {"f49t": f49t, "tower of F_7": f7.tower, "f27": f27}[name]
        with pytest.raises(DivisionByZero):
            field.zero().inverse()
        with pytest.raises(DivisionByZero):
            1 / field.zero()

    @pytest.mark.parametrize(
        "op, other",
        [(operator.add, "a"), (operator.sub, 1.5), (operator.mul, None), (operator.truediv, [])],
    )
    def test_foreign_operand_raises_type_error(self, f7, f49, op, other):
        for x in (f7.from_int(3), f49.generator(), f7.tower.generator()):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)

    def test_equality_with_foreign_values(self, f7, f49):
        x = f7.from_int(3)
        assert (x == "a") is False and (x != "a") is True
        assert x != ctx_new(11, [1]).from_int(3) and x != f49.from_int(3)
        assert not (f49.generator() == ctx_new(7, [3, 1, 1]).generator())

    def test_reflected_operators(self, f7, f49):
        x = f7.from_int(5)
        assert 3 - x == 5 and (3 - x).field is f7  # 3 - 5 = -2
        assert 3 / x == 2  # 5^-1 = 3
        t = f49.generator()
        assert 3 - t == f49.from_coeffs([3, 6]) and 1 / t == -t  # t^2 = -1
        assert bool(x) and not bool(f7.zero()) and not bool(f49.tower.zero())
        assert bool(f7.tower.generator())

    def test_foreign_operand_over_zero_is_a_type_error(self, f7):
        with pytest.raises(TypeError):
            [] / f7.zero()
        with pytest.raises(DivisionByZero):
            3 / f7.zero()

    def test_pow_negative_exponent(self, f49):
        x = f49.generator() + 2
        assert x ** (-3) == (x**3).inverse()

    @pytest.mark.parametrize("e", [2.5, "2", True, None])
    def test_non_integer_exponent_is_refused(self, f7, f49, e):
        for x in (f7.from_int(3), f49.generator() + 2, f7.tower.generator()):
            with pytest.raises(TypeError, match=f"exponent must be an integer, got {re.escape(repr(e))}"):
                x**e
            assert x**2 == x * x and x**-1 == 1 / x and x**0 == 1

    def test_cross_level_coercion(self, f49):
        x = f49.from_int(3)
        u = f49.tower.generator()
        assert (x + u) - u == f49.tower.from_int(3)
        assert (x + u).field is f49.tower

    def test_mixed_operands_across_two_contexts(self):
        # two context objects for the same field F_7; u^2 = v^2 = 3
        c1, c2 = ctx_new(7, [1]), ctx_new(7, [1])
        x, y = c1.from_int(3), c2.from_int(5)
        u, v = c1.tower.generator(), c2.tower.generator()
        cases = [  # a, b, field of the result, encodings of a + b and a * b
            (x, v, c2.tower, [[3], [1]], [[0], [3]]),  # base x tower
            (u, y, c1.tower, [[5], [1]], [[0], [5]]),  # tower x base
            (u, v, c1.tower, [[0], [2]], [3]),  # tower x tower
            (x, y, c1, [1], [1]),  # base x base
        ]
        for a, b, field, total, product in cases:
            assert (a + b).field is field and (a * b).field is field
            assert (a + b).encode() == total and (a * b).encode() == product
            assert (b + a).encode() == total and (b * a).encode() == product
        assert x == c2.from_int(3) and u == v
        assert c1.tower.from_int(3) == c2.from_int(3) and x == c2.tower.from_int(3)
        assert u != c2.from_int(3) and x != v


class TestHashing:
    """Values that compare equal hash equal, whatever their field object."""

    def test_prime_field_values_hash_as_ints(self, f7, f49):
        for c in (f7, f49):  # k = 1 and k = 2
            for n in range(7):
                x, y = c.from_int(n), c.tower.from_int(n)
                assert x == n and y == n and x == y
                assert hash(x) == hash(y) == hash(n)
                assert len({x, y, n}) == 1

    def test_two_context_objects(self):
        c1, c2 = ctx_new(7, [1]), ctx_new(7, [1])
        u, v = c1.tower.generator(), c2.tower.generator()
        assert u == v and hash(u) == hash(v)
        assert len({u, v, c1.tower.from_int(3), c2.from_int(3), 3}) == 2

    def test_ints_equal_mod_p_but_hash_only_in_range(self, f7):
        x = f7.from_int(3)
        assert x == 3 and hash(x) == hash(3) and len({x, 3}) == 1
        # equality reduces an int mod p; hashing cannot
        assert x == 10 and x == -4
        assert len({x, 10}) == 2 and len({x, -4}) == 2

    def test_values_outside_the_prime_field(self, f49):
        t = f49.generator()
        lifted = t + f49.tower.zero()  # t as a tower payload
        assert lifted.field is f49.tower and lifted == t
        assert hash(lifted) == hash(t) and len({t, lifted}) == 1
        assert len({f49.tower.generator(), t, -t, 1}) == 4

    def test_equal_implies_equal_hash_f625(self, f25):
        by_value = {}  # the base elements and every tower element, by encoding
        for x in list(f25.elements()) + list(f25.tower.elements()):
            by_value.setdefault(repr(x.encode()), []).append(x)
        assert len(by_value) == 625
        for group in by_value.values():
            assert len({hash(x) for x in group}) == 1


def _elements(ctx):
    return st.integers(min_value=0, max_value=ctx.q2 - 1).map(
        lambda i: ctx.tower.elem(ctx.tower._from_index(i))
    )


@pytest.fixture(scope="module")
def f25():
    return ctx_new(5, [3, 0, 1])


def _check_axioms(ctx, data):
    x = data.draw(_elements(ctx))
    y = data.draw(_elements(ctx))
    z = data.draw(_elements(ctx))
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    if not x.is_zero():
        assert x * x.inverse() == ctx.tower.one()


class TestAxioms:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_field_axioms_f625(self, f25, data):
        _check_axioms(f25, data)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_field_axioms_f2401_with_t_term(self, f49t, data):
        _check_axioms(f49t, data)

    def test_inverse_everywhere(self, f27):
        for x in f27.elements():
            if not x.is_zero():
                assert x * x.inverse() == 1

    def test_inverse_everywhere_with_t_term(self, f49t):
        for x in list(f49t.elements()) + list(f49t.tower.elements()):
            if not x.is_zero():
                assert x * x.inverse() == 1


# the basis 1, t, u, tu of F_{p^4} = F_p[t, u]/(m(t), u^2 - ns(t)), as the
# exponents (i, j) of t^i u^j, in the order of a flattened tower payload
_BASIS4 = ((0, 0), (1, 0), (0, 1), (1, 1))


def _quartic_oracle(p, modulus, ns):
    """The product of F_{p^4} = F_p[t, u]/(t^2 + m1 t + m0, u^2 - n0 - n1 t)
    on coordinate 4-vectors over (1, t, u, tu), in plain ints: the product
    polynomial in t and u, reduced by u^2 and then by t^2, top power first."""
    m0, m1, _ = modulus
    n0, n1 = ns

    def mul(a, b):
        c = collections.defaultdict(int)
        for (i, j), x in zip(_BASIS4, a):
            for (k, l), y in zip(_BASIS4, b):
                c[i + k, j + l] += x * y
        for i in range(3):  # t^i u^2 = t^i (n0 + n1 t)
            v = c.pop((i, 2), 0)
            c[i, 0] += n0 * v
            c[i + 1, 0] += n1 * v
        for i in (3, 2):  # t^i u^j = t^(i-2) u^j (-m0 - m1 t)
            for j in (0, 1):
                v = c.pop((i, j), 0)
                c[i - 2, j] -= m0 * v
                c[i - 1, j] -= m1 * v
        return [c[key] % p for key in _BASIS4]

    return mul


class TestQuarticProduct:
    """The F_{p^4} product against _quartic_oracle, which calls no field
    op: the context gives only its modulus and its non-square ns."""

    @staticmethod
    def _check(ctx, pairs):
        T, oracle = ctx.tower, _quartic_oracle(ctx.p, ctx.modulus, ctx.nonsquare)
        for a, b in pairs:
            (a00, a01), (a10, a11) = a
            (b00, b01), (b10, b11) = b
            (c00, c01), (c10, c11) = T.mul(a, b)
            assert [c00, c01, c10, c11] == oracle([a00, a01, a10, a11], [b00, b01, b10, b11])

    @staticmethod
    def _random_pairs(p, n, seed):
        rng = random.Random(seed)

        def draw():
            return tuple(tuple(rng.randrange(p) for _ in range(2)) for _ in range(2))

        return [(draw(), draw()) for _ in range(n)]

    def test_every_pair_over_f81(self):
        ctx = ctx_new(3, [1, 0, 1])  # t^2 + 1
        values = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(3), repeat=4)]
        self._check(ctx, itertools.product(values, values))

    def test_random_pairs_with_t_term(self, f49t):
        # t^2 + t + 3: the t term of the modulus runs the c1 terms
        assert f49t.modulus[1] != 0 and f49t.nonsquare[1] != 0
        self._check(f49t, self._random_pairs(7, 2000, 7))

    def test_random_pairs_at_large_prime(self):
        p = 2**61 - 1
        self._check(ctx_new(p, [1, 0, 1]), self._random_pairs(p, 2000, 61))


def _check_sqrt_squares_back(ctx):
    for x in ctx.elements():
        s = x.sqrt()
        assert s * s == x
        # the root stays in the base field exactly for base-field squares
        assert (s.field is ctx) == x.is_square()


class TestSqrt:
    def test_canonical_roots_mod_7(self, f7):
        assert f7.from_int(4).sqrt() == 2  # min(2, 5)
        assert f7.from_int(2).sqrt() == 3  # min(3, 4)

    def test_nonsquare_promotes_to_tower(self, f7):
        s = f7.from_int(3).sqrt()
        assert s.field is f7.tower
        assert s * s == 3

    def test_tower_exhausted(self, f49):
        # a non-square of F_{49^2} has no root inside the tower
        for i in range(1, f49.q2):
            x = f49.tower.elem(f49.tower._from_index(i))
            if not x.is_square():
                with pytest.raises(TowerExhausted):
                    x.sqrt()
                break

    def test_sqrt_squares_back_everywhere(self, f25):
        _check_sqrt_squares_back(f25)

    def test_sqrt_squares_back_everywhere_with_t_term(self, f49t):
        _check_sqrt_squares_back(f49t)

    def test_euler_criterion_matches_brute_force(self, f27):
        squares = {(x * x).payload for x in f27.elements()}
        for x in f27.elements():
            assert x.is_square() == (x.payload in squares)

    @pytest.mark.parametrize(
        "p, modulus", [(7, [1]), (13, [1]), (7, [1, 0, 1])], ids=["F7^2", "F13^2", "F49^2"]
    )
    def test_quad_level_against_euler(self, p, modulus):
        ctx = ctx_new(p, modulus)
        e = (ctx.q2 - 1) // 2
        for x in ctx.tower.elements():
            euler = x.is_zero() or x**e == 1
            assert x.is_square() == euler
            if euler:
                s = x.sqrt()
                assert s * s == x
                assert s == min(s, -s, key=lambda y: y.encode())
            else:
                with pytest.raises(TowerExhausted):
                    x.sqrt()

    def test_tonelli_shanks_branch(self):
        # q = 25 = 1 mod 4 exercises the full Tonelli-Shanks loop
        ctx = ctx_new(5, [3, 0, 1])
        for x in ctx.elements():
            if x.is_square() and not x.is_zero():
                s = x.sqrt()
                assert s * s == x


class TestFrobenius:
    def test_fixes_prime_field(self, f7):
        assert f7.from_int(5).frobenius() == 5

    def test_moves_generator(self, f49):
        t = f49.generator()
        assert t.frobenius() == -t  # t^7 = t * (t^2)^3 = -t
        assert (t * t).frobenius() == t * t

    def test_homomorphism(self, f27):
        xs = list(f27.elements())
        for x in xs[::5]:
            for y in xs[::7]:
                assert (x * y).frobenius() == x.frobenius() * y.frobenius()
                assert (x + y).frobenius() == x.frobenius() + y.frobenius()

    def test_iterate_k_fixes_base(self, f27):
        for x in f27.elements():
            y = x
            for _ in range(f27.k):
                y = y.frobenius()
            assert y == x

    def test_in_prime_field_matches_frobenius(self, f49):
        for x in f49.elements():
            assert x.in_prime_field() == (x.frobenius() == x)


class TestEncoding:
    def test_base_roundtrip(self, f49):
        x = f49.from_coeffs([3, 5])
        assert x.encode() == [3, 5]
        assert f49.decode([3, 5]) == x

    def test_quad_demotes_on_encode(self, f7):
        x = f7.tower.from_int(4)
        assert x.encode() == [4]

    def test_quad_form_with_zero_u_decodes_to_base(self, f7, f49):
        x = f7.decode([[3], [0]])
        assert x.field is f7 and x == 3
        y = f49.decode([[3, 1], [0, 0]])
        assert y.field is f49 and y == f49.from_coeffs([3, 1])

    def test_quad_roundtrip(self, f7):
        u = f7.tower.generator()
        x = 2 + 3 * u
        assert x.encode() == [[2], [3]]
        assert f7.decode([[2], [3]]) == x

    def test_bad_encoding_rejected(self, f7):
        with pytest.raises(ValueError):
            f7.decode("3")
        with pytest.raises(ValueError):
            f7.decode([[1], [2], [3]])

    def test_as_prime_int(self, f49):
        assert f49.from_int(6).as_prime_int() == 6
        with pytest.raises(ValueError):
            f49.generator().as_prime_int()
